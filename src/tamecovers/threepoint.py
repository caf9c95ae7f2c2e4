"""The unique normalized genus-0 single-cycle cover with three branch points.

For a type (d; e1, e2, e3) the normalized cover f satisfies f = y^e1 A / B
and f - 1 = (y-1)^e2 C / B for polynomials A, B, C of degrees d-e1, d-e3,
d-e2.  Equating the two expressions gives the linear identity

    B = y^e1 * A - (y-1)^e2 * C

so B is fixed by A and C, and the only constraints are that the right side
has no terms of degree d-e3+1 .. d: a linear system of e3 equations in the
e3+1 coefficients of A and C.  Its kernel is the kernel of the full
coefficient matching in A, B, C, projected onto (A, C), so the two have
the same dimension.  Uniqueness of the cover forces the kernel to be
one-dimensional whenever the cover exists; the kernel vector is scaled to
make B monic and the resulting map is verified to have exactly the
requested type.  The verification is not optional: the system acquires
spurious kernel vectors precisely when the cover does not exist, so
checking the result IS the existence test.

The same solve works verbatim over Q and over F_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidType, InvariantViolated, KernelDimensionUnexpected, NoSuchCover
from .field import FieldCtx, _pmul, _pzip, _trim
from .poly import INF, Poly, RatFunc, poly_gcd
from .ramify import NormalizedCover, expect_cover


@dataclass(frozen=True)
class ThreePointSpec:
    e1: int
    e2: int
    e3: int

    def __post_init__(self):
        es = (self.e1, self.e2, self.e3)
        if any(e < 2 for e in es):
            raise InvalidType(f"cycle lengths must be >= 2, got {es}")
        if sum(es) % 2 == 0:
            raise InvalidType(
                f"{es} fails the genus-0 parity e1+e2+e3 = 2d+1"
            )
        if any(e > self.d for e in es):
            raise InvalidType(f"cycle length exceeds degree {self.d} in {es}")

    @property
    def d(self) -> int:
        return (self.e1 + self.e2 + self.e3 - 1) // 2


def kernel_basis(rows: list[list], ctx: FieldCtx) -> list[list]:
    """Kernel of a matrix over an exact field by Gauss-Jordan elimination.

    Rows and basis vectors are lists of raw values of ctx (FieldElem.raw);
    the elimination skips the zero entries of the pivot row, so a banded
    matrix costs little more than its band.  The rows are not modified.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    zero, one = ctx._zero, ctx._one
    mul = ctx._mul
    m = [list(r) for r in rows]
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if m[r][c] != one:
            inv = ctx._inv(m[r][c])
            m[r] = [mul(v, inv) for v in m[r]]
        # columns left of c are already cleared in the pivot row
        support = [(j, v) for j, v in enumerate(m[r][c:], c) if v != zero]
        for i, row in enumerate(m):
            factor = row[c]
            if i != r and factor != zero:
                ctx._row_update(row, factor, support)
        pivots.append((r, c))
        r += 1
        if r == len(m):
            break
    pivot_cols = {c for _r, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for pr, pc in pivots:
            vec[pc] = ctx._neg(m[pr][fc])
        basis.append(vec)
    return basis


def solve_three_point(ctx: FieldCtx, spec: ThreePointSpec) -> NormalizedCover:
    """Construct the unique normalized cover of type (d; e1, e2, e3)."""
    e1, e2, e3 = spec.e1, spec.e2, spec.e3
    d = spec.d
    p = ctx.characteristic
    if p and d >= p:
        raise NoSuchCover(f"d = {d} >= p = {p}: no tame cover of this type")

    da, db, dc = d - e1, d - e3, d - e2
    na, nc = da + 1, dc + 1
    if na + nc != e3 + 1:
        raise InvariantViolated(f"{na + nc} unknowns for e3 = {e3}, expected e3 + 1")

    # (y-1)^e2, ascending raw coefficients
    ym1 = [ctx.from_int(math.comb(e2, k) * (-1) ** (e2 - k)).raw for k in range(e2 + 1)]
    neg_ym1 = [ctx._neg(b) for b in ym1]
    # the coefficients of y^j, db < j <= d, of y^e1 A - (y-1)^e2 C
    rows = []
    for j in range(db + 1, d + 1):
        row = [ctx._zero] * (na + nc)
        if j >= e1:
            row[j - e1] = ctx._one
        for i in range(max(0, j - e2), min(dc, j) + 1):
            row[na + i] = neg_ym1[j - i]
        rows.append(row)

    basis = kernel_basis(rows, ctx)
    if len(basis) != 1:
        raise KernelDimensionUnexpected(
            f"kernel dimension {len(basis)} for type ({d}; {e1},{e2},{e3}) over {ctx}"
        )
    vec = basis[0]
    a, c = _trim(ctx, vec[:na]), _trim(ctx, vec[na:])
    b = _pzip(ctx, [ctx._zero] * e1 + a, _pmul(ctx, ym1, c), ctx._sub)
    A, B, C = (Poly(ctx, tuple(coeffs)) for coeffs in (a, b, c))
    if B.is_zero or A.degree != da or B.degree != db or C.degree != dc:
        raise NoSuchCover(
            f"degenerate kernel vector for type ({d}; {e1},{e2},{e3}) over {ctx}"
        )
    scale = B.lc.inverse()
    A, B, C = A * scale, B * scale, C * scale

    num = Poly.x(ctx) ** e1 * A
    # gcd(num - B, B) = gcd(num, B), and gcd(A, B) divides it
    if poly_gcd(num, B).degree > 0:
        raise NoSuchCover(
            f"kernel vector shares factors for type ({d}; {e1},{e2},{e3}) over {ctx}"
        )
    f = RatFunc(num, B)  # coprime, and B is monic

    # The indices e1 + e2 + e3 = 2d + 1 use up the Riemann-Hurwitz mass
    # 2d - 2, so with the images 0, 1, inf -> 0, 1, inf they leave no other
    # ramification: these clauses already give the type (d; e1, e2, e3).
    zero, one = ctx.zero, ctx.one
    ram_type = expect_cover(
        f, NoSuchCover, f"solved map for type ({d}; {e1},{e2},{e3}) over {ctx}",
        points=((zero, e1), (one, e2), (INF, e3)),
        images=((zero, zero), (one, one), (INF, INF)),
        branch=(zero, one, INF),
    )
    return NormalizedCover(cover=f, ram_type=ram_type)
