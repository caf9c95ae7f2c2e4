"""The unique normalized genus-0 single-cycle cover with three branch points.

For a type (d; e1, e2, e3) the normalized cover is f = y^e1 A / B with
f - 1 = (y-1)^e2 C / B, where A, B, C have degrees da = d-e1, db = d-e3,
dc = d-e2.  So B = y^e1 A - (y-1)^e2 C, whose terms of degree db+1 .. d
must vanish: e3 linear equations in the e3+1 coefficients of A and C.

Over F_p (d < p) ``closed_form`` writes the solution down, B monic and
A(1) = B(1):

    x^da A(1/x) = 2F1(-da, -e2-dc; -da-dc; x),  B = 2F1(-db, -e2-dc; -db-dc; y).

The recurrence of 2F1(-n, b; c; .) divides by (c+k)(k+1), 0 <= k < n < d;
-c-k runs from dc+1 to da+dc = e3-1 or db+dc = e1-1, so both factors are
nonzero and below p in absolute value: a unit mod p.  Indices 1 are
allowed (a series with n = 0 is 1), for the dual types of
``multconst.lambda_map``.

Over Q ``kernel_cover`` solves the system: its kernel is that of the full
matching in A, B, C projected onto (A, C), one-dimensional whenever the
cover exists.  Over F_p it is the oracle of the closed form in ``verify``.
``solve_three_point`` certifies either by gcd(num, den) = 1 and
``expect_cover``; that is the existence test, since the system acquires
spurious kernel vectors precisely when the cover does not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FormulaMismatch, InvalidType, InvariantViolated, KernelDimensionUnexpected, NoSuchCover
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
    mul, sub = ctx._mul, ctx._sub
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
                for j, v in support:
                    row[j] = sub(row[j], mul(factor, v))
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


def kernel_cover(ctx: FieldCtx, spec: ThreePointSpec) -> tuple[Poly, Poly]:
    """(y^e1 A, B), B monic, from the kernel of the e3 x (e3+1) system; uncertified."""
    e1, e2, e3 = spec.e1, spec.e2, spec.e3
    d = spec.d
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
    return Poly.x(ctx) ** e1 * A * scale, B * scale


def _hyp2f1(p: int, n: int, b: int, c: int) -> list[int]:
    """Ascending coefficients mod p of the terminating 2F1(-n, b; c; x);
    pow raises ValueError where a divisor (c+k)(k+1) vanishes mod p."""
    out = [1]
    for k in range(n):
        out.append(out[-1] * (k - n) * (b + k) * pow((c + k) * (k + 1), -1, p) % p)
    return out


def closed_form(p: int, e1: int, e2: int, e3: int) -> tuple[list[int], list[int]]:
    """Ascending ints mod p of (y^e1 A, B), B monic and A(1) = B(1), for a
    genus-0 type (d; e1, e2, e3) with indices >= 1 and d < p; uncertified."""
    d = (e1 + e2 + e3 - 1) // 2
    da, db, dc = d - e1, d - e3, d - e2
    what = f"closed form for type ({d}; {e1},{e2},{e3}) over F_{p}"
    try:
        a = _hyp2f1(p, da, -e2 - dc, -da - dc)[::-1]  # A(y) = y^da 2F1(1/y)
        b = _hyp2f1(p, db, -e2 - dc, -db - dc)
    except ValueError:
        raise FormulaMismatch(f"{what}: a divisor (c+k)(k+1) vanishes mod {p}") from None
    if b[-1] == 0 or sum(a) % p == 0:
        raise FormulaMismatch(f"{what}: lc(B) = {b[-1]}, A(1) = {sum(a) % p}")
    inv = pow(b[-1], -1, p)
    b = [v * inv % p for v in b]  # B monic
    scale = sum(b) * pow(sum(a), -1, p) % p  # A(1) = B(1)
    return [0] * e1 + [v * scale % p for v in a], b


def solve_three_point(ctx: FieldCtx, spec: ThreePointSpec) -> NormalizedCover:
    """Construct the unique normalized cover of type (d; e1, e2, e3): in
    closed form over F_p, by the kernel solve over Q; certified."""
    e1, e2, e3 = spec.e1, spec.e2, spec.e3
    d = spec.d
    p = ctx.characteristic
    if p and d >= p:
        raise NoSuchCover(f"d = {d} >= p = {p}: no tame cover of this type")
    if p:
        num, den = (Poly.from_ints(ctx, c) for c in closed_form(p, e1, e2, e3))
    else:
        num, den = kernel_cover(ctx, spec)

    # gcd(num - den, den) = gcd(num, den), so this one check covers f - 1 too
    if poly_gcd(num, den).degree > 0:
        raise NoSuchCover(
            f"gcd clause: num and den share a factor for type ({d}; {e1},{e2},{e3}) over {ctx}"
        )
    f = RatFunc(num, den)  # coprime, and den is monic

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
