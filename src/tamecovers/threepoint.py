"""The unique normalized genus-0 single-cycle cover with three branch points.

For a type (d; e1, e2, e3) the normalized cover f satisfies f = y^e1 A / B
and f - 1 = (y-1)^e2 C / B for polynomials A, B, C of degrees d-e1, d-e3,
d-e2.  Equating the two expressions gives the linear identity

    y^e1 * A - B - (y-1)^e2 * C = 0

whose coefficient matching is a linear system with d+1 equations in d+2
unknowns.  Uniqueness of the cover forces the kernel to be one-dimensional
whenever the cover exists; the kernel vector is scaled to make B monic and
the resulting map is verified to have exactly the requested type.  The
verification is not optional: the system acquires spurious kernel vectors
precisely when the cover does not exist (in characteristic p this happens
for d >= p), so checking the result IS the existence test.

The same solve works verbatim over Q and over F_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidType, InvariantViolated, KernelDimensionUnexpected, NoSuchCover
from .field import FieldCtx
from .poly import INF, Poly, ProjPoint, RatFunc, poly_gcd
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
    """Kernel of a matrix over an exact field by Gauss-Jordan elimination."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == len(m):
            break
    pivot_cols = {c for _r, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [ctx.zero] * ncols
        vec[fc] = ctx.one
        for pr, pc in pivots:
            vec[pc] = -m[pr][fc]
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
    na, nb, nc = da + 1, db + 1, dc + 1
    ncols = na + nb + nc
    if ncols != d + 2:
        raise InvariantViolated(f"{ncols} unknowns for degree {d}, expected d + 2")

    # binomial coefficients of (y-1)^e2, ascending
    binom = [
        ctx.from_int(math.comb(e2, k) * (-1) ** (e2 - k)) for k in range(e2 + 1)
    ]
    rows = []
    for j in range(d + 1):
        row = [ctx.zero] * ncols
        if 0 <= j - e1 <= da:
            row[j - e1] = ctx.one
        if j <= db:
            row[na + j] = -ctx.one
        for i in range(nc):
            k = j - i
            if 0 <= k <= e2:
                row[na + nb + i] = row[na + nb + i] - binom[k]
        rows.append(row)

    basis = kernel_basis(rows, ctx)
    if len(basis) != 1:
        raise KernelDimensionUnexpected(
            f"kernel dimension {len(basis)} for type ({d}; {e1},{e2},{e3}) over {ctx}"
        )
    vec = basis[0]
    A = Poly.from_elems(ctx, vec[:na])
    B = Poly.from_elems(ctx, vec[na : na + nb])
    C = Poly.from_elems(ctx, vec[na + nb :])
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
    zero, one = ProjPoint(ctx.zero), ProjPoint(ctx.one)
    ram_type = expect_cover(
        f, NoSuchCover, f"solved map for type ({d}; {e1},{e2},{e3}) over {ctx}",
        points=((zero, e1), (one, e2), (INF, e3)),
        images=((zero, zero), (one, one), (INF, INF)),
        branch=(zero, one, INF),
    )
    return NormalizedCover(cover=f, ram_type=ram_type)
