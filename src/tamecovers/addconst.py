"""The additive construction: splitting a merged branch point with c*x^p.

Adding c*x^p to a cover does not move its finite ramification points (the
derivative is unchanged) but does move their images.  Starting from a
merged cover f -- normalized so that f(infinity) = infinity, f(0) = 0 and
the two ramification points x = 1 and x = rho share the branch point 1 --
the twist f + c*x^p separates the shared branch point for every c outside
three exclusions, and after rescaling by 1/(1+c) the fourth branch point
moves along the degree-1 map

    c  ->  (1 + c*rho^p) / (1 + c).

``construct_family`` builds the one concrete merged family available in
closed form: degree p+2, index p+2 at infinity, index 3 at 0, and indices
e3 at 1, e4 at rho with e3 + e4 = p + 1.  Writing

    f - 1 = c (x-1)^e3 (x-rho)^e4 (x-a)

the order-3 vanishing of f at 0 forces two linear conditions on (rho, a);
eliminating rho yields the quadratic e3*a^2 + 2*e3*a + 2 - e3 = 0.  Both
linear conditions are evaluated and cross-checked rather than trusting any
printed shortcut, and every family returned is re-verified by a full
ramification analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ExcludedC,
    FormulaMismatch,
    FrobeniusCollision,
    InvalidType,
    NoValidRoot,
    TypeDegenerates,
)
from .field import FieldElem, is_prime, make_field
from .poly import INF, Poly, RatFunc, evaluate, ord_at, roots
from .ramify import NormalizedCover, RamType, expect_cover


@dataclass(frozen=True)
class MergedCover:
    """Cover of merged type (d; e1, e2, e3-e4): ramification points
    infinity, 0, 1, rho with images infinity, 0, 1, 1."""

    f: RatFunc
    p: int
    e: tuple[int, int, int, int]  # (e1, e2, e3, e4)
    rho: FieldElem
    ram_type: RamType


@dataclass(frozen=True)
class AdditiveFamily:
    p: int
    e3: int
    e4: int
    a: FieldElem
    rho: FieldElem
    c: FieldElem
    merged: MergedCover


@dataclass(frozen=True)
class TwistResult:
    cover: NormalizedCover  # ramification points 0, 1, rho, infinity -> 0, 1, lambda, infinity
    lam: FieldElem
    c: FieldElem


def make_merged_cover(f: RatFunc, p: int, e, rho: FieldElem) -> MergedCover:
    e = tuple(int(x) for x in e)
    e1, e2, e3, e4 = e
    d = (sum(e) - 2) // 2
    if sum(e) % 2 or not (e1 > p and e1 % p != 0):
        raise InvalidType(f"merged type needs even index sum and e1 > p prime to p, got {e}")
    if not all(1 < x < p for x in (e2, e3, e4)) or e3 + e4 > d:
        raise InvalidType(f"merged type constraints fail for {e} at p = {p}")
    zero, one = f.ctx.zero, f.ctx.one
    ram_type = expect_cover(
        f, TypeDegenerates, f"map of merged type ({d}; {e1},{e2},{e3}-{e4})",
        points=((INF, e1), (zero, e2), (one, e3), (rho, e4)),
        images=((INF, INF), (zero, zero), (one, one), (rho, one)),
        branch=3,
        degree=d,
    )
    return MergedCover(f=f, p=p, e=e, rho=rho, ram_type=ram_type)


def additive_twist(m: MergedCover, c: FieldElem) -> TwistResult:
    """Split the merged branch point of m with the twist f + c*x^p."""
    ctx = m.f.ctx
    c = ctx.elem(c)
    p = m.p
    rho_p = m.rho ** p
    if c.is_zero:
        raise ExcludedC("c = 0 leaves the branch points merged")
    if c == ctx.from_int(-1):
        raise ExcludedC("c = -1 sends the image of x = 1 to 0")
    if not rho_p.is_zero and c == -(rho_p.inverse()):
        raise ExcludedC("c = -rho^(-p) sends the image of x = rho to 0")

    scale = (ctx.one + c).inverse()
    f_c = _twisted(m.f, c, p)
    g = RatFunc(f_c.num * scale, f_c.den)
    lam = (ctx.one + c * rho_p) * scale

    e1, e2, e3, e4 = m.e
    zero, one = ctx.zero, ctx.one
    ram_type = expect_cover(
        g, TypeDegenerates, f"twist by c = {c}",
        points=((INF, e1), (zero, e2), (one, e3), (m.rho, e4)),
        images=((zero, zero), (one, one), (INF, INF), (m.rho, lam)),
        branch=4,
    )
    return TwistResult(
        cover=NormalizedCover(cover=g, ram_type=ram_type),
        lam=lam,
        c=c,
    )


def _twisted(g: RatFunc, c: FieldElem, p: int) -> RatFunc:
    """g + c*x^p.  The pair (g.num + c*x^p*g.den, g.den) is already reduced
    with monic den: gcd(g.num + c*x^p*g.den, g.den) = gcd(g.num, g.den) = 1."""
    xp = Poly.from_ints(g.ctx, [0] * p + [1])
    return RatFunc(g.num + xp * g.den * c, g.den)


def find_merging_c(g: RatFunc, x3: FieldElem, x4: FieldElem) -> tuple[RatFunc, FieldElem]:
    """The unique c with (g + c*x^p)(x3) = (g + c*x^p)(x4).

    Twisting never moves ramification points, so c solves a linear
    equation.  Returns the merged cover rescaled so the shared branch point
    is 1, together with c.  The merged type is verified; an extra collision
    among the other branch points raises TypeDegenerates.
    """
    ctx = g.ctx
    p = ctx.characteristic
    x3, x4 = ctx.elem(x3), ctx.elem(x4)
    if x3 == x4:
        raise FrobeniusCollision("the two ramification points coincide")
    x3p, x4p = x3 ** p, x4 ** p
    if x3p == x4p:
        raise FrobeniusCollision(f"{x3}^p = {x4}^p for distinct points")
    v3 = evaluate(g, x3)
    v4 = evaluate(g, x4)
    if v3 is INF or v4 is INF:
        raise TypeDegenerates("a ramification point to merge is a pole")
    c = (v4 - v3) / (x3p - x4p)

    merged = _twisted(g, c, p)
    shared = evaluate(merged, x3)
    if shared != evaluate(merged, x4):
        raise TypeDegenerates(f"the twist by c = {c} does not merge {x3} and {x4}")
    if shared is INF or shared.is_zero:
        raise TypeDegenerates("merged branch point collided with 0 or infinity")
    normalized = RatFunc(merged.num * shared.inverse(), merged.den)
    others = {evaluate(normalized, ctx.zero), INF, ctx.one}
    if len(others) != 3:
        raise TypeDegenerates("another pair of branch points collided under the twist")
    return normalized, c


def construct_family(p: int, e3: int, e4: int) -> list[AdditiveFamily]:
    """All merged covers of type (p+2; p+2, 3, e3-e4) with e3 + e4 = p + 1.

    Solves the quadratic for the free point a (roots may be conjugate in
    F_{p^2}), derives rho from both order-3 conditions at 0 with a
    cross-check, fixes c by f(0) = 0, and verifies each candidate by a full
    ramification analysis.  Returns one or two families.
    """
    if not is_prime(p) or p <= 3:
        raise InvalidType(f"p = {p} must be a prime > 3")
    if not (2 <= e3 < e4 < p) or e3 + e4 != p + 1:
        raise InvalidType(f"need 2 <= e3 < e4 < p with e3 + e4 = p + 1, got ({e3}, {e4})")
    ctx = make_field(p)
    quad = Poly.from_ints(ctx, [2 - e3, 2 * e3, e3])
    out = []
    skipped = []
    for a, mult, _k in roots(quad, 2):
        if mult != 1:
            raise TypeDegenerates(f"the quadratic in a has a double root for e3 = {e3}")
        actx = a.ctx
        one = actx.one
        e3a, e4a = actx.from_int(e3), actx.from_int(e4)
        den1 = e3a * a + one
        if den1.is_zero:
            skipped.append((a, "rho undefined"))
            continue
        rho = (e3a - one) * a / den1
        rho_alt = (e3a - actx.from_int(2) - a) / (e3a + one)
        if rho != rho_alt:
            raise FormulaMismatch(
                f"the two order-3 conditions disagree on rho at a = {a}"
            )
        pts = [actx.zero, one, rho, a]
        if len(set(pts)) != 4:
            skipped.append((a, "0, 1, rho, a not pairwise distinct"))
            continue
        c = (a * rho ** e4).inverse()
        shape = (
            Poly.from_elems(actx, [-one, one]) ** e3
            * Poly.from_elems(actx, [-rho, one]) ** e4
            * Poly.from_elems(actx, [-a, one])
        )
        f = RatFunc.from_poly(Poly.one(actx) + shape * c)
        zero = actx.zero
        if evaluate(f, zero) != zero or ord_at(f, zero, zero) != 3:
            raise TypeDegenerates(f"f does not vanish to order 3 at 0 for a = {a}")
        merged = make_merged_cover(f, p, (p + 2, 3, e3, e4), rho)
        out.append(AdditiveFamily(p=p, e3=e3, e4=e4, a=a, rho=rho, c=c, merged=merged))
    if not out:
        raise NoValidRoot(
            f"both roots of the quadratic are degenerate for p = {p}, e3 = {e3}: {skipped}"
        )
    return out  # in the order of roots: (field degree of a, canonical order)

