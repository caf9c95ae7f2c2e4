"""The additive construction: splitting a merged branch point with c*x^p.

Adding c*x^p to a cover does not move its finite ramification points (the
derivative is unchanged) but does move their images.  Starting from a
merged cover f -- normalized so that f(infinity) = infinity, f(0) = 0 and
the two ramification points x = 1 and x = rho share the branch point 1 --
the twist f + c*x^p separates the shared branch point for every c outside
three exclusions, and after rescaling by 1/(1+c) the fourth branch point
moves along the degree-1 map

    c  ->  (1 + c*rho^p) / (1 + c).

``construct_family`` builds every merged cover of type (p+2; p+2, 3, e3, e4)
with e3 + e4 = p + 1.  The index p + 2 at infinity is full and tame, so f is
a polynomial; all its ramification is tame, so with A = e3 - 1, B = e4 - 1,

    f' = kappa * x^2 (x-1)^A (x-rho)^B,

of degree p + 1 as Riemann-Hurwitz asks.  In characteristic p the term
x^(p-1) has no antiderivative, so rho must kill its coefficient

    Q(rho) = C(B,2) rho^2 + A*B rho + C(A,2),

and then f = kappa*G + t*x^p, with G the termwise antiderivative, G(0) = 0,
and kappa, t fixed by f(1) = f(rho) = 1.  Q has discriminant A*B*(A+B-1),
which is -2AB (mod p) and nonzero as 1 <= A, B <= p-2; Q(1) = C(p-1,2) is
1 (mod p); Q(0) = C(A,2) vanishes only when e3 = 2.  So there are exactly
2 - [e3 = 2] merged covers, with rho in F_p when e3 = 2 or -2(e3-1)(e4-1)
is a square mod p, and conjugate in F_{p^2} otherwise.  Since c -> lambda
has degree 1, the additive Hurwitz curve of the split type is 2 - [e3 = 2]
rational components over the lambda-line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExcludedC, FormulaMismatch, FrobeniusCollision, InvalidType, TypeDegenerates
from .field import FieldElem, is_prime, make_field
from .poly import INF, Poly, RatFunc, evaluate, roots
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
    v3 = evaluate(g, x3)
    v4 = evaluate(g, x4)
    if v3 is INF or v4 is INF:
        raise TypeDegenerates("a ramification point to merge is a pole")
    c = (v4 - v3) / (x3 ** p - x4 ** p)  # x -> x^p is injective, so x3^p != x4^p

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

    Integrates f' at each root rho != 0 of Q (see the module docstring) and
    certifies f by a full ramification analysis.  Each family carries rho,
    and a and c with f - 1 = c (x-1)^e3 (x-rho)^e4 (x-a): c = lc(f), and the
    order 3 of f at 0 gives a = rho/(e3 - 1 - e3*rho).  The 2 - [e3 = 2]
    families are ordered by the field degree of a, then by canonical order.
    """
    if not is_prime(p) or p <= 3:
        raise InvalidType(f"p = {p} must be a prime > 3")
    if not (2 <= e3 < e4 < p) or e3 + e4 != p + 1:
        raise InvalidType(f"need 2 <= e3 < e4 < p with e3 + e4 = p + 1, got ({e3}, {e4})")
    A, B = e3 - 1, e4 - 1
    Q = Poly.from_ints(make_field(p), [A * (A - 1) // 2, A * B, B * (B - 1) // 2])
    out = []
    for rho, _mult, _k in roots(Q, 2):
        if rho.is_zero:
            continue  # Q(0) = 0 when e3 = 2, but rho must differ from the point 0
        ctx = rho.ctx
        one = ctx.one
        x = Poly.x(ctx)
        g = x * x * (x - one) ** A * (x - rho) ** B
        if not g.coeffs[p - 1].is_zero:
            raise FormulaMismatch(f"f' has a nonzero x^{p - 1} term at the root rho = {rho} of Q")
        G = Poly.from_elems(ctx, [ctx.zero] + [gk / ctx.from_int(k + 1) if (k + 1) % p else gk
                                               for k, gk in enumerate(g.coeffs)])
        rho_p = rho ** p
        kappa = (rho_p - one) / (G(one) * rho_p - G(rho))
        f = _twisted(RatFunc.from_poly(G * kappa), one - kappa * G(one), p)
        a = rho / (ctx.from_int(e3 - 1) - ctx.from_int(e3) * rho)
        merged = make_merged_cover(f, p, (p + 2, 3, e3, e4), rho)
        out.append(AdditiveFamily(p=p, e3=e3, e4=e4, a=a, rho=rho, c=f.num.lc, merged=merged))
    # the roots of Q lie in one field, F_p or F_{p^2}, so a fixes the order
    return sorted(out, key=lambda fam: fam.a.sort_key())
