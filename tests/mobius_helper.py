"""Moebius maps for the property tests: the ramification type, ord_at and
evaluate must all agree with a change of coordinates on either side.

A Moebius map is a tuple (a, b, c, d) of field elements, y -> (a*y + b) /
(c*y + d); the callers pass invertible ones only.
"""

from tamecovers.poly import INF, Poly, RatFunc


def apply_mobius(m, pt):
    a, b, c, d = m
    u, v = (a.ctx.one, a.ctx.zero) if pt is INF else (pt, a.ctx.one)
    nu, nv = a * u + b * v, c * u + d * v
    if nv.is_zero:
        return INF
    return nu / nv


def mobius(f: RatFunc, pre=None, post=None) -> RatFunc:
    """post o f o pre, each map defaulting to the identity."""
    ctx = f.ctx
    identity = tuple(map(ctx.from_int, (1, 0, 0, 1)))
    a, b, c, d = (ctx.elem(x) for x in (pre or identity))
    pa, pb, pc, pd = (ctx.elem(x) for x in (post or identity))
    m = max(f.num.degree, f.den.degree)
    lin_num = Poly.from_elems(ctx, [b, a])  # a*y + b
    lin_den = Poly.from_elems(ctx, [d, c])  # c*y + d

    def substitute(p: Poly) -> Poly:
        # (c*y + d)^m * p((a*y + b) / (c*y + d))
        acc = Poly.zero(ctx)
        for i, coeff in enumerate(p.coeffs):
            acc = acc + lin_num ** i * lin_den ** (m - i) * coeff
        return acc

    num2, den2 = substitute(f.num), substitute(f.den)
    return RatFunc.make(num2 * pa + den2 * pb, num2 * pc + den2 * pd)
