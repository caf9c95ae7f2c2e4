"""A check of a 3-point type that does not go through ``analyze_cover``."""

from tamecovers.poly import Poly


def is_three_point(f, es) -> bool:
    """Whether the derivative numerator of f is lc*y^(e1-1)(y-1)^(e2-1) and
    f has a pole of order e3 at infinity."""
    e1, e2, e3 = es
    ctx = f.ctx
    W = f.num.derivative() * f.den - f.num * f.den.derivative()
    y = Poly.x(ctx)
    shape = Poly.constant(W.lc) * y ** (e1 - 1) * (y - Poly.one(ctx)) ** (e2 - 1)
    return W == shape and f.num.degree - f.den.degree == e3
