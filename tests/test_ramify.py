import random

import pytest

from tamecovers.errors import Inseparable, InvalidType, NoSuchCover, NotRamifiedHere, ValueMismatch
from tamecovers.field import make_field
from tamecovers.multconst import contract
from tamecovers.poly import (
    INF,
    Poly,
    RatFunc,
    evaluate,
    lift_ratfunc,
    ord_at,
    synthetic_div,
)
from tamecovers.ramify import (
    RamType,
    analyze_cover,
    expect_cover,
    genus_from_type,
    single_cycle_type,
)
from tamecovers.threepoint import ThreePointSpec, solve_three_point

from mobius_helper import mobius
from three_point_oracle import is_three_point

F5 = make_field(5)
F7 = make_field(7)
QQ = make_field(0)


def P(ctx, *ints):
    return Poly.from_ints(ctx, list(ints))


def test_analyze_squaring_map():
    a = analyze_cover(RatFunc.from_poly(P(F5, 0, 0, 1)), candidates=F5.elements())
    assert a.complete and a.tame
    assert a.branch_points == (F5.zero, INF)
    assert a.ram_type == RamType(2, ((2,), (2,)))
    assert genus_from_type(a.ram_type) == 0


ZERO5, ONE5 = F5.zero, F5.one
SQUARE_POINTS = ((ZERO5, 2), (INF, 2))


@pytest.mark.parametrize("claims, clause", [
    ({"degree": 3}, "degree is 2, expected 3"),
    ({"points": ((ZERO5, 2),)}, "2 ramification points, expected 1"),
    ({"points": ((ZERO5, 3), (INF, 2))}, "index at 0 is 2, expected 3"),
    ({"images": ((ZERO5, ONE5),)}, "image of 0 is 0, expected 1"),
    ({"branch": 3}, "2 branch points, expected 3"),
    ({"branch": (ZERO5, ONE5)}, "branch points are (0, inf), expected (0, 1)"),
    ({"points": ((ZERO5, 2), (INF, 3))}, "index at inf is 2, expected 3"),
    ({"images": ((INF, ZERO5),)}, "image of inf is inf, expected 0"),
])
def test_expect_cover_names_the_first_failed_clause(claims, clause):
    y2 = RatFunc.from_poly(P(F5, 0, 0, 1))
    kw = {"points": SQUARE_POINTS, **claims}
    with pytest.raises(NoSuchCover) as info:
        expect_cover(y2, NoSuchCover, "y^2", **kw)
    assert info.value.detail == f"y^2 failed type verification: {clause}"


def test_expect_cover_returns_the_type_and_checks_tameness():
    y2 = RatFunc.from_poly(P(F5, 0, 0, 1))
    got = expect_cover(y2, NoSuchCover, "y^2", SQUARE_POINTS, images=((ZERO5, ZERO5),),
                       branch=(ZERO5, INF), degree=2)
    assert got == RamType(2, ((2,), (2,)))
    F3 = make_field(3)
    with pytest.raises(NoSuchCover, match="failed type verification: tame"):
        expect_cover(RatFunc.from_poly(P(F3, 0, 1, 0, 1)), NoSuchCover, "y^3 + y", ((INF, 3),))


def test_expect_cover_names_unnamed_critical_points():
    # y^3 - y over F_5 has critical points +-sqrt(2), which the claim omits
    with pytest.raises(NoSuchCover) as info:
        expect_cover(RatFunc.from_poly(P(F5, 0, -1, 0, 1)), NoSuchCover, "y^3 - y", ((INF, 3),))
    assert info.value.detail == ("y^3 - y failed type verification: complete: "
                                 "the named points do not account for every critical point")


def test_error_details_print_infinity_as_inf():
    # expect_cover's clauses print it the same way (the cases above)
    h = RatFunc.make(P(F7, 0, 0, 0, 1), P(F7, -2, 3))  # y^3/(3y-2): a pole at 3
    with pytest.raises(NotRamifiedHere) as info:
        contract(h, F7.from_int(2), F7.from_int(3))
    assert info.value.detail == "f(3) = inf is not 2"
    with pytest.raises(ValueMismatch) as info:
        ord_at(h, INF, F7.zero)
    assert info.value.detail == "f(inf) is not 0"
    with pytest.raises(ValueMismatch) as info:
        ord_at(h, F7.one, INF)
    assert info.value.detail == "f(1) is not inf"


def test_analyze_three_point_cover_over_F7():
    a = analyze_cover(RatFunc.from_poly(P(F7, 0, 0, 3, -2)), candidates=F7.elements())
    assert a.complete and a.tame
    assert a.branch_points == (F7.zero, F7.one, INF)
    assert a.ram_type == single_cycle_type(3, (2, 2, 3))
    assert a.index_at(F7.zero) == 2
    assert a.index_at(F7.one) == 2
    assert a.index_at(INF) == 3


def test_branch_value_reached_from_two_field_degrees_is_one_branch_point():
    # q^2 c^2 over F_13 with q = y - 1 and c = y^2 + 2 irreducible: the double
    # root 1 has degree 1 and the two of c degree 2, and all three map to 0;
    # the other two critical points have degree 2, so all of them lie in
    # F_{13^2}, small enough to name every element
    F13 = make_field(13)
    q = P(F13, -1, 1)
    c = P(F13, 2, 0, 1)
    F = make_field(13, 2)
    f = lift_ratfunc(RatFunc.from_poly(q * q * c * c), F)
    a = analyze_cover(f, candidates=F.elements())
    assert a.complete
    assert len(a.branch_points) == 4
    assert a.branch_points[0] == F.zero
    over_zero = [pt for pt, _e in a.ram_points if pt is not INF and f.num(pt).is_zero]
    assert sorted(pt.min_degree() for pt in over_zero) == [1, 2, 2]
    simple = (2,) + (1,) * 4
    assert a.ram_type == RamType(6, ((2, 2, 2), simple, simple, (6,)))


def test_analyze_rejects_inseparable():
    with pytest.raises(Inseparable):
        analyze_cover(RatFunc.from_poly(P(F5, 0, 0, 0, 0, 0, 1)), candidates=())


def test_genus_examples():
    assert genus_from_type(RamType(3, ((2, 1), (2, 1), (3,)))) == 0
    assert genus_from_type(single_cycle_type(5, (3, 2, 3, 4))) == 0
    assert genus_from_type(single_cycle_type(2, (2, 2, 2, 2))) == 1
    with pytest.raises(InvalidType):
        genus_from_type(RamType(3, ((2, 1), (2, 1), (2, 1))))
    with pytest.raises(InvalidType):
        genus_from_type(single_cycle_type(4, (2, 2, 2, 2)))  # genus would be -1


def test_analyzed_tame_covers_have_genus_zero():
    # over Q, W = lc*y^(e1-1)(y-1)^(e2-1) and a pole of order e3 at infinity
    # pin the type without analyze_cover
    for f, es in [
        (RatFunc.from_poly(P(QQ, 0, 0, 3, -2)), (2, 2, 3)),
        (RatFunc.make(P(QQ, 0, 0, 0, 1), P(QQ, -2, 3)), (3, 2, 2)),
    ]:
        assert is_three_point(f, es)
        assert genus_from_type(single_cycle_type(3, es)) == 0
    a = analyze_cover(RatFunc.from_poly(P(F7, 0, 0, 3, -2)), candidates=F7.elements())
    assert a.complete
    assert genus_from_type(a.ram_type) == 0


def _random_mobius(ctx, rng):
    while True:
        m = tuple(ctx.from_int(rng.randrange(ctx.order)) for _ in range(4))
        if not (m[0] * m[3] - m[1] * m[2]).is_zero:
            return m


def test_ram_type_is_mobius_invariant():
    # scrambling permutes the branch points, so compare partition multisets
    rng = random.Random(21)
    f = RatFunc.from_poly(P(F7, 0, 0, 3, -2))
    base = analyze_cover(f, candidates=F7.elements()).ram_type
    for _ in range(10):
        pre, post = _random_mobius(F7, rng), _random_mobius(F7, rng)
        g = mobius(f, pre=pre, post=post)
        got = analyze_cover(g, candidates=F7.elements()).ram_type
        assert got.d == base.d
        assert sorted(got.classes) == sorted(base.classes)


def test_partial_analysis_is_flagged_not_fatal():
    # critical points of y^3 - y over F_5 sit at +-sqrt(2), outside F_5
    f = RatFunc.from_poly(P(F5, 0, -1, 0, 1))
    a = analyze_cover(f, candidates=F5.elements())
    assert not a.complete
    assert a.ram_type is None
    F25 = make_field(5, 2)
    full = analyze_cover(lift_ratfunc(f, F25), candidates=F25.elements())
    assert full.complete
    assert all(k == 2 for pt, _e in full.ram_points if pt is not INF
               for k in [pt.min_degree()])


def test_three_point_cover_is_single_cycle():
    # one part > 1 per partition: one ramified point over each branch point
    a = analyze_cover(RatFunc.make(P(F7, 0, 0, 0, 1), P(F7, -2, 3)), candidates=F7.elements())
    assert a.ram_type.single_cycle == (3, 2, 2)


# -- the Riemann-Hurwitz count against the derivative rule -------------------

def _strip(g, x):
    """(m, g / (y - x)^m) for the multiplicity m of x in a nonzero g."""
    m = 0
    while True:
        q, rem = synthetic_div(g, x)
        if not rem.is_zero:
            return m, g
        g, m = q, m + 1


def _index(f, x, v):
    """Ramification index of f at x over v = f(x), read off num and den."""
    if x is INF:
        return f.num.degree - f.den.degree if v is INF else f.den.degree - f.fiber_poly(v).degree
    return _strip(f.den if v is INF else f.fiber_poly(v), x)[0]


def _key(pt):
    return (True, ()) if pt is INF else (False, pt.sort_key())


def _derivative_rule(f, named):
    """(complete, ram_points, branch_points, ram_type) by the derivative
    numerator W = num' den - num den' of a separable f: a named point is
    ramified when it is a root of W, INF when its index is at least 2, and
    the named points are complete when W stripped of them is a constant."""
    W = f.num.derivative() * f.den - f.num * f.den.derivative()
    assert not W.is_zero
    ram = []
    for x in set(named):
        m, W = _strip(W, x)
        if m:
            ram.append((x, _index(f, x, evaluate(f, x))))
    e_inf = _index(f, INF, evaluate(f, INF))
    if e_inf >= 2:
        ram.append((INF, e_inf))
    ram.sort(key=lambda pe: _key(pe[0]))
    images = [evaluate(f, x) for x, _e in ram]
    branch = tuple(sorted(set(images), key=_key))
    complete = W.degree <= 0
    ram_type = None
    if complete:
        d = max(f.num.degree, f.den.degree)
        classes = []
        for b in branch:
            idx = sorted((e for (_x, e), v in zip(ram, images) if v == b), reverse=True)
            classes.append(tuple(idx + [1] * (d - sum(idx))))
        ram_type = RamType(d, tuple(classes))
    return complete, tuple(ram), branch, ram_type


def _random_poly(elems, rng, deg):
    lead = rng.choice([c for c in elems if not c.is_zero])
    return Poly.from_elems(lead.ctx, [rng.choice(elems) for _ in range(deg)] + [lead])


def _compose(g, h):
    out = Poly.zero(h.ctx)
    for c in reversed(g.coeffs):
        out = out * h + Poly.constant(c)
    return out


def _random_maps(ctx, rng, count):
    """Products and compositions of random polynomials, and quotients."""
    elems = list(ctx.elements())
    maps = []
    while len(maps) < count:
        kind = len(maps) % 3
        g, h = (_random_poly(elems, rng, rng.randrange(1, 5)) for _ in "gh")
        if kind == 0:
            f = RatFunc.from_poly(g * h)
        elif kind == 1:
            f = RatFunc.from_poly(_compose(g, _random_poly(elems, rng, 2)))
        else:
            f = RatFunc.make(g, h)
        if not f.is_constant:
            maps.append(f)
    return maps


@pytest.mark.parametrize("ctx", [F7, make_field(11), make_field(5, 2)], ids=["F7", "F11", "F25"])
def test_count_rule_matches_derivative_rule_on_tame_maps(ctx):
    rng = random.Random(ctx.order)
    elems = list(ctx.elements())
    seen = set()
    for f in _random_maps(ctx, rng, 45):
        full = _derivative_rule(f, elems)
        if any(e % ctx.characteristic == 0 for _x, e in full[1]):
            continue  # a wild index: analyze_cover builds W itself
        critical = [x for x, _e in full[1] if x is not INF]
        namings = [elems]
        for _ in range(3):
            namings.append(rng.sample(critical, rng.randrange(len(critical) + 1))
                           + rng.sample(elems, 2))
        for named in namings:
            a = analyze_cover(f, candidates=named)
            assert a.tame
            assert (a.complete, a.ram_points, a.branch_points, a.ram_type) == \
                _derivative_rule(f, named), (f, named)
            seen.add(a.complete)
    assert seen == {True, False}


def _planted_three_point_f11():
    # (5; 2, 4, 5) over F_11, built by solve_three_point: 0 has index 2
    F11 = make_field(11)
    f = solve_three_point(F11, ThreePointSpec(2, 4, 5)).cover
    return f, ((F11.one, 4), (INF, 5)), None


@pytest.mark.parametrize("build", [
    # the 3-point cover of type (3; 2, 2, 3): 1 has index 2
    lambda: (RatFunc.from_poly(P(F7, 0, 0, 3, -2)), ((F7.zero, 2), (INF, 3)), None),
    _planted_three_point_f11,
    # y^3 - 3y over F_7: a simple critical point at each of 1 and -1
    lambda: (RatFunc.from_poly(P(F7, 0, -3, 0, 1)), ((F7.one, 2), (INF, 3)), 3),
], ids=["F7-(3;2,2,3)", "F11-(5;2,4,5)", "F7-y^3-3y"])
def test_an_unnamed_simple_critical_point_fails_complete(build):
    f, named, e = build()
    with pytest.raises(NoSuchCover) as info:
        expect_cover(f, NoSuchCover, "planted", named, degree=e)
    assert info.value.detail == ("planted failed type verification: complete: "
                                 "the named points do not account for every critical point")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_wild_separable_map_is_certified_by_the_derivative(p):
    # y^p + y: W = 1, one wild point (INF, p) and no finite critical point
    F = make_field(p)
    f = RatFunc.from_poly(Poly.from_ints(F, [0, 1] + [0] * (p - 2) + [1]))
    a = analyze_cover(f, candidates=F.elements())
    assert not a.tame and a.complete
    assert a.ram_points == ((INF, p),)
    assert (a.complete, a.ram_points, a.branch_points, a.ram_type) == \
        _derivative_rule(f, F.elements())
