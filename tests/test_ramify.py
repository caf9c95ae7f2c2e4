import random

import pytest

from tamecovers.errors import Inseparable, InvalidType, NoSuchCover
from tamecovers.field import make_field
from tamecovers.poly import (
    INF,
    Poly,
    ProjPoint,
    RatFunc,
    rational_roots,
)
from tamecovers.ramify import (
    RamType,
    analyze_cover,
    expect_cover,
    genus_from_type,
    single_cycle_type,
)

from mobius_helper import mobius

F5 = make_field(5)
F7 = make_field(7)
QQ = make_field(0)


def P(ctx, *ints):
    return Poly.from_ints(ctx, list(ints))


def test_analyze_squaring_map():
    a = analyze_cover(RatFunc.from_poly(P(F5, 0, 0, 1)))
    assert a.complete and a.tame
    assert a.branch_points == (ProjPoint(F5.zero), INF)
    assert a.ram_type == RamType(2, ((2,), (2,)))
    assert genus_from_type(a.ram_type) == 0


ZERO5, ONE5 = ProjPoint(F5.zero), ProjPoint(F5.one)
SQUARE_POINTS = ((ZERO5, 2), (INF, 2))


@pytest.mark.parametrize("claims, clause", [
    ({"degree": 3}, "degree is 2, expected 3"),
    ({"points": ((ZERO5, 2),)}, "2 ramification points, expected 1"),
    ({"points": ((ZERO5, 3), (INF, 2))}, "index at 0 is 2, expected 3"),
    ({"images": ((ZERO5, ONE5),)}, "image of 0 is 0, expected 1"),
    ({"branch": 3}, "2 branch points, expected 3"),
    ({"branch": (ZERO5, ONE5)}, "branch points are (0, inf), expected (0, 1)"),
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


def test_analyze_three_point_cover_over_F7():
    a = analyze_cover(RatFunc.from_poly(P(F7, 0, 0, 3, -2)))
    assert a.complete and a.tame
    assert a.branch_points == (ProjPoint(F7.zero), ProjPoint(F7.one), INF)
    assert a.ram_type == single_cycle_type(3, (2, 2, 3))
    assert a.index_at(F7.zero) == 2
    assert a.index_at(F7.one) == 2
    assert a.index_at(INF) == 3


def test_branch_value_reached_from_two_field_degrees_is_one_branch_point():
    # q^2 c^2 over F_13: q has roots in F_{13^2}, c in F_{13^3}, and every
    # one of the five double roots maps to 0
    F13 = make_field(13)
    q = P(F13, 1, 3, 1)
    c = P(F13, 1, 0, 4, 1)
    a = analyze_cover(RatFunc.from_poly(q * q * c * c))
    assert a.complete
    assert len(a.branch_points) == 6
    assert a.branch_points[0] == ProjPoint(F13.zero)
    simple = (2,) + (1,) * 8
    assert a.ram_type == RamType(10, ((2, 2, 2, 2, 2),) + (simple,) * 4 + ((10,),))


def test_analyze_rejects_inseparable():
    with pytest.raises(Inseparable):
        analyze_cover(RatFunc.from_poly(P(F5, 0, 0, 0, 0, 0, 1)))


def test_genus_examples():
    assert genus_from_type(RamType(3, ((2, 1), (2, 1), (3,)))) == 0
    assert genus_from_type(single_cycle_type(5, (3, 2, 3, 4))) == 0
    assert genus_from_type(single_cycle_type(2, (2, 2, 2, 2))) == 1
    with pytest.raises(InvalidType):
        genus_from_type(RamType(3, ((2, 1), (2, 1), (2, 1))))
    with pytest.raises(InvalidType):
        genus_from_type(single_cycle_type(4, (2, 2, 2, 2)))  # genus would be -1


def test_analyzed_tame_covers_have_genus_zero():
    for f in [
        RatFunc.from_poly(P(QQ, 0, 0, 3, -2)),
        RatFunc.make(P(QQ, 0, 0, 0, 1), P(QQ, -2, 3)),
        RatFunc.from_poly(P(F7, 0, 0, 3, -2)),
    ]:
        a = analyze_cover(f)
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
    base = analyze_cover(f).ram_type
    for _ in range(10):
        pre, post = _random_mobius(F7, rng), _random_mobius(F7, rng)
        g = mobius(f, pre=pre, post=post)
        got = analyze_cover(g).ram_type
        assert got.d == base.d
        assert sorted(got.classes) == sorted(base.classes)


def test_partial_analysis_is_flagged_not_fatal():
    # critical points of y^3 - y over F_5 sit at +-sqrt(2), outside F_5
    f = RatFunc.from_poly(P(F5, 0, -1, 0, 1))
    a = analyze_cover(f, max_ext_degree=1)
    assert not a.complete
    assert a.ram_type is None
    full = analyze_cover(f, max_ext_degree=2)
    assert full.complete
    assert all(k == 2 for pt, _e in full.ram_points if not pt.is_infinite
               for k in [pt.value.min_degree()])


def test_unfactorable_coefficients_give_an_incomplete_analysis_over_q():
    # both prime factors of N lie beyond the trial-division budget, so the
    # divisor scan gives up rather than guess, though y = 2 is a root
    N = 2000003 * 2000029
    f = P(QQ, 2, -(2 * N + 1), N)  # (N*y - 1)*(y - 2)
    assert rational_roots(f) == ([], False)
    # W of this polynomial map is 6*f
    a = analyze_cover(RatFunc.from_poly(P(QQ, 0, 12, -3 * (2 * N + 1), 2 * N)))
    assert not a.complete
    assert a.ram_type is None


def test_three_point_cover_is_single_cycle():
    # one part > 1 per partition: one ramified point over each branch point
    a = analyze_cover(RatFunc.make(P(F7, 0, 0, 0, 1), P(F7, -2, 3)))
    assert a.ram_type.single_cycle == (3, 2, 2)
