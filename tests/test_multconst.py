import itertools

import pytest

from tamecovers.errors import (
    BranchValueExcluded,
    InvalidMu,
    InvalidType,
    MinNotAtFirst,
    NoCovers,
    NotRamifiedHere,
    UsageError,
    WrongIndex,
)
from tamecovers.field import make_field
from tamecovers.multconst import (
    FourPointType,
    bad_degree,
    contract,
    count_covers_at,
    is_critical_value,
    is_supersingular_value,
    lambda_map,
    lift,
    p_hurwitz_4pt,
    supersingular_values,
)
from tamecovers.poly import INF, Poly, RatFunc, count_roots_by_degree, evaluate, lift_ratfunc, roots
from tamecovers.threepoint import ThreePointSpec, solve_three_point

F5 = make_field(5)
F7 = make_field(7)
F25 = make_field(5, 2)


def P(ctx, *ints):
    return Poly.from_ints(ctx, list(ints))


def admissible_types(p):
    out = []
    for es in itertools.product(range(2, p), repeat=3):
        try:
            t = FourPointType(p, *es)
        except InvalidType:
            continue
        if t.phpos_ok:
            out.append(t)
    return out


# -- type validation and the closed count ------------------------------------

def test_four_point_type_validation():
    t = FourPointType(5, 2, 2, 2)
    assert (t.d, t.d_tilde, t.E, t.e4) == (4, 3, 6, 4)
    assert t.tilde_spec == ThreePointSpec(2, 2, 3)
    with pytest.raises(InvalidType):
        FourPointType(5, 5, 2, 3)  # e1 out of range
    with pytest.raises(InvalidType):
        FourPointType(5, 2, 3, 2)  # E odd
    with pytest.raises(InvalidType):
        FourPointType(5, 2, 2, 4)  # e3 = p - 1


def test_p_hurwitz_values():
    assert p_hurwitz_4pt(FourPointType(5, 2, 2, 2)) == 4
    assert p_hurwitz_4pt(FourPointType(5, 3, 2, 3)) == 3
    assert p_hurwitz_4pt(FourPointType(7, 5, 5, 2)) == 0  # E = 12 > p-1+2*min = 10


def test_no_covers_below_lower_bound():
    with pytest.raises(NoCovers):
        lambda_map(F7, FourPointType(7, 2, 2, 2))  # E = 6 < p+1


# -- the branch-point map ----------------------------------------------------

def test_lambda_map_222_at_p5():
    L = lambda_map(F5, FourPointType(5, 2, 2, 2))
    assert L.map == RatFunc.make(P(F5, 0, 0, 0, 1, 2), P(F5, -3, 1))
    assert L.degree == 4
    assert supersingular_values(L) == ()


def test_lambda_map_323_at_p5():
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    assert L.map == RatFunc.make(P(F5, 0, 0, 1, 3), P(F5, 3, 1))
    assert L.degree == 3
    assert [s.raw for s in supersingular_values(L)] == [4]  # 2/3 mod 5


def test_lambda_map_matches_printed_unreduced_form():
    # mu^(p-3) (-mu^3 + 3mu - 2) over 3mu^(p-2) - 2mu^(p-3) - 1, p = 5
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    num = P(F5, *([0, 0] + [-2, 3, 0, -1]))
    den = P(F5, -1, 0, -2, 3)
    assert RatFunc.make(num, den) == L.map


def test_supersingular_set_is_frobenius_stable():
    # for a base cover with prime-field coefficients, {r^p} equals {r}
    for t in admissible_types(7):
        L = lambda_map(F7, t)
        pole_roots = {repr(r) for r, _m, _k in roots(L.base.cover.den, 6)}
        assert pole_roots == {repr(s) for s in supersingular_values(L)}


def test_lambda_is_separable_and_matches_symbolic_derivative():
    # lambda = y^p (1 - h) / (y^p - h) has derivative
    # -y^p h' (y^p - 1) / (y^p - h)^2, since (y^p)' = 0; cross-multiplied
    # over the reduced num/den of lambda and hn/hd of h:
    # (num' den - num den') (y^p hd - hn)^2 = -y^p (hn' hd - hn hd') (y^p - 1) den^2
    for p, ctx in [(5, F5), (7, F7)]:
        ypow = P(ctx, *([0] * p + [1]))
        for t in admissible_types(p):
            L = lambda_map(ctx, t)
            num, den = L.map.num, L.map.den
            hn, hd = L.base.cover.num, L.base.cover.den
            w = num.derivative() * den - num * den.derivative()
            assert not w.is_zero
            wh = hn.derivative() * hd - hn * hd.derivative()
            lhs = w * (ypow * hd - hn) ** 2
            rhs = -(ypow * wh * (ypow - ctx.from_int(1)) * den ** 2)
            assert lhs == rhs


def test_degree_identity_full_sweep_p11():
    for t in admissible_types(11):
        L = lambda_map(make_field(11), t)
        assert L.degree == (3 * 11 - 1 - t.E) // 2
        assert L.degree == 11 - t.e1 + t.d_tilde - t.e2


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_root_finding_inputs_have_degree_below_p(p):
    # h.den, whose roots are the supersingular values, and the lambda-fibers,
    # whose radical count_covers_at takes, have degree below p: no factor has
    # a multiplicity divisible by p, so radical never needs a p-th root
    for t in admissible_types(p):
        L = lambda_map(make_field(p), t)
        assert L.base.cover.den.degree < p
        assert L.degree < p


# -- lift and contract -------------------------------------------------------

def test_lift_example_at_p7():
    h = solve_three_point(F7, ThreePointSpec(3, 2, 2))
    res = lift(h, F7.from_int(4))
    assert res.lam == F7.from_int(2)
    assert res.d == 7
    assert res.indices == (3, 2, 5, 6)
    assert sorted(res.cover.ram_type.single_cycle) == [2, 3, 5, 6]


def test_lift_exclusions():
    h = solve_three_point(F7, ThreePointSpec(3, 2, 2))
    with pytest.raises(InvalidMu, match="pole"):
        lift(h, F7.from_int(3))  # 3*3-2 = 0 mod 7
    with pytest.raises(InvalidMu, match="fixed point"):
        lift(h, F7.from_int(2))  # h(2) = 2 = 2^7
    with pytest.raises(InvalidMu):
        lift(h, F7.zero)
    with pytest.raises(InvalidMu):
        lift(h, F7.one)


def test_contract_inverts_lift():
    h = solve_three_point(F7, ThreePointSpec(3, 2, 2))
    res = lift(h, F7.from_int(4))
    back = contract(res.cover.cover, res.lam, res.mu)
    assert back.cover == h.cover
    assert back.ram_type == h.ram_type


def test_contract_error_paths():
    h = solve_three_point(F7, ThreePointSpec(3, 2, 2))
    res = lift(h, F7.from_int(4))
    f = res.cover.cover
    with pytest.raises(NotRamifiedHere):
        contract(f, res.lam, F7.from_int(6))  # wrong fiber
    with pytest.raises((NotRamifiedHere, WrongIndex)):
        contract(f, F7.zero, F7.zero)  # index e1 = 3, not p-1


def test_contract_at_an_unramified_mu():
    # mu = 2 lies in the fiber over f(2), where f is unramified
    h = solve_three_point(F7, FourPointType(7, 3, 2, 5).tilde_spec)
    f = lift(h, F7.from_int(4)).cover.cover
    mu = F7.from_int(2)
    with pytest.raises(NotRamifiedHere) as info:
        contract(f, evaluate(f, mu), mu)
    assert info.value.detail == "mu = 2 is unramified in its fiber"


def test_roundtrip_over_extension_mu():
    h = solve_three_point(F5, ThreePointSpec(3, 2, 2))
    h25 = lift_ratfunc(h.cover, F25)
    done = 0
    for mu in F25.elements():
        if done >= 8:
            break
        try:
            res = lift(h, mu)
        except InvalidMu:
            continue
        back = contract(res.cover.cover, res.lam, res.mu)
        assert back.cover == h25
        done += 1
    assert done == 8


# -- fiber counting ----------------------------------------------------------

def test_fiber_polynomials_and_counts():
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    # lambda0 = 2: irreducible cubic fiber, three roots in F_125
    P2 = (L.map.num - Poly.constant(F5.from_int(2)) * L.map.den).monic()
    assert P2 == P(F5, 3, 1, 2, 1)
    assert count_covers_at(L, F5.from_int(2)) == 3
    # lambda0 = 4 is supersingular: the F_5 root mu = 4 is a pole of h
    P4 = (L.map.num - Poly.constant(F5.from_int(4)) * L.map.den).monic()
    assert P4 == P(F5, 1, 2, 2, 1)
    assert count_covers_at(L, F5.from_int(4)) == 2
    with pytest.raises(BranchValueExcluded):
        count_covers_at(L, F5.one)
    with pytest.raises(BranchValueExcluded):
        count_covers_at(L, INF)


def test_fiber_counts_across_F25():
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    generic = 0
    for lam0 in F25.elements():
        if lam0.is_zero or lam0 == F25.one:
            continue
        c = count_covers_at(L, lam0)
        if is_supersingular_value(L, lam0):
            assert c == 2
        elif not is_critical_value(L, lam0):
            assert c == L.degree
            generic += 1
    assert generic == 22


def test_supersingular_helper_matches_lifted_values():
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    assert is_supersingular_value(L, F5.from_int(4))
    assert is_supersingular_value(L, F5.from_int(4).lift_to(F25))
    assert not is_supersingular_value(L, F5.from_int(2))


def test_extension_bound_below_one_is_rejected():
    # a bound below 1 searches no field, so its empty answer would pass for
    # an exact one; with a bound that reaches them the same calls find roots
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    h_den = L.base.cover.den
    assert count_covers_at(L, F5.from_int(2), 3) == 3
    assert [s.raw for s in supersingular_values(L, 1)] == [4]
    assert roots(h_den, 1) and count_roots_by_degree(h_den, 1)
    for call in (
        lambda: count_covers_at(L, F5.from_int(2), 0),
        lambda: supersingular_values(L, 0),
        lambda: roots(h_den, -1),
        lambda: count_roots_by_degree(h_den, 0),
    ):
        with pytest.raises(UsageError):
            call()


# -- bad degree --------------------------------------------------------------

def test_bad_degree_spot_values():
    r = bad_degree(5, (2, 3, 3))
    assert (r.bad, r.case, r.quotient, r.h, r.h_p) == (5, "mixed", 1, 8, 3)
    r = bad_degree(5, (2, 2, 2))
    assert (r.bad, r.case) == (0, "all_good")
    r = bad_degree(7, (2, 5, 5))
    assert (r.bad, r.h_p, r.case) == (14, 0, "all_bad")


def test_bad_degree_requires_min_first():
    with pytest.raises(MinNotAtFirst):
        bad_degree(5, (3, 2, 3))


def test_bad_degree_equals_h_minus_hp_sweep():
    for p in (5, 7, 11):
        for es in itertools.combinations_with_replacement(range(2, p), 3):
            try:
                t = FourPointType(p, *es)
            except InvalidType:
                continue
            d = t.d
            ordered = tuple(sorted(es, key=lambda e: (e * (d + 1 - e), e)))
            r = bad_degree(p, ordered)
            assert r.bad == r.h - r.h_p
            if r.case == "mixed":
                assert r.bad % p == 0 and r.bad // p == d + 1 - p
