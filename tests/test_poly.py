import random
from fractions import Fraction

import pytest

from tamecovers.errors import (
    CharZero,
    ConstantMap,
    DivisionByZero,
    InvariantViolated,
    MixedContexts,
    ValueMismatch,
    ZeroDenominator,
)
from tamecovers import poly
from tamecovers.field import make_field
from tamecovers.poly import (
    INF,
    Poly,
    RatFunc,
    count_roots_by_degree,
    evaluate,
    lift_poly,
    linear_multiplicity,
    map_degree,
    ord_at,
    poly_gcd,
    pow_mod,
    radical,
    roots,
)

from mobius_helper import apply_mobius, mobius

F5 = make_field(5)
F7 = make_field(7)
F25 = make_field(5, 2)
QQ = make_field(0)


def P(ctx, *ints):
    return Poly.from_ints(ctx, list(ints))


# -- polynomial arithmetic ---------------------------------------------------

def test_gcd_over_Q():
    assert poly_gcd(P(QQ, -1, 0, 1), P(QQ, 1, -2, 1)) == P(QQ, -1, 1)


def test_derivative_kills_pth_powers():
    assert P(F5, 0, 0, 0, 2, 0, 1).derivative() == P(F5, 0, 0, 1)


def test_gcd_over_F5():
    assert poly_gcd(P(F5, 0, -1, 0, 0, 0, 1), P(F5, 1, 0, 1)) == P(F5, 1, 0, 1)


def test_divmod_and_zero_division():
    q, r = divmod(P(QQ, -2, 0, 1), P(QQ, -1, 1))
    assert q == P(QQ, 1, 1) and r == P(QQ, -1)
    with pytest.raises(DivisionByZero):
        divmod(P(QQ, 1), Poly.zero(QQ))


def _random_poly(ctx, rng, deg):
    """deg random coefficients under a random nonzero leading one."""
    if ctx.characteristic == 0:
        elems = [QQ.from_fraction(Fraction(k, d)) for k in range(-9, 10) for d in (1, 2, 3)]
    else:
        elems = list(ctx.elements())
    lead = rng.choice([e for e in elems if not e.is_zero])
    return Poly.from_elems(ctx, [rng.choice(elems) for _ in range(deg)] + [lead])


@pytest.mark.parametrize("p,n", [(7, 1), (5, 2), (3, 3), (0, 1)])
def test_kernel_identities(p, n):
    ctx = make_field(p, n)
    rng = random.Random(100 * p + n)
    for _ in range(12):
        a = _random_poly(ctx, rng, rng.randrange(0, 9))
        b = _random_poly(ctx, rng, rng.randrange(0, 5))
        q, r = divmod(a, b)
        assert a == q * b + r and r.degree < b.degree
        g = _random_poly(ctx, rng, rng.randrange(1, 3))
        u, v = a * g, b * g
        h = poly_gcd(u, v)
        assert h.lc == ctx.one and (u % h).is_zero and (v % h).is_zero and (h % g).is_zero
        e = rng.randrange(0, 20)
        assert pow_mod(a, e, v) == a ** e % v
    if p:
        for x in ctx.elements():
            if not x.is_zero:
                assert x * x.inverse() == ctx.one


def test_derivative_linearity_and_product_rule():
    rng = random.Random(3)
    for _ in range(30):
        a = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 7))])
        b = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 7))])
        assert (a + b).derivative() == a.derivative() + b.derivative()
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_pth_root_and_radical():
    # mixed exponents, all prime to p, still give the radical
    g = (P(F5, 1, 1) ** 4) * (P(F5, 3, 1) ** 2) * P(F5, 0, 1) * P(F5, 2, 0, 1) ** 3
    assert radical(g) == (P(F5, 1, 1) * P(F5, 3, 1) * P(F5, 0, 1) * P(F5, 2, 0, 1)).monic()
    # a factor whose multiplicity p divides is left by the gcd loop: no p-th root is taken
    with pytest.raises(InvariantViolated, match="multiplicity divisible by p") as info:
        radical(P(F5, -1, 1) ** 5 * P(F5, -2, 1))
    assert info.value.detail == "radical: the factor y^5 + 4 has a multiplicity divisible by p"
    with pytest.raises(InvariantViolated, match="multiplicity divisible by p"):
        radical(P(F5, 1, 1) ** 5)


def test_radical_over_Q():
    f = P(QQ, 1, 1) ** 3 * P(QQ, 5, 1) ** 2 * P(QQ, 2, 0, 1)
    assert radical(f) == P(QQ, 1, 1) * P(QQ, 5, 1) * P(QQ, 2, 0, 1)


def test_negative_polynomial_power_is_an_invariant_violation():
    with pytest.raises(InvariantViolated, match="negative polynomial power"):
        P(F5, 1, 1) ** -1


# -- rational functions ------------------------------------------------------

def test_ratfunc_reduces_and_normalizes():
    rf = RatFunc.make(P(F5, 0, 2, 2), P(F5, 0, 2))
    assert rf == RatFunc.from_poly(P(F5, 1, 1))


def test_ratfunc_monic_denominator_over_F7():
    rf = RatFunc.make(P(F7, 0, 0, 0, 1), P(F7, -2, 3))
    assert rf.num == P(F7, 0, 0, 0, 5)
    assert rf.den == P(F7, -3, 1)


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc.make(P(QQ, -1, 1), Poly.zero(QQ))


def test_evaluate_pole_and_infinity():
    h7 = RatFunc.make(P(F7, 0, 0, 0, 1), P(F7, -2, 3))
    assert evaluate(h7, F7.from_int(3)) == INF
    hq = RatFunc.make(P(QQ, 0, 0, 0, 1), P(QQ, -2, 3))
    assert evaluate(hq, INF) == INF
    assert evaluate(RatFunc.from_poly(P(QQ, 0, -2, 3)), QQ.one) == QQ.one
    # degree comparison at infinity
    assert evaluate(RatFunc.make(P(QQ, 1), P(QQ, 0, 1)), INF) == QQ.zero
    assert evaluate(RatFunc.make(P(QQ, 0, 2), P(QQ, 1, 1)), INF) == QQ.from_int(2)


def test_ord_at_three_point_cover():
    h = RatFunc.make(P(QQ, 0, 0, 0, 1), P(QQ, -2, 3))  # y^3/(3y-2)
    assert ord_at(h, QQ.zero, QQ.zero) == 3
    assert ord_at(h, QQ.one, QQ.one) == 2
    assert ord_at(h, INF, INF) == 2
    sq = RatFunc.from_poly(P(QQ, 0, 0, 1))
    assert ord_at(sq, QQ.one, QQ.one) == 1
    with pytest.raises(ValueMismatch):
        ord_at(h, QQ.one, QQ.zero)


@pytest.mark.parametrize("ctx", [F7, QQ], ids=["F7", "Q"])
def test_ord_at_infinity_is_ord_at_zero_of_reciprocal(ctx):
    inv = tuple(map(ctx.from_int, (0, 1, 1, 0)))  # y -> 1/y
    rng = random.Random(41)
    for _ in range(40):
        num, den = (
            Poly.from_ints(ctx, [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 6))])
            for _ in range(2)
        )
        if num.is_zero or den.is_zero:
            continue
        f = RatFunc.make(num, den)
        t = evaluate(f, INF)
        assert ord_at(f, INF, t) == ord_at(mobius(f, pre=inv), ctx.zero, t)
    c = ctx.from_int(3)
    assert ord_at(RatFunc.from_poly(Poly.constant(c)), INF, c) == 0


def test_map_degree():
    assert map_degree(RatFunc.make(P(QQ, 0, 0, 0, 1), P(QQ, -2, 3))) == 3
    assert map_degree(RatFunc.make(P(F5, 0, 0, 0, 1, 2), P(F5, -3, 1))) == 4
    assert map_degree(RatFunc.make(P(QQ, -1, 0, 1), P(QQ, -1, 1))) == 1
    with pytest.raises(ConstantMap):
        map_degree(RatFunc.from_poly(P(QQ, 4)))


def test_mobius_identity_and_inversion():
    f = RatFunc.make(P(QQ, 0, 0, 0, 1), P(QQ, -2, 3))
    assert mobius(f) == f
    inv = mobius(RatFunc.from_poly(P(QQ, 0, 0, 0, 1)), post=(QQ.zero, QQ.one, QQ.one, QQ.zero))
    assert inv == RatFunc.make(P(QQ, 1), P(QQ, 0, 0, 0, 1))


def test_mobius_precompose_swaps_ramification():
    f = RatFunc.from_poly(P(QQ, 0, 0, 3, -2))
    g = mobius(f, pre=(QQ.from_int(-1), QQ.one, QQ.zero, QQ.one))  # y -> 1 - y
    assert g == RatFunc.from_poly(P(QQ, 1, 0, -3, 2))
    assert ord_at(g, QQ.zero, QQ.one) == 2
    assert ord_at(g, QQ.one, QQ.zero) == 2


def test_mobius_evaluate_compatibility():
    rng = random.Random(5)
    f = RatFunc.make(P(F7, 1, 0, 3, 1), P(F7, 2, 1))
    for _ in range(25):
        mats = []
        for _k in range(2):
            while True:
                m = tuple(F7.from_int(rng.randrange(7)) for _ in range(4))
                if not (m[0] * m[3] - m[1] * m[2]).is_zero:
                    mats.append(m)
                    break
        pre, post = mats
        g = mobius(f, pre=pre, post=post)
        for x in list(F7.elements()) + [INF]:
            assert evaluate(g, x) == apply_mobius(post, evaluate(f, apply_mobius(pre, x)))


# -- roots -------------------------------------------------------------------

def test_roots_linear_paper_value():
    # the pole of y^3/(3y-2) mod 5 sits at 2/3 = 4
    got = roots(P(F5, -2, 3), 2)
    assert [(r.raw, m, k) for r, m, k in got] == [(4, 1, 1)]


def test_roots_split_quadratic():
    got = roots(P(F5, 1, 0, 1), 2)
    assert [(r.raw, m, k) for r, m, k in got] == [(2, 1, 1), (3, 1, 1)]


def test_roots_conjugate_quadratic():
    got = roots(P(F5, 1, 1, 1), 2)
    assert [(m, k) for _r, m, k in got] == [(1, 2), (1, 2)]
    for r, _m, _k in got:
        assert (r * r + r + r.ctx.from_int(1)).is_zero


def test_roots_multiplicity_sum_on_split_products():
    rng = random.Random(9)
    for _ in range(15):
        lin = [P(F7, rng.randrange(7), 1) for _ in range(rng.randrange(1, 5))]
        f = Poly.one(F7)
        for q in lin:
            f = f * q ** rng.randrange(1, 3)
        got = roots(f, 1)
        assert sum(m for _r, m, _k in got) == f.degree
        assert {r.raw for r, _m, _k in got} == {(-q.coeffs[0]).raw for q in lin}


def test_roots_respects_degree_bound():
    got = roots(P(F5, 1, 1, 1), 1)
    assert got == []


def test_roots_char_zero_raises():
    with pytest.raises(CharZero):
        roots(P(QQ, -1, 0, 1), 2)


def test_roots_take_only_a_polynomial_over_an_odd_prime_field():
    with pytest.raises(MixedContexts, match="over F_p with p odd"):
        roots(lift_poly(P(F5, 1, 1, 1), F25), 2)
    with pytest.raises(MixedContexts, match="over F_p with p odd"):
        roots(P(make_field(2), 1, 1, 1), 2)


def _scan_roots(f, fields):
    """(root, multiplicity, k) for each zero of f of minimal degree k in the
    k-th field, in order of (k, canonical element order)."""
    out = []
    for k, F in enumerate(fields, 1):
        fk = lift_poly(f, F)
        out += [(r, linear_multiplicity(fk, r), k) for r in F.elements()
                if fk(r).is_zero and r.min_degree() == k]
    return out


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (7, 2), (13, 3)])
def test_roots_over_extension_match_brute_force(p, n):
    # roots(f, n) over F_p against a scan of F_{p^k} for k <= n
    base = make_field(p)
    fields = [make_field(p, k) for k in range(1, n + 1)]
    rng = random.Random(10 * p + n)
    tried = 0
    while tried < 6:
        f = Poly.from_ints(base, [rng.randrange(p) for _ in range(3)] + [1])
        # planted roots: two in F_p and the pair of a monic quadratic,
        # irreducible or not, each with a multiplicity below p
        for q in (P(base, rng.randrange(p), 1), P(base, rng.randrange(p), 1),
                  P(base, rng.randrange(p), rng.randrange(p), 1)):
            f = f * q ** rng.randrange(1, min(p, 4))
        want = _scan_roots(f, fields)
        if any(m >= p for _r, m, _k in want):
            continue  # planted roots that met: the multiplicity reached p
        tried += 1
        assert roots(f, n) == want
        assert roots(f, 2) == [t for t in want if t[2] <= 2]


def test_count_roots_by_degree():
    # mu^3+2mu^2+mu+3 is irreducible over F_5: three conjugate roots of degree 3
    assert count_roots_by_degree(P(F5, 3, 1, 2, 1), 6) == {
        1: 0, 2: 0, 3: 3, 4: 0, 5: 0, 6: 0,
    }
    # (mu+1)(mu^2+mu+1): one rational root, two of degree 2
    assert count_roots_by_degree(P(F5, 1, 2, 2, 1), 3) == {1: 1, 2: 2, 3: 0}


def test_count_matches_named_roots():
    rng = random.Random(13)
    for _ in range(10):
        f = Poly.from_ints(F5, [rng.randrange(5) for _ in range(5)] + [1])
        counts = count_roots_by_degree(f, 3)
        named = roots(f, 3)
        for k in (1, 2, 3):
            assert counts[k] == sum(1 for _r, _m, kk in named if kk == k)
        # counting lifted to F_25 sees the same degree <= 2 roots
        lifted_counts = count_roots_by_degree(lift_poly(f, F25), 2)
        assert lifted_counts == {1: counts[1], 2: counts[2]}


def test_roots_of_the_modulus_in_its_own_field():
    # the six conjugate roots of the modulus of F_{5^6} (15625 elements),
    # split apart by the equal-degree path
    F56 = make_field(5, 6)
    mod = P(F5, *F56.modulus)
    got = roots(mod, 6)
    assert len(got) == 6 and all(k == 6 for _r, _m, k in got)
    lifted = lift_poly(mod, F56)
    for r, m, _k in got:
        assert m == 1 and lifted(r).is_zero


def test_splitting_conjugate_pairs_takes_few_pow_mods(monkeypatch):
    # six irreducible quadratics over F_101: twelve roots in F_{101^2} that
    # come in Frobenius-conjugate pairs, which no shift in F_101 separates
    F101 = make_field(101)
    quads = [q for q in (P(F101, c, 1, 1) for c in range(101))
             if count_roots_by_degree(q, 2)[2] == 2][:6]
    f = Poly.one(F101)
    for q in quads:
        f = f * q
    calls = 0
    real = poly.pow_mod

    def counting_pow_mod(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(poly, "pow_mod", counting_pow_mod)
    got = roots(f, 2)
    assert len(got) == 12 and all(k == 2 and m == 1 for _r, m, k in got)
    assert calls <= 2 * len(got)


def test_linear_multiplicity():
    f = P(QQ, 1, 1) ** 3 * P(QQ, 5, 1)
    assert linear_multiplicity(f, QQ.from_int(-1)) == 3
    assert linear_multiplicity(f, QQ.from_int(1)) == 0


def test_fiber_sum_equals_degree_at_desk_scale():
    f = RatFunc.make(P(F7, 1, 0, 3, 1), P(F7, 2, 1))
    d = map_degree(f)
    for target in F7.elements():
        fiber = [x for x in F7.elements() if evaluate(f, x) == target]
        total = sum(ord_at(f, x, target) for x in fiber)
        if evaluate(f, INF) == target:
            total += ord_at(f, INF, target)
        # the fiber polynomial may have roots outside F_7
        num = f.num - Poly.constant(target) * f.den
        outside = num.degree - sum(
            m for _r, m, k in roots(num, 1)
        )
        assert total + outside == d
