"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a single "ACCEPTANCE nn <name>: PASS|FAIL" line
(visible with pytest -s or in the captured output of a failure).
"""

import functools
import itertools
import random

from tamecovers.addconst import additive_twist, construct_family, find_merging_c
from tamecovers.errors import InvalidMu, InvalidType
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
    supersingular_values,
)
from tamecovers.poly import Poly, RatFunc, lift_ratfunc
from tamecovers.ramify import analyze_cover, genus_from_type, single_cycle_type
from tamecovers.symhurwitz import verify_min_formula
from tamecovers.threepoint import ThreePointSpec, solve_three_point

from mobius_helper import mobius

QQ = make_field(0)
PRIMES = (5, 7, 11, 13)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")

        return wrapper

    return deco


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


@criterion(1, "three-point uniqueness over Q, d <= 12")
def test_criterion_01_three_point_uniqueness():
    solved = 0
    for d in range(2, 13):
        for es in itertools.product(range(2, d + 1), repeat=3):
            if sum(es) != 2 * d + 1:
                continue
            nc = solve_three_point(QQ, ThreePointSpec(*es))
            # solve_three_point only returns after the kernel had dimension
            # exactly 1 and the analysis confirmed the exact type
            assert nc.ram_type == single_cycle_type(d, es)
            solved += 1
    assert solved >= 200


@criterion(2, "worked example: type (p; 3,2,p-2,p-1) at p = 5")
def test_criterion_02_example_b():
    F5 = make_field(5)
    h = solve_three_point(QQ, ThreePointSpec(3, 2, 2))
    assert h.cover == RatFunc.make(
        Poly.from_ints(QQ, [0, 0, 0, 1]), Poly.from_ints(QQ, [-2, 3])
    )
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    assert L.degree == 5 - 2
    assert [s.raw for s in supersingular_values(L)] == [4]  # 2/3 in F_5
    assert bad_degree(5, (2, 3, 3)).bad == 5


@criterion(3, "worked example: type (d; 2,2,p-3,p-1) at p in {5,7,11,13}")
def test_criterion_03_example_a():
    for p in PRIMES:
        L = lambda_map(make_field(p), FourPointType(p, 2, 2, p - 3))
        assert L.degree == p - 1
        assert supersingular_values(L) == ()
        assert L.base.cover.den.degree == 0
        assert bad_degree(p, (2, 2, p - 3)).bad == 0


@criterion(4, "degree identity (3p-1-E)/2 over the full admissible sweep")
def test_criterion_04_degree_identity_sweep():
    total = 0
    for p in PRIMES:
        ctx = make_field(p)
        for t in admissible_types(p):
            L = lambda_map(ctx, t)  # raises FormulaMismatch on any failure
            assert L.degree == (3 * p - 1 - t.E) // 2
            assert L.degree == p - t.e1 + t.d_tilde - t.e2
            total += 1
    assert total == 8 + 36 + 184 + 320


@criterion(5, "tuple enumeration equals min_i e_i(d+1-e_i), d <= 8")
def test_criterion_05_min_formula():
    checked = 0
    for d in range(3, 9):
        for es in itertools.combinations_with_replacement(range(2, d + 1), 4):
            if sum(e - 1 for e in es) != 2 * d - 2:
                continue
            result = verify_min_formula(d, es)
            assert result["agree"], (d, es, result)
            checked += 1
    assert checked >= 20


@criterion(6, "lift/contract round trip over mu in F_{p^2}, p in {5,7,11}")
def test_criterion_06_round_trip():
    for p in (5, 7, 11):
        ctx = make_field(p)
        ext2 = make_field(p, 2)
        trips = 0
        for t in admissible_types(p):
            L = lambda_map(ctx, t)
            h_lifted = lift_ratfunc(L.base.cover, ext2)
            done = verified = 0
            for mu in ext2.elements():
                if done >= 20:
                    break
                try:
                    res = lift(L.base, mu, verify=verified < 2)
                except InvalidMu:
                    continue
                verified += 1
                back = contract(res.cover.cover, res.lam, res.mu, verify=False)
                assert back.cover == h_lifted, (p, t, mu)
                done += 1
            assert done >= 1
            trips += done
        assert trips >= 20


@criterion(7, "fiber counts across F_25 for type (p; 3,2,p-2,p-1), p = 5")
def test_criterion_07_fiber_oracle():
    F5 = make_field(5)
    F25 = make_field(5, 2)
    L = lambda_map(F5, FourPointType(5, 3, 2, 3))
    assert L.degree == 3
    generic = 0
    for lam0 in F25.elements():
        if lam0.is_zero or lam0 == F25.one:
            continue
        if is_supersingular_value(L, lam0) or is_critical_value(L, lam0):
            continue
        assert count_covers_at(L, lam0) == 3, lam0
        generic += 1
    assert generic >= 20
    assert count_covers_at(L, F5.from_int(4)) == 2 < 3


@criterion(8, "piecewise bad degree and divisibility by p over the sweep")
def test_criterion_08_bad_degree():
    for p in PRIMES:
        for es in itertools.combinations_with_replacement(range(2, p), 3):
            try:
                t = FourPointType(p, *es)
            except InvalidType:
                continue
            d = t.d
            ordered = tuple(sorted(es, key=lambda e: (e * (d + 1 - e), e)))
            res = bad_degree(p, ordered)  # raises FormulaMismatch if bad != h - h_p
            if res.case == "mixed":
                assert res.bad % p == 0
                assert res.bad // p == d + 1 - p
    assert bad_degree(5, (2, 3, 3)).bad == 5
    assert bad_degree(5, (2, 2, 2)).bad == 0
    r = bad_degree(7, (2, 5, 5))
    assert r.bad == 14 and r.h_p == 0


@criterion(9, "additive families, twist, and merge/split round trips")
def test_criterion_09_additive_construction():
    F5 = make_field(5)
    fams = construct_family(5, 2, 4)
    assert len(fams) == 1
    fam = fams[0]
    assert (fam.a.raw, fam.rho.raw, fam.c.raw) == (3, 4, 2)
    assert fam.merged.ram_type.d == 7  # verified merged type (7; 7,3,2-4)
    assert sorted(map(list, fam.merged.ram_type.classes)) == sorted(
        [[7], [3, 1, 1, 1, 1], [4, 2, 1]]
    )

    fams7 = construct_family(7, 3, 5)
    assert len(fams7) == 2
    assert all(f.a.min_degree() == 2 for f in fams7)
    assert fams7[0].a.frobenius() == fams7[1].a

    tw = additive_twist(fam.merged, F5.from_int(2))
    assert tw.lam == F5.from_int(3)
    assert sorted(tw.cover.ram_type.single_cycle) == [2, 3, 4, 7]

    for p in (5, 7, 11):
        for e3 in range(2, (p - 1) // 2 + 1):
            e4 = p + 1 - e3
            if not e3 < e4 < p:
                continue
            members = construct_family(p, e3, e4)
            assert len(members) >= 1
            for member in members:
                ctx = member.merged.f.ctx
                rho_excl = -((member.rho ** p).inverse())
                c = next(
                    ctx.from_int(k)
                    for k in range(2, p)
                    if ctx.from_int(k) != rho_excl
                )
                tw = additive_twist(member.merged, c)
                merged_back, _ = find_merging_c(tw.cover.cover, ctx.one, member.rho)
                assert merged_back == member.merged.f


@criterion(10, "property suites: axioms, Frobenius, calculus, separability")
def test_criterion_10_property_suites():
    rng = random.Random(2024)
    F25 = make_field(5, 2)
    elems = list(F25.elements())
    for _ in range(80):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inverse() == F25.one
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()

    F7 = make_field(7)
    for _ in range(30):
        f = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 7))])
        g = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 7))])
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        from tamecovers.poly import poly_gcd

        gg = poly_gcd(f * g, g)
        if not g.is_zero:
            assert (g % gg).is_zero

    cover = RatFunc.from_poly(Poly.from_ints(F7, [0, 0, 3, -2]))
    base = analyze_cover(cover, candidates=F7.elements()).ram_type
    assert genus_from_type(base) == 0
    for _ in range(5):
        while True:
            pre = tuple(F7.from_int(rng.randrange(7)) for _ in range(4))
            post = tuple(F7.from_int(rng.randrange(7)) for _ in range(4))
            if not (pre[0] * pre[3] - pre[1] * pre[2]).is_zero and not (
                post[0] * post[3] - post[1] * post[2]
            ).is_zero:
                break
        scrambled = analyze_cover(mobius(cover, pre=pre, post=post), candidates=F7.elements()).ram_type
        assert sorted(scrambled.classes) == sorted(base.classes)

    for p in PRIMES:
        ctx = make_field(p)
        for t in admissible_types(p):
            L = lambda_map(ctx, t)
            assert not L.map.derivative().num.is_zero, (p, t)
