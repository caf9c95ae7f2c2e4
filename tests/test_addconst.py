import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import tamecovers
from tamecovers.addconst import additive_twist, construct_family, find_merging_c
from tamecovers.errors import ExcludedC, FrobeniusCollision, InvalidType, TypeDegenerates
from tamecovers.field import make_field
from tamecovers.poly import Poly, RatFunc, evaluate, ord_at, roots

F5 = make_field(5)


def P(ctx, *ints):
    return Poly.from_ints(ctx, list(ints))


def test_family_p5_is_unique_with_known_data():
    fams = construct_family(5, 2, 4)
    assert len(fams) == 1
    fam = fams[0]
    assert (fam.a.raw, fam.rho.raw, fam.c.raw) == (3, 4, 2)
    want = Poly.one(F5) + P(F5, -1, 1) ** 2 * P(F5, -4, 1) ** 4 * P(F5, -3, 1) * F5.from_int(2)
    assert fam.merged.f == RatFunc.from_poly(want)
    assert fam.merged.ram_type.d == 7


def test_family_quadratic_and_order_three_conditions():
    fam = construct_family(5, 2, 4)[0]
    a, rho, e3 = fam.a, fam.rho, F5.from_int(2)
    assert (e3 * a * a + F5.from_int(2) * e3 * a + F5.from_int(2) - e3).is_zero
    # both linear conditions at 0 give the same rho
    assert rho * (e3 * a + F5.from_int(1)) == (e3 - F5.from_int(1)) * a
    assert rho * (e3 + F5.from_int(1)) == e3 - F5.from_int(2) - a
    # the factorization shape and the order-3 point at 0
    f = fam.merged.f
    assert ord_at(f, F5.zero, F5.zero) == 3
    shape = P(F5, -1, 1) ** 2 * P(F5, -4, 1) ** 4 * P(F5, -3, 1)
    assert f.num - f.den == shape * fam.c * f.den  # f - 1 = c * shape


def test_family_p7_two_conjugate_members():
    fams = construct_family(7, 3, 5)
    assert len(fams) == 2
    assert all(f.a.min_degree() == 2 for f in fams)
    # conjugate roots: Frobenius swaps them
    assert fams[0].a.frobenius() == fams[1].a


def test_family_rejects_bad_parameters():
    with pytest.raises(InvalidType):
        construct_family(5, 3, 3)  # e3 = e4
    with pytest.raises(InvalidType):
        construct_family(5, 4, 2)  # e3 > e4
    with pytest.raises(InvalidType):
        construct_family(4, 2, 3)  # p not prime
    with pytest.raises(InvalidType):
        construct_family(5, 2, 3)  # e3 + e4 != p + 1


def test_roots_are_dropped_exactly_when_points_collide():
    # the older derivation as the oracle: a solves e3*a^2 + 2*e3*a + 2 - e3,
    # rho follows from the order-3 conditions at 0, a root is dropped unless
    # 0, 1, rho, a are pairwise distinct, c = (a*rho^e4)^-1 and
    # f = 1 + c (x-1)^e3 (x-rho)^e4 (x-a)
    for p in (5, 7, 11, 13, 17, 19, 23):
        ctx = make_field(p)
        for e3 in range(2, (p + 1) // 2):
            e4 = p + 1 - e3
            want = []
            for a, _m, _k in roots(Poly.from_ints(ctx, [2 - e3, 2 * e3, e3]), 2):
                actx = a.ctx
                den1 = actx.from_int(e3) * a + actx.one
                if den1.is_zero:
                    continue
                rho = (actx.from_int(e3) - actx.one) * a / den1
                if len({actx.zero, actx.one, rho, a}) != 4:
                    continue
                c = (a * rho ** e4).inverse()
                shape = (P(actx, -1, 1) ** e3 * Poly.from_elems(actx, [-rho, actx.one]) ** e4
                         * Poly.from_elems(actx, [-a, actx.one]))
                want.append((a, rho, c, RatFunc.from_poly(Poly.one(actx) + shape * c)))
            got = [(f.a, f.rho, f.c, f.merged.f) for f in construct_family(p, e3, e4)]
            assert got == want, (p, e3)


def test_known_counts_against_simple_exceptional_shortcut():
    # the shortcut set {(e3-2)/2, (2e3-1)/3, -1} predicts the dropped roots
    # at small p but disagrees with the verified covers at p = 11 and 13:
    # there a = (e3-2)/2 still gives four distinct points and a cover that
    # passes full ramification analysis
    assert len(construct_family(5, 2, 4)) == 1
    assert len(construct_family(7, 2, 6)) == 1
    assert len(construct_family(7, 3, 5)) == 2
    for p, e3 in [(11, 3), (13, 3)]:
        ctx = make_field(p)
        fams = construct_family(p, e3, p + 1 - e3)
        assert len(fams) == 2
        shortcut = {
            ctx.from_int(e3 - 2) / ctx.from_int(2),
            ctx.from_int(2 * e3 - 1) / ctx.from_int(3),
            ctx.from_int(-1),
        }
        assert any(f.a in shortcut for f in fams)


def test_twist_splits_branch_point():
    fam = construct_family(5, 2, 4)[0]
    tw = additive_twist(fam.merged, F5.from_int(2))
    assert tw.lam == F5.from_int(3)
    assert sorted(tw.cover.ram_type.single_cycle) == [2, 3, 4, 7]
    g = tw.cover.cover
    assert evaluate(g, F5.zero) == F5.zero
    assert evaluate(g, F5.one) == F5.one
    assert evaluate(g, fam.rho) == tw.lam


def test_twist_preserves_ramification_points_and_indices():
    fam = construct_family(5, 2, 4)[0]
    for c in (2, 3):
        tw = additive_twist(fam.merged, F5.from_int(c))
        g = tw.cover.cover
        for pt, e in [(F5.zero, 3), (F5.one, 2), (fam.rho, 4)]:
            assert ord_at(g, pt, evaluate(g, pt)) == e


def test_twist_exclusions():
    fam = construct_family(5, 2, 4)[0]
    with pytest.raises(ExcludedC):
        additive_twist(fam.merged, F5.zero)
    with pytest.raises(ExcludedC):
        additive_twist(fam.merged, F5.from_int(-1))
    rho_p = fam.rho ** 5
    with pytest.raises(ExcludedC):
        additive_twist(fam.merged, -(rho_p.inverse()))


PERTURBED_TWIST = """
import dataclasses
from tamecovers.addconst import additive_twist, construct_family
from tamecovers.errors import TypeDegenerates
from tamecovers.field import make_field
m = construct_family(5, 2, 4)[0].merged
try:
    additive_twist(dataclasses.replace(m, rho=m.rho + make_field(5).from_int(3)), make_field(5).one)
except TypeDegenerates as exc:
    print(__debug__, exc.detail)
"""


def test_perturbed_twist_names_the_failed_clause_even_under_O():
    m = construct_family(5, 2, 4)[0].merged
    with pytest.raises(TypeDegenerates, match="failed type verification: index at 2 is 1"):
        additive_twist(dataclasses.replace(m, rho=m.rho + F5.from_int(3)), F5.one)

    src = os.path.dirname(os.path.dirname(tamecovers.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", PERTURBED_TWIST], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("False twist by c = 1 failed type verification: index at 2")


def test_merge_split_round_trip_exact():
    for p in (5, 7, 11):
        for e3 in range(2, (p - 1) // 2 + 1):
            e4 = p + 1 - e3
            if not e3 < e4 < p:
                continue
            for fam in construct_family(p, e3, e4):
                ctx = fam.merged.f.ctx
                rho_excl = -((fam.rho ** p).inverse())
                c = next(
                    ctx.from_int(k) for k in range(2, p)
                    if ctx.from_int(k) != rho_excl
                )
                tw = additive_twist(fam.merged, c)
                merged_back, c_back = find_merging_c(tw.cover.cover, ctx.one, fam.rho)
                assert merged_back == fam.merged.f
                assert c_back == -c / (ctx.one + c)


def test_find_merging_c_rejects_collapsed_points():
    fam = construct_family(5, 2, 4)[0]
    tw = additive_twist(fam.merged, F5.from_int(2))
    with pytest.raises(FrobeniusCollision):
        find_merging_c(tw.cover.cover, F5.one, F5.one)


def test_hp_transfer_and_lower_bound():
    # merged-type counts transfer unchanged to the split type; Q has the
    # root 0 exactly when e3 = 2, so h_p = 2 - [e3 = 2]
    for p in (5, 7, 11):
        for e3 in range(2, (p - 1) // 2 + 1):
            e4 = p + 1 - e3
            if not e3 < e4 < p:
                continue
            fams = construct_family(p, e3, e4)
            assert len(fams) == 2 - (e3 == 2)


@pytest.mark.parametrize("old, new", [
    ("A * B, B * (B - 1) // 2]", "A * B + 1, B * (B - 1) // 2]"),  # a coefficient of Q
    ("ctx.from_int(k + 1)", "ctx.from_int(k + 2)"),  # the termwise integration
])
def test_planted_fault_fails_the_additive_count(tmp_path, old, new):
    # a copy of the package with one fault planted in construct_family
    pkg = tmp_path / "tamecovers"
    shutil.copytree(os.path.dirname(tamecovers.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    text = (pkg / "addconst.py").read_text()
    assert text.count(old) == 1
    (pkg / "addconst.py").write_text(text.replace(old, new))
    out = subprocess.run(
        [sys.executable, "-m", "tamecovers", "verify", "--suite", "formulas", "--p_max", "7"],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 2, out.stderr
    got = {c["name"]: c["got"] for c in json.loads(out.stdout)["checks"]}
    assert (got["additive-count-p5"], got["additive-count-p7"]) == ([2], [2, 3])
