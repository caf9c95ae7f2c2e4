import contextlib
import io
import itertools
import json
import math
import random

import pytest

from tamecovers import cli, threepoint
from tamecovers.errors import InvalidType, NoSuchCover
from tamecovers.field import FieldElem, make_field
from tamecovers.poly import INF, Poly, RatFunc, evaluate
from tamecovers.ramify import genus_from_type, single_cycle_type
from tamecovers.threepoint import ThreePointSpec, kernel_basis, solve_three_point

from mobius_helper import mobius
from three_point_oracle import is_three_point

QQ = make_field(0)
F5 = make_field(5)
F7 = make_field(7)


def P(ctx, *ints):
    return Poly.from_ints(ctx, list(ints))


def kernel_of(rows, ctx):
    """kernel_basis on FieldElem rows, with FieldElem basis vectors."""
    basis = kernel_basis([[e.raw for e in row] for row in rows], ctx)
    return [[FieldElem(ctx, v) for v in vec] for vec in basis]


def test_three_point_spec_validation():
    assert ThreePointSpec(3, 2, 2).d == 3
    with pytest.raises(InvalidType):
        ThreePointSpec(2, 2, 4)  # even sum
    with pytest.raises(InvalidType):
        ThreePointSpec(1, 2, 2)
    with pytest.raises(InvalidType):
        ThreePointSpec(2, 2, 7)  # e3 > d


def test_known_cover_322():
    nc = solve_three_point(QQ, ThreePointSpec(3, 2, 2))
    assert nc.cover == RatFunc.make(P(QQ, 0, 0, 0, 1), P(QQ, -2, 3))


def test_known_cover_223():
    nc = solve_three_point(QQ, ThreePointSpec(2, 2, 3))
    f = nc.cover
    assert f == RatFunc.from_poly(P(QQ, 0, 0, 3, -2))
    # 1 - f factors with the double point at 1
    assert f.den - f.num == P(QQ, -1, 1) ** 2 * P(QQ, 1, 2) * f.den


def test_no_cover_when_degree_reaches_p():
    with pytest.raises(NoSuchCover):
        solve_three_point(make_field(3), ThreePointSpec(2, 2, 3))


def test_solution_reduces_mod_p():
    def reduce_mod(rf, Fp):
        def red(c):
            fr = c.raw
            return Fp.from_int(fr.numerator) / Fp.from_int(fr.denominator)

        return RatFunc.make(*(Poly.from_elems(Fp, map(red, g.coeffs)) for g in (rf.num, rf.den)))

    for spec in [ThreePointSpec(3, 2, 2), ThreePointSpec(2, 2, 3), ThreePointSpec(4, 3, 2)]:
        over_q = solve_three_point(QQ, spec).cover
        over_p = solve_three_point(F7, spec).cover
        assert reduce_mod(over_q, F7) == over_p


def test_uniqueness_and_exact_type_small_sweep():
    for d in range(2, 9):
        for es in itertools.product(range(2, d + 1), repeat=3):
            if sum(es) != 2 * d + 1:
                continue
            nc = solve_three_point(QQ, ThreePointSpec(*es))
            assert nc.ram_type == single_cycle_type(d, es)
            assert is_three_point(nc.cover, es)
            assert genus_from_type(nc.ram_type) == 0


def test_solve_succeeds_at_degree_thirty():
    for es in [(20, 21, 20), (30, 29, 2), (11, 21, 29)]:
        nc = solve_three_point(QQ, ThreePointSpec(*es))
        assert nc.ram_type == single_cycle_type(30, es)


def test_perturbed_solution_fails_the_side_conditions():
    # the solved map is rigid: nudging one numerator coefficient breaks the
    # prescribed index at 0 or at infinity
    nc = solve_three_point(QQ, ThreePointSpec(3, 2, 2))
    for idx in (0, 1):
        coeffs = list(nc.cover.num.coeffs)
        coeffs[idx] = coeffs[idx] + QQ.one
        bad = RatFunc.make(Poly.from_elems(QQ, coeffs), nc.cover.den)
        assert not is_three_point(bad, (3, 2, 2))


def test_symmetry_swapping_e1_e2():
    # swapping the first two indices conjugates by y -> 1 - y on both sides
    f = solve_three_point(QQ, ThreePointSpec(2, 3, 2)).cover
    g = solve_three_point(QQ, ThreePointSpec(3, 2, 2)).cover
    swap = (QQ.from_int(-1), QQ.one, QQ.zero, QQ.one)
    assert mobius(g, pre=swap, post=swap) == f


def test_normalization_holds():
    nc = solve_three_point(F5, ThreePointSpec(3, 2, 2))
    f = nc.cover
    assert evaluate(f, F5.zero) == F5.zero
    assert evaluate(f, F5.one) == F5.one
    assert evaluate(f, INF) == INF


def test_kernel_basis_small_system():
    # x + y = 0, y + z = 0 over F_5 has the line (1, -1, 1)
    rows = [
        [F5.one, F5.one, F5.zero],
        [F5.zero, F5.one, F5.one],
    ]
    basis = kernel_of(rows, F5)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == F5.zero and v[1] + v[2] == F5.zero


def _full_system_cover(ctx, spec):
    """(y^e1 A, B), B monic, from the kernel of the full coefficient
    matching of y^e1 A - B - (y-1)^e2 C = 0: d+1 equations in A, B, C."""
    e1, e2, e3, d = spec.e1, spec.e2, spec.e3, spec.d
    na, nb, nc = d - e1 + 1, d - e3 + 1, d - e2 + 1
    ym1 = [ctx.from_int(math.comb(e2, k) * (-1) ** (e2 - k)) for k in range(e2 + 1)]
    rows = []
    for j in range(d + 1):
        row = [ctx.zero] * (na + nb + nc)
        if 0 <= j - e1 < na:
            row[j - e1] = ctx.one
        if j < nb:
            row[na + j] = -ctx.one
        for i in range(nc):
            if 0 <= j - i <= e2:
                row[na + nb + i] = -ym1[j - i]
        rows.append(row)
    basis = kernel_of(rows, ctx)
    assert len(basis) == 1
    vec = basis[0]
    A = Poly.from_elems(ctx, vec[:na])
    B = Poly.from_elems(ctx, vec[na : na + nb])
    scale = B.lc.inverse()
    return Poly.x(ctx) ** e1 * A * scale, B * scale


@pytest.mark.parametrize("ctx", [QQ, F5, F7, make_field(11), make_field(13)], ids=str)
def test_solve_matches_the_full_system(ctx):
    d_max = 10 if ctx.characteristic == 0 else ctx.characteristic - 1
    for d in range(2, d_max + 1):
        for es in itertools.product(range(2, d + 1), repeat=3):
            if sum(es) != 2 * d + 1:
                continue
            spec = ThreePointSpec(*es)
            f = solve_three_point(ctx, spec).cover
            assert (f.num, f.den) == _full_system_cover(ctx, spec), es


@pytest.mark.parametrize("ctx", [make_field(3), make_field(3, 2)], ids=str)
def test_kernel_basis_matches_brute_force(ctx):
    rng = random.Random(ctx.order)
    elems = list(ctx.elements())
    max_cols = 5 if ctx.order == 3 else 3

    def dot(row, v):
        return sum((a * b for a, b in zip(row, v)), ctx.zero)

    for trial in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, max_cols)
        rows = [[rng.choice(elems) for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3 == 0:
            zc = rng.randrange(ncols)
            for row in rows:
                row[zc] = ctx.zero
        if trial % 2 == 0 and nrows > 2:
            a, b = rng.choice(elems), rng.choice(elems)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        kernel = {v for v in itertools.product(elems, repeat=ncols)
                  if all(dot(row, v).is_zero for row in rows)}
        basis = kernel_of(rows, ctx)
        assert len(kernel) == ctx.order ** len(basis)
        assert all(tuple(v) in kernel for v in basis)
        span = {tuple(sum((c * v[i] for c, v in zip(cs, basis)), ctx.zero)
                      for i in range(ncols))
                for cs in itertools.product(elems, repeat=len(basis))}
        assert span == kernel


def test_common_factor_fails_the_gcd_clause(monkeypatch):
    real = threepoint.closed_form

    def times_y_plus_1(p, *es):
        # num and den both times (y + 1); den stays monic
        return tuple([(a + b) % p for a, b in zip([0] + c, c + [0])] for c in real(p, *es))

    monkeypatch.setattr(threepoint, "closed_form", times_y_plus_1)
    with pytest.raises(NoSuchCover, match=r"gcd clause: .* type \(4; 3,3,3\) over F_7"):
        solve_three_point(F7, ThreePointSpec(3, 3, 3))


@pytest.mark.parametrize("shift", ["n", "b", "c"])
def test_off_by_one_in_the_series_fails_the_closed_form_check(monkeypatch, shift):
    real = threepoint._hyp2f1

    def shifted(p, n, b, c):
        args = dict(n=n, b=b, c=c)
        args[shift] += 1
        return real(p, **args)

    monkeypatch.setattr(threepoint, "_hyp2f1", shifted)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["verify", "--suite", "formulas", "--p_max", "7"])
    assert code == 2
    failed = {c["name"] for c in json.loads(buf.getvalue())["checks"] if not c["pass"]}
    assert "three-point-closed-form-p5" in failed
