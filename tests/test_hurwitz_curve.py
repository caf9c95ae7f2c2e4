"""The lambda-map of a type (d; e1, e2, e3, p-1) is the normalized 3-point
cover of the dual type (h_p; p-e1, p-e2, p-e3), built by multconst in
closed form and certified against h.  Two references that do not use the
closed form: the gcd reduction of y^p (1 - h) / (y^p - h), and the kernel
solve of the dual type, which uses neither h nor the closed form; where a
dual index is 1 there is no 3-point type, and the map has two branch
points."""

import random

import pytest

from tamecovers import multconst, threepoint
from tamecovers.errors import FormulaMismatch
from tamecovers.field import is_prime, make_field
from tamecovers.multconst import FourPointType, lambda_map
from tamecovers.poly import Poly, RatFunc
from tamecovers.threepoint import ThreePointSpec, kernel_cover


def admissible(p, e1, e2, e3):
    E = e1 + e2 + e3
    return E % 2 == 0 and p + 1 <= E <= p - 1 + 2 * min(e1, e2, e3)


def admissible_types(p):
    return [FourPointType(p, e1, e2, e3)
            for e1 in range(2, p) for e2 in range(2, p) for e3 in range(2, p - 1)
            if admissible(p, e1, e2, e3)]


def sampled_types(p, k, rng):
    out = []
    while len(out) < k:
        es = (rng.randrange(2, p), rng.randrange(2, p), rng.randrange(2, p - 1))
        if admissible(p, *es):
            out.append(FourPointType(p, *es))
    return out


def reduced_reference(L):
    """The pair lambda_map returned before its closed form: a gcd reduction."""
    h = L.base.cover
    ypow = Poly.from_ints(h.ctx, [0] * L.p + [1])
    return RatFunc.make(ypow * (h.den - h.num), ypow * h.den - h.num)


def check_type(t, reduce=True):
    F = make_field(t.p)
    L = lambda_map(F, t)
    if reduce:
        assert L.map == reduced_reference(L), t
    hp = (3 * t.p - 1 - t.E) // 2
    assert L.degree == hp
    dual = (t.p - t.e1, t.p - t.e2, t.p - t.e3)
    if min(dual) >= 2:
        assert (L.map.num, L.map.den) == kernel_cover(F, ThreePointSpec(*dual)), t
        return
    # a dual index 1 leaves two branch points: lambda = y^hp or 1 - (1 - y)^hp
    y, one = Poly.x(F), Poly.one(F)
    power = y ** hp if dual[1] == 1 else one - (one - y) ** hp
    assert L.map == RatFunc.from_poly(power), t


@pytest.mark.parametrize("p", [q for q in range(3, 18) if is_prime(q)])
def test_closed_form_matches_both_references_for_every_type(p):
    for t in admissible_types(p):
        check_type(t)


def test_closed_form_matches_on_seeded_sweep_types():
    # the dual reference only: the gcd reduction costs most at large p
    rng = random.Random(20121)
    for p in [q for q in range(23, 102) if is_prime(q)]:
        for t in sampled_types(p, 10, rng):
            check_type(t, reduce=False)


def plant_in_lambda(monkeypatch, series):
    """Run multconst's closed-form call (the dual type's, not h's) with
    ``series`` in place of threepoint._hyp2f1."""
    real = multconst.closed_form

    def planted(*args):
        with monkeypatch.context() as m:
            m.setattr(threepoint, "_hyp2f1", series)
            return real(*args)

    monkeypatch.setattr(multconst, "closed_form", planted)


def test_off_by_one_in_a_parameter_fails_the_identity_clause(monkeypatch):
    calls = []
    real = threepoint._hyp2f1

    def shifted(p, n, b, c):
        calls.append(n)
        # the second series is B'; shift its numerator parameter
        return real(p, n, b + 1 if len(calls) == 2 else b, c)

    plant_in_lambda(monkeypatch, shifted)
    with pytest.raises(FormulaMismatch, match="identity clause"):
        lambda_map(make_field(13), FourPointType(13, 5, 4, 7))


def test_common_factor_fails_the_gcd_clause(monkeypatch):
    real = multconst.closed_form
    p = 13

    def times_y_plus_1(*args):
        # N and D both times (y + 1); D stays monic
        return tuple([(a + b) % p for a, b in zip([0] + c, c + [0])] for c in real(*args))

    monkeypatch.setattr(multconst, "closed_form", times_y_plus_1)
    with pytest.raises(FormulaMismatch, match="gcd clause"):
        lambda_map(make_field(p), FourPointType(p, 5, 4, 7))


def test_a_broken_closed_form_is_a_formula_mismatch(monkeypatch):
    # a numerator factor that vanishes mod p zeroes the tail of the series
    real = threepoint._hyp2f1
    plant_in_lambda(monkeypatch, lambda p, n, b, c: real(p, n, 0, c))
    with pytest.raises(FormulaMismatch, match=r"closed form for type \(11; 8,9,6\) over F_13"):
        lambda_map(make_field(13), FourPointType(13, 5, 4, 7))
    # a recurrence denominator that vanishes mod p
    monkeypatch.undo()
    plant_in_lambda(monkeypatch, lambda p, n, b, c: real(p, n, b, 0))
    with pytest.raises(FormulaMismatch, match="vanishes mod 13"):
        lambda_map(make_field(13), FourPointType(13, 5, 4, 7))


def test_wrong_hurwitz_count_fails_the_degree_clause(monkeypatch):
    # the clause certifies the h_p that hurwitz-p prints, not a second copy
    real = multconst.p_hurwitz_4pt
    monkeypatch.setattr(multconst, "p_hurwitz_4pt", lambda t: real(t) + 1)
    with pytest.raises(FormulaMismatch, match="degree clause"):
        lambda_map(make_field(5), FourPointType(5, 2, 3, 3))


def test_no_reduction_on_the_lambda_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("lambda_map reduced a pair")

    monkeypatch.setattr(RatFunc, "make", refuse)
    L = lambda_map(make_field(11), FourPointType(11, 4, 5, 3))
    assert L.degree == 10

