import random

import pytest

from tamecovers.errors import (
    CharZero,
    DivisionByZero,
    MixedContexts,
    NotPrime,
    UsageError,
)
from tamecovers.field import _pdivmod, _pmul, make_field
from tamecovers.poly import Poly

F5 = make_field(5)
F7 = make_field(7)
F25 = make_field(5, 2)
QQ = make_field(0)


def test_make_field_prime():
    assert F5.characteristic == 5
    assert F5.order == 5
    assert make_field(5, 1) is F5  # one context per field, however it is named


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(4)


def test_extension_modulus_is_t2_plus_2():
    # first monic quadratic over F_5 without a root, scanning constants fastest
    assert F25.modulus == (2, 0, 1)


def test_modulus_determinism():
    assert make_field(5, 2) is F25
    # the search itself is deterministic, independent of the context cache
    from tamecovers.field import _smallest_modulus

    for p, n in [(5, 2), (7, 2), (7, 3), (11, 2), (13, 3)]:
        assert _smallest_modulus(p, n) == make_field(p, n).modulus
        assert _smallest_modulus(p, n) == _smallest_modulus(p, n)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2), (11, 2), (13, 3)])
def test_modulus_is_irreducible(p, n):
    # an irreducible modulus has no roots in any proper subfield tower step
    ctx = make_field(p, n)
    from tamecovers.poly import roots

    base = make_field(p)
    mod = Poly.from_ints(base, list(ctx.modulus))
    found = roots(mod, n)
    assert all(k == n for _r, _m, k in found)
    assert len(found) == n


def test_basic_arith_examples():
    assert F5.from_int(3).inverse() == F5.from_int(2)
    assert F7.from_int(2) ** 7 == F7.from_int(2)  # a^p = a
    assert QQ.from_int(2) / QQ.from_int(3) == QQ.parse("2/3")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F5.zero.inverse()
    with pytest.raises(DivisionByZero):
        QQ.one / QQ.zero


def test_mixed_contexts_rejected():
    with pytest.raises(MixedContexts):
        F5.one + F7.one
    with pytest.raises(MixedContexts):
        F5.one * F25.one


def test_frobenius_on_prime_field_is_identity():
    assert F5.from_int(4).frobenius() == F5.from_int(4)


def test_frobenius_of_generator():
    t = F25.gen
    ft = t.frobenius()
    assert ft == F25.from_int(4) * t
    # the image still satisfies the modulus relation
    assert (ft * ft + F25.from_int(2)).is_zero


def test_frobenius_squared_is_identity_on_F25():
    for e in F25.elements():
        assert e.frobenius().frobenius() == e


def test_frobenius_needs_positive_characteristic():
    with pytest.raises(CharZero):
        QQ.from_int(2).frobenius()


def test_frobenius_is_additive_and_multiplicative():
    rng = random.Random(7)
    elems = list(F25.elements())
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


@pytest.mark.parametrize("ctx", [F5, F25, QQ])
def test_field_axioms_on_samples(ctx):
    rng = random.Random(11)
    if ctx.order is None:
        from fractions import Fraction

        sample = [ctx.from_fraction(Fraction(rng.randrange(-40, 40), rng.randrange(1, 12)))
                  for _ in range(12)]
    else:
        sample = list(ctx.elements())
    for _ in range(60):
        a, b, c = rng.choice(sample), rng.choice(sample), rng.choice(sample)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inverse() == ctx.one


def test_pow_negative_exponent():
    a = F7.from_int(3)
    assert a ** -1 == a.inverse()
    assert a ** -2 == (a * a).inverse()
    assert a ** 0 == F7.one


def test_canonical_form_idempotent():
    a = F25.elem(F25.gen)
    assert a is F25.gen or a == F25.gen
    assert F5.from_int(12) == F5.from_int(7)
    assert QQ.parse("4/6") == QQ.parse("2/3")


def test_text_format_round_trip():
    for ctx, literals in [
        (F5, ["0", "3", "4"]),
        (F25, ["0*t+0", "4*t+1", "1*t+2"]),
        (QQ, ["0", "-2/3", "7", "11/4"]),
    ]:
        for s in literals:
            assert repr(ctx.parse(s)) == s


def test_parse_rejects_out_of_grammar():
    with pytest.raises(UsageError):
        F5.parse("7")
    with pytest.raises(UsageError):
        F5.parse("-1")
    with pytest.raises(UsageError):
        F25.parse("t+1")  # coefficient must be explicit
    with pytest.raises(UsageError):
        QQ.parse("2/-3")


def test_lift_to_extension():
    a = F5.from_int(3)
    al = a.lift_to(F25)
    assert al.ctx is F25
    assert al == F25.from_int(3)
    with pytest.raises(MixedContexts):
        F7.one.lift_to(F25)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 7), (5, 4), (17, 6), (101, 2)])
def test_folded_mul_matches_kernel_product_mod_modulus(p, n):
    ctx = make_field(p, n)
    rng = random.Random(100 * p + n)
    for _ in range(200):
        a = tuple(rng.randrange(p) for _ in range(n))
        b = tuple(rng.randrange(p) for _ in range(n))
        rem = _pdivmod(ctx.prime, _pmul(ctx.prime, a, b), ctx.modulus)[1]
        assert ctx._mul(a, b) == tuple(rem) + (0,) * (n - len(rem))


def test_min_degree():
    assert F5.from_int(2).min_degree() == 1
    assert F25.from_int(3).min_degree() == 1
    assert F25.gen.min_degree() == 2
    F8 = make_field(2, 3)
    assert F8.gen.min_degree() == 3


def test_element_order_is_deterministic():
    seq = [e.raw for e in F25.elements()]
    assert seq[:6] == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]


def test_ints_are_not_elements():
    # an int enters a field only through from_int or parse
    x = Poly.x(F5)
    for combine in (lambda: F5.one + 1, lambda: 1 + F5.one, lambda: x - 1, lambda: 2 * x):
        with pytest.raises(TypeError):
            combine()
    with pytest.raises(UsageError):
        F5.elem(1)
    assert F5.one != 1
    assert F5.one + F5.from_int(1) == F5.parse("2")
