import random
from itertools import takewhile

import pytest

from tamecovers.errors import (
    CharZero,
    DivisionByZero,
    MixedContexts,
    NotPrime,
    UsageError,
)
from tamecovers.field import _pdivmod, _pmul, is_prime, make_field
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
    # an irreducible modulus has all n of its roots in degree n, none in a
    # proper subfield
    ctx = make_field(p, n)
    from tamecovers.poly import count_roots_by_degree

    mod = Poly.from_ints(make_field(p), list(ctx.modulus))
    assert count_roots_by_degree(mod, n) == {k: n if k == n else 0 for k in range(1, n + 1)}


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
    with pytest.raises(UsageError):
        QQ.parse("4/6")


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


def _grammar_samples(ctx, rng, k=12):
    if ctx.characteristic == 0:
        return [ctx.from_int(rng.randint(-50, 50)) / ctx.from_int(rng.randint(1, 20))
                for _ in range(k)]
    return rng.sample(list(ctx.elements()), min(k, ctx.order))


def _non_printed_variants(ctx, s):
    """Spellings of the element printed as s that are not its printed form."""
    n = getattr(ctx, "n", 1)
    last = max(i for i, ch in enumerate(s) if ch in "0123456789")
    out = [
        s[:last] + "²" + s[last + 1:],  # non-ASCII digits
        s[:last] + "٣" + s[last + 1:],
        " " + s, s + " ", s + "\n",  # surrounding whitespace
        s + "+0",  # an extra term
        s + "/1",  # a non-reduced fraction
    ]
    body = s.removeprefix("-")
    out.append(s[: len(s) - len(body)] + "0" + body)  # a leading zero on a coefficient
    if n > 1:
        head, rest = s.split("+", 1)
        coef = head.split("*")[0]
        out += [
            rest,  # a missing term
            f"{coef}*t^{n}+{rest}",  # the wrong power of t
            s.replace("*t+", "*t^1+"),
        ]
    else:
        out.append("")  # a missing term
    if ctx.characteristic == 0:
        num, _, den = s.partition("/")
        out.append(f"{2 * int(num)}/{2 * int(den or 1)}")
    return out


@pytest.mark.parametrize("p, n", [(7, 1), (5, 2), (3, 3), (2, 4), (0, 1)],
                         ids=["F7", "F25", "F27", "F16", "Q"])
def test_parse_accepts_exactly_the_printed_form(p, n):
    ctx = make_field(p, n)
    rng = random.Random(1000 * p + n)
    for x in _grammar_samples(ctx, rng):
        s = ctx.format(x.raw)
        assert ctx.parse(s) == x
        for bad in _non_printed_variants(ctx, s):
            with pytest.raises(UsageError):  # and no other exception
                ctx.parse(bad)


def test_parse_of_an_overlong_digit_run_is_a_usage_error():
    # int() refuses digit strings past its conversion limit with ValueError
    for ctx, s in [(F7, "9" * 5000), (F25, "1*t+" + "9" * 5000), (QQ, "1/" + "9" * 5000)]:
        with pytest.raises(UsageError):
            ctx.parse(s)


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


def test_is_prime_agrees_with_trial_division():
    small = []
    for n in range(100_000):
        prime = n >= 2 and all(n % q for q in takewhile(lambda q: q * q <= n, small))
        if prime:
            small.append(n)
        assert is_prime(n) == prime, n


def test_is_prime_rejects_strong_pseudoprimes():
    # a strong pseudoprime to every prime base up to 23
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(1000000000000000003)


def test_is_prime_refuses_past_its_exact_range():
    # a strong pseudoprime to every prime base up to 37: the bound itself
    with pytest.raises(UsageError, match="318665857834031151167461"):
        is_prime(318665857834031151167461)
