"""PrimeField runs the Horner step on plain ints; a PrimeField subclass
that takes back FieldCtx's generic loop is its oracle."""

import random

import pytest

from tamecovers.field import FieldCtx, FieldElem, PrimeField
from tamecovers.poly import Poly, synthetic_div


class GenericPrime(PrimeField):
    _horner = FieldCtx._horner


PRIMES = [2, 3, 101, 2**61 - 1, 2**89 - 1]


def sparse_entry(rng, p):
    return 0 if rng.random() < 0.4 else rng.randrange(p)


@pytest.mark.parametrize("p", PRIMES)
def test_synthetic_div_plain_ints_match_the_generic_loop(p):
    rng = random.Random(p % 1000003)
    fast, generic = PrimeField(p), GenericPrime(p)
    for _ in range(60):
        coeffs = [sparse_entry(rng, p) for _ in range(rng.randint(0, 12))]
        r = rng.randrange(p)
        if coeffs and rng.random() < 0.5:  # make r a root
            coeffs[0] = (coeffs[0] - Poly.from_ints(fast, coeffs)(FieldElem(fast, r)).raw) % p
        results = []
        for ctx in (fast, generic):
            q, rem = synthetic_div(Poly.from_ints(ctx, coeffs), FieldElem(ctx, r))
            results.append((q.raw, rem.raw))
        assert results[0] == results[1]
