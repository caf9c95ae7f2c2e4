"""PrimeField runs the kernel row update and the Horner step on plain ints;
a PrimeField subclass that takes back FieldCtx's generic loops is the
oracle for both."""

import random

import pytest

from tamecovers.field import FieldCtx, FieldElem, PrimeField
from tamecovers.poly import Poly, synthetic_div
from tamecovers.threepoint import kernel_basis


class GenericPrime(PrimeField):
    _row_update = FieldCtx._row_update
    _horner = FieldCtx._horner


PRIMES = [2, 3, 101, 2**61 - 1, 2**89 - 1]


def sparse_entry(rng, p):
    return 0 if rng.random() < 0.4 else rng.randrange(p)


def seeded_matrix(rng, p):
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
    rows = [[sparse_entry(rng, p) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2:  # a dependent row, so the rank drops
        a, b = rng.randrange(p), rng.randrange(p)
        rows[-1] = [(a * u + b * v) % p for u, v in zip(rows[0], rows[1])]
    return rows


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_basis_plain_ints_match_the_generic_loop(p):
    rng = random.Random(p % 1000003)
    fast, generic = PrimeField(p), GenericPrime(p)
    for _ in range(60):
        rows = seeded_matrix(rng, p)
        assert kernel_basis(rows, fast) == kernel_basis(rows, generic)


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
