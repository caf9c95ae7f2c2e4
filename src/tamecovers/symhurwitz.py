"""Characteristic-zero single-cycle Hurwitz numbers.

A single-cycle Hurwitz number counts tuples (g_1, ..., g_r) of e_i-cycles
in S_d with product the identity and transitive joint action, taken up to
simultaneous conjugation.  ``hurwitz_char0`` counts a genus-0 type by the
Frobenius character formula, a positive-genus type by enumeration, and a
type that Riemann-Hurwitz rules out as 0.

Character formula.  Drop the entries e_i = 1 (they are the identity).  For
a multiset A of cycle lengths, the number of tuples in S_n with g_i an
e_i-cycle for i in A and product 1 is

    N(n, A) = (1/n!) sum_lambda (dim lambda)^2 prod_{i in A} f_lambda(e_i),

summed over the partitions lambda of n, where f_lambda(e) =
|C_e| chi^lambda(C_e) / dim lambda is the (integer) central character of
the class C_e of e-cycles.  chi^lambda at an e-cycle is one Murnaghan-
Nakayama step: the signed sum, over the rim hooks of length e, of the
dimension of what is left; both read off the beta-set of lambda, and
dim lambda comes from the hook-length formula in its beta-set form.

Transitivity.  Sorting the tuples counted by N(n, A) by the orbit of
point 1 -- its size j and the sub-multiset B of cycles that move it --
gives the transitive count

    T(n, A) = N(n, A) - sum_{j<n} sum_{B <= A} C(n-1, j-1) T(j, B) N(n-j, A - B),

where a sub-multiset B is counted once for each set of positions it takes.

Zero tests.  Write r(A) = sum_{e in A} (e - 1).  An e-cycle has sign
(-1)^(e-1), so a tuple with product 1 has r(A) even.  The recursion is
evaluated top down from T(d, A), memoised for the one call, and never
computes a term these tests prove zero:

  * T(n, A) = 0 unless r(A) is even, r(A) >= 2n - 2 and every e in A is at
    most n: Riemann-Hurwitz for a transitive action on n points gives
    r(A) = 2n - 2 + 2g with g >= 0, and S_n has no e-cycle for e > n.
  * N(n, A) = 0 if r(A) is odd or some e in A exceeds n, by the same
    parity and the same missing cycles.
  * In the sum over B <= A the orbit size j needs T(j, B) != 0, so j runs
    only up to min(n - 1, 1 + r(B)/2).

So only the reachable (n, A) are evaluated, and the characters of the
partitions of n are built only for an n whose N(n, .) passes its test.

Orbits.  S_d acts on the T(d, A) transitive tuples by conjugation with
stabilizers the automorphism groups of the covers, so T/d! is the number
of orbits weighted by 1/|Aut|.  In genus 0 (sum(e_i - 1) = 2d - 2) with at
least three e_i >= 2, an automorphism fixes the one ramified point over
each of three branch points, and a Moebius map with three fixed points is
the identity; so the count is T/d! exactly.  The other genus-0 types are
(d; d, d, 1, ...), with the one orbit y^d.  In positive genus T/d! fails
even when d! divides T: for (3; 3,3,3,3), T/d! = 1 but there are 3 orbits;
so positive genus goes to ``enumerate_char0``.

Caps.  A type with odd sum(e_i - 1), or one below 2d - 2, counts 0 at any
degree.  The formula serves degrees up to ``_CHARACTER_CAP`` = 20; the
enumeration stops at ``DEGREE_CAP`` = 9, and ``naive_orbit_count`` at 5.
Beyond its cap each raises ``DegreeTooLarge``.

Enumeration.  ``enumerate_char0`` fixes the last cycle to a canonical one
(killing a factor of its class size), solves the next-to-last cycle from
the product condition, and enumerates the remaining r-2 classes directly;
orbits of the residual symmetry -- the centralizer of the fixed cycle --
are collapsed through canonical forms.  With no Riemann-Hurwitz shortcut,
it is an independent oracle for the formula and the zero tests.

``naive_orbit_count`` is an intentionally separate implementation (no fixed
cycle, canonical forms over all of S_d) kept as an oracle for the orbit
bookkeeping at small degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, factorial, prod

from .errors import DegreeTooLarge, InvalidCycleLength, InvariantViolated, NotGenusZero

DEGREE_CAP = 9
_CHARACTER_CAP = 20

Perm = tuple[int, ...]


def compose(a: Perm, b: Perm) -> Perm:
    """Apply a, then b."""
    return tuple(b[i] for i in a)


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def identity(d: int) -> Perm:
    return tuple(range(d))


def single_cycles(d: int, e: int):
    """All permutations of {0..d-1} that are one e-cycle, rest fixed."""
    if e == 1:
        yield identity(d)
        return
    base = list(range(d))
    for support in combinations(range(d), e):
        first = support[0]
        for rest in permutations(support[1:]):
            perm = base[:]
            cycle = (first,) + rest
            for i in range(e):
                perm[cycle[i]] = cycle[(i + 1) % e]
            yield tuple(perm)


def canonical_cycle(d: int, e: int) -> Perm:
    perm = list(range(d))
    for i in range(e):
        perm[i] = (i + 1) % e
    return tuple(perm)


def is_single_cycle(g: Perm, e: int) -> bool:
    moved = [i for i, v in enumerate(g) if v != i]
    if e == 1:
        return not moved
    if len(moved) != e:
        return False
    seen = 1
    j = g[moved[0]]
    while j != moved[0]:
        seen += 1
        j = g[j]
    return seen == e


def is_transitive(perms, d: int) -> bool:
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in perms:
        for i, v in enumerate(g):
            ri, rv = find(i), find(v)
            if ri != rv:
                parent[ri] = rv
    return len({find(i) for i in range(d)}) == 1


def conjugate(z: Perm, g: Perm) -> Perm:
    """z g z^-1."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[z[i]] = z[gi]
    return tuple(out)


def centralizer_of_canonical(d: int, e: int):
    """Centralizer of the canonical e-cycle: its powers times the symmetric
    group on the fixed points."""
    rotations = []
    for r in range(e):
        rot = [(i + r) % e for i in range(e)]
        rotations.append(rot)
    fixed = list(range(e, d))
    out = []
    for rot in rotations:
        for tau in permutations(fixed):
            out.append(tuple(rot + list(tau)))
    return out


@dataclass(frozen=True)
class TupleClassCount:
    d: int
    cycle_lengths: tuple[int, ...]
    count: int


def _validate(d: int, cycles) -> tuple[int, ...]:
    cycles = tuple(int(e) for e in cycles)
    if len(cycles) < 3:
        raise InvalidCycleLength(f"need at least 3 branch points, got {len(cycles)}")
    for e in cycles:
        if not 1 <= e <= d:
            raise InvalidCycleLength(f"cycle length {e} outside [1, {d}]")
    return cycles


def hurwitz_char0(d: int, cycles) -> TupleClassCount:
    """Count single-cycle tuples with identity product and transitive span,
    up to simultaneous conjugation: 0 where Riemann-Hurwitz rules the type
    out, by characters in genus 0 (d <= 20), by ``enumerate_char0`` in
    positive genus (d <= 9); see the module docstring."""
    cycles = _validate(d, cycles)
    ramification = sum(e - 1 for e in cycles)
    if ramification % 2 or ramification < 2 * d - 2:
        count = 0
    elif ramification > 2 * d - 2:
        return enumerate_char0(d, cycles)
    elif sum(e >= 2 for e in cycles) < 3:
        count = 1
    elif d > _CHARACTER_CAP:
        raise DegreeTooLarge(f"degree {d} exceeds the character-formula cap {_CHARACTER_CAP}")
    else:
        count = _count_by_characters(d, cycles)
    return TupleClassCount(d=d, cycle_lengths=cycles, count=count)


def _partitions_of(n: int, largest: int | None = None):
    """The partitions of n, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def _dim(beta: list[int], n: int) -> int:
    """dim of the irreducible of S_n with beta-set beta (hook-length formula)."""
    num = factorial(n)
    for i, b in enumerate(beta):
        for c in beta[i + 1:]:
            num *= abs(b - c)
    return num // prod(factorial(b) for b in beta)


def _central_characters(lam: tuple[int, ...], lengths: list[int]) -> tuple[int, list[int]]:
    """(dim lambda, [f_lambda(e) for e in lengths]) for a partition lambda."""
    n = sum(lam)
    beta = [part + len(lam) - 1 - i for i, part in enumerate(lam)]
    dim = _dim(beta, n)
    fs = []
    for e in lengths:
        chi = 0
        for b in beta:
            # moving bead b down to the free position b - e removes a rim
            # hook of length e, of height the beads it passes
            if b >= e and b - e not in beta:
                sign = (-1) ** sum(b - e < c < b for c in beta)
                chi += sign * _dim([b - e if c == b else c for c in beta], n - e)
        fs.append(factorial(n) // (e * factorial(n - e)) * chi // dim if e <= n else 0)
    return dim, fs


def _count_by_characters(d: int, cycles: tuple[int, ...]) -> int:
    """T(d, A) / d! for the cycles' multiset A, evaluated top down from
    T(d, A) so that no term the zero tests rule out is computed; see the
    module docstring."""
    lengths = sorted({e for e in cycles if e >= 2})
    full = tuple(cycles.count(e) for e in lengths)
    # a sub-multiset is its vector of multiplicities, one per length;
    # chars, N and T live only for this call
    chars, N, T = {}, {}, {}

    def ramification(a):
        return sum(k * (e - 1) for e, k in zip(lengths, a))

    def fits(n, a):
        return all(e <= n for e, k in zip(lengths, a) if k)

    def n_count(n, a):
        if ramification(a) % 2 or not fits(n, a):
            return 0
        if (n, a) not in N:
            if n not in chars:
                chars[n] = [_central_characters(lam, lengths) for lam in _partitions_of(n)]
            total = sum(dim * dim * prod(f ** k for f, k in zip(fs, a)) for dim, fs in chars[n])
            N[n, a] = total // factorial(n)
        return N[n, a]

    def t_count(n, a):
        r = ramification(a)
        if r % 2 or r < 2 * n - 2 or not fits(n, a):
            return 0
        if (n, a) not in T:
            t = n_count(n, a)
            for b in product(*(range(k + 1) for k in a)):
                rb = ramification(b)
                if rb % 2:
                    continue
                rest = tuple(y - x for x, y in zip(b, a))
                ways = prod(comb(y, x) for x, y in zip(b, a))
                for j in range(1, min(n - 1, 1 + rb // 2) + 1):
                    tj = t_count(j, b)
                    if tj:
                        t -= ways * comb(n - 1, j - 1) * tj * n_count(n - j, rest)
            T[n, a] = t
        return T[n, a]

    total = t_count(d, full)
    count, left = divmod(total, factorial(d))
    if left:
        raise InvariantViolated(f"{factorial(d)} does not divide the {total} transitive tuples")
    return count


def enumerate_char0(d: int, cycles) -> TupleClassCount:
    """The count ``hurwitz_char0`` returns, by enumerating tuples: fix one
    cycle, solve one from the product, canonicalize under the centralizer."""
    cycles = _validate(d, cycles)
    if d > DEGREE_CAP:
        raise DegreeTooLarge(f"degree {d} exceeds the enumeration cap {DEGREE_CAP}")
    es = sorted(cycles, reverse=True)
    e_fix, e_solve, rest = es[0], es[1], es[2:]

    sigma = canonical_cycle(d, e_fix)
    sigma_inv = inverse(sigma)
    Z = centralizer_of_canonical(d, e_fix)

    rest_classes = [list(single_cycles(d, e)) for e in rest]
    found = set()
    ident = identity(d)
    for combo in product(*rest_classes):
        prefix = ident
        for g in combo:
            prefix = compose(prefix, g)
        g_solve = compose(inverse(prefix), sigma_inv)
        if not is_single_cycle(g_solve, e_solve):
            continue
        tup = combo + (g_solve, sigma)
        if not is_transitive(tup, d):
            continue
        canon = min(tuple(conjugate(z, g) for g in tup) for z in Z)
        found.add(canon)
    return TupleClassCount(d=d, cycle_lengths=cycles, count=len(found))


def naive_orbit_count(d: int, cycles) -> int:
    """Oracle: enumerate everything, canonicalize under all of S_d."""
    cycles = _validate(d, cycles)
    if d > 5:
        raise DegreeTooLarge(f"the naive oracle is for desk-scale degrees d <= 5, got {d}")
    classes = [list(single_cycles(d, e)) for e in cycles[:-1]]
    last = cycles[-1]
    all_perms = list(permutations(range(d)))
    found = set()
    for combo in product(*classes):
        prefix = identity(d)
        for g in combo:
            prefix = compose(prefix, g)
        g_last = inverse(prefix)
        if not is_single_cycle(g_last, last):
            continue
        tup = combo + (g_last,)
        if not is_transitive(tup, d):
            continue
        canon = min(tuple(conjugate(z, g) for g in tup) for z in all_perms)
        found.add(canon)
    return len(found)


def min_formula(d: int, es) -> int:
    return min(e * (d + 1 - e) for e in es)


def verify_min_formula(d: int, es) -> dict:
    """Compare enumeration with min_i e_i (d+1-e_i) on a genus-0
    single-cycle 4-point type."""
    es = tuple(int(e) for e in es)
    if len(es) != 4 or any(not 2 <= e <= d for e in es):
        raise NotGenusZero(f"{es} is not a 4-point type with 2 <= e_i <= {d}")
    if sum(e - 1 for e in es) != 2 * d - 2:
        raise NotGenusZero(f"{es} fails sum(e_i - 1) = 2d - 2 for d = {d}")
    enumerated = enumerate_char0(d, es).count
    formula = min_formula(d, es)
    return {"enumerated": enumerated, "formula": formula, "agree": enumerated == formula}
