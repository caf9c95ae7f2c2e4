"""Characteristic-zero Hurwitz numbers by permutation-tuple enumeration.

A single-cycle Hurwitz number counts tuples (g_1, ..., g_r) of e_i-cycles
in S_d with product the identity and transitive joint action, taken up to
simultaneous conjugation.  The enumeration fixes the last cycle to a
canonical one (killing a factor of its class size), solves the next-to-last
cycle from the product condition, and enumerates the remaining r-2 classes
directly; orbits of the residual symmetry -- the centralizer of the fixed
cycle -- are collapsed through canonical forms.

``naive_orbit_count`` is an intentionally separate implementation (no fixed
cycle, canonical forms over all of S_d) kept as an oracle for the orbit
bookkeeping at small degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .errors import DegreeTooLarge, InvalidCycleLength, NotGenusZero

DEGREE_CAP = 9

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
    if d > DEGREE_CAP:
        raise DegreeTooLarge(f"degree {d} exceeds the enumeration cap {DEGREE_CAP}")
    return cycles


def hurwitz_char0(d: int, cycles) -> TupleClassCount:
    """Count single-cycle tuples with identity product and transitive span,
    up to simultaneous conjugation."""
    cycles = _validate(d, cycles)
    # Riemann-Hurwitz: the product is even only for an even sum, and a
    # transitive tuple needs sum(e_i - 1) >= 2d - 2 (genus >= 0)
    ramification = sum(e - 1 for e in cycles)
    if ramification % 2 or ramification < 2 * d - 2:
        return TupleClassCount(d=d, cycle_lengths=cycles, count=0)
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
    enumerated = hurwitz_char0(d, es).count
    formula = min_formula(d, es)
    return {"enumerated": enumerated, "formula": formula, "agree": enumerated == formula}
