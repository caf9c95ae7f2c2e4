import itertools

import pytest

from tamecovers import symhurwitz
from tamecovers.errors import DegreeTooLarge, InvalidCycleLength, NotGenusZero
from tamecovers.symhurwitz import (
    compose,
    hurwitz_char0,
    inverse,
    is_single_cycle,
    is_transitive,
    min_formula,
    naive_orbit_count,
    single_cycles,
    verify_min_formula,
)


def test_three_point_base_cases():
    assert hurwitz_char0(3, (2, 2, 3)).count == 1
    assert hurwitz_char0(3, (2, 2, 2)).count == 0  # odd product parity


def test_four_point_paper_value():
    assert hurwitz_char0(5, (3, 2, 3, 4)).count == 8  # min(9, 8, 9, 8)


def test_count_invariant_under_class_permutation():
    base = hurwitz_char0(5, (3, 2, 3, 4)).count
    for perm in set(itertools.permutations((3, 2, 3, 4))):
        assert hurwitz_char0(5, perm).count == base


def test_min_formula_examples():
    assert verify_min_formula(4, (2, 2, 2, 4)) == {
        "enumerated": 4,
        "formula": 4,
        "agree": True,
    }
    assert verify_min_formula(5, (2, 3, 3, 4)) == {
        "enumerated": 8,
        "formula": 8,
        "agree": True,
    }


def test_min_formula_rejects_wrong_genus():
    with pytest.raises(NotGenusZero):
        verify_min_formula(4, (2, 2, 2, 2))


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        hurwitz_char0(10, (2, 2, 9, 9))


def test_invalid_cycles():
    with pytest.raises(InvalidCycleLength):
        hurwitz_char0(4, (0, 2, 3))
    with pytest.raises(InvalidCycleLength):
        hurwitz_char0(4, (2, 5, 3))
    with pytest.raises(InvalidCycleLength):
        hurwitz_char0(4, (2, 3))


def test_three_point_genus_zero_always_one():
    for d in range(2, 9):
        for es in itertools.combinations_with_replacement(range(2, d + 1), 3):
            if sum(es) == 2 * d + 1:
                assert hurwitz_char0(d, es).count == 1, es


def test_dedup_agrees_with_naive_orbit_count():
    for d in range(3, 6):
        for r in (3, 4):
            for es in itertools.combinations_with_replacement(range(2, d + 1), r):
                if sum(e - 1 for e in es) != 2 * d - 2:
                    continue
                assert hurwitz_char0(d, es).count == naive_orbit_count(d, es), (d, es)


def test_types_riemann_hurwitz_rules_out_count_zero():
    # an odd sum(e_i - 1) makes the product odd, and one below 2d - 2 leaves
    # no transitive tuple; the naive enumeration agrees on every such type
    excluded = 0
    for d in range(1, 6):
        for r in (3, 4):
            for es in itertools.combinations_with_replacement(range(1, d + 1), r):
                ramification = sum(e - 1 for e in es)
                if ramification % 2 == 0 and ramification >= 2 * d - 2:
                    continue
                excluded += 1
                assert hurwitz_char0(d, es).count == 0 == naive_orbit_count(d, es), (d, es)
    assert excluded == 136


def test_ruled_out_type_enumerates_nothing(monkeypatch):
    def no_enumeration(d, e):
        raise AssertionError(f"enumerated the {e}-cycles of S_{d}")

    monkeypatch.setattr(symhurwitz, "single_cycles", no_enumeration)
    assert hurwitz_char0(9, (5, 5, 5, 3)).count == 0  # sum(e_i - 1) = 14 < 16


def test_five_point_type_runs():
    # r = 5 exercises the generic enumeration path
    got = hurwitz_char0(4, (2, 2, 2, 2, 2)).count
    assert got == naive_orbit_count(4, (2, 2, 2, 2, 2))


def test_permutation_helpers():
    cycles = list(single_cycles(4, 3))
    assert len(cycles) == 8  # C(4,3) * 2
    for g in cycles:
        assert is_single_cycle(g, 3)
        assert compose(g, inverse(g)) == (0, 1, 2, 3)
    assert is_transitive([(1, 2, 3, 0)], 4)
    assert not is_transitive([(1, 0, 2, 3)], 4)


def test_min_formula_value():
    assert min_formula(5, (3, 2, 3, 4)) == 8
