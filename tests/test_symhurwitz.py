import itertools
from math import factorial

import pytest

from tamecovers import symhurwitz
from tamecovers.errors import DegreeTooLarge, InvalidCycleLength, NotGenusZero
from tamecovers.symhurwitz import (
    compose,
    enumerate_char0,
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
    with pytest.raises(DegreeTooLarge, match="enumeration cap 9"):
        hurwitz_char0(10, (5, 5, 5, 5, 5))


def test_character_cap_bounds_genus_zero():
    assert hurwitz_char0(10, (2, 2, 9, 9)).count == 18  # past the enumeration cap
    with pytest.raises(DegreeTooLarge, match="character-formula cap 20"):
        hurwitz_char0(21, (10, 11, 11, 12))


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
                assert enumerate_char0(d, es).count == naive_orbit_count(d, es), (d, es)


def _no_enumeration(d, e):
    raise AssertionError(f"enumerated the {e}-cycles of S_{d}")


def test_characters_agree_with_enumeration(monkeypatch):
    # every genus-0 type with r = 3, 4 and d <= 7 or r = 5 and d <= 6, and
    # some with e = 1 entries, which the formula drops
    types = [(4, (1, 2, 2, 3, 3)), (4, (2, 1, 3, 1, 4)), (5, (2, 1, 3, 4, 3, 1))]
    for d in range(2, 8):
        for r in (3, 4, 5) if d <= 6 else (3, 4):
            types += [(d, es) for es in itertools.combinations_with_replacement(range(2, d + 1), r)
                      if sum(e - 1 for e in es) == 2 * d - 2]
    assert len(types) == 54
    want = {t: enumerate_char0(*t).count for t in types}
    monkeypatch.setattr(symhurwitz, "single_cycles", _no_enumeration)
    assert {t: hurwitz_char0(*t).count for t in types} == want


def test_characters_agree_with_closed_forms():
    # closed forms that do not come from the formula: min e_i(d+1-e_i) on
    # every genus-0 4-point type with d <= 12, and Hurwitz's count
    # (2d-2)! d^(d-3) / d! of genus-0 covers by simple branching
    four_point = [(d, es) for d in range(3, 13)
                  for es in itertools.combinations_with_replacement(range(2, d + 1), 4)
                  if sum(es) == 2 * d + 2]
    assert len(four_point) == 189
    for d, es in four_point:
        assert hurwitz_char0(d, es).count == min_formula(d, es), (d, es)
    for d in range(3, 16):
        want = factorial(2 * d - 2) * d ** (d - 3) // factorial(d)
        assert hurwitz_char0(d, (2,) * (2 * d - 2)).count == want, d
    # many distinct lengths; the value of the unpruned recursion
    assert hurwitz_char0(16, (2, 3, 4, 5, 6, 7, 10)).count == 1870740


def test_character_tables_do_not_outlive_a_call(monkeypatch):
    # a memo kept across calls would make the second call build fewer
    # characters, and turn repeated requests into cache hits
    calls = 0
    real = symhurwitz._central_characters

    def counting(lam, lengths):
        nonlocal calls
        calls += 1
        return real(lam, lengths)

    monkeypatch.setattr(symhurwitz, "_central_characters", counting)
    per_call = []
    for _ in range(2):
        calls = 0
        assert hurwitz_char0(8, (3, 5, 5, 5)).count == 18
        per_call.append(calls)
    assert per_call[0] == per_call[1] > 0


def test_positive_genus_is_enumerated():
    # T/d! = 1/2, 1 and 5 here, but automorphisms make the orbit counts 1, 3 and 8
    for d, want in ((2, 1), (3, 3), (4, 8)):
        es = (d,) * 4
        assert hurwitz_char0(d, es).count == want == naive_orbit_count(d, es), d


def test_degree_nine_by_characters(monkeypatch):
    monkeypatch.setattr(symhurwitz, "single_cycles", _no_enumeration)
    assert hurwitz_char0(9, (5, 5, 5, 5)).count == 25


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


def test_genus_zero_with_two_moving_cycles_counts_one():
    # (d; d, d, 1) is the only such type: sigma, sigma^-1 and the identity
    for d in range(1, 8):
        assert hurwitz_char0(d, (d, d, 1)).count == 1 == enumerate_char0(d, (d, d, 1)).count, d


def test_ruled_out_type_enumerates_nothing(monkeypatch):
    monkeypatch.setattr(symhurwitz, "single_cycles", _no_enumeration)
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
