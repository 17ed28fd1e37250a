"""Shared vocabulary: words, parameter sets, the J/E statistics, h polynomials."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from jugglemc.combinatorics import (
    ParamSet,
    TypeCounts,
    Word,
    _j_table,
    complete_homogeneous,
    enumerate_alphabet_words,
    enumerate_multiset_words,
    is_exact,
)

from cascade_reference import stat_E, stat_J


def test_word_basics():
    w = Word((1, 3, 2), 3)
    assert w.n == 3
    assert w.letter(1) == 1 and w.letter(3) == 2
    assert str(w) == "132"


def test_word_wide_alphabet_separator():
    w = Word((1, 10, 2), 11)
    assert str(w) == "1.10.2"


def test_word_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        Word((0, 1), 2)
    with pytest.raises(ValueError):
        Word((1, 4), 3)
    with pytest.raises(ValueError):
        Word((1, 2), 3).letter(3)


def test_type_counts():
    counts = TypeCounts((2, 1, 3))
    assert counts.T == 3
    assert counts.n == 6
    with pytest.raises(ValueError):
        TypeCounts((1, 0, 2))


def test_paramset_prefix_sums():
    p = ParamSet((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    assert p.y_at(0) == 0
    assert p.y_at(1) == Fraction(1, 2)
    assert p.y_at(2) == Fraction(5, 6)
    assert p.y_at(3) == 1
    assert p.normalized


def test_paramset_normalized_flag():
    assert not ParamSet((Fraction(1, 2), Fraction(1, 3))).normalized
    assert ParamSet((0.5, 0.25, 0.25)).normalized
    assert not ParamSet((0.5, 0.2)).normalized


def test_paramset_rejects_negative():
    with pytest.raises(ValueError):
        ParamSet((Fraction(-1, 2), Fraction(1, 2)))


def test_paramset_rejects_a_nan_throw_weight():
    # nan < 0 is False, so only a nan check names it; before, msjmc.build_chain
    # raised "row 0 (12) sums to nan"
    with pytest.raises(ValueError, match=r"^throw weight z_1 is nan$"):
        ParamSet((math.nan, 0.5, 0.5))


def test_paramset_rejects_a_nan_activity():
    # before, the normalizers of add_drop said the nan overflowed the float range
    with pytest.raises(ValueError, match=r"^activity c_1 is nan$"):
        ParamSet((0.5, 0.5, 0.0), (math.nan, 1.0))


def test_paramset_activities():
    p = ParamSet((Fraction(1), Fraction(2)), c=(Fraction(3), Fraction(4)))
    assert p.c == (3, 4)
    with pytest.raises(ValueError):
        ParamSet((Fraction(1),), c=(Fraction(0),))


def test_paramset_arity_guard():
    # n balls need exactly n+1 throw weights
    p = ParamSet((Fraction(1), Fraction(2)))
    p.require_arity(1)
    with pytest.raises(ValueError):
        p.require_arity(2)


def test_enumerate_multiset_words_order():
    words = enumerate_multiset_words(TypeCounts((1, 1, 1)))
    assert [str(w) for w in words] == ["123", "132", "213", "231", "312", "321"]


def test_enumerate_multiset_words_count():
    # multinomial 5! / (2! 2! 1!) = 30
    assert len(enumerate_multiset_words(TypeCounts((2, 2, 1)))) == 30


def test_enumerate_alphabet_words_order():
    words = enumerate_alphabet_words(2, 3)
    assert [str(w) for w in words] == [
        "11", "21", "31", "12", "22", "32", "13", "23", "33",
    ]
    assert len(enumerate_alphabet_words(3, 3)) == 27


def _brute_J(w: Word, m: int, t: int) -> int:
    return 1 + sum(1 for l in range(m, w.n + 1) if w.letter(l) > t)


def test_stat_J_matches_direct_count():
    w = Word((1, 3, 2, 1, 3, 2), 3)
    J = _j_table(w)
    for m in range(1, w.n + 2):
        for t in range(1, w.T + 1):
            assert stat_J(w, m, t) == J[m][t] == _brute_J(w, m, t)


def test_stat_J_pinned_values():
    w = Word((1, 3, 2, 1, 3, 2), 3)
    assert stat_J(w, 1, 1) == 5
    assert stat_J(w, 2, 2) == 3
    assert stat_J(w, 7, 1) == 1


def test_stat_E_is_J_at_own_letter():
    w = Word((2, 1, 3, 1), 3)
    for i in range(1, w.n + 1):
        assert stat_E(w, i) == stat_J(w, i, w.letter(i))
    assert [stat_E(w, i) for i in (1, 2, 3, 4)] == [2, 2, 1, 1]


def test_complete_homogeneous_small():
    y = (Fraction(2), Fraction(3))
    assert complete_homogeneous(0, y) == 1
    assert complete_homogeneous(1, y) == 5
    # 2^2 + 2*3 + 3^2
    assert complete_homogeneous(2, y) == 19
    assert complete_homogeneous(3, (Fraction(2),)) == 8


def test_complete_homogeneous_matches_monomial_sum():
    y = (Fraction(1, 2), Fraction(1, 3), Fraction(2))
    for deg in range(5):
        brute = Fraction(0)
        for combo in combinations_with_replacement(range(len(y)), deg):
            term = Fraction(1)
            for i in combo:
                term *= y[i]
            brute += term
        assert complete_homogeneous(deg, y) == brute


def test_complete_homogeneous_rejects_bad_input():
    with pytest.raises(ValueError):
        complete_homogeneous(-1, (Fraction(1),))
    with pytest.raises(ValueError):
        complete_homogeneous(2, ())


def test_is_exact():
    assert is_exact(Fraction(1, 2)) and is_exact(3)
    assert not is_exact(0.5)
