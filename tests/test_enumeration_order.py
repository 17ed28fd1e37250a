"""The three level-sweep enumerators against brute-force references: every
list holds exactly the reference's tuples, in its lexicographic order,
which sets the command line's bytes, the key order of the integer rows and
the order in which the add_drop normalizer sums its float terms."""

from itertools import permutations, product

import pytest

from jugglemc.combinatorics import TypeCounts, enumerate_multiset_words
from jugglemc.fluctuating import _compositions
from jugglemc.overwriting import _column_fillings

COUNT_VECTORS = [c for T in range(1, 5) for c in product(range(1, 8), repeat=T) if sum(c) <= 7]


@pytest.mark.parametrize("counts", COUNT_VECTORS)
def test_multiset_words_are_the_sorted_distinct_permutations(counts):
    letters = [x for x, k in enumerate(counts, 1) for _ in range(k)]
    words = enumerate_multiset_words(TypeCounts(counts))
    assert {w.T for w in words} == {len(counts)}
    assert [w.letters for w in words] == sorted(set(permutations(letters)))


def _increasing(col: tuple) -> bool:
    filled = [v for v in col if v]
    return all(a < b for a, b in zip(filled, filled[1:]))


@pytest.mark.parametrize("T", range(2, 6))
@pytest.mark.parametrize("length", range(1, 6))
def test_column_fillings_are_the_filtered_product(length, T):
    """Every profile of the column to the right (length - 1 row minima, 0
    for an empty row): the columns of range(T)^length, in product order,
    whose filled cells increase and stay below their row's minimum."""
    columns = [col for col in product(range(T), repeat=length) if _increasing(col)]
    for mins in product(range(T), repeat=length - 1):
        caps = [m or T for m in mins + (0,)]
        want = tuple(col for col in columns if all(v < m for v, m in zip(col, caps)))
        assert _column_fillings.__wrapped__(length, T, mins) == want, mins


@pytest.mark.parametrize("parts", range(1, 6))
@pytest.mark.parametrize("n", range(9))
def test_compositions_are_the_filtered_product(n, parts):
    want = [c for c in product(range(n + 1), repeat=parts) if sum(c) == n]
    assert list(_compositions(n, parts)) == want
