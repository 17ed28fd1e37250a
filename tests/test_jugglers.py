"""Ball-array chain for a team of jugglers: uniform reinjection transitions,
falling-factorial stationary weights, arc-counting cross-check."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import pytest

from jugglemc.chain import (
    chain_period,
    is_irreducible,
    stationary_exact,
)
from jugglemc.jugglers import (
    BallArray,
    build_chain,
    drop_row,
    enumerate_arrays,
    juggler_stationary_weight,
)

from chain_reference import build_matrix

F = Fraction


def count_arc_enrichments(A: BallArray) -> int:
    """Brute-force count of the cross placements over one extra top row,
    memoized over (ball index, cells used so far)."""
    sites = []
    for i, j in sorted(A.cells):
        sites.append([(a, b) for a in range(i) for b in range(1, A.c + 1)])

    @cache
    def rec(idx: int, used: frozenset) -> int:
        if idx == len(sites):
            return 1
        return sum(
            rec(idx + 1, used | {cell})
            for cell in sites[idx]
            if cell not in used
        )

    return rec(0, frozenset())


def all_pairs_prob(A: BallArray, B: BallArray) -> Fraction:
    """Reference rule, one pair of states at a time: B is reachable iff it
    keeps every ball drop_row(A) kept, and all reachable B are equally likely."""
    caught = A.row_count(A.r)
    if not drop_row(A).cells <= B.cells:
        return F(0)
    return F(1, comb(A.r * A.c - A.balls + caught, caught))


def test_ball_array_basics():
    A = BallArray(2, 2, frozenset({(1, 1), (2, 2)}))
    assert A.balls == 2
    assert A.row_count(1) == 1 and A.row_count(2) == 1
    assert str(A) == "x./.x"


def test_ball_array_validation():
    with pytest.raises(ValueError):
        BallArray(2, 2, frozenset({(3, 1)}))
    with pytest.raises(ValueError):
        BallArray(2, 2, frozenset({(1, 0)}))
    with pytest.raises(ValueError):
        BallArray(0, 2, frozenset())


def test_enumerate_arrays_counts():
    assert len(enumerate_arrays(2, 2, 2)) == comb(4, 2)
    assert len(enumerate_arrays(2, 3, 4)) == comb(6, 4)
    assert len(enumerate_arrays(2, 2, 0)) == 1
    assert len(enumerate_arrays(2, 2, 4)) == 1


def test_drop_row():
    A = BallArray(2, 2, frozenset({(1, 1), (2, 2)}))
    # bottom row empties out, the rest slides one row down
    assert drop_row(A).cells == frozenset({(2, 1)})
    full = BallArray(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
    assert drop_row(full).cells == frozenset({(2, 1), (2, 2)})


def test_transition_prob_rules():
    P = build_chain(2, 2, 2)
    A = BallArray(2, 2, frozenset({(1, 1), (2, 1)}))
    kept = drop_row(A).cells
    # one ball to reinject into rc - l + A_r = 3 open cells
    for target in enumerate_arrays(2, 2, 2):
        want = F(1, 3) if kept <= target.cells else F(0)
        assert P.rows[P.index[A]].get(P.index[target], 0) == want


def test_no_throw_is_deterministic():
    P = build_chain(2, 2, 2)
    A = BallArray(2, 2, frozenset({(1, 1), (1, 2)}))
    assert P.rows[P.index[A]] == {P.index[drop_row(A)]: 1}


def test_rethrows_match_all_pairs_rule():
    for r in range(1, 10):
        for c in range(1, 9 // r + 1):
            for balls in range(r * c + 1):
                P = build_chain(r, c, balls)
                for A, row in zip(P.states, P.rows):
                    want = {j: all_pairs_prob(A, B) for j, B in enumerate(P.states)}
                    assert row == {j: v for j, v in want.items() if v}, (r, c, balls, A)


def test_keyed_rows_equal_an_unkeyed_build():
    # build_chain builds one row per distinct drop_row(A); this build walks
    # the same rethrows from every state
    for r in range(1, 4):
        for c in range(1, 4):
            grid = [(i, j) for i in range(1, r + 1) for j in range(1, c + 1)]

            def successors(A):
                kept = drop_row(A).cells
                free = [cell for cell in grid if cell not in kept]
                caught = A.balls - len(kept)
                for landed in combinations(free, caught):
                    yield BallArray(r, c, kept.union(landed)), F(1, comb(len(free), caught))

            for balls in range(r * c + 1):
                P = build_chain(r, c, balls)
                Q = build_matrix(enumerate_arrays(r, c, balls), successors)
                assert P.states == Q.states
                assert [[(j, type(v), v) for j, v in row.items()] for row in P.rows] == \
                    [[(j, type(v), v) for j, v in row.items()] for row in Q.rows]


@pytest.mark.parametrize("r, c, balls", [(3, 2, 3), (3, 3, 4), (3, 3, 5), (5, 3, 4)])
def test_direct_rows_equal_the_successor_build(r, c, balls):
    # the walk's successor generator as it was, each move (1, number of
    # choices), built one row per drop_row key
    grid = [(i, j) for i in range(1, r + 1) for j in range(1, c + 1)]

    def successors(A):
        kept = drop_row(A).cells
        free = [cell for cell in grid if cell not in kept]
        caught = A.balls - len(kept)
        for landed in combinations(free, caught):
            yield BallArray(r, c, kept.union(landed)), (1, comb(len(free), caught))

    P = build_chain(r, c, balls)
    Q = build_matrix(enumerate_arrays(r, c, balls), successors, key=drop_row)
    assert P.states == Q.states and P._row_of == Q._row_of
    assert P._denominator == Q._denominator
    # dict == ignores key order; the rows must keep it
    assert [list(row.items()) for row in P._integer_rows] == \
        [list(row.items()) for row in Q._integer_rows]
    # ChainMatrix shares rows by object, so one row per drop_row key means
    # the walk handed every state of a key the same row object
    row_of_key: dict = {}
    for A, at in zip(P.states, P._row_of):
        assert row_of_key.setdefault(drop_row(A), at) == at
    assert len(set(row_of_key.values())) == len(row_of_key) == len(P._integer_rows)


# 6x6 matrix in the display order: both balls low, the four mixed states,
# both balls high.
REFERENCE = [
    [F(1, 6)] * 6,
    [F(1, 3), F(1, 3), F(0), F(1, 3), F(0), F(0)],
    [F(1, 3), F(1, 3), F(0), F(1, 3), F(0), F(0)],
    [F(1, 3), F(0), F(1, 3), F(0), F(1, 3), F(0)],
    [F(1, 3), F(0), F(1, 3), F(0), F(1, 3), F(0)],
    [F(1), F(0), F(0), F(0), F(0), F(0)],
]
REFERENCE_EIGENVECTOR = (6, 3, 3, 3, 3, 1)
DISPLAY_ORDER = [5, 1, 2, 3, 4, 0]  # indices into the lexicographic state list


def test_two_by_two_matrix_matches_reference():
    P = build_chain(2, 2, 2)
    dense = P.dense()
    for i, pi in enumerate(DISPLAY_ORDER):
        for j, pj in enumerate(DISPLAY_ORDER):
            assert dense[pi][pj] == REFERENCE[i][j], (i, j)


def test_two_by_two_eigenvector():
    P = build_chain(2, 2, 2)
    pi = stationary_exact(P).normalize()
    total = sum(REFERENCE_EIGENVECTOR)
    for i, pi_idx in enumerate(DISPLAY_ORDER):
        assert pi.weights[pi_idx] == F(REFERENCE_EIGENVECTOR[i], total)


def test_stationary_weight_formula_matches_solver():
    for r, c, balls in ((2, 2, 1), (2, 2, 3), (3, 2, 3), (2, 3, 2)):
        P = build_chain(r, c, balls)
        pi = stationary_exact(P).normalize()
        weights = [juggler_stationary_weight(A) for A in P.states]
        total = sum(weights)
        assert pi.weights == tuple(F(w, total) for w in weights)


def test_arc_count_equals_weight():
    for r, c in ((2, 2), (3, 2), (2, 3), (1, 4)):
        for balls in range(r * c + 1):
            for A in enumerate_arrays(r, c, balls):
                assert count_arc_enrichments(A) == juggler_stationary_weight(A)


def test_chain_is_ergodic():
    P = build_chain(2, 2, 2)
    assert is_irreducible(P)
    assert chain_period(P) == 1


def test_empty_and_full_grids_are_absorbing():
    for r, c, balls in ((2, 2, 0), (2, 2, 4)):
        P = build_chain(r, c, balls)
        assert P.size == 1
        assert P.dense() == [[F(1)]]


def test_rows_are_stochastic():
    P = build_chain(3, 2, 4)
    for i in range(P.size):
        assert sum(P.rows[i].values()) == 1
