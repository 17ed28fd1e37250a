"""The overwriting tower's one free-cell rule against the cell-by-cell rules
in overwriting_reference: tableau and matrix rows, with exact and float
weights, must hold the same successors in the same order with values of the
same type and repr, every tableau mass must be the product of the reference
factors, every matrix weight the product of its cells' z, and every lump
must agree, one grid at a time and a whole state list at once. The column
sweep's word law must match the per-tableau fiber sum."""

import random
from fractions import Fraction

import pytest

from jugglemc import overwriting
from jugglemc.combinatorics import ParamSet

import overwriting_reference as ref

F = Fraction

# every shape of at most 750 tableaux with T <= 7 ((3, 5) has 1,051 and
# (6, 2) has 877), and every shape of at most 5,000 matrix states among them
TABLEAU_SHAPES = [(1, T) for T in range(2, 8)] + [(2, T) for T in range(2, 8)] + [
    (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2),
]
MATRIX_SHAPES = [(n, T) for n, T in TABLEAU_SHAPES if (n + 1) ** ((T - 1) * n) <= 5000]
# plus every shape of at most 7,530 tableaux with T <= 6 for the word law
WORD_LAW_SHAPES = TABLEAU_SHAPES + [(3, 5), (6, 2), (3, 6), (7, 2), (4, 4), (5, 3)]


def weight_sets(n: int, T: int):
    """Normalized z with z_1 > 0, once positive and once with zeros past
    z_1, each as fractions and as floats."""
    rng = random.Random(1000 * n + T)
    for low in (1, 0):
        raw = [rng.randint(1, 9)] + [rng.randint(low, 9) for _ in range(n)]
        z = tuple(F(x, sum(raw)) for x in raw)
        yield ParamSet(z)
        yield ParamSet(tuple(map(float, z)))


def assert_same_rows(P, want):
    assert len(P.rows) == len(want)
    for state, got, expect in zip(P.states, P.rows, want):
        assert [(j, type(v), repr(v)) for j, v in got.items()] == [
            (j, type(v), repr(v)) for j, v in expect.items()
        ], state


def same_value(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("n,T", TABLEAU_SHAPES, ids=lambda s: str(s))
def test_tableau_rules_match_reference(n, T):
    tabs = overwriting.enumerate_tableaux(n, T)
    for V in tabs:
        assert overwriting.lump_tableau(V) == ref.lump_tableau(V)
    for p in weight_sets(n, T):
        assert_same_rows(overwriting.build_tableau_chain(n, T, p), ref.tableau_rows(n, T, p))
        for V in tabs:
            want = p.z_at(1) ** 0
            for k in range(1, n + 1):
                for i in range(1, T):
                    want = want * ref.tableau_contribution(V, i, k, p)
            assert same_value(overwriting.tableau_stationary(V, p), want), V


@pytest.mark.parametrize("n,T", WORD_LAW_SHAPES, ids=lambda s: str(s))
def test_word_law_matches_fiber_sum(n, T):
    for p in weight_sets(n, T):
        got = overwriting.overwriting_stationary_distribution(n, T, p)
        want = ref.word_law(n, T, p)
        assert got.states == want.states
        for w, a, b in zip(got.states, got.weights, want.weights):
            if isinstance(b, float):
                # the sweep adds the float masses in another order
                assert type(a) is float and abs(a - b) <= 1e-15, w
            else:
                assert same_value(a, b), w


@pytest.mark.parametrize("n,T", MATRIX_SHAPES, ids=lambda s: str(s))
def test_matrix_rules_match_reference(n, T):
    for M in overwriting.enumerate_matrix_states(n, T):
        assert overwriting.lump_matrix(M) == ref.lump_matrix(M), M
    for p in weight_sets(n, T):
        assert_same_rows(overwriting.build_matrix_chain(n, T, p), ref.matrix_rows(n, T, p))


@pytest.mark.parametrize("n,T", MATRIX_SHAPES, ids=lambda s: str(s))
def test_matrix_weight_matches_cell_product(n, T):
    zero = (F(1, 2), F(0)) + (F(1, 2 * n),) * (n - 1)
    for p in [*weight_sets(n, T), ParamSet(zero), ParamSet(tuple(map(float, zero)))]:
        for M in overwriting.enumerate_matrix_states(n, T):
            want = p.z_at(1) ** 0
            for row in M.grid:
                for x in row:
                    want = want * p.z_at(x)
            assert same_value(overwriting.matrix_stationary_weight(M, p), want), M


@pytest.mark.parametrize("n,T", [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (5, 2)],
                         ids=lambda s: str(s))
def test_whole_list_lump_matches_reference(n, T):
    states = overwriting.enumerate_matrix_states(n, T)
    lumps = [overwriting.lump_matrix(M) for M in states]
    assert len(lumps) == len(states)
    for M, V in zip(states, lumps):
        assert V == ref.lump_matrix(M), M


def test_whole_list_lump_checks_every_grid():
    good = overwriting.enumerate_matrix_states(2, 3)
    # grids of several shapes in one list share no replay
    mixed = overwriting.enumerate_matrix_states(3, 2) + good + overwriting.enumerate_matrix_states(2, 2)
    assert [overwriting.lump_matrix(M) for M in mixed] == [ref.lump_matrix(M) for M in mixed]
    MatrixState = overwriting.MatrixState
    for bad in (MatrixState(((1, 4), (1, 1))), MatrixState(((0, 1), (1, 1))),
                MatrixState(((1, 2), (1,)))):
        with pytest.raises(ValueError) as single:
            overwriting.lump_matrix(bad)
        assert str(single.value) != ""
