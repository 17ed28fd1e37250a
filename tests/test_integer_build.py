"""Chains built on integers: the skeleton evaluator hands ChainMatrix each
exact row as ints over its denominator, the juggler walk hands it each row
as ones over the number of landing choices, and ChainMatrix holds D·P, making
Fraction rows only when they are read. These tests hold the integer build to the value
build it replaced, and check that the solver path never makes the Fraction
rows."""

from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from jugglemc import chain, fluctuating, jugglers, msjmc, overwriting
from jugglemc.chain import ChainMatrix, _cumulative_rows, chain_period
from jugglemc.cli import main
from jugglemc.combinatorics import ParamSet, TypeCounts, _shape_cached
from jugglemc.errors import RowSumError

from chain_reference import build_matrix

F = Fraction


def _builds():
    """(build, n, T, whether z must sum to 1) for every builder of the five
    models on small shapes; build(p) builds the chain for weights p."""
    for counts in ((2, 1), (1, 1, 1), (1, 2, 1)):
        n, T = sum(counts), len(counts)
        yield lambda p, k=TypeCounts(counts): msjmc.build_chain(k, p), n, T, False
        if n <= 3:
            yield lambda p, k=TypeCounts(counts): msjmc.build_enriched_chain(k, p), n, T, False
    for n, T in ((2, 3), (3, 2), (2, 2)):
        for build, normalized in ((fluctuating.build_add_drop_chain, False),
                                  (fluctuating.build_annihilation_chain, True),
                                  (overwriting.build_word_chain, True),
                                  (overwriting.build_tableau_chain, True)):
            yield lambda p, b=build, n=n, T=T: b(n, T, p), n, T, normalized
    for build, normalized in ((fluctuating.build_enriched_add_drop_chain, False),
                              (fluctuating.build_enriched_annihilation_chain, True)):
        yield lambda p, b=build: b(2, 2, p), 2, 2, normalized
    for n, T in ((2, 2), (1, 3)):
        yield lambda p, n=n, T=T: overwriting.build_matrix_chain(n, T, p), n, T, True
    for shape in ((2, 2, 2), (3, 2, 3)):
        yield lambda p, shape=shape: jugglers.build_chain(*shape), 1, 1, False


BUILDS = list(_builds())


def value_built(build, p) -> ChainMatrix:
    """build(p) with each juggler row handed to ChainMatrix as Fractions
    over no denominator, one value row per row object, and each exact move
    set of a skeleton's evaluator as Fractions over no denominator: as the
    builders made it from values. No skeleton is kept before or after, so
    several_jugglers, whose skeleton is its chain, is built here too."""
    def by_values(states, rows, denominators):
        values: dict = {}
        for row, d in zip(rows, denominators):
            if id(row) not in values:
                values[id(row)] = {j: F(v, d) for j, v in row.items()}
        return ChainMatrix(states, [values[id(row)] for row in rows])

    evaluate = chain._evaluate

    def value_rows(*args):
        return [(None, probs if den is None else [F(v, den) for v in probs])
                for den, probs in evaluate(*args)]

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(jugglers, "ChainMatrix", by_values))
        stack.enter_context(mock.patch.object(chain, "_evaluate", value_rows))
        _shape_cached.cache_clear()
        stack.callback(_shape_cached.cache_clear)
        return build(p)


def _items(rows):
    return [[(j, v, type(v)) for j, v in row.items()] for row in rows]


@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=st.sampled_from(BUILDS), exact=st.booleans(), data=st.data())
def test_integer_build_equals_value_build(case, exact, data):
    build, n, T, normalized = case
    # z_1 > 0; later weights may be 0, which makes zero moves the build drops
    raw = [data.draw(st.integers(1, 9))]
    raw += data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if normalized:
        z = [F(x, sum(raw)) for x in raw]
    else:
        z = [F(x, data.draw(st.integers(1, 9))) for x in raw]
    c = [F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))) for _ in range(T)]
    if not exact:
        z, c = [float(x) for x in z], [float(x) for x in c]
    p = ParamSet(tuple(z), tuple(c))
    P, ref = build(p), value_built(build, p)
    assert P.states == ref.states and P._row_of == ref._row_of
    # several_jugglers (T = 1 here) has no weights, so its chain is always exact
    assert P.exact == ref.exact == (exact or T == 1)
    if P.exact:
        assert P._denominator == ref._denominator
        assert [list(r.items()) for r in P._integer_rows] == \
            [list(r.items()) for r in ref._integer_rows]
        # the floats, the levels and the period come off D·P alone
        assert chain._float_rows(P) == chain._float_rows(ref)
        assert _cumulative_rows(P) == _cumulative_rows(ref)
        assert P.levels == ref.levels
        if P.levels is not None:
            assert chain_period(P) == chain_period(ref)
        assert not {"_distinct", "rows"} & set(vars(P))
        assert all(type(v) is F for row in P.rows for v in row.values())
    assert _items(P.rows) == _items(ref.rows)


MODEL_ARGS = [
    ["--model", "msjmc", "--counts", "2,1,1", "--z", "1/2,1/3,0,1/4,2"],
    ["--model", "add_drop", "--n", "3", "--T", "2", "--z", "1/2,1/3,1/5,2",
     "--activities", "2/3,3"],
    ["--model", "annihilation", "--n", "3", "--T", "2", "--z", "1/2,1/4,1/8,1/8"],
    ["--model", "overwriting", "--n", "3", "--T", "2", "--z", "1/2,1/4,1/8,1/8"],
    ["--model", "several_jugglers", "--r", "3", "--c", "2", "--balls", "3"],
]


def test_stationary_both_never_builds_fraction_rows(monkeypatch, capsys):
    # the mirror of test_power_iteration_and_sampling_never_build_the_integer_form:
    # walk, solver, certificate and closed form run on D·P and ints only
    def refuse(P):
        raise AssertionError("Fraction rows made")

    monkeypatch.setattr(ChainMatrix, "rows", property(refuse))
    monkeypatch.setattr(ChainMatrix, "_distinct", property(refuse))
    for args in MODEL_ARGS:
        for command in (["stationary", "--method", "both"], ["verify", "--suite", "all"]):
            code = main(command + args)
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), (command, args, err)
            assert ('"verdict": "EQUAL"' if command[0] == "stationary" else "OK (") in out


def test_integer_rows_are_reduced_to_the_least_denominator():
    # rows over 4, 6 and 6: the entries 1/2, 1/2, 1/3, 2/3 and 1/2, 1/2 have
    # the least common denominator 6
    shared = {0: 3, 1: 3}
    P = ChainMatrix("abc", [{0: 2, 1: 2, 2: 0}, {1: 2, 2: 4}, shared], [4, 6, 6])
    assert P._denominator == 6
    assert P._integer_rows == [{0: 3, 1: 3}, {1: 2, 2: 4}, {0: 3, 1: 3}]
    assert list(P._integer_rows[0]) == [0, 1]  # the zero entry is dropped
    half = {0: F(1, 2), 1: F(1, 2)}
    assert P.rows == (half, {1: F(1, 3), 2: F(2, 3)}, half)
    R = ChainMatrix("abcd", [shared, {1: 2, 2: 4}, shared, {3: 5}], [6, 6, 6, 5])
    assert R._row_of == [0, 1, 0, 2] and R._denominator == 6


def test_integer_rows_that_do_not_sum_to_their_denominator_raise():
    with pytest.raises(RowSumError, match=r"^row 1 \(b\) sums to 5/6$"):
        ChainMatrix("ab", [{0: 1, 1: 1}, {0: 3, 1: 2}], [2, 6])
    with pytest.raises(RowSumError, match="negative probability"):
        ChainMatrix("ab", [{0: 3, 1: -1}, {0: 1, 1: 1}], [2, 2])


def test_a_build_that_mixes_pairs_and_values_is_refused():
    with pytest.raises(ValueError, match="all"):
        build_matrix("ab", lambda s: [("a", (1, 2)), ("b", (1, 2))] if s == "a"
                     else [("a", F(1, 2)), ("b", F(1, 2))])


@pytest.mark.parametrize("exact", [True, False])
def test_normalizers_over_tables_equal_the_value_sums(exact):
    z = (F(1, 2), F(2, 3), F(0), F(5, 4), F(1, 7))
    c = (F(3, 2), F(1, 5), F(4))
    if not exact:
        z, c = tuple(map(float, z)), tuple(map(float, c))
    p = ParamSet(z, c)
    counts = TypeCounts((2, 1, 1))
    Z = msjmc.partition_function(counts, p)
    W = fluctuating.add_drop_partition(4, 3, p)
    want_Z = sum(msjmc.stationary_weight(w, p) for w in msjmc.enumerate_multiset_words(counts))
    want_W = sum(fluctuating.add_drop_stationary_weight(w, p)
                 for w in fluctuating.enumerate_alphabet_words(4, 3))
    if exact:
        assert (type(Z), type(W)) == (F, F) and (Z, W) == (want_Z, want_W)
    else:
        assert (type(Z), type(W)) == (float, float)
        assert Z == pytest.approx(want_Z) and W == pytest.approx(want_W)


def test_a_pivot_entry_that_cancels_mod_p_hands_its_column_to_the_next_row():
    # a doubly stochastic chain, so its law is uniform and reconstructs even
    # modulo 7. Eliminating x_0 by equation 0 leaves x_1 in equation 1 with
    # the coefficient -3 + 2/3 = -7/3: not 0, but 0 mod 7. The deferred
    # update keeps it, so the pivot of x_1 finds it 0 when read, drops
    # equation 1 from the column and pivots on equation 2.
    rows = [{1: 2, 3: 1}, {2: 2, 0: 1}, {1: 1, 3: 2}, {0: 2, 2: 1}]
    assert F(-3) + F(2) * F(1, 3) == F(-7, 3)
    for p in (7, 2 ** 127 - 1):
        assert chain._solve_modulo(rows, 3, p) == [1, 1, 1, 1]
    P = ChainMatrix(range(4), rows, [3] * 4)
    assert chain.stationary_exact(P).weights == (F(1, 4),) * 4
