"""The product formulas on ParamSet's integer tables: every per-word and
per-enriched-state law of msjmc, add_drop and annihilation against a
reference product built on stat_E in the weights' own arithmetic, exact and
float; the tables themselves; and chains whose value types follow their own
weights, for plain ints, Fractions and floats that compare equal."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jugglemc import fluctuating, msjmc
from jugglemc.combinatorics import ParamSet, TypeCounts, enumerate_alphabet_words, \
    enumerate_multiset_words

from cascade_reference import stat_E

F = Fraction

MSJMC_SHAPES = [(1,), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1)]
WORD_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def _failures(acc, w, p):
    for level in range(2, w.T + 1):
        for q in range(1, sum(1 for x in w.letters if x >= level) + 1):
            acc = acc * (1 - p.y_at(q))
    return acc


def reference_weight(model, w, p):
    """The law's mass of w as the formulas computed it site by site."""
    acc = p.z_at(1) ** 0
    for i in range(1, w.n + 1):
        if model == "msjmc":
            acc = acc * p.y_at(stat_E(w, i))
        elif model == "add_drop":
            acc = acc * p.c[w.letter(i) - 1] * p.y_at(stat_E(w, i))
        elif w.letter(i) < w.T:
            acc = acc * p.y_at(stat_E(w, i))
    return _failures(acc, w, p) if model == "annihilation" else acc


def reference_enriched_weight(model, s, p):
    acc = p.z_at(1) ** 0
    for letter, x in zip(s.w.letters, s.v):
        if model == "msjmc":
            acc = acc * p.z_at(x)
        elif model == "add_drop":
            acc = acc * p.c[letter - 1] * p.z_at(x)
        elif letter < s.w.T:
            acc = acc * p.z_at(x)
    return _failures(acc, s.w, p) if model == "annihilation" else acc


FORMULAS = {
    "msjmc": (msjmc.stationary_weight, msjmc.enriched_stationary_weight),
    "add_drop": (fluctuating.add_drop_stationary_weight, fluctuating.enriched_add_drop_weight),
    "annihilation": (fluctuating.annihilation_stationary,
                     fluctuating.enriched_annihilation_weight),
}


def _states(model, shape):
    if model == "msjmc":
        counts = TypeCounts(shape)
        return enumerate_multiset_words(counts), msjmc.enumerate_enriched(counts)
    return enumerate_alphabet_words(*shape), fluctuating.enumerate_enriched_words(*shape)


def _same(got, want):
    assert (type(got), repr(got)) == (type(want), repr(want))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_formulas_match_reference_products(data):
    model = data.draw(st.sampled_from(sorted(FORMULAS)))
    shape = data.draw(st.sampled_from(MSJMC_SHAPES if model == "msjmc" else WORD_SHAPES))
    n, T = (sum(shape), len(shape)) if model == "msjmc" else shape
    # distinct denominators; z_1 > 0 and zeros allowed beyond it
    dens = data.draw(st.permutations(PRIMES))
    nums = [data.draw(st.integers(1, 9))]
    nums += data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    z = [F(a, b) for a, b in zip(nums, dens)]
    if model == "annihilation":
        z = [x / sum(z) for x in z]
    c = None
    if model == "add_drop":
        c = tuple(F(data.draw(st.integers(1, 9)), b) for b in data.draw(st.permutations(PRIMES))[:T])
    exact, approx = ParamSet(tuple(z), c), ParamSet(tuple(map(float, z)), c and tuple(map(float, c)))
    assert exact.tables is not None and approx.tables is None
    base, enriched = FORMULAS[model]
    words, states = _states(model, shape)
    for w in words:
        want = reference_weight(model, w, exact)
        got = base(w, exact)
        assert got == want and isinstance(got, Fraction), w
        _same(base(w, approx), reference_weight(model, w, approx))
    for s in states:
        got = enriched(s, exact)
        assert got == reference_enriched_weight(model, s, exact) and isinstance(got, Fraction), s
        _same(enriched(s, approx), reference_enriched_weight(model, s, approx))


def test_tables_scale_exact_weights_over_common_denominators():
    p = ParamSet((F(2, 3), F(1, 7), 0, F(5, 9)), c=(F(3, 4), 2, F(1, 6)))
    assert p.tables == (63, (42, 9, 0, 35), (42, 51, 51, 86), 12, (9, 24, 2))
    assert ParamSet((1, 2, 3)).tables == (1, (1, 2, 3), (1, 3, 6), None, None)
    assert ParamSet((F(1, 2), 0.5)).tables is None
    assert ParamSet((F(1, 2), F(1, 2)), c=(1.0,)).tables is None


def test_tables_take_no_part_in_equality_hash_or_repr():
    exact, approx = ParamSet((F(1), F(0), F(0))), ParamSet((1.0, 0.0, 0.0))
    assert exact == approx and hash(exact) == hash(approx)
    assert "tables" not in repr(exact)
    assert exact.tables is not None and approx.tables is None


def _builds(p):
    """Every word chain and enriched cover on (n, T) = (2, 2) under p."""
    counts = TypeCounts((1, 1))
    q = ParamSet(p.z, c=(p.z[0], p.z[0]))
    return [msjmc.build_chain(counts, p), msjmc.build_enriched_chain(counts, p),
            fluctuating.build_add_drop_chain(2, 2, q),
            fluctuating.build_enriched_add_drop_chain(2, 2, q),
            fluctuating.build_annihilation_chain(2, 2, p),
            fluctuating.build_enriched_annihilation_chain(2, 2, p)]


def _value_types(chains):
    return {type(v) for P in chains for row in P.rows for v in row.values()}


def _items(P):
    return [[(j, type(v), repr(v)) for j, v in row.items()] for row in P.rows]


@pytest.mark.parametrize("z", [(F(1), F(0), F(0)), (F(1, 2), F(1, 4), F(1, 4))])
@pytest.mark.parametrize("first", ["exact", "float"])
def test_equal_exact_and_float_params_keep_their_own_types(first, z):
    """Equal ParamSets, built one after the other in either order, each give
    chains and laws in their own arithmetic."""
    sets = {"exact": ParamSet(z), "float": ParamSet(tuple(map(float, z)))}
    assert sets["exact"] == sets["float"]
    order = [first, "float" if first == "exact" else "exact"]
    want = {"exact": Fraction, "float": float}
    for name in order:
        p = sets[name]
        chains = _builds(p)
        assert _value_types(chains) == {want[name]}
        assert all(P.exact == (name == "exact") for P in chains)
        words = enumerate_multiset_words(TypeCounts((1, 1)))
        assert {type(msjmc.stationary_weight(w, p)) for w in words} == {want[name]}
        assert {type(fluctuating.annihilation_stationary(w, p))
                for w in enumerate_alphabet_words(2, 2)} == {want[name]}


def test_int_weights_build_the_rows_of_their_fraction_equals():
    """Plain ints are exact weights: the rows are the Fraction rows."""
    ints, fracs = ParamSet((1, 2, 3)), ParamSet((F(1), F(2), F(3)))
    P = msjmc.build_chain(TypeCounts((1, 1)), ints)
    assert P.exact and P.rows[0] == {0: F(2, 3), 1: F(1, 3)}
    for got, want in zip(_builds(ParamSet((1, 0, 0))), _builds(ParamSet((F(1), F(0), F(0))))):
        assert got.exact and got.states == want.states and _items(got) == _items(want)
    for shape in [(1, 1), (2, 1, 1)]:
        counts = TypeCounts(shape)
        q_ints, q_fracs = ParamSet((1,) * (counts.n + 1)), ParamSet((F(1),) * (counts.n + 1))
        for build in (msjmc.build_chain, msjmc.build_enriched_chain):
            got, want = build(counts, q_ints), build(counts, q_fracs)
            assert _items(got) == _items(want) and _value_types([got]) == {Fraction}
    w = enumerate_multiset_words(TypeCounts((1, 1)))[0]
    assert msjmc.stationary_weight(w, ints) == msjmc.stationary_weight(w, fracs) == 3
