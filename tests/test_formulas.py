"""The product formulas on ParamSet's integer tables: every per-word and
per-enriched-state law of msjmc, add_drop and annihilation against a
reference product built on stat_E in the weights' own arithmetic, exact and
float; the tables themselves, exact and float; chains whose value types
follow their own weights, for plain ints, Fractions and floats that compare
equal; a digest of every float and mixed-weight output; and a guard that
every formula reads the weights only through ParamSet.tables."""

import copy
import hashlib
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jugglemc import fluctuating, msjmc, overwriting
from jugglemc.chain import ChainMatrix, Distribution
from jugglemc.cli import MODELS, ModelSpec
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
    assert exact.exact and not approx.exact
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
    assert p.exact and ParamSet((1, 2, 3)).exact


def _typed(t):
    return [(type(v), v) for v in t[:1] + t[1] + t[2] + t[3:4] + (t[4] or ())]


def test_float_and_mixed_weights_are_their_own_table_over_one():
    """With any float weight the table is the weights themselves, over L = Lc
    = z_1 ** 0: a float in z makes all of z floats, over 1.0, and exact z
    with float activities keeps the exact 1 of z_1's type."""
    floats = ParamSet((0.25, 0.75), c=(2.0, 0.5))
    assert not floats.exact
    assert _typed(floats.tables) == _typed((1.0, (0.25, 0.75), (0.25, 1.0), 1.0, (2.0, 0.5)))
    half = ParamSet((F(1, 2), 0.5))
    assert not half.exact
    assert _typed(half.tables) == _typed((1.0, (0.5, 0.5), (0.5, 1.0), 1.0, None))
    mixed = ParamSet((F(1, 2), F(1, 2)), c=(1.0,))
    assert not mixed.exact
    assert _typed(mixed.tables) == _typed((F(1), (F(1, 2), F(1, 2)), (F(1, 2), F(1)), F(1),
                                           (1.0,)))
    ints = ParamSet((1, 0), c=(0.5,))
    assert not ints.exact and _typed(ints.tables) == _typed((1, (1, 0), (1, 1), 1, (0.5,)))


def test_tables_take_no_part_in_equality_hash_or_repr():
    exact, approx = ParamSet((F(1), F(0), F(0))), ParamSet((1.0, 0.0, 0.0))
    assert exact == approx and hash(exact) == hash(approx)
    assert "tables" not in repr(exact) and "exact" not in repr(exact)
    assert exact.exact and not approx.exact


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


def _int_z1_outputs(z: tuple) -> list:
    """Every per-state weight, builder row entry and Model.law entry on n = 2:
    of msjmc and add_drop (with int activities) under z, and of annihilation
    and the overwriting tower under z_1 alone, which is normalized."""
    zq = (z[0], 0.0, 0.0)
    p, q = ParamSet(z, c=(1, 2)), ParamSet(zq)
    out = []
    for counts in (TypeCounts((1, 1)), TypeCounts((2,))):
        spec = ModelSpec("msjmc", "float", counts=counts.counts, z=z)
        words, states = _states("msjmc", counts.counts)
        out += [msjmc.stationary_weight(w, p) for w in words]
        out += [msjmc.enriched_stationary_weight(s, p) for s in states]
        out += [msjmc.build_chain(counts, p), msjmc.build_enriched_chain(counts, p),
                MODELS["msjmc"].law(spec, words)]
    for model, raw, r in (("add_drop", z, p), ("annihilation", zq, q)):
        spec = ModelSpec(model, "float", n=2, T=2, z=raw, activities=(1, 2))
        base, enriched = FORMULAS[model]
        words, states = _states(model, (2, 2))
        out += [base(w, r) for w in words] + [enriched(s, r) for s in states]
        out += [MODELS[model].chain(spec), MODELS[model].enriched(spec, r)[0],
                MODELS[model].law(spec, words)]
    words = enumerate_alphabet_words(2, 2)
    out += [overwriting.overwriting_stationary(w, q) for w in words]
    out += [overwriting.tableau_stationary(V, q) for V in overwriting.enumerate_tableaux(2, 2)]
    out += [overwriting.matrix_stationary_weight(M, q)
            for M in overwriting.enumerate_matrix_states(2, 2)]
    out += [overwriting.build_word_chain(2, 2, q), overwriting.build_tableau_chain(2, 2, q),
            overwriting.build_matrix_chain(2, 2, q), overwriting._word_law(words, 2, 2, q)]
    values = []
    for v in out:
        if isinstance(v, ChainMatrix):
            values += [x for row in v.rows for x in row.values()]
        elif isinstance(v, Distribution):
            values += v.weights
        else:
            values.append(v)
    return values


def test_float_results_do_not_depend_on_the_type_of_z1():
    """A float in z makes every result a float: z_1 given as the int 1 or as
    1.0 gives the same float bits, per state, per row entry and per law."""
    got, want = _int_z1_outputs((1, 0.5, 0.5)), _int_z1_outputs((1.0, 0.5, 0.5))
    assert {type(v) for v in got + want} == {float}
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def _key(v) -> str:
    """A value as its exact bits: float.hex for floats, type and repr else."""
    return float.hex(v) if isinstance(v, float) else f"{type(v).__name__}:{v!r}"


def _outcome(f) -> str:
    try:
        got = f()
    except Exception as e:  # an error is an output too: its type and message
        return f"{type(e).__name__}: {e}"
    if isinstance(got, ChainMatrix):
        return repr([[(j, _key(v)) for j, v in row.items()] for row in got.rows])
    if isinstance(got, Distribution):
        return repr([_key(v) for v in got.weights])
    return _key(got)


def _float_sets(n: int, T: int, normalized: bool) -> list:
    """Float weight sets for n balls and T types, then one mixed set: exact z
    with float activities. Raw weights 1..11 over their float sum, or over
    7.0 when unnormalized; the second set has zeros past z_1, the third z_1 =
    0, which the chains refuse."""
    raw = [(7 * k) % 11 + 1 for k in range(n + 1)]
    holes = [a if k % 2 == 0 else 0 for k, a in enumerate(raw)]
    c = tuple([1.0, 0.5, 2.0, 0.25][:T])
    out = []
    for r in (raw, holes, [0] + raw[1:]):
        out.append(ParamSet(tuple(a / (float(sum(r)) if normalized else 7.0) for a in r), c))
    out.append(ParamSet(tuple(F(a, sum(raw) if normalized else 7) for a in raw), c))
    return out


def _api_outputs():
    """Every float and mixed output of the product formulas, the normalizers
    and the nine builders on small shapes, one line each."""
    lines = []

    def put(label, f):
        lines.append(f"{label} {_outcome(f)}")

    for shape in [(2, 1), (1, 1, 2)]:
        counts = TypeCounts(shape)
        words, states = _states("msjmc", shape)
        for i, p in enumerate(_float_sets(counts.n, counts.T, False)
                              + _float_sets(counts.n, counts.T, True)):
            tag = f"msjmc {shape} {i}"
            put(tag, lambda: msjmc.partition_function(counts, p))
            put(tag, lambda: msjmc.build_chain(counts, p))
            put(tag, lambda: msjmc.build_enriched_chain(counts, p))
            for w in words:
                put(f"{tag} {w}", lambda: msjmc.stationary_weight(w, p))
            for s in states:
                put(f"{tag} {s}", lambda: msjmc.enriched_stationary_weight(s, p))
    for n, T in [(2, 2), (3, 2), (2, 3), (3, 1)]:
        words, states = _states("add_drop", (n, T))
        for i, p in enumerate(_float_sets(n, T, False) + _float_sets(n, T, True)):
            tag = f"add_drop {n} {T} {i}"
            put(tag, lambda: fluctuating.add_drop_partition(n, T, p))
            put(tag, lambda: fluctuating.build_add_drop_chain(n, T, p))
            put(tag, lambda: fluctuating.build_enriched_add_drop_chain(n, T, p))
            for w in words:
                put(f"{tag} {w}", lambda: fluctuating.add_drop_stationary_weight(w, p))
            for s in states:
                put(f"{tag} {s}", lambda: fluctuating.enriched_add_drop_weight(s, p))
        for i, p in enumerate(_float_sets(n, T, True)):
            tag = f"annihilation {n} {T} {i}"
            put(tag, lambda: fluctuating.build_annihilation_chain(n, T, p))
            put(tag, lambda: fluctuating.build_enriched_annihilation_chain(n, T, p))
            for w in words:
                put(f"{tag} {w}", lambda: fluctuating.annihilation_stationary(w, p))
            for s in states:
                put(f"{tag} {s}", lambda: fluctuating.enriched_annihilation_weight(s, p))
            tag = f"overwriting {n} {T} {i}"
            put(tag, lambda: overwriting.overwriting_stationary_distribution(n, T, p))
            put(tag, lambda: overwriting.build_word_chain(n, T, p))
            put(tag, lambda: overwriting.build_tableau_chain(n, T, p))
            put(tag, lambda: overwriting.build_matrix_chain(n, T, p))
            if T == 1:  # no tableau or matrix state
                continue
            for V in overwriting.enumerate_tableaux(n, T):
                put(f"{tag} {V.columns}", lambda: overwriting.tableau_stationary(V, p))
            for M in overwriting.enumerate_matrix_states(n, T):
                put(f"{tag} {M}", lambda: overwriting.matrix_stationary_weight(M, p))
    return lines


# sha256 of _api_outputs() as computed before the formulas read their weights
# only through ParamSet.tables; every float bit and mixed value must stay
API_DIGEST = "3ba6bc13a38219ba256442e59e461143adb4393463695e1ed5078b755dfa703a"


def test_float_and_mixed_api_outputs_are_pinned():
    lines = _api_outputs()
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == API_DIGEST


class _Sealed:
    """A weight tuple that keeps its length but refuses to be read."""

    def __init__(self, values):
        self.size = len(values)

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        raise AssertionError("a weight was read past ParamSet.tables")

    def __iter__(self):
        raise AssertionError("a weight was read past ParamSet.tables")


def _sealed(p):
    """p with z, y and c sealed; its tables and exact flag are p's."""
    q = copy.copy(p)
    for name in ("z", "y", "c"):
        if getattr(p, name) is not None:
            object.__setattr__(q, name, _Sealed(getattr(p, name)))
    return q


def _guard_sets(n: int, T: int, normalized: bool) -> list:
    """Exact weight sets with mixed denominators, the second with zeros past
    z_1, then the float and mixed sets of _float_sets."""
    out = []
    for holes in (False, True):
        z = [F((7 * k) % 11 + 1 if k % 2 == 0 or not holes else 0, d)
             for k, d in zip(range(n + 1), PRIMES)]
        out.append(ParamSet(tuple(x / sum(z) for x in z) if normalized else tuple(z),
                            (F(3, 4), 2, F(1, 6), F(5, 7))[:T]))
    return out + _float_sets(n, T, normalized)


def _guarded_outputs(model: str, shape: tuple, p) -> list:
    """Every output p's weights reach on one shape, one string each: the
    chain and Model.law of the command line's model, and for the cascades the
    enriched chain, the normalizer and every per-word and enriched weight;
    for overwriting the word law, the tableau and matrix chains and every
    word, tableau and matrix weight."""
    n, T = (sum(shape), len(shape)) if model == "msjmc" else shape
    spec = ModelSpec(model, "exact" if p.exact else "float", counts=shape, n=n, T=T)
    spec.__dict__["params"] = p  # in place of the ParamSet that ModelSpec.params builds
    m = MODELS[model]
    words = m.states(spec)
    calls = [lambda: m.chain(spec), lambda: m.law(spec, words)]
    if model in FORMULAS:
        base, enriched = FORMULAS[model]
        calls += [lambda: m.enriched(spec, p)[0], lambda: m.enriched_size(spec, p)]
        calls += [partial(base, w, p) for w in words]
        calls += [partial(enriched, s, p) for s in _states(model, shape)[1]]
    else:
        calls += [partial(overwriting.overwriting_stationary_distribution, n, T, p),
                  partial(overwriting.build_tableau_chain, n, T, p),
                  partial(overwriting.build_matrix_chain, n, T, p)]
        calls += [partial(overwriting.overwriting_stationary, w, p) for w in words]
        calls += [partial(overwriting.tableau_stationary, V, p)
                  for V in overwriting.enumerate_tableaux(n, T)]
        calls += [partial(overwriting.matrix_stationary_weight, M, p)
                  for M in overwriting.enumerate_matrix_states(n, T)]
    return [_outcome(f) for f in calls]


@pytest.mark.parametrize("model, shape", [
    ("msjmc", (2, 1)), ("msjmc", (1, 2, 1)),
    *((model, shape) for model in ("add_drop", "annihilation", "overwriting")
      for shape in [(2, 2), (3, 2), (2, 3)])])
def test_formulas_read_weights_only_through_tables(model, shape):
    """With z, y and c sealed, every builder, closed form, normalizer and
    Model.law gives what it gives on p itself, on exact, float and mixed
    weights: the formulas read the weights only through p.tables. The
    marginals read z_at and y_at and are not covered."""
    n = sum(shape) if model == "msjmc" else shape[0]
    for p in _guard_sets(n, len(shape) if model == "msjmc" else shape[1],
                         model in ("annihilation", "overwriting")):
        assert _guarded_outputs(model, shape, _sealed(p)) == _guarded_outputs(model, shape, p)
