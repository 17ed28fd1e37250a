"""The weighted chains built from a per-shape skeleton kept per process: each
shape is walked once, and a build with new weights only evaluates them.
Built cold and warm, every cascade chain equals the per-choice rule of
cascade_reference and every overwriting chain (word, tableau, matrix) the
per-choice rule of overwriting_reference, entry for entry and in key order,
plain and enriched; a degenerate spec raises the same error either way, and
a warm build walks and enumerates nothing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jugglemc import combinatorics, fluctuating, jugglers, msjmc, overwriting
from jugglemc.cli import main
from jugglemc.combinatorics import ParamSet, TypeCounts, _shape_cached
from jugglemc.errors import DegenerateParams

import overwriting_reference
from cascade_reference import fluctuating_rows, msjmc_rows
from test_cascades import assert_same_rows

F = Fraction

MSJMC_SHAPES = [(1,), (2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2)]
WORD_SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
TABLEAU_SHAPES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4)]
MATRIX_SHAPES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4)]
SHAPES = {"msjmc": MSJMC_SHAPES, "add_drop": WORD_SHAPES, "annihilation": WORD_SHAPES,
          "word": WORD_SHAPES, "tableau": TABLEAU_SHAPES, "matrix": MATRIX_SHAPES}
# the overwriting chains take no activities and need z summing to 1
OVERWRITING = {"word": (overwriting.build_word_chain, overwriting_reference.word_rows),
               "tableau": (overwriting.build_tableau_chain, overwriting_reference.tableau_rows),
               "matrix": (overwriting.build_matrix_chain, overwriting_reference.matrix_rows)}
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def build(model, shape, enriched, p):
    if model == "msjmc":
        counts = TypeCounts(shape)
        return (msjmc.build_enriched_chain if enriched else msjmc.build_chain)(counts, p)
    if model in OVERWRITING:
        return OVERWRITING[model][0](*shape, p)
    return {("add_drop", False): fluctuating.build_add_drop_chain,
            ("add_drop", True): fluctuating.build_enriched_add_drop_chain,
            ("annihilation", False): fluctuating.build_annihilation_chain,
            ("annihilation", True): fluctuating.build_enriched_annihilation_chain,
            }[model, enriched](*shape, p)


def reference(model, shape, enriched, p):
    if model == "msjmc":
        return msjmc_rows(TypeCounts(shape), p, enriched)
    if model in OVERWRITING:
        return OVERWRITING[model][1](*shape, p)
    return fluctuating_rows(model, *shape, p, enriched)


def outcome(f):
    """f()'s value, or the type and message of the DegenerateParams it raises."""
    try:
        return f()
    except DegenerateParams as exc:
        return DegenerateParams, str(exc)


def draw_params(data, model, n, T, exact):
    """Weights with distinct denominators and zeros past z_1; z_1 = 0 (a
    degenerate spec for the cascades) now and then; annihilation's and the
    overwriting chains' sum to 1."""
    nums = [data.draw(st.integers(0, 9), label="z_1 numerator")]
    nums += data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if not any(nums):
        nums[-1] = 1
    z = [F(a, b) for a, b in zip(nums, data.draw(st.permutations(PRIMES)))]
    if model == "annihilation" or model in OVERWRITING:
        z = [x / sum(z) for x in z]
    c = None
    if model == "add_drop":
        c = [F(data.draw(st.integers(1, 9)), b) for b in data.draw(st.permutations(PRIMES))[:T]]
    if not exact:
        z, c = [float(x) for x in z], c and [float(x) for x in c]
    return ParamSet(tuple(z), c and tuple(c))


def expected_row_of(model, P):
    """Each state's row: its own for msjmc, one per w^- for the word chains,
    one per (w, v^-) or (w^-, v^-) for the enriched chains, one per body for
    tableaux and grids; in first-use order."""
    def key(s):
        if model == "tableau":
            return overwriting._shifted_body(s)
        if model == "matrix":
            return overwriting._matrix_body(s)
        if model == "msjmc":
            return (s.w, s.v[1:]) if hasattr(s, "v") else s
        return (s.w.letters[1:], s.v[1:]) if hasattr(s, "v") else s.letters[1:]

    first: dict = {}
    return [first.setdefault(key(s), len(first)) for s in P.states]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cold_and_warm_builds_equal_the_per_choice_rule(data):
    model = data.draw(st.sampled_from(list(SHAPES)))
    shape = data.draw(st.sampled_from(SHAPES[model]))
    n, T = (sum(shape), len(shape)) if model == "msjmc" else shape
    states = (len(msjmc.enumerate_enriched(TypeCounts(shape))) if model == "msjmc"
              else len(fluctuating.enumerate_enriched_words(n, T)))
    enriched = (model not in OVERWRITING and states <= 200
                and data.draw(st.booleans(), label="enriched"))
    exact = data.draw(st.booleans(), label="exact")
    first, second = (draw_params(data, model, n, T, exact) for _ in range(2))
    _shape_cached.cache_clear()
    # cold, warm with new weights, warm again with the first weights
    runs = [outcome(lambda: build(model, shape, enriched, p)) for p in (first, second, first)]
    # an enriched skeleton is derived from its base chain's, which is kept too
    assert _shape_cached.cache_info().misses == (2 if enriched else 1)
    for got, p in zip(runs, (first, second, first)):
        if type(got) is tuple:
            if exact:  # the reference tests a float normalizer only for 0
                assert got == outcome(lambda: reference(model, shape, enriched, p))
            continue
        assert_same_rows(got, reference(model, shape, enriched, p))
        assert got._row_of == expected_row_of(model, got)
        assert got.exact == exact
    if type(runs[0]) is tuple:
        assert runs[2] == runs[0]


def test_degenerate_specs_raise_the_same_error_cold_and_warm():
    cases = [
        ("msjmc", (2, 1), ParamSet((F(0), F(1), F(1), F(1))),
         "y_1 = 0 in a transition denominator"),
        ("msjmc", (1, 1, 1), ParamSet((0.0, 0.5, 0.25, 0.25)),
         "y_1 = 0 in a transition denominator"),
        # y_1 = y_2 = 0: the first row's walk meets y_2 before y_1
        ("msjmc", (2, 1, 1), ParamSet((F(0), F(0), F(1), F(1), F(1))),
         "y_2 = 0 in a transition denominator"),
        ("msjmc", (2, 1, 1), ParamSet((0.0, 0.0, 1.0, 1.0, 1.0)),
         "y_2 = 0 in a transition denominator"),
        ("add_drop", (2, 2), ParamSet((F(0), F(0), F(1)), (F(1), F(2))),
         "insertion normalizer is 0"),
        # add_drop's first row, w^- = 1..1, has J(2, t) = 1 for every t
        ("add_drop", (3, 2), ParamSet((0.0, 1.0, 1.0, 1.0), (1.0, 2.0)),
         "insertion normalizer is 0"),
        ("annihilation", (2, 3), ParamSet((F(0), F(0), F(1))), "y_1 = 0 in a cascade factor"),
        ("annihilation", (3, 2), ParamSet((0.0, 0.5, 0.25, 0.25)),
         "y_1 = 0 in a cascade factor"),
    ]
    for model, shape, p, message in cases:
        n = sum(shape) if model == "msjmc" else shape[0]
        good = ParamSet((F(1, n + 1),) * (n + 1), p.c and (F(1),) * len(p.c))
        for enriched in (False, True):
            _shape_cached.cache_clear()
            cold = outcome(lambda: build(model, shape, enriched, p))
            build(model, shape, enriched, good)
            warm = outcome(lambda: build(model, shape, enriched, p))
            assert cold == warm == (DegenerateParams, message), (model, shape, enriched)
            if p.exact:
                assert outcome(lambda: reference(model, shape, enriched, p)) == cold


def refuse(*args, **kwargs):
    raise AssertionError("a warm build walked or enumerated")


# (build, n, whether z must sum to 1)
WARM_BUILDS = {
    "msjmc": (lambda p: msjmc.build_chain(TypeCounts((2, 1, 1)), p), 4, False),
    "add_drop": (lambda p: fluctuating.build_add_drop_chain(3, 3, p), 3, False),
    "annihilation": (lambda p: fluctuating.build_annihilation_chain(3, 3, p), 3, True),
    "several_jugglers": (lambda p: jugglers.build_chain(3, 2, 3), 0, False),
    "word": (lambda p: overwriting.build_word_chain(3, 3, p), 3, True),
    "tableau": (lambda p: overwriting.build_tableau_chain(3, 3, p), 3, True),
    "matrix": (lambda p: overwriting.build_matrix_chain(2, 3, p), 2, True),
    "enriched msjmc": (lambda p: msjmc.build_enriched_chain(TypeCounts((2, 1, 1)), p), 4, False),
    "enriched add_drop": (lambda p: fluctuating.build_enriched_add_drop_chain(3, 3, p), 3,
                          False),
    "enriched annihilation": (lambda p: fluctuating.build_enriched_annihilation_chain(3, 3, p),
                              3, True),
}


@pytest.mark.parametrize("model", WARM_BUILDS)
def test_a_warm_build_walks_and_enumerates_nothing(monkeypatch, model):
    build, n, normalized = WARM_BUILDS[model]
    weights = [[F(k + 1, k + 2) for k in range(n + 1)], [F(7 - k % 5, 3) for k in range(n + 1)]]
    if normalized:
        weights = [[x / sum(z) for x in z] for z in weights]
    first, second = (ParamSet(tuple(z), (F(1), F(2), F(1, 3))) for z in weights)
    want = [build(first), build(second)]
    cold = _shape_cached.cache_info()
    for module, names in [
        (combinatorics, ["enumerate_multiset_words", "enumerate_alphabet_words"]),
        (msjmc, ["enumerate_multiset_words", "enumerate_enriched", "enriched_states",
                 "enriched_skeleton", "cascades", "_bumps", "_restarts", "_skeleton"]),
        (fluctuating, ["enumerate_alphabet_words", "enumerate_enriched_words", "enriched_states",
                       "enriched_skeleton", "cascades", "_insertions", "_add_drop_moves",
                       "_annihilation_moves", "_skeleton"]),
        (overwriting, ["enumerate_alphabet_words", "enumerate_tableaux", "enumerate_matrix_states",
                       "tableau_successors", "_overwrites", "_tableau_step", "_matrix_step",
                       "_skeleton"]),
        (jugglers, ["enumerate_arrays", "drop_row", "ChainMatrix"]),
    ]:
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    got = [build(first), build(second)]
    assert got == want
    if model != "several_jugglers":
        assert [P._integer_rows for P in got] == [P._integer_rows for P in want]
    warm = _shape_cached.cache_info()
    assert (warm.misses, warm.hits) == (cold.misses, cold.hits + 2)


def solve_and_verify_argvs() -> list:
    """One `stationary --method both` per `solve` shape of the benchmark and
    one `verify --suite all` per `verify` shape, with weights whose
    denominators differ."""
    def weights(model, n, T):
        z = ",".join(["1/2"] + [f"1/{2 ** k}" for k in range(2, n + 1)] + [f"1/{2 ** n}"])
        return ["--z", z] + (["--activities", ",".join(["2/3"] * T)] if model == "add_drop"
                             else [])

    runs = []
    for command, msjmc_counts, words in [
        (["stationary", "--method", "both"], ["2,1,1,1", "3,1,1,1", "2,2,1,1", "1,1,2,2"],
         [("add_drop", 5, 3), ("add_drop", 4, 4), ("annihilation", 5, 3),
          ("annihilation", 4, 4)]),
        (["verify", "--suite", "all"], ["1,1,1,1", "2,1,1"],
         [("add_drop", 3, 3), ("add_drop", 3, 2), ("annihilation", 3, 3),
          ("annihilation", 4, 2), ("overwriting", 2, 3), ("overwriting", 3, 2),
          ("overwriting", 2, 4), ("overwriting", 4, 2)]),
    ]:
        for counts in msjmc_counts:
            n = sum(map(int, counts.split(",")))
            runs.append(command + ["--model", "msjmc", "--counts", counts]
                        + weights("msjmc", n, 0))
        for model, n, T in words:
            runs.append(command + ["--model", model, "--n", str(n), "--T", str(T)]
                        + weights(model, n, T))
    runs += [["stationary", "--method", "both", "--model", "several_jugglers",
              "--r", "3", "--c", "3", "--balls", b] for b in "45"]
    return runs


def test_the_cache_holds_every_solve_and_verify_shape(capsys):
    """The ten `solve` shapes and the ten `verify` shapes of the benchmark
    leave 32 entries, within the cache's bound, so a second pass over them
    walks nothing: the eight cascade skeletons and the two juggler chains
    and laws of `solve`; the base and enriched skeletons of the six cascade
    shapes of `verify` and the word and tableau skeletons of its four
    overwriting shapes."""
    argvs = solve_and_verify_argvs()
    assert len(argvs) == 20
    for argv in argvs:
        assert main(argv) == 0, argv
    cold = _shape_cached.cache_info()
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    warm = _shape_cached.cache_info()
    assert cold.currsize == warm.currsize == 32 < combinatorics.SKELETON_CACHE_SIZE
    assert warm.misses == cold.misses == 32
