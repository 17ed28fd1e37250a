"""The closed forms by one sweep over the states and the cached J-row
steps, held to the per-word Fraction closed forms and to a brute-force
count of J_w."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from jugglemc import combinatorics, fluctuating, msjmc
from jugglemc.chain import (
    Distribution, simulate, simulate_replicas, stationary_exact, ultrafast_check,
)
from jugglemc.cli import MODELS, ModelSpec, build_parser, load_spec, main
from jugglemc.combinatorics import TypeCounts, Word, _j_step, _j_table

F = Fraction

MSJMC_SHAPES = [(1,), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1)]
WORD_SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def per_word_law(model, spec, states):
    """The law as one Fraction per state from the per-word closed forms."""
    p = spec.params
    if model == "msjmc":
        Z = msjmc.partition_function(TypeCounts(spec.counts), p)
        return [msjmc.stationary_weight(w, p) / Z for w in states]
    if model == "add_drop":
        Z = fluctuating.add_drop_partition(spec.n, spec.T, p)
        return [fluctuating.add_drop_stationary_weight(w, p) / Z for w in states]
    return [fluctuating.annihilation_stationary(w, p) for w in states]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sweep_laws_equal_the_per_word_closed_forms(data):
    model = data.draw(st.sampled_from(["msjmc", "add_drop", "annihilation"]))
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
    spec = ModelSpec(model, "exact", counts=shape, n=n, T=T, z=tuple(z), activities=c)
    m = MODELS[model]
    P = m.chain(spec)
    law = m.law(spec, P.states)
    assert law.masses is not None and all(type(a) is int for a in law.masses)
    assert law.states == P.states
    assert list(law.weights) == per_word_law(model, spec, P.states)


def brute_J(w: Word, m: int, t: int) -> int:
    return 1 + sum(1 for l in range(m, w.n + 1) if w.letter(l) > t)


def test_j_table_matches_brute_force_with_the_row_cache_cold_and_warm():
    words = [Word(letters, T) for n, T in [(1, 1), (3, 2), (4, 3), (3, 4)]
             for letters in product(range(1, T + 1), repeat=n)]
    def check(w):
        J = _j_table(w)
        assert J[0] is None
        assert all(type(row) is tuple for row in J[1:])
        assert [list(row) for row in J[1:]] == [
            [brute_J(w, m, t) for t in range(w.T + 1)] for m in range(1, w.n + 2)]

    for w in words:  # cold
        _j_step.cache_clear()
        check(w)
    for w in words:
        _j_table(w)
    before = _j_step.cache_info()
    for w in words:  # warm: every step is a hit
        check(w)
    after = _j_step.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == sum(w.n for w in words)


def test_row_cache_stays_small_after_one_pass_over_the_solve_shapes(capsys):
    """Each cached step maps (a J row, a letter) to a J row, and a row
    stands for the multiset of letters below a position: the ten `solve`
    shapes of the benchmark leave 294 steps, far below the cache's bound."""
    _j_step.cache_clear()
    shapes = [["--model", "msjmc", "--counts", c] for c in
              ("2,1,1,1", "3,1,1,1", "2,2,1,1", "1,1,2,2")]
    shapes += [["--model", model, "--n", n, "--T", T] for model in ("add_drop", "annihilation")
               for n, T in (("5", "3"), ("4", "4"))]
    for argv in shapes:
        n = sum(map(int, argv[3].split(","))) if argv[1] == "msjmc" else int(argv[3])
        argv += ["--z", ",".join(["1/2"] + [f"1/{2 ** k}" for k in range(2, n + 1)]
                                 + [f"1/{2 ** n}"])]
        if argv[1] == "add_drop":
            argv += ["--activities", ",".join(["2/3"] * int(argv[5]))]
        assert main(["stationary", "--method", "both"] + argv) == 0, argv
    for argv in (["--r", "3", "--c", "3", "--balls", b] for b in "45"):
        assert main(["stationary", "--method", "both", "--model", "several_jugglers"] + argv) == 0
    capsys.readouterr()
    size = _j_step.cache_info().currsize
    assert size <= 300 < combinatorics.KERNEL_CACHE_SIZE


# one exact spec of each model, with mixed denominators where it has weights
EXACT_SPECS = {
    "msjmc": ["--counts", "2,1,1", "--z", "2/3,1/7,5/9,3/11,1/13"],
    "add_drop": ["--n", "3", "--T", "2", "--z", "2/3,1/7,5/9,3/11", "--activities", "3/4,5/2"],
    "annihilation": ["--n", "3", "--T", "3", "--z", "1/3,1/5,2/7,19/105"],
    "overwriting": ["--n", "2", "--T", "3", "--z", "1/3,1/5,7/15"],
    "several_jugglers": ["--r", "2", "--c", "3", "--balls", "3"],
}


def test_int_masses_read_as_their_fractions():
    law = Distribution("abc", (2, 0, 4), 6)
    assert law.weights == (F(1, 3), F(0), F(2, 3))
    assert (law.masses, law.scale) == ((2, 0, 4), 6)
    assert law == Distribution("abc", (F(1, 3), 0, F(2, 3)))
    law = Distribution("ab", (F(1, 6), F(5, 4)))
    assert (law.masses, law.scale) == ((2, 15), 12)
    # every exact law the CLI prints holds int masses over one scale
    for model, args in EXACT_SPECS.items():
        spec = load_spec(build_parser().parse_args(["stationary", "--model", model] + args))
        P = MODELS[model].chain(spec)
        law = MODELS[model].law(spec, P.states)
        assert law.masses is not None and law == stationary_exact(P), model
        empirical = [simulate(P, P.states[0], 200, seed=3),
                     simulate_replicas(P, P.states[0], 4, 30, seed=3)]
        assert [(len(d.masses), d.scale) for d in empirical] == [(P.size, 181), (P.size, 30)]
        assert all(sum(d.masses) == d.scale for d in empirical)
        if model == "overwriting":  # the rows of P^n are the law
            flat, common = ultrafast_check(P, spec.n)
            assert flat and common.masses is not None and common == law
