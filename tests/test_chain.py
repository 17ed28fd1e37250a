"""Generic chain engine: construction, solving, lumping, power checks, sampling."""

import dataclasses
import inspect
import math
import random
import tracemalloc
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jugglemc import chain, combinatorics, fluctuating, jugglers, msjmc, overwriting
from jugglemc.chain import (
    ChainMatrix,
    Distribution,
    LumpingMap,
    _cumulative_rows,
    chain_period,
    first_unbalanced,
    is_irreducible,
    nilpotency_check,
    simulate,
    simulate_replicas,
    stationary_exact,
    stationary_power,
    total_variation,
    ultrafast_check,
    verify_lumping,
)
from jugglemc.cli import MODELS, ModelSpec, _base_m_probe, main
from jugglemc.combinatorics import FLOAT_TOL, ParamSet, TypeCounts
from jugglemc.errors import ReducibleChain, RowSumError, UnknownSuccessor

import overwriting_reference
from chain_reference import build_matrix
from test_cascades import SHAPES as CASCADE_SHAPES

F = Fraction


def two_state(p, q) -> ChainMatrix:
    return build_matrix(
        ["a", "b"],
        lambda s: ({"a": 1 - p, "b": p} if s == "a" else {"a": q, "b": 1 - q}).items(),
    )


def test_build_matrix_and_accessors():
    P = two_state(F(1, 3), F(1, 2))
    assert P.size == 2
    assert P.rows[0].get(1, 0) == F(1, 3)
    assert P.rows[1].get(1, 0) == F(1, 2)
    assert P.dense() == [[F(2, 3), F(1, 3)], [F(1, 2), F(1, 2)]]
    assert P.exact
    assert P.index["b"] == 1


def test_chain_matrix_rejects_bad_rows():
    with pytest.raises(RowSumError, match=r"^row 0 \(a\) sums to 1/2$"):
        ChainMatrix(["a"], [{0: F(1, 2)}])
    with pytest.raises(RowSumError, match="negative probability -1/2"):
        ChainMatrix(["a", "b"], [{0: F(3, 2), 1: F(-1, 2)}, {0: F(1)}])
    with pytest.raises(UnknownSuccessor, match="successor index 1"):
        ChainMatrix(["a"], [{1: F(1)}])
    with pytest.raises(UnknownSuccessor, match="successor index -1"):
        ChainMatrix(["a", "b"], [{-1: F(1)}, {0: F(1)}])
    with pytest.raises(ValueError, match="duplicate states"):
        ChainMatrix(["a", "a"], [{0: F(1)}, {0: F(1)}])


def test_build_matrix_rejects_bad_rows():
    # the reference builder looks a successor up in the state list itself
    with pytest.raises(UnknownSuccessor, match="leaves the state list"):
        build_matrix(["a"], lambda s: {"elsewhere": F(1)}.items())
    with pytest.raises(RowSumError):
        build_matrix(["a"], lambda s: {"a": F(1, 2)}.items())


def test_build_matrix_adds_repeated_successors():
    P = build_matrix(["a", "b"], lambda s: [("a", F(1, 4)), ("b", F(1, 2)), ("a", F(1, 4))])
    assert P.rows == ({0: F(1, 2), 1: F(1, 2)},) * 2
    # floats add in the order they are yielded: 0.9999999999999999, where
    # the sorted or reversed sum gives 1.0
    P = build_matrix([0], lambda s: [(0, 0.2), (0, 0.7), (0, 0.1)])
    assert P.rows == ({0: (0.2 + 0.7) + 0.1},) and P.rows[0][0] != 1.0
    with pytest.raises(RowSumError):
        build_matrix(["a"], lambda s: [("a", F(1, 2)), ("a", F(1, 4))])


def test_float_rows_accepted_within_tolerance():
    P = ChainMatrix([0, 1], [{0: 0.25, 1: 0.75}] * 2)
    assert not P.exact
    ChainMatrix([0, 1], [{0: 0.5, 1: 0.5 + FLOAT_TOL / 2}, {0: 1 - FLOAT_TOL / 2}])
    with pytest.raises(RowSumError, match="sums to"):
        ChainMatrix([0], [{0: 1 + 2 * FLOAT_TOL}])


def test_exact_row_check_is_one_integer_sum():
    # coprime denominators near 10**12 and 10**9: the lcm is their product
    big, small = 10**12 + 39, 10**9 + 7
    rows = [
        {0: F(1, big), 1: F(big - 1, big)},
        {0: F(1, big), 1: F(1, small), 2: 1 - F(1, big) - F(1, small)},
        {0: 1},
        {2: F(1, 6), 0: 0, 1: F(5, 6)},
    ]
    P = ChainMatrix(range(4), rows)
    assert P.exact
    assert list(P.rows[3].items()) == [(2, F(1, 6)), (1, F(5, 6))]
    # an int entry reads back as the Fraction of D·P over D
    assert list(P.rows[2].items()) == [(0, F(1))]
    # a mix of int and Fraction entries
    assert ChainMatrix(["a", "b"], [{0: 0, 1: F(1)}, {0: 1, 1: F(0)}]).exact
    bad = [
        ({0: F(1, big), 1: F(big - 2, big)}, f"row 0 (s) sums to {F(big - 1, big)}"),
        ({0: F(1, big), 1: F(1, small), 2: 1 - F(1, small)}, f"row 0 (s) sums to {1 + F(1, big)}"),
        ({}, "row 0 (s) sums to 0"),
        ({0: 0}, "row 0 (s) sums to 0"),
        ({0: 2}, "row 0 (s) sums to 2"),
        ({0: F(3, 2), 1: F(-1, 2)}, "row 0: negative probability -1/2"),
    ]
    for row, text in bad:
        with pytest.raises(RowSumError) as info:
            ChainMatrix(["s", "t", "u"], [row, {1: 1}, {2: 1}])
        assert str(info.value) == text
    # float rows keep their summation order and the tolerance
    P = ChainMatrix([0, 1], [{0: 0.1, 1: 0.9 - 1e-13}, {0: F(1, 2), 1: 0.5}])
    assert not P.exact
    with pytest.raises(RowSumError, match=r"^row 0 \(0\) sums to 0.9999999999$"):
        ChainMatrix([0], [{0: 0.9999999999}])


def test_exact_row_checks_keep_their_errors():
    def build(row):
        return ChainMatrix(["s", "t", "u"], [row, {1: 1}, {2: 1}])

    bad = [
        ({0: -1, 1: 2}, RowSumError, "row 0: negative probability -1"),
        ({0: F(1, 2), 1: F(-1, 4), 2: F(3, 4)}, RowSumError, "row 0: negative probability -1/4"),
        ({0: F(1, 2), 3: F(1, 2)}, UnknownSuccessor, "row 0: successor index 3"),
        ({-1: F(1, 2), 0: F(1, 2)}, UnknownSuccessor, "row 0: successor index -1"),
        # the first bad entry in row order names the error
        ({0: F(-1, 2), 5: F(3, 2)}, RowSumError, "row 0: negative probability -1/2"),
        ({5: F(3, 2), 0: F(-1, 2)}, UnknownSuccessor, "row 0: successor index 5"),
        ({0: -0.5, 1: 1.5}, RowSumError, "row 0: negative probability -0.5"),
        ({0: F(1, 2), 1: 0.4}, RowSumError, "row 0 (s) sums to 0.9"),
        ({0: float("nan")}, RowSumError, "row 0 (s) sums to nan"),
        ({0: 0.0, 1: F(1, 3)}, RowSumError, "row 0 (s) sums to 1/3"),
    ]
    for row, error, text in bad:
        with pytest.raises(error) as info:
            build(row)
        assert type(info.value) is error
        assert str(info.value) == text
    # zeros are dropped, int or Fraction, and the row keeps its order
    P = build({2: F(1, 3), 0: F(0), 1: F(2, 3)})
    assert P.exact
    assert [(j, type(v), repr(v)) for j, v in P.rows[0].items()] == [
        (2, F, "Fraction(1, 3)"), (1, F, "Fraction(2, 3)")]
    P = build({0: 0, 1: 1, 2: F(0)})
    assert P.exact and list(P.rows[0].items()) == [(1, 1)]
    # a float row drops 0.0, and a float anywhere makes the chain inexact
    P = build({0: 0.0, 1: F(1, 2), 2: F(1, 2)})
    assert not P.exact
    assert [(j, type(v)) for j, v in P.rows[0].items()] == [(1, F), (2, F)]
    P = build({0: F(1, 4), 1: 0.75})
    assert not P.exact
    assert [(j, type(v)) for j, v in P.rows[0].items()] == [(0, F), (1, float)]


def test_stationary_exact_two_state():
    p, q = F(1, 3), F(1, 5)
    pi = stationary_exact(two_state(p, q)).normalize()
    assert pi.weights == (q / (p + q), p / (p + q))
    assert pi.total == 1


def test_stationary_exact_refuses_floats():
    P = build_matrix([0, 1], lambda s: {0: 0.5, 1: 0.5}.items())
    with pytest.raises(ValueError, match="exact probabilities"):
        stationary_exact(P)


def test_stationary_exact_detects_reducible():
    P = build_matrix([0, 1], lambda s: {s: F(1)}.items())
    with pytest.raises(ReducibleChain):
        stationary_exact(P)


@st.composite
def rational_rows(draw, states: range, cycle: list) -> list[dict]:
    """Rows for `states` with p/q entries on successors in `cycle`; each
    state also moves to the state after it in `cycle`, so those states
    form one communicating class."""
    weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    rows = []
    for i in states:
        succ = draw(st.sets(st.sampled_from(cycle), max_size=len(cycle)))
        succ.add(cycle[(cycle.index(i) + 1) % len(cycle)])
        w = {j: draw(weight) for j in sorted(succ)}
        total = sum(w.values())
        rows.append({j: x / total for j, x in w.items()})
    return rows


@st.composite
def irreducible_chains(draw) -> ChainMatrix:
    n = draw(st.integers(1, 7))
    cycle = draw(st.permutations(range(n)))
    return ChainMatrix(range(n), draw(rational_rows(range(n), cycle)))


@st.composite
def reducible_chains(draw) -> ChainMatrix:
    """States k..n-1 never leave their block, so states 0..k-1 are transient."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    rows = draw(rational_rows(range(k), draw(st.permutations(range(n)))))
    rows += draw(rational_rows(range(k, n), draw(st.permutations(range(k, n)))))
    return ChainMatrix(range(n), rows)


def gauss_jordan_stationary(P: ChainMatrix) -> tuple:
    """Dense Fraction reference: balance equations of states 0..n-2 and the
    normalization row, reduced to the identity."""
    n = P.size
    A = [[F(P.rows[i].get(j, 0)) - (i == j) for i in range(n)] + [F(0)] for j in range(n - 1)]
    A.append([F(1)] * (n + 1))
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return tuple(row[n] for row in A)


def step_distribution(dist: Distribution, P: ChainMatrix) -> Distribution:
    """Fraction reference for one exact step: the row vector dist . P."""
    assert dist.states == P.states
    out = [0] * P.size
    for i, w in enumerate(dist.weights):
        if w != 0:
            for j, v in P.rows[i].items():
                out[j] = out[j] + w * v
    return Distribution(P.states, tuple(out))


def project_distribution(pi_t: Distribution, f: LumpingMap) -> Distribution:
    """Fraction reference for a lumped law: the fiber sums of pi_t on f's
    base states."""
    acc = {b: 0 for b in f.base_states}
    for s, w in zip(pi_t.states, pi_t.weights):
        acc[f.mapping[s]] = acc[f.mapping[s]] + w
    return Distribution(f.base_states, tuple(acc[b] for b in f.base_states))


def reference_unbalanced(P: ChainMatrix, masses: Distribution):
    """first_unbalanced by one Fraction step."""
    return next((s for s, m, inflow in zip(P.states, masses.weights,
                                           step_distribution(masses, P).weights)
                 if inflow != m), None)


# solved with the last state free, the law reads (6, 11/2, 11/2, 27/2, 1), so
# its rational reconstruction grows the running common denominator
PIVOTS_NORMALIZATION_EARLY = ChainMatrix(range(5), [
    {2: F(1, 6), 3: F(2, 3), 4: F(1, 6)},
    {0: F(1)},
    {1: F(1)},
    {2: F(1, 3), 3: F(2, 3)},
    {0: F(1, 2), 3: F(1, 2)},
])


@settings(max_examples=300, deadline=None)
@given(irreducible_chains())
@example(PIVOTS_NORMALIZATION_EARLY)
def test_stationary_exact_matches_dense_reference(P):
    pi = stationary_exact(P)
    assert pi.weights == gauss_jordan_stationary(P)
    assert all(type(w) is Fraction for w in pi.weights)
    assert sum(pi.weights) == 1
    assert step_distribution(pi, P) == pi
    assert first_unbalanced(P, pi) is None


@settings(max_examples=100, deadline=None)
@given(reducible_chains())
def test_stationary_exact_refuses_random_reducible_patterns(P):
    with pytest.raises(ReducibleChain):
        stationary_exact(P)


@contextmanager
def ladder_from(exponents):
    """Start the solver's ladder at the Mersenne primes 2^e - 1 for e in
    `exponents`, then go on with the whole ladder; yields the list of rungs
    the solver tries, as (prime, candidate or None), whose last rung gave
    the law returned."""
    tried = []
    solve = chain._solve_modulo

    def spy(rows, D, p):
        tried.append((p, solve(rows, D, p)))
        return tried[-1][1]

    with mock.patch.object(chain, "_MERSENNE_EXPONENTS",
                           tuple(exponents) + chain._MERSENNE_EXPONENTS), \
            mock.patch.object(chain, "_solve_modulo", spy):
        yield tried


@settings(max_examples=300, deadline=None)
@given(irreducible_chains())
@example(PIVOTS_NORMALIZATION_EARLY)
def test_stationary_exact_on_tiny_primes_matches_dense_reference(P):
    with ladder_from((13, 17, 31)):
        pi = stationary_exact(P)
    assert pi.weights == gauss_jordan_stationary(P)
    assert all(type(w) is Fraction for w in pi.weights)


def solve_modulo(P: ChainMatrix, p: int):
    """_solve_modulo on all of P's rows, unlumped."""
    return chain._solve_modulo([P._integer_rows[at] for at in P._row_of], P._denominator, p)


@settings(max_examples=100, deadline=None)
@given(irreducible_chains())
def test_a_prime_above_the_tree_bound_gives_the_law(P):
    # the law is proportional to spanning-tree sums of at most D^(n-1), so
    # one prime above 2·D^(2n-2) gives it without a retry
    bound = 2 * P._denominator ** (2 * P.size - 2)
    masses = solve_modulo(P, chain._proth_prime(bound.bit_length()))
    assert tuple(Fraction(m, sum(masses)) for m in masses) == gauss_jordan_stationary(P)


def random_irreducible_chain(rng: random.Random) -> ChainMatrix:
    """As irreducible_chains(), drawn from `rng`."""
    n = rng.randint(2, 7)
    cycle = rng.sample(range(n), n)
    rows = []
    for i in range(n):
        succ = {j for j in cycle if rng.random() < 0.5}
        succ.add(cycle[(cycle.index(i) + 1) % n])
        w = {j: F(rng.randint(1, 9), rng.randint(1, 9)) for j in sorted(succ)}
        total = sum(w.values())
        rows.append({j: x / total for j, x in w.items()})
    return ChainMatrix(range(n), rows)


def test_tiny_primes_fail_often_and_the_answer_stays_exact():
    # moduli 3, 7, 31 and 127 are often unlucky or too small: a rung gives no
    # candidate (a pivot or a mass vanishes, or no fraction fits), or a wrong
    # candidate that the certificate refuses
    rng = random.Random(19)
    no_candidate = refused = 0
    for _ in range(200):
        P = random_irreducible_chain(rng)
        with ladder_from((2, 3, 5, 7)) as tried:
            pi = stationary_exact(P)
        assert pi.weights == gauss_jordan_stationary(P)
        no_candidate += sum(masses is None for _, masses in tried)
        refused += sum(masses is not None for _, masses in tried[:-1])
    assert no_candidate > 100 and refused > 10


def test_unlucky_primes_give_no_candidate():
    # D·P - D·I of two_state(1/3, 1/5) has the rows (-5, 5) and (3, -3): modulo
    # 3 the balance equations force x_0 = 0, modulo 5 x_1 = 0
    P = two_state(F(1, 3), F(1, 5))
    assert P._denominator == 15
    assert solve_modulo(P, 3) is None and solve_modulo(P, 5) is None
    assert solve_modulo(P, 127) == [3, 5]
    # for two_state(3/5, 3/5) they are (-3, 3) and (3, -3): no pivot modulo 3
    P = two_state(F(3, 5), F(3, 5))
    assert solve_modulo(P, 3) is None
    assert solve_modulo(P, 127) == [1, 1]


def test_wide_weights_climb_the_ladder():
    # msjmc (2,1) with weights whose denominators have more than 300 bits
    w = [F(1, 3 ** 190), F(2, 5 ** 131), F(7, 11 ** 89), F(1)]
    assert min(x.denominator.bit_length() for x in w[:3]) > 300
    P = msjmc.build_chain(TypeCounts((2, 1)), ParamSet(tuple(x / sum(w) for x in w)))
    with ladder_from(()) as tried:
        pi = stationary_exact(P)
    assert pi.weights == gauss_jordan_stationary(P)
    assert len(tried) >= 3
    assert [masses is None for _, masses in tried] == [True] * (len(tried) - 1) + [False]


def test_ladder_goes_on_past_its_mersenne_primes():
    # with only 2^2 - 1 listed, the ladder climbs through Proth primes of
    # 4, 8, 16, ... bits until one is large enough for a 116-bit answer
    P = two_state(F(1, 3 ** 60), F(1, 5 ** 50))
    with mock.patch.object(chain, "_MERSENNE_EXPONENTS", (2,)):
        ladder = chain._prime_ladder()
        assert [next(ladder) for _ in range(4)] == [3, 17, 257, 65537]
        with ladder_from(()) as tried:
            pi = stationary_exact(P)
    assert pi.weights == gauss_jordan_stationary(P)
    # p - 1 = k·2^bits with k odd
    assert [((p - 1) & (1 - p)).bit_length() - 1 for p, _ in tried] == [1, 4, 8, 16, 32, 64,
                                                                       128, 256]


def test_ladder_starts_at_mersenne_primes_in_order():
    exponents = chain._MERSENNE_EXPONENTS
    assert exponents[0] == 127 and list(exponents) == sorted(set(exponents))
    for e in (x for x in exponents if x < 5000):
        # Lucas-Lehmer: 2^e - 1 is prime iff s_(e-2) = 0, s_0 = 4, s_k+1 = s_k^2 - 2
        m, s = (1 << e) - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % m
        assert s == 0, e


def test_proth_primes_are_the_least_primes_of_their_form():
    def prime(m):
        return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))

    for bits in range(2, 13):
        least = next(m for k in range(1, 1 << bits, 2)
                     if prime(m := (k << bits) + 1) and m % 3 == 2)
        assert chain._proth_prime(bits) == least


def test_rational_reconstruction_finds_the_one_small_fraction():
    # modulo 8191 with both parts at most 63, each residue is a/b for at most
    # one coprime pair (2·63^2 < 8191); every other residue has none
    p, bound = 8191, 63
    small = {a * pow(b, -1, p) % p: (a, b) for a in range(-bound, bound + 1)
             for b in range(1, bound + 1) if math.gcd(a, b) == 1}
    assert len(small) < p
    assert all(chain._rational(u, p, bound) == small.get(u) for u in range(p))


def test_a_corrupted_reconstruction_is_never_returned():
    # the first fraction read off comes back one too large: the certificate
    # refuses that candidate and the next rung gives the law
    P = two_state(F(1, 3), F(1, 5))
    read = chain._rational
    calls = []

    def corrupt_first(u, p, bound):
        a, b = read(u, p, bound)
        calls.append(p)
        return (a + 1, b) if len(calls) == 1 else (a, b)

    with ladder_from(()) as tried, mock.patch.object(chain, "_rational", corrupt_first):
        pi = stationary_exact(P)
    assert pi.weights == (F(3, 8), F(5, 8))
    assert [p for p, _ in tried] == calls == [2 ** 127 - 1, 2 ** 521 - 1]
    assert tried[0][1] != [3, 5]


def split_chain(P: ChainMatrix, cls: list[int], weights: list[list[int]],
                shared: bool) -> ChainMatrix:
    """P split into states 0..len(cls)-1, state i in class cls[i], which must
    cover every state of P: the states of class c all hold one row, row c of
    P with its mass on each class spread over that class's states in
    proportion to weights[c]; one row object per class when `shared`, equal
    copies otherwise. The split is irreducible when P is."""
    members: list[list[int]] = [[] for _ in P.rows]
    for i, c in enumerate(cls):
        members[c].append(i)
    class_rows = []
    for row, w in zip(P.rows, weights):
        split = {}
        for c, q in row.items():
            total = sum(w[i] for i in members[c])
            split.update((i, q * F(w[i], total)) for i in members[c])
        class_rows.append(split)
    return ChainMatrix(range(len(cls)), [class_rows[c] if shared else dict(class_rows[c])
                                         for c in cls])


ONE_STATE = ChainMatrix([0], [{0: F(1)}])


@st.composite
def lumpable_chains(draw) -> ChainMatrix:
    """Irreducible chains whose n states share k < n rows: a one-state
    chain or an irreducible chain split one to three times, so the lumped
    chain may have equal rows again (nested levels) or be one state."""
    P = draw(st.one_of(st.just(ONE_STATE), irreducible_chains()))
    for split in range(draw(st.integers(1, 3))):
        if split and P.size > 6:
            break
        sizes = draw(st.lists(st.integers(1, 3), min_size=P.size, max_size=P.size)
                     .filter(lambda s: max(s) > 1))
        cls = draw(st.permutations([c for c, k in enumerate(sizes) for _ in range(k)]))
        weights = draw(st.lists(st.lists(st.integers(1, 9), min_size=len(cls),
                                         max_size=len(cls)),
                                min_size=P.size, max_size=P.size))
        P = split_chain(P, cls, weights, draw(st.booleans()))
    return P


@settings(max_examples=200, deadline=None)
@given(lumpable_chains())
def test_stationary_exact_on_lumpable_chains_matches_dense_reference(P):
    levels, rows = chain._lumpings(P)
    assert levels and len(rows) < P.size
    pi = stationary_exact(P)
    assert pi.weights == gauss_jordan_stationary(P)
    assert first_unbalanced(P, pi) is None
    with ladder_from((13, 17, 31)) as tried:
        assert stationary_exact(P).weights == pi.weights
    # a one-state innermost chain needs no elimination
    assert (len(rows) == 1) == (tried == [])


def random_lumpable_chain(rng: random.Random) -> ChainMatrix:
    """As lumpable_chains(), drawn from `rng`, split from a
    random_irreducible_chain."""
    P = random_irreducible_chain(rng)
    for _ in range(rng.randint(1, 2)):
        sizes = [rng.randint(1, 3) for _ in range(P.size)]
        sizes[rng.randrange(P.size)] = 2
        cls = [c for c, k in enumerate(sizes) for _ in range(k)]
        rng.shuffle(cls)
        weights = [[rng.randint(1, 9) for _ in cls] for _ in range(P.size)]
        P = split_chain(P, cls, weights, rng.random() < 0.5)
    return P


def test_tiny_primes_give_lifted_candidates_the_certificate_refuses():
    rng = random.Random(22)
    refused = 0
    for _ in range(100):
        P = random_lumpable_chain(rng)
        with ladder_from((2, 3, 5, 7)) as tried:
            pi = stationary_exact(P)
        assert pi.weights == gauss_jordan_stationary(P)
        # every rung solved the innermost chain, not P
        assert all(masses is None or len(masses) < P.size for _, masses in tried)
        refused += sum(masses is not None for _, masses in tried[:-1])
    assert refused > 10


@settings(max_examples=100, deadline=None)
@given(lumpable_chains())
def test_a_prime_above_the_innermost_tree_bound_gives_the_law(P):
    # the tree bound 2·D^(2k-2) is taken on the innermost chain's size k
    _, rows = chain._lumpings(P)
    bound = 2 * P._denominator ** (2 * len(rows) - 2)
    prime = chain._proth_prime(max(bound.bit_length(), 2))
    with mock.patch.object(chain, "_prime_ladder", lambda: iter([prime])):
        assert stationary_exact(P).weights == gauss_jordan_stationary(P)


def test_overwriting_lumps_to_one_state():
    # overwriting (3,3): 27 words -> 9 -> 3 -> 1, the chain's ultrafast
    # convergence, so the law comes with no elimination at all
    P = overwriting.build_word_chain(3, 3, ParamSet((F(1, 6), F(1, 3), F(1, 4), F(1, 4))))
    levels, rows = chain._lumpings(P)
    assert [len(cls) for cls, _ in levels] + [len(rows)] == [27, 9, 3, 1]
    with ladder_from(()) as tried:
        pi = stationary_exact(P)
    assert tried == []
    assert pi.weights == gauss_jordan_stationary(P)


def nested_lumpings(P: ChainMatrix) -> tuple[list, list[tuple]]:
    """_lumpings by dense Fraction rows: the states with equal rows form a
    class, numbered in order of first state, and the classes are the states
    of the next level, each holding its row summed over the classes; until
    the rows are distinct."""
    rows = [tuple(F(P.rows[i].get(j, 0)) for j in range(P.size)) for i in range(P.size)]
    levels = []
    while len(set(rows)) < len(rows):
        reps = list(dict.fromkeys(rows))
        cls = [reps.index(row) for row in rows]
        levels.append((cls, reps))
        rows = [tuple(sum((x for x, c in zip(rep, cls) if c == d), F(0))
                      for d in range(len(reps))) for rep in reps]
    return levels, rows


def dense_integer_rows(rows, size: int) -> list[tuple]:
    """Integer rows as dense tuples over `size` columns; no row holds a zero."""
    assert all(0 not in row.values() for row in rows)
    return [tuple(row.get(j, 0) for j in range(size)) for row in rows]


@settings(max_examples=200, deadline=None)
@given(lumpable_chains())
def test_lumpings_match_the_nested_dense_lumping(P):
    levels, rows = chain._lumpings(P)
    ref_levels, ref_rows = nested_lumpings(P)
    D = P._denominator
    assert [cls for cls, _ in levels] == [cls for cls, _ in ref_levels]
    for (cls, reps), (_, ref_reps) in zip(levels, ref_levels):
        assert dense_integer_rows(reps, len(cls)) == [
            tuple(D * x for x in rep) for rep in ref_reps]
    assert dense_integer_rows(rows, len(rows)) == [tuple(D * x for x in row) for row in ref_rows]


def test_stationary_power_agrees_with_exact():
    P = two_state(F(1, 3), F(1, 5))
    exact = stationary_exact(P).normalize()
    approx = stationary_power(P)
    assert all(abs(float(a) - b) < 1e-10 for a, b in zip(exact.weights, approx.weights))


def test_stationary_power_refuses_reducible_chains():
    split = build_matrix([0, 1], lambda s: {s: 1.0}.items())
    with pytest.raises(ReducibleChain, match="not strongly connected"):
        stationary_power(split)


def test_stationary_power_raises_without_convergence():
    # period 2 with stationary law (1/4, 1/2, 1/4): from the uniform start the
    # iterates alternate between two vectors at distance 1/3
    P = build_matrix([0, 1, 2], lambda s: {0: {1: 1.0}, 1: {0: 0.5, 2: 0.5},
                                           2: {1: 1.0}}[s].items())
    with pytest.raises(ValueError, match=r"in 12 iterations \(final delta 0\.333"):
        stationary_power(P, max_iter=12)


def test_irreducibility_and_period():
    swap = build_matrix([0, 1], lambda s: {1 - s: F(1)}.items())
    assert is_irreducible(swap)
    assert chain_period(swap) == 2
    lazy = two_state(F(1, 2), F(1, 2))
    assert chain_period(lazy) == 1
    split = build_matrix([0, 1], lambda s: {s: F(1)}.items())
    assert not is_irreducible(split)
    with pytest.raises(ReducibleChain):
        chain_period(split)


@st.composite
def patterns(draw):
    """A transition pattern on 1..6 states, each row a nonempty successor set;
    state i moves only to states of class i % d + 1 (mod d), so d > 1 draws
    periodic chains often."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, n))
    return [draw(st.sets(st.sampled_from(range((i + 1) % d, n, d)), min_size=1))
            for i in range(n)]


@given(patterns())
def test_connectivity_and_period_match_walk_counts(pattern):
    n = len(pattern)
    P = build_matrix(range(n), lambda s: ((t, F(1, len(pattern[s]))) for t in pattern[s]))
    # walks[k][i] = the states a walk of exactly k steps from i can end at;
    # each cycle C gives closed walks at 0 of lengths L and L + |C| <= 3n
    walks = [[{i} for i in range(n)]]
    for _ in range(3 * n):
        walks.append([{v for u in ends for v in pattern[u]} for ends in walks[-1]])
    reach = [set().union(*(walks[k][i] for k in range(n))) for i in range(n)]
    irreducible = all(len(r) == n for r in reach)
    assert is_irreducible(P) == irreducible
    if irreducible:
        returns = [k for k in range(1, 3 * n + 1) if 0 in walks[k][0]]
        assert chain_period(P) == math.gcd(*returns)
    else:
        with pytest.raises(ReducibleChain):
            chain_period(P)


def test_step_distribution():
    P = two_state(F(1, 4), F(1, 2))
    d0 = Distribution(["a", "b"], (F(1), F(0)))
    d1 = step_distribution(d0, P)
    assert d1.weights == (F(3, 4), F(1, 4))
    assert d1.total == 1


def proportional(a: Distribution, b: Distribution) -> bool:
    """a is a multiple of b, zero included; b must not be zero."""
    k = next(i for i, w in enumerate(b.weights) if w)
    return all(x * b.weights[k] == y * a.weights[k] for x, y in zip(a.weights, b.weights))


@st.composite
def chains_with_masses(draw):
    """An irreducible chain and masses on it: its stationary law times an
    int or a Fraction, that law with one weight changed, or random ints and
    Fractions with zeros."""
    P = draw(irreducible_chains())
    kind = draw(st.sampled_from(["scaled", "changed", "random"]))
    if kind == "random":
        weight = st.one_of(st.integers(0, 5), st.builds(F, st.integers(0, 9), st.integers(1, 9)))
        weights = draw(st.lists(weight, min_size=P.size, max_size=P.size))
    else:
        scale = draw(st.sampled_from([1, 3, F(2, 7)]))
        weights = [scale * w for w in stationary_exact(P).weights]
        if kind == "changed":
            k = draw(st.integers(0, P.size - 1))
            weights[k] += draw(st.sampled_from([F(1, 11), 1, -weights[k]]))
    return P, Distribution(P.states, weights)


@settings(max_examples=300, deadline=None)
@given(chains_with_masses())
def test_first_unbalanced_matches_one_fraction_step(case):
    P, masses = case
    first = first_unbalanced(P, masses)
    assert first == reference_unbalanced(P, masses)
    assert (first is None) == (step_distribution(masses, P) == masses)
    # the stationary law is unique up to scale on an irreducible chain
    assert (first is None) == proportional(masses, stationary_exact(P))


def closed_form(model, shape, enriched):
    """(chain, law, p): a chain of the model on one shape with weights p,
    z_k proportional to k and activities c_t = 1/t, and its closed-form law
    as a function of the weights it reads, p by default (p is None for
    several_jugglers, whose law reads none)."""
    m = MODELS[model]
    if model == "several_jugglers":
        spec = ModelSpec(model, "exact", r=shape[0], c=shape[1], balls=shape[2])
        return m.chain(spec), lambda: m.law(spec, m.states(spec)), None
    n, T = (sum(shape), len(shape)) if model == "msjmc" else shape
    z = tuple(F(2 * k, (n + 1) * (n + 2)) for k in range(1, n + 2))
    c = tuple(F(1, t) for t in range(1, T + 1)) if model == "add_drop" else None
    spec = ModelSpec(model, "exact", counts=shape, n=n, T=T, z=z, activities=c)
    p = spec.params
    if not enriched:
        def law(q=p):
            moved = dataclasses.replace(spec)
            moved.params = q
            return m.law(moved, m.states(moved))
        return m.chain(spec), law, p
    Pt, weight = m.enriched(spec, p)
    return Pt, lambda q=p: Distribution(Pt.states, [weight(s, q) for s in Pt.states]), p


def index_shifted(p: ParamSet, k: int) -> ParamSet:
    """A copy of p whose integer tables hold y_{k+1} and z_{k+1} where y_k
    and z_k belong, which is where the closed forms read them."""
    q, t = ParamSet(p.z, p.c), p.tables
    object.__setattr__(q, "tables", t._replace(Y=t.Y[:k - 1] + t.Y[k:k + 1] + t.Y[k:],
                                                Z=t.Z[:k - 1] + t.Z[k:k + 1] + t.Z[k:]))
    return q


CLOSED_FORMS = CASCADE_SHAPES + [("several_jugglers", s, False) for s in
                                 [(1, 1, 0), (1, 3, 2), (2, 2, 2), (2, 3, 3), (3, 2, 3), (3, 3, 4)]]


@pytest.mark.parametrize("model,shape,enriched", CLOSED_FORMS,
                         ids=["-".join([m, "x".join(map(str, s))] + ["enriched"] * e)
                              for m, s, e in CLOSED_FORMS])
def test_first_unbalanced_certifies_every_closed_form(model, shape, enriched):
    P, law, p = closed_form(model, shape, enriched)
    pi = law()
    assert first_unbalanced(P, pi) is None
    assert step_distribution(pi, P) == pi
    wrong = []
    for k in sorted({0, P.size // 2, P.size - 1}):
        weights = list(pi.weights)
        weights[k] = 2 * weights[k] + F(1, 3)
        wrong.append(Distribution(P.states, weights))
    if p is not None:
        # y_{k+1} and z_{k+1} read where the formula asks for y_k and z_k, for
        # each index k it reads: E_w(i) - 1 counts the letters after w_i that
        # are heavier, so msjmc reads up to 1 + n - n_1, the others up to n
        n, T = len(p.z) - 1, len(shape) if model == "msjmc" else shape[1]
        for k in range(1, n - shape[0] + 2 if model == "msjmc" else n + 1):
            wrong.append(law(index_shifted(p, k)))
            # over one letter there is one word, and add_drop's base law on one
            # site reads y_1 alike in every word: neither tells k apart
            if T > 1 and (enriched or model != "add_drop" or n > 1):
                assert wrong[-1] != pi, k
    irreducible = is_irreducible(P)
    for masses in wrong:
        first = first_unbalanced(P, masses)
        assert first == reference_unbalanced(P, masses)
        assert (first is None) == (step_distribution(masses, P) == masses)
        if irreducible:
            assert (first is None) == proportional(masses, pi)


def test_first_unbalanced_refuses_floats_and_misaligned_masses():
    P = two_state(F(1, 3), F(1, 5))
    for weights in [(0.375, 0.625), (F(3, 8), 0.625)]:
        with pytest.raises(ValueError, match="exact masses"):
            first_unbalanced(P, Distribution(P.states, weights))
    floats = build_matrix(["a", "b"], lambda s: {"a": 0.5, "b": 0.5}.items())
    with pytest.raises(ValueError, match="exact probabilities"):
        first_unbalanced(floats, Distribution(floats.states, (F(1, 2), F(1, 2))))
    with pytest.raises(ValueError, match="not aligned"):
        first_unbalanced(P, Distribution(["b", "a"], (F(3, 8), F(5, 8))))


def test_exact_weights_are_int_masses_from_construction():
    for weights, masses, scale in [((3, 0, 5), (3, 0, 5), 1),
                                   ((F(1, 6), F(0), F(3, 4)), (2, 0, 9), 12),
                                   ((F(2, 3), 1, F(1, 2)), (4, 6, 3), 6),
                                   ((0, F(0), 0), (0, 0, 0), 1)]:
        d = Distribution("abc", weights)
        assert (d.masses, d.scale) == (masses, scale), weights
        assert all(type(a) is int for a in d.masses) and d.weights == weights
    empty = Distribution((), ())
    assert (empty.masses, empty.scale, empty.weights) == ((), 1, ())
    P = two_state(F(1, 3), F(1, 5))
    for weights in [(0.375, 0.625), (F(3, 8), 0.625), (3, 0.625)]:
        d = Distribution(P.states, weights)
        assert d.masses is None and d.weights == weights
        with pytest.raises(ValueError) as info:
            first_unbalanced(P, d)
        assert str(info.value) == "a stationarity certificate needs exact masses"


def test_distribution_helpers():
    d = Distribution([0, 1], (F(1, 2), F(1, 4)))
    assert d.total == F(3, 4)
    assert d.normalize().weights == (F(2, 3), F(1, 3))
    assert dict(zip(d.states, d.weights)) == {0: F(1, 2), 1: F(1, 4)}
    with pytest.raises(ValueError):
        Distribution([0], (F(0),)).normalize()


def test_normalize_keeps_integer_weights_exact():
    d = Distribution([0, 1, 2], (6, 12, 1)).normalize()
    assert d.weights == (F(6, 19), F(12, 19), F(1, 19))
    f = Distribution([0, 1], (1.0, 3.0)).normalize()
    assert f.weights == (0.25, 0.75)


# Four-state chain that collapses classes {0,1} -> A, {2,3} -> B; transition
# mass out of each class is split within the target class, so class sums
# depend only on the class of the source state.
def lumpable_pair():
    Pt = build_matrix(
        [0, 1, 2, 3],
        lambda s: {
            0: {0: F(1, 6), 1: F(1, 3), 2: F(1, 4), 3: F(1, 4)},
            1: {0: F(1, 2), 2: F(1, 8), 3: F(3, 8)},
            2: {0: F(2, 3), 1: F(1, 6), 2: F(1, 6)},
            3: {0: F(5, 6), 2: F(1, 12), 3: F(1, 12)},
        }[s].items(),
    )
    P = build_matrix(
        ["A", "B"],
        lambda s: ({"A": F(1, 2), "B": F(1, 2)} if s == "A"
                   else {"A": F(5, 6), "B": F(1, 6)}).items(),
    )
    f = LumpingMap.from_function(lambda s: "A" if s < 2 else "B", [0, 1, 2, 3], ["A", "B"])
    return Pt, f, P


def test_verify_lumping_accepts_consistent_projection():
    Pt, f, P = lumpable_pair()
    ok, witness = verify_lumping(Pt, f, P)
    assert ok, witness
    assert witness is None


def test_verify_lumping_flags_corruption():
    Pt, f, _ = lumpable_pair()
    corrupted = build_matrix(
        ["A", "B"],
        lambda s: ({"A": F(1, 2), "B": F(1, 2)} if s == "A"
                   else {"A": F(1, 6), "B": F(5, 6)}).items(),
    )
    ok, witness = verify_lumping(Pt, f, corrupted)
    assert not ok
    assert witness is not None


def test_verify_lumping_rejects_mismatched_map():
    Pt, _, P = lumpable_pair()
    undefined = LumpingMap({0: "A", 1: "A", 2: "B"}, ["A", "B"])
    with pytest.raises(ValueError):
        verify_lumping(Pt, undefined, P)


def test_verify_lumping_names_a_state_mapped_outside_the_base():
    third = F(1, 3)
    Pt = build_matrix(["x", "y", "z"], lambda s: {"x": third, "y": third, "z": third}.items())
    P = build_matrix(["a", "b"], lambda s: {"a": F(1, 2), "b": F(1, 2)}.items())
    outside = LumpingMap({"x": "a", "y": "b", "z": "q"}, ["a", "b"])
    with pytest.raises(ValueError, match=r"^lumping map sends z to q, not a base state$"):
        verify_lumping(Pt, outside, P)


class CountedFraction(Fraction):
    """A Fraction that counts the reads of its numerator."""

    reads = 0

    @property
    def numerator(self):
        CountedFraction.reads += 1
        return self._numerator


def test_integer_form_is_computed_once_per_chain():
    Pt, f, P = lumpable_pair()
    given = [[{j: CountedFraction(v) for j, v in row.items()} for row in X.rows]
             for X in (Pt, P)]
    entries = sum(len(row) for rows in given for row in rows)
    CountedFraction.reads = 0
    counted = [ChainMatrix(X.states, rows) for X, rows in zip((Pt, P), given)]
    # D·P is made with the chain, reading each entry's numerator once
    assert CountedFraction.reads == entries
    rows = [X._integer_rows for X in counted]
    laws = [stationary_exact(X) for X in counted]
    Pt, P = counted
    assert verify_lumping(Pt, f, P) == (True, None)
    for X, pi in zip(counted, laws):
        assert first_unbalanced(X, pi) is None
        for m in range(3):
            ultrafast_check(X, m)
            nilpotency_check(X, m)
    # every later use gets the same rows and reads no given value again
    assert CountedFraction.reads == entries
    assert all(X._integer_rows is r for X, r in zip(counted, rows))
    assert [X._denominator for X in counted] == [24, 6]


def shared_and_copied_matrix_chains():
    """The (2,4) matrix chain given once with one row object per distinct
    body, shared by the 27 states that keep that body, and once with one row
    copy per state."""
    p = ParamSet((F(1, 6), F(1, 3), F(1, 2)))
    Pm = overwriting.build_matrix_chain(2, 4, p)
    by_body: dict = {}
    rows = [by_body.setdefault(overwriting._matrix_body(M), dict(row))
            for M, row in zip(Pm.states, Pm.rows)]
    assert len(by_body) == 27 and len(rows) == 729
    return p, ChainMatrix(Pm.states, rows), ChainMatrix(Pm.states, [dict(r) for r in rows])


def test_shared_rows_give_the_results_of_copied_rows():
    p, shared, copied = shared_and_copied_matrix_chains()
    assert shared.rows == copied.rows
    assert ([[(j, type(v)) for j, v in row.items()] for row in shared.rows]
            == [[(j, type(v)) for j, v in row.items()] for row in copied.rows])
    assert shared._denominator == copied._denominator
    for m in range(4):
        assert ultrafast_check(shared, m) == ultrafast_check(copied, m)
        assert nilpotency_check(shared, m) == nilpotency_check(copied, m)
    assert ultrafast_check(shared, 2)[0] and nilpotency_check(shared, 2)
    masses = Distribution(shared.states, [overwriting.matrix_stationary_weight(M, p)
                                          for M in shared.states])
    assert first_unbalanced(shared, masses) is first_unbalanced(copied, masses) is None
    assert stationary_exact(shared) == stationary_exact(copied) == masses.normalize()
    assert stationary_power(shared) == stationary_power(copied)
    assert _cumulative_rows(shared) == _cumulative_rows(copied)
    Pt = overwriting.build_tableau_chain(2, 4, p)
    Pt_copied = ChainMatrix(Pt.states, [dict(row) for row in Pt.rows])
    f = LumpingMap(zip(shared.states, [overwriting.lump_matrix(M) for M in shared.states]), Pt.states)
    assert verify_lumping(shared, f, Pt) == verify_lumping(copied, f, Pt_copied) == (True, None)
    # swapping two tableaux' fibers makes a map that is not a lumping
    swap = {Pt.states[3]: Pt.states[7], Pt.states[7]: Pt.states[3]}
    wrong = LumpingMap({M: swap.get(V, V) for M, V in f.mapping.items()}, Pt.states)
    got = verify_lumping(shared, wrong, Pt)
    assert not got[0]
    assert got == verify_lumping(copied, wrong, Pt_copied) == reference_lumping(copied, wrong, Pt)


def unkeyed_word_chain(model: str, n: int, T: int, p: ParamSet) -> ChainMatrix:
    """The model's word chain with every row built from its own word."""
    words = combinatorics.enumerate_alphabet_words(n, T)
    if model == "overwriting":
        return build_matrix(words, lambda w: overwriting_reference.overwrites(w, p))
    walk, lead = {"add_drop": (fluctuating._add_drop_moves, fluctuating._add_drop_lead),
                  "annihilation": (fluctuating._annihilation_moves,
                                   fluctuating._annihilation_lead)}[model]
    return chain._chain(chain._skeleton(words, walk), p, msjmc.bump_tables(p), lead(p, T),
                        "cascade factor")


KEYED_BUILDS = {
    "add_drop": fluctuating.build_add_drop_chain,
    "annihilation": fluctuating.build_annihilation_chain,
    "overwriting": overwriting.build_word_chain,
}


@pytest.mark.parametrize("model", KEYED_BUILDS)
@pytest.mark.parametrize("n,T", [(1, 3), (2, 3), (3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_keyed_word_builds_equal_unkeyed_builds(model, n, T, exact):
    # a step reads w only through w_2..w_n, so each such tail's row is built
    # once and shared by the T words that end in it
    raw = [F(k, k + 2) for k in range(1, n + 2)]
    z = tuple(x / sum(raw) if exact else float(x / sum(raw)) for x in raw)
    c = tuple(F(1, t) if exact else 1 / t for t in range(1, T + 1))
    p = ParamSet(z, c if model == "add_drop" else None)
    P, ref = KEYED_BUILDS[model](n, T, p), unkeyed_word_chain(model, n, T, p)
    assert P.states == ref.states and P.exact == ref.exact == exact
    assert ([[(j, v, type(v)) for j, v in row.items()] for row in P.rows]
            == [[(j, v, type(v)) for j, v in row.items()] for row in ref.rows])
    assert len(P._distinct) == T ** (n - 1)


def test_shared_row_is_read_once():
    _, shared, _ = shared_and_copied_matrix_chains()
    by_row: dict = {}
    counted = [by_row.setdefault(id(row), {j: CountedFraction(v) for j, v in row.items()})
               for row in shared.rows]
    CountedFraction.reads = 0
    X = ChainMatrix(shared.states, counted)
    assert CountedFraction.reads == 27 * 27
    # the numerators are read when the chain is made and never again
    ultrafast_check(X, 2)
    assert X.rows == shared.rows
    assert CountedFraction.reads == 27 * 27


def test_value_built_exact_chain_holds_only_the_integer_form():
    shared = {2: F(1, 6), 0: 0, 1: F(5, 6)}
    P = ChainMatrix("abc", [shared, {0: F(1, 2), 2: F(1, 2)}, shared])
    held = vars(P)
    assert {"_denominator", "_integer_rows"} <= set(held)
    assert not {"rows", "_distinct"} & set(held)
    assert P._row_of == [0, 1, 0]
    assert P._denominator == 6
    assert [list(row.items()) for row in P._integer_rows] == [[(2, 1), (1, 5)], [(0, 3), (2, 3)]]
    row = {2: F(1, 6), 1: F(5, 6)}
    assert P.rows == (row, {0: F(1, 2), 2: F(1, 2)}, row)
    assert P.rows[0] is P.rows[2]


def test_exact_row_in_float_chain_keeps_its_exact_check():
    # the row is 1e-15 off 1, well within the float tolerance
    with pytest.raises(RowSumError) as info:
        ChainMatrix("ab", [{0: 0.5, 1: 0.5}, {0: F(1, 2), 1: F(1, 2) + F(1, 10**15)}])
    assert str(info.value) == "row 1 (b) sums to 1000000000000001/1000000000000000"


def test_shared_bad_row_names_its_first_state():
    good = {0: F(1, 2), 1: F(1, 2)}
    bad = [
        ({0: F(3, 2), 1: F(-1, 2)}, RowSumError, "row 1: negative probability -1/2"),
        ({0: F(1, 2), 1: F(1, 3)}, RowSumError, "row 1 (b) sums to 5/6"),
        ({0: F(1, 2), 7: F(1, 2)}, UnknownSuccessor, "row 1: successor index 7"),
        ({0: 0.5, 1: 0.4}, RowSumError, "row 1 (b) sums to 0.9"),
    ]
    for row, error, text in bad:
        rows = [good, row, good, row]
        for given in (rows, [dict(r) for r in rows]):
            with pytest.raises(error) as info:
                ChainMatrix("abcd", given)
            assert type(info.value) is error and str(info.value) == text


def test_power_iteration_and_sampling_make_no_fraction_rows(monkeypatch, capsys):
    def refuse(P):
        raise AssertionError("Fraction rows made")

    monkeypatch.setattr(ChainMatrix, "rows", property(refuse))
    monkeypatch.setattr(ChainMatrix, "_distinct", property(refuse))
    P = two_state(F(1, 3), F(1, 5))
    stationary_power(P)
    simulate(P, "a", 100, seed=1)
    simulate_replicas(P, "a", 3, 10, seed=1)
    assert chain_period(P) == 1
    assert not {"rows", "_distinct"} & set(vars(P))
    # a failing lumping reads both entries of its counterexample off D·P
    Q = two_state(F(1, 2), F(1, 5))
    assert verify_lumping(P, LumpingMap({"a": "a", "b": "b"}, Q.states), Q) == (
        False, ("a", "a", F(2, 3), F(1, 2)))
    rows = {"a": {"b": 1}, "b": {"a": F(1, 2), "b": F(1, 2)}}
    off = build_matrix("ab", lambda s: rows[s].items())
    bad = verify_lumping(off, LumpingMap({"a": "a", "b": "b"}, P.states), P)[1]
    assert repr(bad) == "('a', 'a', 0, Fraction(2, 3))"
    args = ["--model", "msjmc", "--counts", "1,1,1", "--z", "1/2,1/3,1/6,1/6"]
    for argv in (["simulate", "--steps", "50"], ["simulate", "--replicas", "5"],
                 ["matrix", "--format", "json"], ["matrix", "--format", "csv"],
                 ["matrix", "--format", "dot"]):
        assert main(argv + args) == 0, argv
    assert capsys.readouterr().err == ""


def test_verify_lumping_refuses_floats():
    Pt, f, P = lumpable_pair()
    floats = build_matrix([0, 1, 2, 3], lambda s: {0: 0.5, 2: 0.5}.items())
    with pytest.raises(ValueError, match="exact probabilities"):
        verify_lumping(floats, f, P)
    with pytest.raises(ValueError, match="exact probabilities"):
        verify_lumping(Pt, f, build_matrix(["A", "B"], lambda s: {"A": 0.5, "B": 0.5}.items()))


def reference_lumping(Pt: ChainMatrix, f: LumpingMap, P: ChainMatrix):
    """verify_lumping by Fraction sums: the class sums of each row of Pt,
    compared entry by entry with the row of P at f(x)."""
    base_of = [P.index[f.mapping[s]] for s in Pt.states]
    for x in range(Pt.size):
        sums: dict = {}
        for y, v in Pt.rows[x].items():
            sums[base_of[y]] = sums.get(base_of[y], 0) + v
        brow = P.rows[base_of[x]]
        for b in set(sums) | set(brow):
            if sums.get(b, 0) != brow.get(b, 0):
                return False, (Pt.states[x], P.states[b], sums.get(b, 0), brow.get(b, 0))
    return True, None


def test_verify_lumping_names_the_first_state_of_a_recurring_failure():
    """Rows shared by key: the pair (row 0, A) passes at states 0 and 2,
    (row 1, B) at 1 and 3, and (row 1, A) fails at 4 and 6, (row 0, B) at 5
    and 7. Checking each pair once still names state 4, as the per-state
    reference does."""
    key = [0, 1, 0, 1, 1, 0, 1, 0]
    rows = [{0: F(1, 4), 2: F(1, 4), 1: F(1, 2)}, {4: F(1, 3), 3: F(1, 3), 7: F(1, 3)}]
    Pt = build_matrix(range(8), lambda s: rows[key[s]].items(), key=key.__getitem__)
    P = build_matrix(["A", "B"], lambda s: ({"A": F(1, 2), "B": F(1, 2)} if s == "A"
                                           else {"A": F(1, 3), "B": F(2, 3)}).items())
    f = LumpingMap({x: "AB"[x % 2] for x in range(8)}, P.states)
    assert len({id(row) for row in Pt.rows}) == 2
    # the class-A mass of each state's row against its base row's
    failing = [x for x in range(8) if sum(
        (v for y, v in Pt.rows[x].items() if f.mapping[y] == "A"), F(0))
        != P.rows[P.index[f.mapping[x]]][0]]
    assert failing == [4, 5, 6, 7]
    copied = ChainMatrix(Pt.states, [dict(row) for row in Pt.rows])
    want = (False, (4, "A", F(1, 3), F(1, 2)))
    assert verify_lumping(Pt, f, P) == verify_lumping(copied, f, P) == want
    assert reference_lumping(Pt, f, P) == want


def test_verify_lumping_checks_rows_with_equal_class_sums_against_each_base_row():
    """Rows a and b of Pt differ but have equal class sums (1/2, 1/2), so
    they share one group: (group ab, A) passes at states 0 and 2, (c, B) at
    state 1, and (group ab, B) fails at state 3, which holds b while the
    group's summed row is a's; (c, A) would fail at state 4."""
    a, b = {0: F(1, 2), 1: F(1, 2)}, {2: F(1, 4), 4: F(1, 4), 3: F(1, 2)}
    c = {0: F(1, 3), 5: F(2, 3)}
    held = [a, c, b, b, c, a]
    Pt = ChainMatrix(range(6), held)
    P = build_matrix(["A", "B"], lambda s: ({"A": F(1, 2), "B": F(1, 2)} if s == "A"
                                           else {"A": F(1, 3), "B": F(2, 3)}).items())
    f = LumpingMap({x: "AB"[x % 2] for x in range(6)}, P.states)
    of, sums = chain._lumped(Pt._integer_rows, [x % 2 for x in range(6)])
    assert len(Pt._distinct) == 3 and of == [0, 1, 0] and len(sums) == 2
    want = (False, (3, "A", F(1, 2), F(1, 3)))
    copied = ChainMatrix(Pt.states, [dict(row) for row in held])
    assert verify_lumping(Pt, f, P) == verify_lumping(copied, f, P) == want
    assert reference_lumping(Pt, f, P) == want


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@st.composite
def lumping_cases(draw):
    """(Pt, f, P, corrupted): Pt's rows split each entry P[f(x)][b] over class
    b with p/q parts of coprime denominators; a corrupted Pt moves mass of
    one entry into another class, which may empty a class or reach a class
    that P's row does not."""
    def split(mass, k):
        # k positive parts summing to mass; a single part keeps its type
        primes = draw(st.lists(st.sampled_from(PRIMES), min_size=k - 1, max_size=k - 1,
                               unique=True))
        parts = [mass * F(draw(st.integers(1, q - 1)), q * k) for q in primes]
        return parts + [mass - sum(parts)]

    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    states = [(b, i) for b, size in enumerate(sizes) for i in range(size)]
    members = {b: [s for s in states if s[0] == b] for b in range(len(sizes))}
    base_rows, rows = [], []
    for a in range(len(sizes)):
        support = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, unique=True))
        base_rows.append(dict(zip(support, split(1, len(support)))))
    for x in states:
        row = {}
        for b, mass in base_rows[x[0]].items():
            chosen = draw(st.lists(st.sampled_from(members[b]), min_size=1, unique=True))
            row.update(zip(chosen, split(mass, len(chosen))))
        rows.append(row)
    corrupted = len(sizes) > 1 and draw(st.booleans())
    if corrupted:
        row = rows[draw(st.integers(0, len(states) - 1))]
        y = draw(st.sampled_from(sorted(row)))
        z = draw(st.sampled_from([s for s in states if s[0] != y[0]]))
        moved = row[y] * draw(st.sampled_from([F(1), F(1, 2), F(2, 7)]))
        row[y] -= moved
        if row[y] == 0:
            del row[y]
        row[z] = row.get(z, 0) + moved
    index = {s: i for i, s in enumerate(states)}
    Pt = ChainMatrix(states, [{index[s]: v for s, v in row.items()} for row in rows])
    P = ChainMatrix(range(len(sizes)), base_rows)
    return Pt, LumpingMap({s: s[0] for s in states}, P.states), P, corrupted


@given(lumping_cases())
@settings(max_examples=200, deadline=None)
def test_verify_lumping_matches_fraction_reference(case):
    Pt, f, P, corrupted = case
    got = verify_lumping(Pt, f, P)
    want = reference_lumping(Pt, f, P)
    assert got[0] == (not corrupted)
    assert got == want
    if want[1] is not None:
        assert [type(v) for v in got[1]] == [type(v) for v in want[1]]


def test_lumping_map_requires_surjectivity():
    with pytest.raises(ValueError):
        LumpingMap({0: "A", 1: "A"}, ["A", "B"])


def test_project_distribution_sums_fibers():
    _, f, _ = lumpable_pair()
    pi = Distribution([0, 1, 2, 3], (F(1, 8), F(1, 4), F(1, 2), F(1, 8)))
    proj = project_distribution(pi, f)
    assert tuple(proj.states) == ("A", "B")
    assert proj.weights == (F(3, 8), F(5, 8))


def test_stationary_projects_through_lumping():
    Pt, f, P = lumpable_pair()
    pi_t = stationary_exact(Pt).normalize()
    assert project_distribution(pi_t, f).weights == stationary_exact(P).normalize().weights


def test_ultrafast_check():
    # both rows equal from the first power on
    flat = build_matrix([0, 1], lambda s: {0: F(1, 3), 1: F(2, 3)}.items())
    ok, common = ultrafast_check(flat, 1)
    assert ok
    assert common.weights == (F(1, 3), F(2, 3))
    slow = two_state(F(1, 3), F(1, 5))
    ok, common = ultrafast_check(slow, 3)
    assert not ok and common is None


def test_nilpotency_check():
    flat = build_matrix([0, 1], lambda s: {0: F(1, 3), 1: F(2, 3)}.items())
    assert nilpotency_check(flat, 1)
    assert not nilpotency_check(two_state(F(1, 3), F(1, 5)), 1)


def naive_row_powers(P: ChainMatrix, m: int) -> list[tuple]:
    """Every row of P^m, each by its own m vector-matrix products."""
    out = []
    for i in range(P.size):
        vec = {i: F(1)}
        for _ in range(m):
            nxt = {}
            for j, w in vec.items():
                for k, v in P.rows[j].items():
                    nxt[k] = nxt.get(k, 0) + w * v
            vec = nxt
        out.append(tuple(vec.get(j, 0) for j in range(P.size)))
    return out


THIRDS = ParamSet((F(1, 2), F(1, 3), F(1, 6)))
COPRIME = ParamSet((F(1, 1000003), F(1, 999983), 1 - F(1, 1000003) - F(1, 999983)))


def ladder_chains():
    yield two_state(F(1, 3), F(1, 5))
    # every row of P^2 is (1/4, 1/4, 1/2), reached from distinct lumped rows
    yield build_matrix([0, 1, 2], lambda s: (
        {2: F(1)}, {0: F(1, 2), 1: F(1, 2)}, {0: F(1, 4), 1: F(1, 4), 2: F(1, 2)})[s].items())
    yield msjmc.build_chain(TypeCounts((1, 1, 1)), ParamSet((F(1), F(2), F(1, 3), F(3))))
    yield msjmc.build_chain(TypeCounts((2, 1)), ParamSet((F(1, 2), F(1), F(2), F(1))))
    yield fluctuating.build_add_drop_chain(
        2, 2, ParamSet((F(1), F(1, 2), F(2)), c=(F(1), F(3))))
    yield fluctuating.build_annihilation_chain(2, 3, THIRDS)
    yield overwriting.build_word_chain(2, 3, THIRDS)
    yield overwriting.build_tableau_chain(2, 2, THIRDS)
    yield overwriting.build_matrix_chain(2, 2, THIRDS)
    yield overwriting.build_matrix_chain(3, 2, ParamSet((F(1, 4),) * 4))
    yield jugglers.build_chain(2, 2, 2)
    # large coprime denominators: the ladder's ints carry D = 1000003 * 999983,
    # so a power check that drops D**m or the D scaling gets these rows wrong
    yield overwriting.build_word_chain(2, 3, COPRIME)


def test_power_checks_match_naive_row_powers():
    for P in ladder_chains():
        rows = [naive_row_powers(P, m) for m in range(6)]
        flat = [len(set(r)) == 1 for r in rows]
        for m in range(5):
            ok, common = ultrafast_check(P, m)
            assert ok == flat[m], (P, m)
            assert common is None if not ok else common.weights == rows[m][0]
            assert nilpotency_check(P, m) == (rows[m + 1] == rows[m]), (P, m)
        first = next((m for m in range(1, 5) if flat[m]), None)
        assert _base_m_probe(P, 4) == first, P
    # the reference must see both outcomes: two_state never freezes, the
    # overwriting word chain freezes at its horizon
    assert _base_m_probe(two_state(F(1, 3), F(1, 5)), 4) is None
    assert _base_m_probe(overwriting.build_word_chain(2, 3, THIRDS), 4) == 2


def power_ladder_chains():
    rng = random.Random(24)
    for _ in range(20):
        yield random_irreducible_chain(rng)
        yield random_lumpable_chain(rng)
    yield build_matrix([0, 1], lambda s: {1 - s: F(1)}.items())  # swap, period 2
    # every row of P^2 is (1/4, 1/4, 1/2), reached from distinct lumped rows
    yield build_matrix([0, 1, 2], lambda s: (
        {2: F(1)}, {0: F(1, 2), 1: F(1, 2)}, {0: F(1, 4), 1: F(1, 4), 2: F(1, 2)})[s].items())
    yield overwriting.build_word_chain(2, 3, THIRDS)
    yield overwriting.build_tableau_chain(2, 3, THIRDS)


def test_power_ladder_matches_dense_integer_powers():
    for P in power_ladder_chains():
        n, D = P.size, P._denominator
        DP = [[D * P.rows[i].get(j, 0) for j in range(n)] for i in range(n)]
        power = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        ladder = chain._power_ladder(P)
        for k in range(n + 2):
            cls, vecs = next(ladder)
            # the classes are the states with equal rows of (D·P)^k, and
            # each class's vector is that row
            assert sorted(set(cls)) == list(range(len(vecs))), (P, k)
            assert all((cls[i] == cls[j]) == (power[i] == power[j])
                       for i in range(n) for j in range(n)), (P, k)
            assert dense_integer_rows(vecs, n) == [
                power[cls.index(c)] for c in range(len(vecs))], (P, k)
            power = [tuple(sum(a * DP[m][j] for m, a in enumerate(row)) for j in range(n))
                     for row in power]


def test_power_checks_reject_negative_powers():
    P = two_state(F(1, 3), F(1, 5))
    with pytest.raises(ValueError):
        ultrafast_check(P, -1)
    with pytest.raises(ValueError):
        nilpotency_check(P, -1)


def test_power_checks_refuse_floats():
    P = build_matrix([0, 1], lambda s: {0: 0.5, 1: 0.5}.items())
    with pytest.raises(ValueError, match="exact probabilities"):
        ultrafast_check(P, 1)
    with pytest.raises(ValueError, match="exact probabilities"):
        nilpotency_check(P, 1)


def test_total_variation():
    p = Distribution([0, 1], (F(1, 2), F(1, 2)))
    q = Distribution([0, 1], (F(1, 4), F(3, 4)))
    assert total_variation(p, q) == F(1, 4)
    with pytest.raises(ValueError):
        total_variation(p, Distribution([1, 0], (F(1, 2), F(1, 2))))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_total_variation_of_exact_laws_equals_the_fraction_sum(data):
    """Two int-mass laws give one Fraction, equal to the per-state Fraction
    sum it replaced; a float law keeps that sum over the weights, folded left."""
    size = data.draw(st.integers(1, 12))
    laws = [Distribution(range(size), data.draw(st.lists(st.integers(0, 50), min_size=size,
                                                         max_size=size)),
                         data.draw(st.integers(1, 10 ** 6))) for _ in range(2)]
    got = total_variation(*laws)
    assert type(got) is F
    assert got == sum(abs(a - b) for a, b in zip(laws[0].weights, laws[1].weights)) / 2
    floats = Distribution(range(size), [float(w) for w in laws[1].weights])
    assert total_variation(laws[0], floats) == \
        reduce(add, (abs(a - b) for a, b in zip(laws[0].weights, floats.weights)), 0) / 2


def test_simulate_is_deterministic():
    P = two_state(F(1, 3), F(1, 5))
    d1 = simulate(P, "a", 500, seed=7)
    d2 = simulate(P, "a", 500, seed=7)
    d3 = simulate(P, "a", 500, seed=8)
    assert d1 == d2
    assert d1 != d3
    # 501 visited states, the first 50 burnt in
    path = trajectory_reference(P, "a", 500, seed=7)
    assert len(path) == 501
    assert d1.weights == tuple(F(c, 451) for c in tail_counts(P, path, 50))
    assert d1.total == 1


def test_simulate_burn_in_window():
    P = two_state(F(1, 3), F(1, 5))
    path = trajectory_reference(P, "a", 100, seed=3)
    dist = simulate(P, "a", 100, seed=3, burn_in=40)
    assert dist.weights == tuple(F(c, 61) for c in tail_counts(P, path, 40))
    # burn_in = steps keeps the last state alone
    dist = simulate(P, "a", 100, seed=3, burn_in=100)
    assert dist.weights[path[-1]] == 1


@pytest.mark.parametrize("burn_in", [-1, 101])
def test_simulate_rejects_burn_in_outside_steps(burn_in):
    P = two_state(F(1, 3), F(1, 5))
    with pytest.raises(ValueError, match="burn_in"):
        simulate(P, "a", 100, seed=3, burn_in=burn_in)


def test_simulate_zero_steps_is_point_mass():
    P = two_state(F(1, 3), F(1, 5))
    assert trajectory_reference(P, "b", 0, seed=1) == [P.index["b"]]
    dist = simulate(P, "b", 0, seed=1)
    assert dict(zip(dist.states, dist.weights)) == {"a": F(0), "b": F(1)}


def test_simulate_approaches_stationary():
    P = two_state(F(1, 3), F(1, 5))
    emp = simulate(P, "a", 60_000, seed=11)
    pi = stationary_exact(P).normalize()
    assert total_variation(emp, pi) < 0.02


def test_seeded_runs_replay_pinned_values():
    # the float row sums and the RNG draws fix every seeded output; these
    # values must not move without a SPEC_VERSION bump
    P = msjmc.build_chain(TypeCounts((1, 1, 1)), ParamSet((F(1), F(2), F(1, 3), F(3))))
    assert trajectory_reference(P, P.states[0], 300, seed=7)[:20] == [
        0, 2, 0, 2, 0, 2, 0, 0, 2, 0, 2, 0, 1, 4, 0, 2, 0, 2, 1, 4]
    dist = simulate(P, P.states[0], 300, seed=7)
    assert dist.weights == tuple(F(c, 271) for c in (99, 23, 84, 31, 26, 8))
    # SPEC_VERSION 2: one stream per replica run; counts from replica_reference
    reps = simulate_replicas(P, P.states[0], horizon=3, replicas=60, seed=5)
    assert reps.weights == tuple(F(c, 60) for c in (19, 8, 12, 4, 11, 6))


def trajectory_reference(P, start, steps, seed):
    """The state indices of one seeded walk, start included, stored in full."""
    rng = random.Random(seed)
    tables = _cumulative_rows(P)
    path = [P.index[start]]
    for _ in range(steps):
        succ, cum, _ = tables[path[-1]]
        path.append(succ[bisect_left(cum, rng.random() * cum[-1])])
    return path


def tail_counts(P, path, burn_in):
    """Visits per state index from time `burn_in` on."""
    counts = [0] * P.size
    for i in path[burn_in:]:
        counts[i] += 1
    return counts


def replica_reference(P, start, horizon, replicas, seed):
    """Endpoint counts of `replicas` walks drawn in turn from one seeded stream."""
    rng = random.Random(seed)
    tables = _cumulative_rows(P)
    counts = [0] * P.size
    for _ in range(replicas):
        pos = P.index[start]
        for _ in range(horizon):
            succ, cum, _ = tables[pos]
            pos = succ[bisect_left(cum, rng.random() * cum[-1])]
        counts[pos] += 1
    return counts


REPLICA_CHAINS = {
    "msjmc": lambda: msjmc.build_chain(TypeCounts((1, 1, 1)),
                                       ParamSet((F(1), F(2), F(1, 3), F(3)))),
    "overwriting_2_3": lambda: overwriting.build_word_chain(2, 3, ParamSet((F(1, 3),) * 3)),
    "overwriting_3_2": lambda: overwriting.build_word_chain(
        3, 2, ParamSet((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))),
    "float_msjmc": lambda: msjmc.build_chain(TypeCounts((2, 1)),
                                             ParamSet((0.5, 0.25, 0.125, 2.0))),
}


@pytest.mark.parametrize("name", sorted(REPLICA_CHAINS))
def test_simulate_replicas_walk_one_stream(name):
    P = REPLICA_CHAINS[name]()
    start = P.states[-1]
    for horizon in range(5):
        for seed in (0, 1, 5, 2 ** 40 + 3):
            got = simulate_replicas(P, start, horizon, 37, seed)
            expected = replica_reference(P, start, horizon, 37, seed)
            assert got.weights == tuple(F(c, 37) for c in expected), (horizon, seed)
            # one replica is the endpoint of the trajectory with that seed
            one = simulate_replicas(P, start, horizon, 1, seed)
            assert simulate(P, start, horizon, seed, burn_in=horizon) == one


@pytest.mark.parametrize("name", sorted(REPLICA_CHAINS))
def test_simulate_counts_the_reference_tail(name):
    P = REPLICA_CHAINS[name]()
    start = P.states[-1]
    for steps in range(51):
        for burn_in in sorted({0, steps // 10, steps}):
            for seed in (0, 1, 5, 2 ** 40 + 3):
                path = trajectory_reference(P, start, steps, seed)
                expected = tuple(F(c, steps + 1 - burn_in)
                                 for c in tail_counts(P, path, burn_in))
                got = simulate(P, start, steps, seed, burn_in=burn_in)
                assert got.weights == expected, (steps, burn_in, seed)


def test_simulate_memory_does_not_grow_with_steps():
    # the visits are tallied, not stored: a 200,000-step path would take MBs
    P = msjmc.build_chain(TypeCounts((2, 1, 1, 1)),
                          ParamSet((F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(1, 7))))
    tracemalloc.start()
    try:
        simulate(P, P.states[0], 200_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("seed", [0, 1, 5, 2 ** 31 - 1, 2 ** 40 + 3])
def test_bulk_words_are_the_pairs_random_reads(seed):
    # getrandbits(64·k) hands over the 2k words that k random() calls read,
    # and the next call goes on where the last left off
    bulk, floats = random.Random(seed), random.Random(seed)
    for k in (1, 3, chain._CHUNK):
        data = bulk.getrandbits(64 * k).to_bytes(8 * k, "little")
        for t in range(k):
            a, b = chain._word_pair(data, 8 * t)
            m = (a >> 5) << 26 | b >> 6
            u = floats.random()
            assert m / 2 ** 53 == ((a >> 5) * 67108864.0 + (b >> 6)) * chain._UNIT == u
            # the top byte of the step's first word is its bucket
            assert data[8 * t + 3] == m >> 45


def one_successor_chain():
    # a row with a single successor: every bucket of its guide is that state
    return build_matrix(["a", "b", "c"], lambda s: {
        "a": {"b": F(1)}, "b": {"a": F(1, 3), "c": F(2, 3)}, "c": {"a": F(1)}}[s].items())


STREAM_CHAINS = {
    "msjmc_float": lambda: msjmc.build_chain(TypeCounts((2, 1)),
                                             ParamSet((0.5, 0.25, 0.125, 2.0))),
    # 630 states, so successor indices pass the 256 of a bucket byte
    "msjmc_630": lambda: msjmc.build_chain(
        TypeCounts((2, 2, 2, 1)), ParamSet(tuple(F(i + 1, 3) for i in range(8)))),
    "add_drop": lambda: fluctuating.build_add_drop_chain(
        3, 3, ParamSet((F(1), F(2, 3), F(1, 5), F(7, 2)), c=(F(1), F(2), F(1, 2)))),
    "annihilation": lambda: fluctuating.build_annihilation_chain(
        3, 3, ParamSet((F(1, 6), F(1, 3), F(1, 4), F(1, 4)))),
    # rows of 1 to 56 successors (13 on average), the most split buckets
    "several_jugglers": lambda: jugglers.build_chain(3, 3, 4),
    "overwriting": lambda: overwriting.build_word_chain(3, 3, ParamSet((F(1, 4),) * 4)),
    "one_successor": one_successor_chain,
}


@pytest.mark.parametrize("name", sorted(STREAM_CHAINS))
def test_simulate_counts_the_reference_tail_across_chunks(name):
    P = STREAM_CHAINS[name]()
    start = P.states[-1]
    for steps in (chain._CHUNK - 1, chain._CHUNK, chain._CHUNK + 1, 3 * chain._CHUNK + 7):
        for seed in (0, 2 ** 40 + 3):
            path = trajectory_reference(P, start, steps, seed)
            for burn_in in sorted({0, steps // 10, steps}):
                expected = tuple(F(c, steps + 1 - burn_in) for c in tail_counts(P, path, burn_in))
                got = simulate(P, start, steps, seed, burn_in=burn_in)
                assert got.weights == expected, (steps, burn_in, seed)


def test_simulate_past_the_guide_budget_keeps_the_stream():
    # rows past the budget get no guide and step by the bisect alone
    P = STREAM_CHAINS["several_jugglers"]()
    assert len(P._distinct) > 3
    steps = 2 * chain._CHUNK + 3
    path = trajectory_reference(P, P.states[0], steps, seed=9)
    with mock.patch.object(chain, "_GUIDE_BUDGET", 3), \
            mock.patch.object(chain, "_guide", wraps=chain._guide) as built:
        got = simulate(P, P.states[0], steps, seed=9, burn_in=0)
    assert built.call_count == 3
    assert got.weights == tuple(F(c, steps + 1) for c in tail_counts(P, path, 0))


def bisect_step(succ, cum, m):
    """The successor the bisect picks for the 53-bit draw m."""
    return succ[bisect_left(cum, m / 2 ** 53 * cum[-1])]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.fractions(min_value=F(1, 10 ** 9), max_value=1000,
                                       max_denominator=10 ** 9),
                          st.floats(min_value=1e-200, max_value=1e200)),
                min_size=1, max_size=24))
@example([1.0, 255.0])  # a boundary one draw past a bucket's first
@example([1.0, 1.0])  # a boundary on a bucket's first draw
@example([1.0, 1e-200, 3.0])  # equal running sums
@example([F(1, 3), F(1, 3), F(1, 3)])
def test_guide_entries_agree_with_the_bisect(weights):
    cum = list(accumulate(float(w) for w in weights))
    succ = list(range(300, 300 + len(cum)))
    guide = chain._guide(succ, cum, cum[-1])
    assert len(guide) == 256
    for k, entry in enumerate(guide):
        lo, hi = k << 45, ((k + 1) << 45) - 1
        if entry == -1:
            assert bisect_step(succ, cum, lo) != bisect_step(succ, cum, hi), k
        else:
            assert bisect_step(succ, cum, lo) == entry == bisect_step(succ, cum, hi), k
    for j, b in enumerate(chain._boundaries(cum, cum[-1])):
        # b is the least draw the bisect sends past successor j
        assert b == 2 ** 53 or bisect_left(cum, b / 2 ** 53 * cum[-1]) > j
        assert b == 0 or bisect_left(cum, (b - 1) / 2 ** 53 * cum[-1]) <= j


def test_sampler_parameter_names_are_the_tracers():
    # perfbench/tracer.py counts chain.simulate.steps from these arguments
    # by name; a rename would break that count
    assert {"steps", "burn_in"} <= set(inspect.signature(chain.simulate).parameters)
    assert {"horizon", "replicas"} <= set(inspect.signature(chain.simulate_replicas).parameters)


def test_nearby_seeds_draw_different_replicas():
    # at spec version 1 replica r was seeded from seed + r, so seed 11 replayed
    # replicas 1.. of seed 10 and the counts differed by one endpoint
    P = overwriting.build_word_chain(3, 3, ParamSet((F(1, 4),) * 4))
    a = simulate_replicas(P, P.states[0], 3, 2001, seed=10).weights
    b = simulate_replicas(P, P.states[0], 3, 2000, seed=11).weights
    l1 = sum(abs(2001 * x - 2000 * y) for x, y in zip(a, b))
    assert l1 > 1, l1


def test_simulate_replicas():
    P = two_state(F(1, 3), F(1, 5))
    d1 = simulate_replicas(P, "a", horizon=25, replicas=4000, seed=5)
    d2 = simulate_replicas(P, "a", horizon=25, replicas=4000, seed=5)
    assert d1 == d2
    assert d1.total == 1
    pi = stationary_exact(P).normalize()
    assert total_variation(d1, pi) < 0.05
