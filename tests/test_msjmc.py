"""Base multispecies chain: bumping mechanics, the 6x6 matrix on three
distinct ball types, product stationary law, enrichment and its inverse."""

import random
from fractions import Fraction

import pytest

from jugglemc.chain import (
    LumpingMap,
    stationary_exact,
    verify_lumping,
)
from jugglemc.combinatorics import (
    ParamSet,
    TypeCounts,
    Word,
    enumerate_multiset_words,
)
from jugglemc.errors import DegenerateParams
from jugglemc.msjmc import (
    EnrichedState,
    build_chain,
    build_enriched_chain,
    enriched_stationary_weight,
    enumerate_enriched,
    partition_function,
    stationary_weight,
)

from cascade_reference import apply_bump, bumping_sequences, enriched_step, \
    enumerate_predecessors, reconstruct_predecessor, stat_E, transition_prob
from chain_reference import build_matrix
from test_chain import project_distribution

F = Fraction


def rational_params(rng: random.Random, m: int, c_len: int = 0) -> ParamSet:
    z = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m))
    if c_len:
        return ParamSet(z, c=tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(c_len)))
    return ParamSet(z)


def test_bumping_sequences_small():
    w = Word((1, 2, 3), 3)
    assert bumping_sequences(w) == [(1, 2, 3, 4), (1, 2, 4), (1, 3, 4), (1, 4)]
    # a descending word admits only the trivial throw to the top
    assert bumping_sequences(Word((3, 2, 1), 3)) == [(1, 4)]


def test_bumping_sequences_require_increasing_letters():
    # letters along the sequence must strictly increase, so equal letters
    # cannot chain
    assert bumping_sequences(Word((1, 1), 2)) == [(1, 3)]
    assert bumping_sequences(Word((1, 2), 2)) == [(1, 2, 3), (1, 3)]


def test_apply_bump():
    w = Word((1, 2, 3), 3)
    assert apply_bump(w, (1, 4)).letters == (2, 3, 1)
    assert apply_bump(w, (1, 2, 4)).letters == (1, 3, 2)
    assert apply_bump(w, (1, 2, 3, 4)).letters == (1, 2, 3)
    assert apply_bump(Word((2, 1, 3), 3), (1, 3, 4)).letters == (1, 2, 3)


def test_transition_rows_are_stochastic():
    rng = random.Random(20)
    for counts in (TypeCounts((2, 1)), TypeCounts((1, 1, 1)), TypeCounts((2, 2))):
        p = rational_params(rng, counts.n + 1)
        for w in enumerate_multiset_words(counts):
            total = sum(transition_prob(w, a, p) for a in bumping_sequences(w))
            assert total == 1, w


def test_sorted_word_self_loop():
    # the fully sorted word maps to itself along the blockwise sequence,
    # which makes the chain aperiodic
    counts = TypeCounts((2, 1, 3))
    w = Word((1, 1, 2, 3, 3, 3), 3)
    a, acc = [1], 0
    for c in counts.counts:
        acc += c
        a.append(acc + 1)
    a = tuple(a)
    assert a in set(bumping_sequences(w))
    assert apply_bump(w, a) == w
    p = rational_params(random.Random(4), counts.n + 1)
    assert transition_prob(w, a, p) > 0


def test_degenerate_params_raise():
    w = Word((1, 2), 2)
    p = ParamSet((F(0), F(1), F(1)))
    with pytest.raises(DegenerateParams):
        transition_prob(w, (1, 2, 3), p)
    # the builders reach the same error through their cascade walk
    for build in (build_chain, build_enriched_chain):
        with pytest.raises(DegenerateParams, match=r"^y_1 = 0 in a transition denominator$"):
            build(TypeCounts((1, 1)), p)


# 6x6 matrix on the words {123,132,213,231,312,321} and its left eigenvector.
def reference_matrix(p: ParamSet):
    z1, z2, z3 = (p.z_at(i) for i in (1, 2, 3))
    y1, y2, y3 = (p.y_at(i) for i in (1, 2, 3))
    zero = F(0)
    return [
        [z3 * z2 / (y3 * y2), z3 * z1 / (y3 * y2), z2 / y3, z1 / y3, zero, zero],
        [z3 / y3, zero, zero, zero, z2 / y3, z1 / y3],
        [z2 / y2, z1 / y2, zero, zero, zero, zero],
        [zero, zero, z2 / y2, zero, z1 / y2, zero],
        [F(1), zero, zero, zero, zero, zero],
        [zero, zero, F(1), zero, zero, zero],
    ]


def reference_eigenvector(p: ParamSet):
    y1, y2, y3 = (p.y_at(i) for i in (1, 2, 3))
    return (y1 * y2 * y3, y1 ** 2 * y3, y1 * y2 ** 2, y1 ** 2 * y2, y1 ** 2 * y2, y1 ** 3)


def test_three_type_matrix_matches_reference():
    rng = random.Random(101)
    counts = TypeCounts((1, 1, 1))
    for _ in range(5):
        p = rational_params(rng, 4)
        P = build_chain(counts, p)
        assert [str(w) for w in P.states] == ["123", "132", "213", "231", "312", "321"]
        assert P.dense() == reference_matrix(p)


def test_three_type_eigenvector():
    rng = random.Random(102)
    counts = TypeCounts((1, 1, 1))
    for _ in range(5):
        p = rational_params(rng, 4)
        P = build_chain(counts, p)
        pi = stationary_exact(P).normalize()
        vec = reference_eigenvector(p)
        total = sum(vec)
        assert pi.weights == tuple(v / total for v in vec)


def test_stationary_weight_formula():
    p = ParamSet((F(1, 2), F(1, 3), F(1, 5), F(1, 7)))
    w = Word((2, 1, 3), 3)
    want = p.y_at(stat_E(w, 1)) * p.y_at(stat_E(w, 2)) * p.y_at(stat_E(w, 3))
    assert stationary_weight(w, p) == want


def test_partition_function_matches_weight_sum():
    rng = random.Random(103)
    for counts in (TypeCounts((2, 1)), TypeCounts((1, 2, 1)), TypeCounts((3, 1))):
        p = rational_params(rng, counts.n + 1)
        total = sum(stationary_weight(w, p) for w in enumerate_multiset_words(counts))
        assert partition_function(counts, p) == total


def test_formula_is_stationary():
    rng = random.Random(104)
    counts = TypeCounts((2, 1, 1))
    p = rational_params(rng, counts.n + 1)
    P = build_chain(counts, p)
    Z = partition_function(counts, p)
    pi = stationary_exact(P).normalize()
    assert pi.weights == tuple(stationary_weight(w, p) / Z for w in P.states)


def test_enumerate_enriched():
    counts = TypeCounts((1, 1))
    states = enumerate_enriched(counts)
    # word 12 has E = (2, 1) so 2 labelings; word 21 has E = (1, 1) so 1
    assert len(states) == 3
    for w, v in states:
        assert all(1 <= v[i] <= stat_E(w, i + 1) for i in range(w.n))


def test_enriched_step_hand_example():
    s = EnrichedState(Word((1, 2), 2), (2, 1))
    s2 = enriched_step(s, (1, 2, 3))
    assert s2.w.letters == (1, 2)
    # both positions sit right below a bump site, so both labels refresh
    assert s2.v == (stat_E(s2.w, 1), stat_E(s2.w, 2))
    s3 = enriched_step(s, (1, 3))
    assert s3.w.letters == (2, 1)
    assert s3.v == (1, stat_E(s3.w, 2))


def test_enriched_chain_stationary_and_lumping():
    rng = random.Random(105)
    for counts in (TypeCounts((1, 1, 1)), TypeCounts((2, 1))):
        p = rational_params(rng, counts.n + 1)
        Pt = build_enriched_chain(counts, p)
        pi_t = stationary_exact(Pt).normalize()
        total = sum(enriched_stationary_weight(s, p) for s in Pt.states)
        assert pi_t.weights == tuple(
            enriched_stationary_weight(s, p) / total for s in Pt.states
        )
        P = build_chain(counts, p)
        f = LumpingMap.from_function(lambda s: s.w, Pt.states, P.states)
        ok, witness = verify_lumping(Pt, f, P)
        assert ok, witness
        assert project_distribution(pi_t, f).weights == stationary_exact(P).normalize().weights


def test_enriched_weights_lump_to_base():
    p = ParamSet((F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    counts = TypeCounts((2, 1))
    by_word: dict = {}
    for s in enumerate_enriched(counts):
        by_word[s.w] = by_word.get(s.w, F(0)) + enriched_stationary_weight(s, p)
    for w in enumerate_multiset_words(counts):
        assert by_word[w] == stationary_weight(w, p)


def test_predecessor_reconstruction_round_trip():
    for counts in (TypeCounts((1, 1)), TypeCounts((2, 1)), TypeCounts((1, 1, 1))):
        states = enumerate_enriched(counts)
        # brute-force the incoming arrows, then compare with the reconstruction
        incoming = {s: [] for s in states}
        for s in states:
            for a in bumping_sequences(s.w):
                incoming[enriched_step(s, a)].append((s, a))
        for s2 in states:
            got = enumerate_predecessors(s2)
            assert sorted(got) == sorted(incoming[s2])
            A, w, free = reconstruct_predecessor(s2)
            assert all(a == A and pred.w == w for pred, a in got)
            assert len(got) == len({tuple(pred.v[i - 1] for i in free) for pred, _ in got})


def test_reconstruct_predecessor_rejects_malformed_state():
    # labels above the E statistic are not enriched states at all
    with pytest.raises(ValueError):
        reconstruct_predecessor(EnrichedState(Word((2, 1), 2), (2, 1)))
    with pytest.raises(ValueError):
        reconstruct_predecessor(EnrichedState(Word((1, 2), 2), (1,)))


def test_every_enriched_state_has_a_predecessor():
    counts = TypeCounts((1, 1, 1))
    for s in enumerate_enriched(counts):
        assert enumerate_predecessors(s)
