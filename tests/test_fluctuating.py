"""Add-drop and annihilation variants: the two 9x9 matrices on two-letter
words over three types, closed-form stationary laws, enriched versions."""

import random
from fractions import Fraction

import pytest

from jugglemc import fluctuating, msjmc
from jugglemc.chain import (
    LumpingMap,
    stationary_exact,
    verify_lumping,
)
from jugglemc.combinatorics import ParamSet, TypeCounts, Word, enumerate_alphabet_words
from jugglemc.errors import DegenerateParams, NotNormalized
from jugglemc.chain import _chain, _skeleton
from jugglemc.fluctuating import (
    add_drop_partition,
    add_drop_stationary_weight,
    annihilation_stationary,
    build_add_drop_chain,
    build_annihilation_chain,
    build_enriched_add_drop_chain,
    build_enriched_annihilation_chain,
    enriched_add_drop_weight,
    enriched_annihilation_weight,
    enumerate_enriched_words,
)

from cascade_reference import (
    add_drop_prob,
    annihilation_choices,
    annihilation_prob,
    insertion_choices,
    intermediate_word,
    stat_E,
)
from cascade_reference import fluctuating_rows, msjmc_rows
from test_cascades import assert_same_rows
from test_chain import project_distribution

F = Fraction

BASIS = ["11", "21", "31", "12", "22", "32", "13", "23", "33"]


def random_activity_params(rng: random.Random, n: int, T: int) -> ParamSet:
    z = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n + 1))
    c = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(T))
    return ParamSet(z, c=c)


def random_normalized_params(rng: random.Random, n: int) -> ParamSet:
    raw = [F(rng.randint(1, 9)) for _ in range(n + 1)]
    total = sum(raw)
    return ParamSet(tuple(x / total for x in raw))


def test_intermediate_word():
    w = Word((3, 1, 2), 3)
    assert intermediate_word(w, 2).letters == (2, 1, 2)


def test_insertion_choices_structure():
    w = Word((2, 2), 3)
    choices = insertion_choices(w)
    assert [(ch.j, ch.a) for ch in choices] == [
        (1, (1, 2, 3)),
        (1, (1, 3)),
        (2, (1, 3)),
        (3, (1, 3)),
    ]


def test_annihilation_choices_cap_type():
    # the heaviest type is forced straight to the top
    w = Word((2, 2), 3)
    caps = [ch for ch in annihilation_choices(w) if ch.j == w.T]
    assert [(ch.j, ch.a) for ch in caps] == [(3, (1, 3))]


# --- 9x9 add-drop matrix in the basis 11,21,31,12,22,32,13,23,33 ----------


def add_drop_reference(p: ParamSet):
    z1, z2 = p.z_at(1), p.z_at(2)
    y1, y2 = p.y_at(1), p.y_at(2)
    c1, c2, c3 = p.c[0], p.c[1], p.c[2]
    l1 = (c1 + c2 + c3) * y1
    l2 = c1 * y2 + (c2 + c3) * y1
    l3 = (c1 + c2) * y2 + c3 * y1
    o = F(0)
    r1 = [c1 * z1 / l1, o, o, c2 * z1 / l1, o, o, c3 * z1 / l1, o, o]
    r2 = [o, c1 * z1 / l2, o, c1 * z2 / l2, c2 * z1 / l2, o, o, c3 * z1 / l2, o]
    r3 = [o, o, c1 * z1 / l3, o, o, c2 * z1 / l3, c1 * z2 / l3, c2 * z2 / l3, c3 * z1 / l3]
    return [r1, r1, r1, r2, r2, r2, r3, r3, r3]


def add_drop_reference_eigenvector(p: ParamSet):
    y1, y2 = p.y_at(1), p.y_at(2)
    c1, c2, c3 = p.c[0], p.c[1], p.c[2]
    return (
        c1 * c1 * y1 * y1,
        c1 * c2 * y1 * y1,
        c1 * c3 * y1 * y1,
        c1 * c2 * y1 * y2,
        c2 * c2 * y1 * y1,
        c2 * c3 * y1 * y1,
        c1 * c3 * y1 * y2,
        c2 * c3 * y1 * y2,
        c3 * c3 * y1 * y1,
    )


def test_add_drop_matrix_matches_reference():
    rng = random.Random(31)
    for _ in range(5):
        p = random_activity_params(rng, 2, 3)
        P = build_add_drop_chain(2, 3, p)
        assert [str(w) for w in P.states] == BASIS
        assert P.dense() == add_drop_reference(p)


def test_add_drop_eigenvector():
    rng = random.Random(32)
    for _ in range(5):
        p = random_activity_params(rng, 2, 3)
        P = build_add_drop_chain(2, 3, p)
        pi = stationary_exact(P).normalize()
        vec = add_drop_reference_eigenvector(p)
        total = sum(vec)
        assert pi.weights == tuple(v / total for v in vec)


# --- 9x9 annihilation matrix in the same basis ----------------------------


def annihilation_reference(p: ParamSet):
    z1, z2, z3 = p.z_at(1), p.z_at(2), p.z_at(3)
    o = F(0)
    r1 = [z1, o, o, z1 * (z2 + z3), o, o, (z2 + z3) ** 2, o, o]
    r2 = [o, z1, o, z2, z1 * z3, o, o, (z2 + z3) * z3, o]
    r3 = [o, o, z1, o, o, z1 * z3, z2, z2 * z3, z3 ** 2]
    return [r1, r1, r1, r2, r2, r2, r3, r3, r3]


def annihilation_reference_eigenvector(p: ParamSet):
    z1, z2, z3 = p.z_at(1), p.z_at(2), p.z_at(3)
    return (
        z1 ** 2,
        z1 ** 2 * (z2 + z3),
        z1 * (z2 + z3) ** 2,
        z1 * (z1 + z2) * (z2 + z3),
        z1 ** 2 * z3 * (z2 + z3),
        z1 * z3 * (z2 + z3) ** 2,
        (z1 + z2) * (z2 + z3) ** 2,
        z3 * (z1 + z2) * (z2 + z3) ** 2,
        z3 ** 2 * (z2 + z3) ** 2,
    )


def test_annihilation_matrix_matches_reference():
    rng = random.Random(33)
    for _ in range(5):
        p = random_normalized_params(rng, 2)
        P = build_annihilation_chain(2, 3, p)
        assert [str(w) for w in P.states] == BASIS
        assert P.dense() == annihilation_reference(p)


def test_annihilation_eigenvector():
    rng = random.Random(34)
    for _ in range(5):
        p = random_normalized_params(rng, 2)
        P = build_annihilation_chain(2, 3, p)
        pi = stationary_exact(P).normalize()
        vec = annihilation_reference_eigenvector(p)
        total = sum(vec)
        assert pi.weights == tuple(v / total for v in vec)
        # the closed form is already a probability vector
        assert total == 1
        assert vec == tuple(annihilation_stationary(w, p) for w in P.states)


def test_rows_ignore_first_letter():
    rng = random.Random(35)
    p = random_activity_params(rng, 3, 3)
    q = random_normalized_params(rng, 3)
    for P in (build_add_drop_chain(3, 3, p), build_annihilation_chain(3, 3, q)):
        rows = {str(w): P.rows[i] for i, w in enumerate(P.states)}
        for w in P.states:
            other = "1" + str(w)[1:]
            assert rows[str(w)] == rows[other]


def test_add_drop_rows_are_stochastic():
    rng = random.Random(36)
    p = random_activity_params(rng, 2, 2)
    for w in enumerate_alphabet_words(2, 2):
        assert sum(add_drop_prob(w, ch, p) for ch in insertion_choices(w)) == 1


def test_annihilation_rows_are_stochastic():
    rng = random.Random(37)
    p = random_normalized_params(rng, 3)
    for w in enumerate_alphabet_words(3, 2):
        assert sum(annihilation_prob(w, ch, p) for ch in annihilation_choices(w)) == 1


def test_annihilation_requires_normalized_weights():
    p = ParamSet((F(1), F(1), F(1)))
    w = Word((1, 2), 3)
    with pytest.raises(NotNormalized):
        annihilation_prob(w, annihilation_choices(w)[0], p)
    with pytest.raises(NotNormalized):
        build_annihilation_chain(2, 3, p)
    with pytest.raises(NotNormalized):
        annihilation_stationary(w, p)


def test_add_drop_partition_identity():
    rng = random.Random(38)
    for n, T in ((1, 1), (2, 3), (3, 2), (4, 2)):
        p = random_activity_params(rng, n, T)
        total = sum(
            add_drop_stationary_weight(w, p) for w in enumerate_alphabet_words(n, T)
        )
        assert add_drop_partition(n, T, p) == total


def test_add_drop_formula_is_stationary():
    rng = random.Random(39)
    p = random_activity_params(rng, 3, 2)
    P = build_add_drop_chain(3, 2, p)
    Z = add_drop_partition(3, 2, p)
    pi = stationary_exact(P).normalize()
    assert pi.weights == tuple(add_drop_stationary_weight(w, p) / Z for w in P.states)


def test_annihilation_mass_is_one_without_normalizing():
    rng = random.Random(40)
    for n, T in ((1, 2), (2, 3), (3, 2), (3, 3)):
        p = random_normalized_params(rng, n)
        total = sum(annihilation_stationary(w, p) for w in enumerate_alphabet_words(n, T))
        assert total == 1


def test_add_drop_degenerate_cascade():
    p = ParamSet((F(0), F(1), F(1)), c=(F(1), F(1)))
    w = Word((1, 2), 2)
    choice = [ch for ch in insertion_choices(w) if ch.a == (1, 2, 3)][0]
    with pytest.raises(DegenerateParams):
        add_drop_prob(w, choice, p)


BUILDERS = {
    "add_drop": (build_add_drop_chain, build_enriched_add_drop_chain),
    "annihilation": (build_annihilation_chain, build_enriched_annihilation_chain),
}


@pytest.mark.parametrize("model,n,T,z,c,exc,text", [
    # z_1 = 0 zeroes the normalizer of the first word 1...1 before any cascade
    ("add_drop", 2, 2, (0, 1, 1), (1, 1), DegenerateParams, "insertion normalizer is 0"),
    ("add_drop", 1, 3, (0, 1), (1, 2, 3), DegenerateParams, "insertion normalizer is 0"),
    ("add_drop", 2, 2, (1, 1, 1), None, ValueError, "need 2 activities"),
    ("add_drop", 2, 2, (1, 1, 1), (1, 1, 1), ValueError, "need 2 activities"),
    ("add_drop", 2, 3, (1, 1, 1), (1, 1), ValueError, "need 3 activities"),
    ("annihilation", 2, 3, (0, 0, 1), None, DegenerateParams, "y_1 = 0 in a cascade factor"),
    ("annihilation", 3, 2, (0, F(1, 2), 0, F(1, 2)), None, DegenerateParams,
     "y_1 = 0 in a cascade factor"),
    ("annihilation", 2, 2, (F(1, 2), F(1, 2), F(1, 2)), None, NotNormalized,
     "annihilation model needs z summing to 1"),
])
def test_builders_keep_error_texts(model, n, T, z, c, exc, text):
    p = ParamSet(tuple(F(x) for x in z), c=None if c is None else tuple(F(x) for x in c))
    for build in BUILDERS[model]:
        with pytest.raises(exc) as info:
            build(n, T, p)
        assert str(info.value) == text


def test_enumerate_enriched_words():
    states = enumerate_enriched_words(2, 2)
    # words 11, 21, 22 admit one labeling; 12 admits two
    assert len(states) == 5
    for w, v in states:
        assert all(1 <= v[i] <= stat_E(w, i + 1) for i in range(w.n))


def unkeyed_enriched(states, words, walk, p, lead, what):
    """The enriched chain over the skeleton that walks every word's own
    moves, not one row per w^-."""
    skel = msjmc.enriched_skeleton(_skeleton(words, walk), states)
    return _chain(skel, p, msjmc.bump_tables(p), lead, what)


@pytest.mark.parametrize("model,moves,params", [
    ("add_drop", fluctuating._add_drop_moves, random_activity_params),
    ("annihilation", fluctuating._annihilation_moves,
     lambda rng, n, T: random_normalized_params(rng, n)),
])
def test_enriched_rows_are_built_once_per_tail(model, moves, params):
    # an enriched row reads (w, v) only through (w^-, v^-): the builders hand
    # out one row object per pair, equal to the rows built state by state
    lead = {"add_drop": fluctuating._add_drop_lead,
            "annihilation": fluctuating._annihilation_lead}[model]
    rng = random.Random(43)
    for n, T in ((2, 3), (3, 2), (3, 3)):
        p = params(rng, n, T)
        Pt = BUILDERS[model][1](n, T, p)
        assert len(Pt._distinct) == len({(s.w.letters[1:], s.v[1:]) for s in Pt.states})
        assert Pt == unkeyed_enriched(enumerate_enriched_words(n, T),
                                      enumerate_alphabet_words(n, T), moves, p, lead(p, T),
                                      "cascade factor")
        assert_same_rows(Pt, fluctuating_rows(model, n, T, p, True))
    if model == "add_drop":
        assert (Pt.size, len(Pt._distinct)) == (60, 12)


def test_msjmc_enriched_rows_are_built_once_per_word_and_tail():
    # an msjmc enriched row reads (w, v) only through (w, v^-): one row object
    # per pair, equal to the rows built state by state
    rng = random.Random(44)
    for counts, size, rows in (((1, 1, 1, 1), 180, 72), ((2, 1, 1), 75, 32),
                               ((1, 2, 1), 70, 31)):
        p = ParamSet(tuple(F(rng.randint(1, 9)) for _ in range(sum(counts) + 1)))
        Pt = msjmc.build_enriched_chain(TypeCounts(counts), p)
        assert len({(s.w, s.v[1:]) for s in Pt.states}) == len(Pt._distinct) == rows, counts
        assert Pt.size == size, counts
        assert_same_rows(Pt, msjmc_rows(TypeCounts(counts), p, True))


def test_enriched_add_drop_lumps_to_base():
    rng = random.Random(41)
    p = random_activity_params(rng, 2, 3)
    Pt = build_enriched_add_drop_chain(2, 3, p)
    pi_t = stationary_exact(Pt).normalize()
    total = sum(enriched_add_drop_weight(s, p) for s in Pt.states)
    assert pi_t.weights == tuple(enriched_add_drop_weight(s, p) / total for s in Pt.states)
    P = build_add_drop_chain(2, 3, p)
    f = LumpingMap.from_function(lambda s: s.w, Pt.states, P.states)
    ok, witness = verify_lumping(Pt, f, P)
    assert ok, witness
    assert project_distribution(pi_t, f).weights == stationary_exact(P).normalize().weights


def test_enriched_annihilation_lumps_to_base():
    rng = random.Random(42)
    p = random_normalized_params(rng, 2)
    Pt = build_enriched_annihilation_chain(2, 3, p)
    pi_t = stationary_exact(Pt).normalize()
    weights = tuple(enriched_annihilation_weight(s, p) for s in Pt.states)
    assert sum(weights) == 1
    assert pi_t.weights == weights
    P = build_annihilation_chain(2, 3, p)
    f = LumpingMap.from_function(lambda s: s.w, Pt.states, P.states)
    ok, witness = verify_lumping(Pt, f, P)
    assert ok, witness
    assert project_distribution(pi_t, f).weights == tuple(
        annihilation_stationary(w, p) for w in P.states
    )


def test_enriched_weights_sum_to_base_weight():
    rng = random.Random(43)
    p = random_activity_params(rng, 3, 2)
    q = random_normalized_params(rng, 3)
    ad_fibers: dict = {}
    an_fibers: dict = {}
    for s in enumerate_enriched_words(3, 2):
        ad_fibers[s.w] = ad_fibers.get(s.w, F(0)) + enriched_add_drop_weight(s, p)
        an_fibers[s.w] = an_fibers.get(s.w, F(0)) + enriched_annihilation_weight(s, q)
    for w in enumerate_alphabet_words(3, 2):
        assert ad_fibers[w] == add_drop_stationary_weight(w, p)
        assert an_fibers[w] == annihilation_stationary(w, q)
