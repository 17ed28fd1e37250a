"""The choice walks behind the word builders against their per-choice rules:
the msjmc, add_drop and annihilation cascades against cascade_reference and
the overwriting sequences against overwriting_reference. Every row, plain
and enriched, with exact and float weights, must hold the same successors in
the same order with values of the same type and repr."""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from jugglemc import fluctuating, msjmc, overwriting
from jugglemc.combinatorics import ParamSet, TypeCounts

from cascade_reference import add_drop_prob, annihilation_choices, annihilation_prob, \
    apply_bump, bump_choice, bumping_sequences, enriched_update, fluctuating_rows, \
    insertion_choices, intermediate_word, msjmc_rows, transition_prob
from chain_reference import build_matrix
from overwriting_reference import word_rows

F = Fraction

MSJMC_SHAPES = [
    (1,), (2,), (1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (1, 1, 1), (2, 1, 1),
    (1, 2, 1), (1, 1, 2), (3, 2), (1, 1, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
]
WORD_SHAPES = [
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4),
    (3, 4), (4, 3), (5, 3),
]
# every (n, T) with T^n <= 256 and T <= 8
OVERWRITING_SHAPES = [(n, T) for n in range(1, 9) for T in range(1, 9) if T ** n <= 256]
BUILDERS = {
    ("add_drop", False): fluctuating.build_add_drop_chain,
    ("add_drop", True): fluctuating.build_enriched_add_drop_chain,
    ("annihilation", False): fluctuating.build_annihilation_chain,
    ("annihilation", True): fluctuating.build_enriched_annihilation_chain,
}


def assert_same_rows(P, want):
    assert len(P.rows) == len(want)
    for state, got, ref in zip(P.states, P.rows, want):
        assert [(j, type(v), repr(v)) for j, v in got.items()] == [
            (j, type(v), repr(v)) for j, v in ref.items()
        ], state


def check(model, shape, enriched, z, c=None):
    p = ParamSet(z, c=c)
    if model == "msjmc":
        counts = TypeCounts(shape)
        build = msjmc.build_enriched_chain if enriched else msjmc.build_chain
        assert_same_rows(build(counts, p), msjmc_rows(counts, p, enriched))
    elif model == "overwriting":
        assert_same_rows(overwriting.build_word_chain(*shape, p), word_rows(*shape, p))
    else:
        n, T = shape
        P = BUILDERS[model, enriched](n, T, p)
        assert_same_rows(P, fluctuating_rows(model, n, T, p, enriched))


# every base chain; an enriched cover where it has at most 500 states, which
# takes every shape of at most 81 base words but (2,1,1,1)
SHAPES = [("msjmc", s, False) for s in MSJMC_SHAPES]
SHAPES += [("msjmc", s, True) for s in MSJMC_SHAPES
           if len(msjmc.enumerate_enriched(TypeCounts(s))) <= 500]
SHAPES += [(m, s, e) for m in ("add_drop", "annihilation") for s in WORD_SHAPES
           for e in (False, True) if not e or len(fluctuating.enumerate_enriched_words(*s)) <= 500]
SHAPES += [("overwriting", s, False) for s in OVERWRITING_SHAPES]


def _name(case):
    model, shape, enriched = case
    return "-".join([model, "x".join(map(str, shape))] + ["enriched"] * enriched)


@pytest.mark.parametrize("model,shape,enriched", SHAPES, ids=map(_name, SHAPES))
# no shrinking: the shape is fixed and the weights are already small, and
# shrinking a float mismatch on the larger shapes takes minutes
@settings(max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_walk_matches_per_choice_rule(model, shape, enriched, data):
    n, T = (sum(shape), len(shape)) if model == "msjmc" else shape
    # z_1 > 0; later weights may be 0
    raw = [data.draw(st.integers(1, 9))]
    raw += data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if model in ("annihilation", "overwriting"):
        z = [F(x, sum(raw)) for x in raw]
    else:
        z = [F(x, data.draw(st.integers(1, 9))) for x in raw]
    c = [F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))) for _ in range(T)]
    c = c if model == "add_drop" else None
    check(model, shape, enriched, tuple(z), c and tuple(c))
    check(model, shape, enriched, tuple(map(float, z)), c and tuple(map(float, c)))


@pytest.mark.parametrize("case", [
    # T = 1 and n = 1
    ("msjmc", (1,), False, (F(1, 3), F(2, 3)), None),
    ("msjmc", (1,), True, (0.25, 0.75), None),
    ("add_drop", (1, 1), False, (F(2), F(3)), (F(5),)),
    ("add_drop", (1, 1), True, (0.5, 2.0), (3.0,)),
    ("annihilation", (1, 1), False, (F(1, 4), F(3, 4)), None),
    ("annihilation", (1, 1), True, (0.25, 0.75), None),
    ("annihilation", (4, 1), False, (F(1, 4), F(0), F(3, 4), F(0), F(0)), None),
    # zeros in z beyond z_1 give zero products that rows drop
    ("msjmc", (1, 1, 1), True, (F(1), F(0), F(0), F(2)), None),
    ("msjmc", (2, 1, 1), False, (0.5, 0.0, 0.25, 0.0, 0.0), None),
    ("add_drop", (3, 3), True, (F(1, 2), F(0), F(3), F(0)), (F(1), F(2), F(1, 3))),
    ("annihilation", (3, 3), True, (F(1, 2), F(0), F(1, 2), F(0)), None),
    ("annihilation", (2, 3), False, (0.5, 0.0, 0.5), None),
    ("overwriting", (1, 1), False, (F(1, 4), F(3, 4)), None),
    ("overwriting", (1, 4), False, (0.25, 0.75), None),
    ("overwriting", (4, 1), False, (F(1, 4), F(0), F(3, 4), F(0), F(0)), None),
    ("overwriting", (3, 3), False, (F(0), F(1, 2), F(0), F(1, 2)), None),
    ("overwriting", (3, 4), False, (0.5, 0.0, 0.5, 0.0), None),
    ("overwriting", (2, 3), False, (F(1), F(0), F(0)), None),
])
def test_walk_matches_per_choice_rule_pinned(case):
    check(*case)


# every enriched cover of MSJMC_SHAPES and WORD_SHAPES up to 2,000 states
ENRICHED = [("msjmc", s) for s in MSJMC_SHAPES
            if len(msjmc.enumerate_enriched(TypeCounts(s))) <= 2_000]
ENRICHED += [(m, s) for m in ("add_drop", "annihilation") for s in WORD_SHAPES
             if len(fluctuating.enumerate_enriched_words(*s)) <= 2_000]


@pytest.mark.parametrize("model,shape", ENRICHED,
                         ids=[f"{m}-{'x'.join(map(str, s))}" for m, s in ENRICHED])
def test_restart_templates_match_enriched_update(model, shape):
    """The enriched builders against the per-choice moves of
    cascade_reference with every successor's v made by enriched_update: same
    states, and rows with the same keys in the same order, values of the
    same type and repr."""
    n, T = (sum(shape), len(shape)) if model == "msjmc" else shape
    z = tuple(F(k, k + 2) for k in range(1, n + 2))
    if model == "annihilation":
        z = tuple(F(k, sum(range(1, n + 2))) for k in range(1, n + 2))
    p = ParamSet(z, c=tuple(F(k, 3) for k in range(1, T + 1)))
    if model == "msjmc":
        P = msjmc.build_enriched_chain(TypeCounts(shape), p)
        moves = lambda w: ((apply_bump(w, a), transition_prob(w, a, p))
                           for a in bumping_sequences(w))
    else:
        P = BUILDERS[model, True](n, T, p)
        choices, prob = {"add_drop": (insertion_choices, add_drop_prob),
                         "annihilation": (annihilation_choices, annihilation_prob)}[model]
        moves = lambda w: ((apply_bump(intermediate_word(w, j), a), prob(w, (j, a), p))
                           for j, a in choices(w))
    ref = build_matrix(P.states, lambda s: (
        (enriched_update(s.v, w2, bump_choice(s.w, w2).a), prob) for w2, prob in moves(s.w)
    ))
    assert P.states == ref.states
    assert_same_rows(P, ref.rows)
