"""The successor words the shape-only bumping walks write against the
per-choice rule they replaced: on every msjmc and word shape of
test_cascades, the choice (j, a) that bump_choice recovers from each move
the msjmc, add_drop and annihilation walks yield is a valid bumping sequence
of its intermediate word, its successor is that word bumped along the
sequence, and the recovered choices are the reference's, in its order. So
the skeletons need no second check of a sequence."""

import pytest

from jugglemc import fluctuating, msjmc
from jugglemc.combinatorics import TypeCounts, Word, enumerate_alphabet_words, \
    enumerate_multiset_words, _j_table

from cascade_reference import _check_bump, annihilation_choices, apply_bump, \
    bump_choice, bumping_sequences, insertion_choices, stat_E
from test_cascades import MSJMC_SHAPES, WORD_SHAPES

CASES = [("msjmc", s) for s in MSJMC_SHAPES]
CASES += [(m, s) for m in ("add_drop", "annihilation") for s in WORD_SHAPES]


def walk_and_choices(model, shape):
    """(word, the successor words of the walk's moves, the reference's (j, a)
    choices) per word."""
    if model == "msjmc":
        for w in enumerate_multiset_words(TypeCounts(shape)):
            yield w, [w2 for _, w2, _ in msjmc._bumps(w)[1]], \
                [(w.letters[0], a) for a in bumping_sequences(w)]
        return
    n, T = shape
    moves, choices = {
        "add_drop": (fluctuating._add_drop_moves, insertion_choices),
        "annihilation": (fluctuating._annihilation_moves, annihilation_choices),
    }[model]
    for w in enumerate_alphabet_words(n, T):
        yield w, [w2 for _, w2, _ in moves(w)[1]], [tuple(ch) for ch in choices(w)]


@pytest.mark.parametrize("model,shape", CASES,
                         ids=[f"{m}-{'x'.join(map(str, s))}" for m, s in CASES])
def test_walked_successors_need_no_recheck(model, shape):
    for w, successors, choices in walk_and_choices(model, shape):
        seen = []
        for w2 in successors:
            j, a = bump_choice(w, w2)
            W = Word((j,) + w.letters[1:], w.T)
            _check_bump(W, a)
            assert apply_bump(W, a) == w2, (w, a)
            seen.append((j, a))
        assert seen == choices, w


@pytest.mark.parametrize("model,shape", CASES,
                         ids=[f"{m}-{'x'.join(map(str, s))}" for m, s in CASES])
def test_restart_templates_are_stat_E_at_the_landed_slots(model, shape):
    """The restart template enriched_skeleton reads off the source word's J
    table for each move, against the reference: E_{w2}(i) (stat_E) at the
    slots i the reference's bumping sequence lands a ball in, 0 elsewhere."""
    for w, successors, choices in walk_and_choices(model, shape):
        J = _j_table(w)
        for w2, (j, a) in zip(successors, choices, strict=True):
            assert apply_bump(Word((j,) + w.letters[1:], w.T), a) == w2, (w, a)
            landed = {cur - 1 for cur in a[1:]}
            got = msjmc._restarts(J, w, w2)
            assert len(got) == w.n, (w, w2)
            for i in range(1, w.n + 1):
                want = stat_E(w2, i) if i in landed else 0
                assert got[i - 1] == want, f"{w} -> {w2}, slot {i}: {got[i - 1]} != {want}"
