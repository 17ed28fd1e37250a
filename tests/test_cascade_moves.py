"""The successor letters the bumping walks write against the per-choice
rule they replaced: on every msjmc and word shape of test_cascades, each
move the msjmc, add_drop and annihilation walks yield is a valid bumping
sequence of its intermediate word, and its letters are that word bumped
along the sequence. So the builders need no second check of a sequence."""

from fractions import Fraction

import pytest

from jugglemc import fluctuating, msjmc
from jugglemc.combinatorics import ParamSet, TypeCounts, Word, enumerate_alphabet_words, \
    enumerate_multiset_words

from cascade_reference import _check_bump, annihilation_choices, apply_bump, \
    bumping_sequences, insertion_choices
from test_cascades import MSJMC_SHAPES, WORD_SHAPES

F = Fraction

CASES = [("msjmc", s) for s in MSJMC_SHAPES]
CASES += [(m, s) for m in ("add_drop", "annihilation") for s in WORD_SHAPES]


def walk_and_choices(model, shape):
    """(word, the walk's moves, the reference's (j, a) choices) per word."""
    if model == "msjmc":
        counts = TypeCounts(shape)
        p = ParamSet((F(1, counts.n + 1),) * (counts.n + 1))
        for w in enumerate_multiset_words(counts):
            yield w, msjmc._bumps(w, p), [(w.letters[0], a) for a in bumping_sequences(w)]
        return
    n, T = shape
    p = ParamSet((F(1, n + 1),) * (n + 1), c=(F(1),) * T)
    moves, choices = {
        "add_drop": (fluctuating._add_drop_moves, insertion_choices),
        "annihilation": (fluctuating._annihilation_moves, annihilation_choices),
    }[model]
    for w in enumerate_alphabet_words(n, T):
        yield w, moves(w, p), [tuple(ch) for ch in choices(w)]


@pytest.mark.parametrize("model,shape", CASES,
                         ids=[f"{m}-{'x'.join(map(str, s))}" for m, s in CASES])
def test_walked_successors_need_no_recheck(model, shape):
    for w, moves, choices in walk_and_choices(model, shape):
        seen = []
        for letters, a, _ in moves:
            # the thrown ball lands in slot a(2) - 1
            j = letters[a[1] - 2]
            W = Word((j,) + w.letters[1:], w.T)
            _check_bump(W, a)
            assert apply_bump(W, a).letters == letters, (w, a)
            seen.append((j, a))
        assert seen == choices, w
