"""The state contract: Word, Tableau and BallArray are named tuples whose
public constructor checks its input, while enumerators, builder walks and
lumps make only legal states and build them through `_make`, unchecked."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

from jugglemc import fluctuating, jugglers, msjmc, overwriting
from jugglemc.cli import main
from jugglemc.combinatorics import ParamSet, TypeCounts, Word
from jugglemc.jugglers import BallArray
from jugglemc.overwriting import Tableau

STATE_TYPES = (Word, Tableau, BallArray)


def _params(rng, n, c=None):
    raw = [F(rng.randint(1, 9)) for _ in range(n + 1)]
    return ParamSet(tuple(x / sum(raw) for x in raw), c)


def _generate_every_small_state():
    """Run every enumerator, walk and lump on all small shapes of the five
    models and the three overwriting levels."""
    rng = random.Random(160)
    for counts in ((1,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1),
                   (1, 1, 2), (2, 2, 1), (1, 1, 1, 1)):
        p = _params(rng, sum(counts))
        msjmc.build_chain(TypeCounts(counts), p)
        msjmc.build_enriched_chain(TypeCounts(counts), p)
    for n, T in product((1, 2, 3), (1, 2, 3)):
        p = _params(rng, n, tuple(F(rng.randint(1, 5)) for _ in range(T)))
        fluctuating.build_add_drop_chain(n, T, p)
        fluctuating.build_annihilation_chain(n, T, p)
        fluctuating.build_enriched_add_drop_chain(n, T, p)
        fluctuating.build_enriched_annihilation_chain(n, T, p)
        overwriting.build_word_chain(n, T, p)
        if T >= 2:
            Pt = overwriting.build_tableau_chain(n, T, p)
            for V in Pt.states:
                overwriting.tableau_successors(V)
                overwriting.lump_tableau(V)
            if (n + 1) ** (n * (T - 1)) <= 4096:
                Pm = overwriting.build_matrix_chain(n, T, p)
                for M in Pm.states:
                    overwriting.lump_matrix(M)
    for r, c in product((1, 2, 3), (1, 2, 3)):
        for balls in range(r * c + 1):
            for A in jugglers.build_chain(r, c, balls).states:
                jugglers.drop_row(A)


def test_every_generated_state_passes_the_public_constructor(monkeypatch):
    made = Counter()

    def checked(cls, items):
        made[cls] += 1
        return cls(*items)  # raises ValueError on an illegal state

    for cls in STATE_TYPES:
        monkeypatch.setattr(cls, "_make", classmethod(checked))
    _generate_every_small_state()
    assert all(made[cls] > 1000 for cls in STATE_TYPES), made


def test_enumerators_walks_and_lumps_run_no_state_check(monkeypatch):
    checked = Counter()

    def counting(original):
        def new(cls, *args):
            checked[cls] += 1
            return original(cls, *args)
        return new

    for cls in STATE_TYPES:
        monkeypatch.setattr(cls, "__new__", counting(cls.__new__))
    _generate_every_small_state()
    assert not checked, checked
    # the public constructors still check
    Word((1, 2), 3), Tableau(((1, 2), (2,)), 3), BallArray(2, 2, frozenset())
    assert checked == Counter(STATE_TYPES)


def test_ball_array_constructor_refuses_a_bad_grid_or_cell():
    # Word and Tableau have their validation tests next to their models
    with pytest.raises(ValueError, match="outside the grid"):
        BallArray(2, 2, frozenset({(3, 1)}))
    with pytest.raises(ValueError, match="need r >= 1"):
        BallArray(0, 2, frozenset())


def test_state_reprs_and_strs():
    assert repr(Word((1, 2), 3)) == "Word(letters=(1, 2), T=3)"
    assert repr(Tableau(((1, 2), (2,)), 3)) == "Tableau(columns=((1, 2), (2,)), T=3)"
    assert repr(BallArray(2, 2, frozenset({(1, 1)}))) == \
        "BallArray(r=2, c=2, cells=frozenset({(1, 1)}))"
    assert str(Word((1, 2), 3)) == "12"
    assert str(Tableau(((1, 2), (2,)), 3)) == "2/12"
    assert str(BallArray(2, 2, frozenset({(1, 1)}))) == "x./.."


def test_a_state_equals_the_plain_tuple_of_its_items():
    # no container mixes states with plain tuples, so this never merges keys
    w = Word((1, 2), 3)
    assert w == ((1, 2), 3) and hash(w) == hash(((1, 2), 3))
    assert Word._make(((1, 2), 3)) == w
    assert Tableau._make((((1, 2), (2,)), 3)) == Tableau(((1, 2), (2,)), 3)


def test_a_failing_lumping_names_its_tableau_by_repr(monkeypatch, capsys):
    real = overwriting.lump_tableau
    swap = {Word((1, 1), 2): Word((2, 1), 2), Word((2, 1), 2): Word((1, 1), 2)}
    monkeypatch.setattr(overwriting, "lump_tableau", lambda V: swap.get(real(V), real(V)))
    code = main(["verify", "--suite", "lumping", "--model", "overwriting",
                 "--n", "2", "--T", "2", "--z", "1/2,1/4,1/4"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[3] == (
        "FAIL tableau-to-word lumping (counterexample (Tableau(columns=((0, 0), (0,)), "
        "T=2), Word(letters=(1, 1), T=2), Fraction(1, 2), 0))"
    )
