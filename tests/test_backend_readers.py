"""Where the program asks the backend, pinned. A ParamSet's `exact` flag
says whether its tables hold ints over common denominators or the weights
themselves, and only the code where the two really differ reads it: the
last divisions of the normalized laws, the evaluator and the command line's
product laws. Every model's chain builder, leads included, reads only
p's tables, so a new fork on the backend is an edit here, made on purpose.
"""

import ast
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

import jugglemc
from jugglemc import chain, fluctuating, msjmc
from jugglemc.combinatorics import ParamSet, enumerate_alphabet_words

SRC = Path(jugglemc.__file__).parent

# the top-level functions that read a ParamSet's `exact` flag; ChainMatrix's
# own flag is read as P.exact or self.exact and is not counted
BACKEND_READERS = [
    "chain._chain",
    "chain._evaluate",
    "cli._product_law",
    "combinatorics._mass",
    "fluctuating.add_drop_partition",
    "msjmc.partition_function",
    "overwriting._word_law",
]


def _backend_readers() -> list:
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "exact"
                    and isinstance(sub.ctx, ast.Load)
                    and not (isinstance(sub.value, ast.Name) and sub.value.id in ("P", "self"))
                    for sub in ast.walk(node)):
                found.append(f"{path.stem}.{node.name}")
    return sorted(found)


def test_backend_readers_are_pinned():
    assert _backend_readers() == BACKEND_READERS


# (z, c) of each backend: exact, float, and mixed both ways round
WEIGHTS = [
    ((F(1, 2), F(1, 3), F(1, 6)), (F(3, 4), 2, F(1, 6))),
    ((0.5, 0.3, 0.2), (0.1, 0.2, 0.3)),
    ((F(1, 2), F(1, 3), F(1, 6)), (0.75, 2.0, 0.5)),
    ((0.5, 0.3, 0.2), (F(3, 4), 2, F(1, 6))),
]


def _factor(model: str, p: ParamSet, T: int, J2: tuple, j: int, x: int):
    """A head's insertion factor read off p's weights: c_j z_{x+1} / sum_t
    c_t y_{J(2, t)} for add_drop; for annihilation z_{x+1}, or 1 for type
    T, times the failures 1 - y_{J(2, t)} of the types t below j."""
    if model == "add_drop":
        return p.c[j - 1] * p.z[x] / sum(p.c[t - 1] * p.y[J2[t] - 1] for t in range(1, T + 1))
    acc = 1 if j == T else p.z[x]
    for t in range(1, j):
        acc = acc * (1 - p.y[J2[t] - 1])
    return acc


LEADS = {
    "add_drop": (fluctuating._add_drop_lead, fluctuating._add_drop_moves,
                 fluctuating.build_add_drop_chain),
    "annihilation": (fluctuating._annihilation_lead, fluctuating._annihilation_moves,
                     fluctuating.build_annihilation_chain),
}


@pytest.mark.parametrize("model", LEADS)
@pytest.mark.parametrize("z,c", WEIGHTS, ids=["exact", "float", "mixed-c", "mixed-z"])
def test_leads_read_only_the_tables(model, z, c):
    # a lead gives the row denominator and one numerator per head on every
    # backend, from a stand-in that holds only the tables and activities
    lead, moves, build = LEADS[model]
    n, T = 2, 3
    p = ParamSet(z, c)
    stand_in = SimpleNamespace(tables=p.tables, c=p.c)
    skel = chain._skeleton(enumerate_alphabet_words(n, T), moves)
    priced = lead(stand_in, T)
    for datum, heads, _, _ in skel.moves:
        d, numerators = priced(datum, heads)
        assert len(numerators) == len(heads)
        for (j, x), num in zip(heads, numerators):
            want = _factor(model, p, T, datum, j, x)
            if p.exact:
                assert type(d) is int and type(num) is int
                assert F(num, d) == want
            else:
                assert num / d == pytest.approx(want, rel=1e-12)
    assert chain._chain(skel, p, msjmc.bump_tables(p), priced, "cascade factor") == build(n, T, p)
