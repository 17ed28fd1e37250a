"""The successor-generator builder the models used before each walk handed
ChainMatrix its rows itself, kept as the reference the juggler walk is
tested against and as a short way for tests to write a chain down."""

from __future__ import annotations

from math import lcm
from typing import Callable, Optional, Sequence

from jugglemc.chain import ChainMatrix
from jugglemc.errors import UnknownSuccessor


def build_matrix(states: Sequence, successors: Callable, *,
                 key: Optional[Callable] = None) -> ChainMatrix:
    """Assemble a ChainMatrix from a per-state successor generator.

    successors(state) yields (successor state, probability) pairs. An exact
    walk gives each probability as a pair (num, den) of ints: a row of such
    moves is summed over the lcm of its move denominators, taken as they
    come, and the chain is built on integers, ChainMatrix(states, rows,
    denominators), with no Fraction made. Otherwise each probability is a
    value (int, Fraction or float); a row's moves are all pairs or all
    values. Either way a successor yielded more than once gets the sum of
    its probabilities, added in the order they come, and keeps the place of
    its first move. Successors outside `states` raise UnknownSuccessor, bad
    row sums RowSumError, and a chain with rows of both kinds ValueError.
    With `key`, successors(state) must depend on the state only
    through key(state): each distinct key's row is built once, from its
    first state, and the same row object is handed to the others, so
    ChainMatrix checks, scales and lumps it once.
    """
    index = {s: i for i, s in enumerate(states)}

    def row_of(s) -> tuple[dict, Optional[int]]:
        """s's row and its denominator, None for a row of values."""
        row: dict = {}
        d = None
        for succ, v in successors(s):
            j = index.get(succ)
            if j is None:
                raise UnknownSuccessor(f"transition {s} -> {succ} leaves the state list")
            if type(v) is tuple:
                v, den = v
                if d is None:
                    d = den
                elif den != d:
                    if d % den:
                        # the row so far moves to the lcm of the two
                        m = lcm(d, den)
                        f = m // d
                        row = {k: x * f for k, x in row.items()}
                        d = m
                    v *= d // den
            row[j] = row[j] + v if j in row else v
        return row, d

    if key is None:
        built = [row_of(s) for s in states]
    else:
        by_key: dict = {}
        built = []
        for s in states:
            k = key(s)
            if k not in by_key:
                by_key[k] = row_of(s)
            built.append(by_key[k])
    rows, dens = [row for row, _ in built], [d for _, d in built]
    if None not in dens:
        return ChainMatrix(states, rows, dens)
    if any(dens):
        raise ValueError("a chain's moves must all be (num, den) pairs or all values")
    return ChainMatrix(states, rows)
