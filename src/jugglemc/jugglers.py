"""Several jugglers sharing a column each: the ball-array chain.

A state places ell indistinguishable balls in an r x c grid, row 1 on
top, row r about to land. Each step drops the bottom row, slides the
rest down, and rethrows the caught balls uniformly into distinct free
cells. The stationary law is a product of falling factorials, which the
arc enrichment recounts: every ball at row i throws one cross into the
c*i cells strictly above it (one spare row sits on top of the grid),
crosses pairwise distinct.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb, perm

from .chain import ChainMatrix
from .combinatorics import _shape_cached


class BallArray(namedtuple("BallArray", "r c cells")):
    """Occupied (row, column) cells of an r x c grid, checked by the
    constructor; enumerators and steps build legal arrays through `_make`."""

    __slots__ = ()

    def __new__(cls, r: int, c: int, cells: frozenset):
        if r < 1 or c < 1:
            raise ValueError("need r >= 1 and c >= 1")
        for i, j in cells:
            if not (1 <= i <= r and 1 <= j <= c):
                raise ValueError(f"cell ({i}, {j}) outside the grid")
        return super().__new__(cls, r, c, cells)

    @property
    def balls(self) -> int:
        return len(self.cells)

    def row_count(self, i: int) -> int:
        return sum(1 for a, _ in self.cells if a == i)

    def __str__(self) -> str:
        return "/".join(
            "".join("x" if (i, j) in self.cells else "." for j in range(1, self.c + 1))
            for i in range(1, self.r + 1)
        )


def enumerate_arrays(r: int, c: int, balls: int) -> list[BallArray]:
    """All placements, ordered by their sorted cell list."""
    if not 0 <= balls <= r * c:
        raise ValueError(f"ball count {balls} outside 0..{r * c}")
    grid = [(i, j) for i in range(1, r + 1) for j in range(1, c + 1)]
    return [BallArray._make((r, c, frozenset(ch))) for ch in combinations(grid, balls)]


def drop_row(A: BallArray) -> BallArray:
    """Catch the bottom row and slide every other ball down one row."""
    cells = frozenset((i + 1, j) for i, j in A.cells if i < A.r)
    return BallArray._make((A.r, A.c, cells))


def juggler_stationary_weight(A: BallArray) -> int:
    """Unnormalized stationary mass: prod_i (c i - balls above row i)
    falling row count of i."""
    acc = 1
    above = 0
    for i in range(1, A.r + 1):
        k = A.row_count(i)
        acc *= perm(A.c * i - above, k)
        above += k
    return acc


def build_chain(r: int, c: int, balls: int) -> ChainMatrix:
    """The chain on the placements of `balls` balls in the r x c grid. It
    has no weights, so it is its own skeleton and is kept per process
    (`_shape_cached`) like the cascade chains' skeletons."""
    return _shape_cached(_walk, r, c, balls)


def _walk(r: int, c: int, balls: int) -> ChainMatrix:
    """The caught balls land on each choice of distinct cells left free by
    drop_row, every choice equally likely: a row is 1 for each landing set
    over the number of choices, and distinct landing sets give distinct
    arrays. A row depends only on drop_row of its state, so each distinct
    one's row is built once and handed to every state that has it."""
    grid = [(i, j) for i in range(1, r + 1) for j in range(1, c + 1)]
    states = enumerate_arrays(r, c, balls)
    index = {A: i for i, A in enumerate(states)}
    built: dict = {}
    rows, dens = [], []
    for A in states:
        kept = drop_row(A).cells
        if kept not in built:
            free = [cell for cell in grid if cell not in kept]
            caught = balls - len(kept)
            built[kept] = ({index[BallArray._make((r, c, kept.union(landed)))]: 1
                            for landed in combinations(free, caught)},
                           comb(len(free), caught))
        row, d = built[kept]
        rows.append(row)
        dens.append(d)
    return ChainMatrix(states, rows, dens)
