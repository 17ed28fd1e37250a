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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .chain import ChainMatrix, build_matrix
from .combinatorics import falling_factorial


@dataclass(frozen=True)
class BallArray:
    r: int
    c: int
    cells: frozenset

    def __post_init__(self):
        if self.r < 1 or self.c < 1:
            raise ValueError("need r >= 1 and c >= 1")
        for i, j in self.cells:
            if not (1 <= i <= self.r and 1 <= j <= self.c):
                raise ValueError(f"cell ({i}, {j}) outside the grid")

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
    return [BallArray(r, c, frozenset(ch)) for ch in combinations(grid, balls)]


def drop_row(A: BallArray) -> BallArray:
    """Catch the bottom row and slide every other ball down one row."""
    return BallArray(
        A.r, A.c, frozenset((i + 1, j) for i, j in A.cells if i < A.r)
    )


def juggler_stationary_weight(A: BallArray) -> int:
    """Unnormalized stationary mass: prod_i (c i - balls above row i)
    falling row count of i."""
    acc = 1
    above = 0
    for i in range(1, A.r + 1):
        k = A.row_count(i)
        acc *= falling_factorial(A.c * i - above, k)
        above += k
    return acc


def build_chain(r: int, c: int, balls: int) -> ChainMatrix:
    """The caught balls land on each choice of distinct cells left free by
    drop_row, every choice equally likely."""
    grid = [(i, j) for i in range(1, r + 1) for j in range(1, c + 1)]

    def successors(A: BallArray):
        kept = drop_row(A).cells
        free = [cell for cell in grid if cell not in kept]
        caught = A.balls - len(kept)
        prob = Fraction(1, comb(len(free), caught))
        for landed in combinations(free, caught):
            yield BallArray(r, c, kept.union(landed)), prob

    return build_matrix(enumerate_arrays(r, c, balls), successors)
