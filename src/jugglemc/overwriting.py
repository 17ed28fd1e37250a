"""Overwriting chain and its tower of enrichments.

The base chain lives on all words of length n over {1..T} with z summing
to 1. One transition overwrites a batch of sites: an overwrite sequence
B = ((b_1,t_1),...,(b_k,t_k)) with 2 <= b_1 < ... < b_k = n+1 and
t_1 < ... < t_k, t_j < w_{b_j}, writes t_j into site b_j - 1 after the
usual left shift. Types T are the silent top layer: writing T costs no
z factor and the last pair always exists because t_k = T is allowed
unconditionally.

Above the words sit staircase tableaux (first enrichment) and plain
rectangular matrices over {1..n+1} (second enrichment). Both carry
product-form stationary laws, both project down the tower, and the
matrix chain reaches stationarity in exactly n steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .chain import ChainMatrix, Distribution, build_matrix
from .combinatorics import ParamSet, Word, enumerate_alphabet_words, stat_J
from .errors import NotNormalized

MATRIX_STATE_CAP = 100_000


def overwrite_sequences(w: Word) -> list[tuple[tuple[int, int], ...]]:
    """All legal B for w, lexicographic on the flattened pair list."""
    n, T = w.n, w.T
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(prefix: list[tuple[int, int]], last_b: int, last_t: int):
        for b in range(last_b + 1, n + 2):
            if b == n + 1:
                for t in range(last_t + 1, T + 1):
                    out.append(tuple(prefix) + ((b, t),))
            else:
                top = min(w.letter(b) - 1, T)
                for t in range(last_t + 1, top + 1):
                    prefix.append((b, t))
                    rec(prefix, b, t)
                    prefix.pop()

    rec([], 1, 0)
    return out


def _check_overwrite(w: Word, B: tuple[tuple[int, int], ...]):
    if not B or B[-1][0] != w.n + 1:
        raise ValueError("overwrite sequence must end at site n+1")
    last_b, last_t = 1, 0
    for b, t in B:
        if not last_b < b <= w.n + 1:
            raise ValueError(f"sites must increase, got {b} after {last_b}")
        if not last_t < t <= w.T:
            raise ValueError(f"types must increase, got {t} after {last_t}")
        if b <= w.n and t >= w.letter(b):
            raise ValueError(f"type {t} does not beat letter {w.letter(b)} at site {b}")
        last_b, last_t = b, t


def apply_overwrite(w: Word, B: tuple[tuple[int, int], ...]) -> Word:
    _check_overwrite(w, B)
    res = [0] * w.n
    targets = {b - 1: t for b, t in B}
    for i in range(1, w.n + 1):
        res[i - 1] = targets[i] if i in targets else w.letter(i + 1)
    return Word(tuple(res), w.T)


def overwrite_prob(w: Word, B: tuple[tuple[int, int], ...], p: ParamSet):
    """Failure factors between consecutive written types, one z factor per
    written type below T."""
    if not p.normalized:
        raise NotNormalized("overwriting model needs z summing to 1")
    _check_overwrite(w, B)
    acc = p.z_at(1) ** 0
    prev_b, prev_t = 1, 0
    for b, t in B:
        for level in range(prev_t + 1, t):
            acc = acc * (1 - p.y_at(stat_J(w, prev_b + 1, level)))
        if t != w.T:
            acc = acc * p.z_at(stat_J(w, b, t))
        prev_b, prev_t = b, t
    return acc


def build_word_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("overwriting model needs z summing to 1")
    p.require_arity(n)
    states = enumerate_alphabet_words(n, T)

    def successors(w: Word):
        for B in overwrite_sequences(w):
            yield apply_overwrite(w, B), overwrite_prob(w, B, p)

    return build_matrix(states, successors)


# ---------------------------------------------------------------- tableaux


@dataclass(frozen=True)
class Tableau:
    """Staircase diagram with n columns; column k holds n+1-k cells.

    columns[k-1] lists column k bottom to top, 0 marking an empty cell.
    Entries range over {1..T-1} and increase strictly left to right along
    rows and bottom to top along columns, skipping empty cells.
    """

    columns: tuple[tuple[int, ...], ...]
    T: int

    def __post_init__(self):
        n = len(self.columns)
        if n < 1 or self.T < 2:
            raise ValueError("need n >= 1 columns and T >= 2")
        for k, col in enumerate(self.columns, start=1):
            if len(col) != n + 1 - k:
                raise ValueError(f"column {k} must hold {n + 1 - k} cells")
            for x in col:
                if not 0 <= x <= self.T - 1:
                    raise ValueError(f"entry {x} outside 0..{self.T - 1}")
            filled = [x for x in col if x]
            if any(a >= b for a, b in zip(filled, filled[1:])):
                raise ValueError(f"column {k} not increasing bottom to top")
        for h in range(1, n + 1):
            row = [self.columns[k - 1][h - 1] for k in range(1, n + 2 - h)]
            filled = [x for x in row if x]
            if any(a >= b for a, b in zip(filled, filled[1:])):
                raise ValueError(f"row at height {h} not increasing left to right")

    @property
    def n(self) -> int:
        return len(self.columns)

    def cell(self, k: int, h: int) -> int:
        """Entry at column k, height h from the bottom; 0 if empty."""
        return self.columns[k - 1][h - 1]

    def rows_top_down(self) -> list[tuple[int, ...]]:
        n = self.n
        return [
            tuple(self.columns[k - 1][h - 1] for k in range(1, n + 2 - h))
            for h in range(n, 0, -1)
        ]

    def __str__(self) -> str:
        sep = "" if self.T <= 10 else "."
        return "/".join(sep.join(map(str, row)) for row in self.rows_top_down())


def _column_fillings(length: int, T: int, row_cap):
    """All ways to fill one column of the given length, bottom to top.

    row_cap(h) is the strict upper bound imposed by the row at height h
    (the leftmost entry already present to the right); the column itself
    must increase among filled cells.
    """
    out: list[tuple[int, ...]] = []

    def rec(h: int, col_floor: int, acc: list[int]):
        if h > length:
            out.append(tuple(acc))
            return
        acc.append(0)
        rec(h + 1, col_floor, acc)
        acc.pop()
        for val in range(col_floor + 1, min(T, row_cap(h))):
            acc.append(val)
            rec(h + 1, val, acc)
            acc.pop()

    rec(1, 0, [])
    return out


def enumerate_tableaux(n: int, T: int) -> list[Tableau]:
    """All staircase tableaux, ordered by their column representation."""
    if n < 1 or T < 2:
        raise ValueError("need n >= 1 and T >= 2")
    partial: list[tuple[tuple[int, ...], ...]] = [()]
    for k in range(n, 0, -1):
        # fill right to left so row constraints only look at earlier columns
        nxt = []
        for cols in partial:
            def cap(h: int, cols=cols, k=k) -> int:
                for k2 in range(k + 1, n + 2 - h):
                    x = cols[k2 - k - 1][h - 1]
                    if x:
                        return x  # leftmost filled entry bounds from above
                return T

            for col in _column_fillings(n + 1 - k, T, cap):
                nxt.append((col,) + cols)
        partial = nxt
    return [Tableau(cols, T) for cols in sorted(partial)]


def _row_blocked(V: Tableau, h: int, i: int, from_col: int) -> bool:
    # an entry <= i at height h in columns from_col..end
    for k in range(from_col, V.n + 2 - h):
        x = V.cell(k, h)
        if 0 < x <= i:
            return True
    return False


def tableau_contribution(V: Tableau, i: int, k: int, p: ParamSet):
    """One factor of the stationary product: a z indexed by the free cells
    above entry i in column k when present, one minus a y indexed by the
    free cells of the whole column when absent."""
    if not 1 <= i <= V.T - 1:
        raise ValueError(f"type {i} outside 1..{V.T - 1}")
    if not 1 <= k <= V.n:
        raise ValueError(f"column {k} outside 1..{V.n}")
    length = V.n + 1 - k
    heights = [h for h in range(1, length + 1) if V.cell(k, h) == i]
    if heights:
        h0 = heights[0]
        count = sum(
            1 for h in range(h0 + 1, length + 1) if not _row_blocked(V, h, i, k + 1)
        )
        return p.z_at(1 + count)
    count = 0
    for h in range(1, length + 1):
        if 0 < V.cell(k, h) <= i:
            continue
        if _row_blocked(V, h, i, k + 1):
            continue
        if any(0 < V.cell(k, h2) <= i for h2 in range(h + 1, length + 1)):
            continue
        count += 1
    return 1 - p.y_at(count)


def tableau_stationary(V: Tableau, p: ParamSet):
    """Stationary mass, already normalized: the full contribution product."""
    if not p.normalized:
        raise NotNormalized("tableau chain needs z summing to 1")
    acc = p.z_at(1) ** 0
    for k in range(1, V.n + 1):
        for i in range(1, V.T):
            acc = acc * tableau_contribution(V, i, k, p)
    return acc


def _shift_matches(V: Tableau, W: Tableau) -> bool:
    # W drops V's bottom row and moves everything one column right
    return all(
        W.columns[j] == V.columns[j - 1][1:] for j in range(1, V.n)
    )


def tableau_step_prob(V: Tableau, W: Tableau, p: ParamSet):
    if not p.normalized:
        raise NotNormalized("tableau chain needs z summing to 1")
    if V.n != W.n or V.T != W.T:
        raise ValueError("mismatched shapes")
    if not _shift_matches(V, W):
        return p.z_at(1) * 0
    acc = p.z_at(1) ** 0
    for i in range(1, W.T):
        acc = acc * tableau_contribution(W, i, 1, p)
    return acc


def tableau_successors(V: Tableau) -> list[Tableau]:
    """All W with nonzero step probability from V: the shifted body plus
    every legal filling of the fresh first column."""
    n = V.n
    shifted = tuple(V.columns[j - 1][1:] for j in range(1, n))

    def cap(h: int) -> int:
        for k2 in range(2, n + 2 - h):
            x = shifted[k2 - 2][h - 1]
            if x:
                return x
        return V.T

    return [
        Tableau((col,) + shifted, V.T)
        for col in _column_fillings(n, V.T, cap)
    ]


def build_tableau_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("tableau chain needs z summing to 1")
    p.require_arity(n)
    states = enumerate_tableaux(n, T)

    def successors(V: Tableau):
        for W in tableau_successors(V):
            yield W, tableau_step_prob(V, W, p)

    return build_matrix(states, successors)


def lump_tableau(V: Tableau) -> Word:
    """Word read off the rows: letter k is the leftmost entry of the row
    at height k, or T when that row is empty."""
    n = V.n
    letters = []
    for k in range(1, n + 1):
        letter = V.T
        for k2 in range(1, n + 2 - k):
            x = V.cell(k2, k)
            if x:
                letter = x
                break
        letters.append(letter)
    return Word(tuple(letters), V.T)


def overwriting_stationary(w: Word, p: ParamSet):
    """Stationary mass of a word: total tableau mass over its lump fiber."""
    if not p.normalized:
        raise NotNormalized("overwriting model needs z summing to 1")
    acc = p.z_at(1) * 0
    for V in enumerate_tableaux(w.n, w.T):
        if lump_tableau(V) == w:
            acc = acc + tableau_stationary(V, p)
    return acc


def overwriting_stationary_distribution(n: int, T: int, p: ParamSet) -> Distribution:
    """All word masses in one sweep over the tableaux."""
    if not p.normalized:
        raise NotNormalized("overwriting model needs z summing to 1")
    p.require_arity(n)
    states = enumerate_alphabet_words(n, T)
    index = {w: i for i, w in enumerate(states)}
    weights = [p.z_at(1) * 0] * len(states)
    for V in enumerate_tableaux(n, T):
        i = index[lump_tableau(V)]
        weights[i] = weights[i] + tableau_stationary(V, p)
    return Distribution(states, weights)


# ------------------------------------------------------------ matrix chain


class MatrixState(NamedTuple):
    """(T-1) x n grid of juggler positions, row i for type i, column j for
    the step j-1 transitions back; entries in {1..n+1}."""

    grid: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        sep = "" if all(x <= 9 for row in self.grid for x in row) else "."
        return "/".join(sep.join(map(str, row)) for row in self.grid)


def _check_matrix(M: MatrixState, n: int, T: int):
    if len(M.grid) != T - 1 or any(len(row) != n for row in M.grid):
        raise ValueError(f"grid must be {T - 1} x {n}")
    for row in M.grid:
        for x in row:
            if not 1 <= x <= n + 1:
                raise ValueError(f"entry {x} outside 1..{n + 1}")


def matrix_step(M: MatrixState, newcol: tuple[int, ...]) -> MatrixState:
    """Shift every row right, dropping the last column, and prepend the
    fresh column of juggler choices."""
    n = len(M.grid[0])
    if len(newcol) != len(M.grid):
        raise ValueError("fresh column must hold one entry per type")
    for x in newcol:
        if not 1 <= x <= n + 1:
            raise ValueError(f"entry {x} outside 1..{n + 1}")
    return MatrixState(
        tuple((c,) + row[:-1] for c, row in zip(newcol, M.grid))
    )


def enumerate_matrix_states(n: int, T: int) -> list[MatrixState]:
    if n < 1 or T < 2:
        raise ValueError("need n >= 1 and T >= 2")
    size = (n + 1) ** ((T - 1) * n)
    if size > MATRIX_STATE_CAP:
        raise ValueError(f"{size} matrix states exceed the cap {MATRIX_STATE_CAP}")
    cells = (T - 1) * n
    out = []
    for flat in product(range(1, n + 2), repeat=cells):
        grid = tuple(flat[r * n : (r + 1) * n] for r in range(T - 1))
        out.append(MatrixState(grid))
    return out


def matrix_stationary_weight(M: MatrixState, p: ParamSet):
    """Product of one z per cell; already normalized over the full grid."""
    acc = p.z_at(1) ** 0
    for row in M.grid:
        for x in row:
            acc = acc * p.z_at(x)
    return acc


def build_matrix_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("matrix chain needs z summing to 1")
    p.require_arity(n)
    states = enumerate_matrix_states(n, T)
    # the fresh column's law is the same from every state
    columns = []
    for newcol in product(range(1, n + 2), repeat=T - 1):
        prob = p.z_at(1) ** 0
        for x in newcol:
            prob = prob * p.z_at(x)
        columns.append((newcol, prob))

    def successors(M: MatrixState):
        for newcol, prob in columns:
            yield matrix_step(M, newcol), prob

    return build_matrix(states, successors)


def lump_matrix(M: MatrixState) -> Tableau:
    """Replay the juggler choices into a staircase tableau: column k gets
    the entries whose recorded position fits among the cells still free."""
    T = len(M.grid) + 1
    n = len(M.grid[0])
    _check_matrix(M, n, T)
    cols = [[0] * (n + 1 - k) for k in range(1, n + 1)]

    def row_blocked(h: int, i: int, from_col: int) -> bool:
        for k2 in range(from_col, n + 2 - h):
            x = cols[k2 - 1][h - 1]
            if 0 < x <= i:
                return True
        return False

    for k in range(n, 0, -1):
        length = n + 1 - k
        for i in range(1, T):
            avail = [
                h
                for h in range(length, 0, -1)  # top to bottom
                if cols[k - 1][h - 1] == 0
                and not row_blocked(h, i, k)
                and not any(
                    0 < cols[k - 1][h2 - 1] < i for h2 in range(h + 1, length + 1)
                )
            ]
            pos = M.grid[i - 1][k - 1]
            if pos <= len(avail):
                cols[k - 1][avail[pos - 1] - 1] = i
    return Tableau(tuple(tuple(c) for c in cols), T)


# -------------------------------------------------------------- marginals


def last_site_marginal(j: int, n: int, T: int, p: ParamSet):
    """P(w_n = j) under the stationary law; geometric in z_1 with the
    leftover mass on type T."""
    if not p.normalized:
        raise NotNormalized("marginals need z summing to 1")
    if n < 1 or not 1 <= j <= T:
        raise ValueError("need n >= 1 and 1 <= j <= T")
    z1 = p.z_at(1)
    if j == T:
        return (1 - z1) ** (T - 1)
    return z1 * (1 - z1) ** (j - 1)


def joint_last_two_marginal(i: int, j: int, n: int, T: int, p: ParamSet):
    """P(w_{n-1} = i, w_n = j) under the stationary law."""
    if not p.normalized:
        raise NotNormalized("marginals need z summing to 1")
    if n < 2 or not 1 <= i <= T or not 1 <= j <= T:
        raise ValueError("need n >= 2 and types in 1..T")
    z1, y2 = p.z_at(1), p.y_at(2)
    base = (1 - z1) ** (max(i, j) - 1) * (1 - y2) ** (min(i, j) - 1)
    if i < j:
        return base * (z1 * y2 if j < T else y2)
    if j < i:
        return base * (z1 * z1 if i < T else z1)
    return base * (z1 * z1 if i < T else 1)
