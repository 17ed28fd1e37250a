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

One free-cell rule places a type in a tableau column (`_free_heights`), and
one column-factor rule (`_column_slots`) prices a column with it: the
tableau law is the product of its columns' factors, the tableau step draws
its fresh first column with the column-1 factors, and the word law sums the
column factors in one right-to-left sweep over row-minimum profiles. The
matrix lumping replays each recorded juggler choice onto the same free
heights, one grid column at a time from the right. A column's legal
fillings and its factors read the columns to its right only through their
row minima (`_profile`). So the three kernels that depend only on the
shape, the fillings of a column (`_column_fillings`) and its factor slots
(`_column_slots`), both keyed on that profile, and the replay of a grid
column onto a partial lump (`_replay_column`), are pure functions of int
tuples, kept for the life of the process in caches of at most
KERNEL_CACHE_SIZE entries. `tower_checks` proves the tower without listing
a matrix state: one right-to-left sweep over the grid columns
(`_column_sweep`) keeps the summed grid mass per reachable pair of partial
lumps (of a grid and of its body), which proves the matrix-to-tableau
lumping for every grid and gives each tableau's fiber mass, compared with
the tableau law's int core (`_tableau_mass`).

The three chains are built as every weighted chain is (see chain): a
shape-only step lists each successor's factors, a throw z_f or a failure
1 - y_f, as (top, bottom) slots into `_tables`, which every law reads too:
Z_f and L - Y_f off p's tables, whose float form is the weights over 1.
The word walk (`_overwrites`) writes the successor as it goes and reads w
only past its first letter; the tableau and matrix steps keep only a body
of their state; so each distinct w_2 .. w_n or body is walked once per
shape. For exact weights the word law multiplies the same ints, over
L^(n(T-1)), as does the tableau law's core; its wrapper
`tableau_stationary` divides it by `_mass`, one Fraction per tableau.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import prod
from typing import NamedTuple, Sequence

from .chain import ChainMatrix, Distribution, LumpingMap, Skeleton, verify_lumping, \
    _chain, _denominator_of, _skeleton
from .combinatorics import KERNEL_CACHE_SIZE, ParamSet, Word, enumerate_alphabet_words, \
    _j_table, _mass, _shape_cached
from .errors import NotNormalized

MATRIX_STATE_CAP = 100_000


def _overwrites(w: Word):
    """The word step as a walk of _skeleton, with no row datum and no head:
    a move (None, successor word, slots) for every overwrite sequence B of
    w, lexicographically on the flattened pair list, its slots listing its
    factors in product order as (top, bottom) slot pairs into _tables.

    The walk carries the successor's letters and the slots down the
    recursion. After a pair (b, t), the failure factors 1 - y_{J(b+1, s)} of
    the types s skipped before the next written type all come from row b+1
    of the J table, so each node takes them once for every next site; a
    written type below T then adds z_{J(b', t')}. No weight is read.
    """
    J, n, T = _j_table(w), w.n, w.T

    def walk(head: tuple, last_b: int, last_t: int, slots: tuple):
        # pre[t - last_t - 1]: the slots and the failures of types last_t+1..t-1
        pre = [slots]
        for s in range(last_t + 1, T):
            pre.append(pre[-1] + (2 * J[last_b + 1][s], 0))
        for b in range(last_b + 1, n + 1):
            body = head + w.letters[last_b : b - 1]
            for t in range(last_t + 1, w.letters[b - 1]):
                yield from walk(body + (t,), b, t, pre[t - last_t - 1] + (2 * J[b][t] - 1, 0))
        # site n+1 takes any later type; J(n+1, t) = 1 and T costs no z factor
        body = head + w.letters[last_b:]
        for t in range(last_t + 1, T):
            yield None, Word._make((body + (t,), T)), pre[t - last_t - 1] + (1, 0)
        yield None, Word._make((body + (T,), T)), pre[-1]

    return None, walk((), 1, 0, ())


def _tables(p: ParamSet) -> tuple:
    """The (top, bottom) factor tables of the overwriting chains, off p's
    tables: top[2f - 1] = Z_f for f = 1..n+1 and top[2f] = L - Y_f for f =
    0..n+1 (Y_0 = 0), so a slot needs no n, over bottom = (L,): z_f and 1 -
    y_f."""
    t = p.tables
    return (t.L,) + tuple(v for Z, Y in zip(t.Z, t.Y) for v in (Z, t.L - Y)), (t.L,)


def _evaluated(skeleton, n: int, T: int, p: ParamSet, noun: str) -> ChainMatrix:
    """The chain of skeleton(n, T), kept per shape, at weights p; `noun`
    names the chain when z does not sum to 1."""
    if not p.normalized:
        raise NotNormalized(f"{noun} needs z summing to 1")
    p.require_arity(n)
    return _chain(_shape_cached(skeleton, n, T), p, _tables(p), None, noun)


def _word_skeleton(n: int, T: int) -> Skeleton:
    return _skeleton(enumerate_alphabet_words(n, T), _overwrites, key=lambda w: w.letters[1:])


def build_word_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    """The word chain. A step reads w only past its first letter, so each
    distinct w_2 .. w_n's row is walked once."""
    return _evaluated(_word_skeleton, n, T, p, "overwriting model")


# ---------------------------------------------------------------- tableaux


class Tableau(namedtuple("Tableau", "columns T")):
    """Staircase diagram with n columns; column k holds n+1-k cells.

    columns[k-1] lists column k bottom to top, 0 marking an empty cell.
    Entries range over {1..T-1} and increase strictly left to right along
    rows and bottom to top along columns, skipping empty cells, as the
    constructor checks; enumerators, steps and lumps build through `_make`.
    """

    __slots__ = ()

    def __new__(cls, columns: tuple[tuple[int, ...], ...], T: int):
        n = len(columns)
        if n < 1 or T < 2:
            raise ValueError("need n >= 1 columns and T >= 2")
        for k, col in enumerate(columns, start=1):
            if len(col) != n + 1 - k:
                raise ValueError(f"column {k} must hold {n + 1 - k} cells")
            for x in col:
                if not 0 <= x <= T - 1:
                    raise ValueError(f"entry {x} outside 0..{T - 1}")
            filled = [x for x in col if x]
            if any(a >= b for a, b in zip(filled, filled[1:])):
                raise ValueError(f"column {k} not increasing bottom to top")
        for h in range(1, n + 1):
            row = [columns[k - 1][h - 1] for k in range(1, n + 2 - h)]
            filled = [x for x in row if x]
            if any(a >= b for a, b in zip(filled, filled[1:])):
                raise ValueError(f"row at height {h} not increasing left to right")
        return super().__new__(cls, columns, T)

    @property
    def n(self) -> int:
        return len(self.columns)

    def rows_top_down(self) -> list[tuple[int, ...]]:
        n = self.n
        return [
            tuple(self.columns[k - 1][h - 1] for k in range(1, n + 2 - h))
            for h in range(n, 0, -1)
        ]

    def __str__(self) -> str:
        sep = "" if self.T <= 10 else "."
        return "/".join(sep.join(map(str, row)) for row in self.rows_top_down())


def _row_min(columns, h: int) -> int:
    """Leftmost filled entry at height h across a run of staircase columns,
    or 0; rows increase left to right, so this is the row's minimum."""
    for col in columns:
        if len(col) < h:
            break  # columns only shorten to the right
        if col[h - 1]:
            return col[h - 1]
    return 0


def _profile(columns) -> tuple:
    """Row minima (_row_min) of a run of staircase columns at the heights of
    its first column; () for no columns. Fillings and free heights of the
    column to the left read the run only through this profile."""
    return tuple([_row_min(columns, h) for h in range(1, len(columns[0]) + 1)]) if columns else ()


def _extend(col: tuple, mins: tuple) -> tuple:
    """The profile of `col` followed by columns of profile `mins`."""
    return tuple([x or m for x, m in zip(col, mins + (0,))])


def _free_heights(columns, k: int, i: int) -> list[int]:
    """Heights of column k, top to bottom, where type i can land.

    A height is free when it is not at or below an entry <= i of column k
    and its row holds no entry <= i further right.
    """
    col, right = columns[k - 1], columns[k:]
    out = []
    for h in range(len(col), 0, -1):
        if 0 < col[h - 1] <= i:
            break
        if not 0 < _row_min(right, h) <= i:
            out.append(h)
    return out


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _column_fillings(length: int, T: int, mins: tuple) -> tuple:
    """All ways to fill one column of the given length, bottom to top, left
    of columns of profile `mins`: each row caps its new entry strictly below
    the row's minimum, and the column itself increases among filled cells.
    A level sweep over the heights, each partial column kept with its last
    entry; each height tries an empty cell first, then the values upward."""
    level = [((), 0)]
    for cap in (mins + (0,))[:length]:
        level = [(col + (v,), v or floor) for col, floor in level
                 for v in (0, *range(floor + 1, cap or T))]
    return tuple([col for col, _ in level])


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _column_slots(col: tuple, mins: tuple, T: int) -> tuple:
    """The top slots (_tables) of the T - 1 factors of the stationary
    product of column `col`, left of columns of profile `mins`, type 1
    first: with f the free heights of col for type i (_free_heights), z_{1+f}
    when i sits in col, 1 - y_f when it is absent."""
    return tuple(2 * len(_free_heights((col, mins), 1, i)) + (i in col) for i in range(1, T))


def enumerate_tableaux(n: int, T: int) -> list[Tableau]:
    """All staircase tableaux, ordered by their column representation."""
    if n < 1 or T < 2:
        raise ValueError("need n >= 1 and T >= 2")
    partial: list[tuple[tuple[int, ...], ...]] = [()]
    for k in range(n, 0, -1):
        # fill right to left so row constraints only look at earlier columns
        partial = [
            (col,) + cols
            for cols in partial
            for col in _column_fillings(n + 1 - k, T, _profile(cols))
        ]
    return [Tableau._make((cols, T)) for cols in sorted(partial)]


def _column_factor(acc, col: tuple, mins: tuple, T: int, top: tuple):
    """acc times the factors of column `col`, left of columns of profile
    `mins` (_column_slots), read off the top table of _tables(p)."""
    for k in _column_slots(col, mins, T):
        acc = acc * top[k]
    return acc


def _tableau_mass(columns: tuple, T: int, top: tuple):
    """The product of the column factors of a tableau's columns, column 1
    first, from top[0] ** 0; with the top table of _tables(p) it is the
    stationary mass, over p's integer tables an int over L^(n(T-1))."""
    # profiles[j]: the profile of the last j columns
    profiles = [()]
    for col in reversed(columns[1:]):
        profiles.append(_extend(col, profiles[-1]))
    acc = top[0] ** 0
    for col, mins in zip(columns, reversed(profiles)):
        acc = _column_factor(acc, col, mins, T, top)
    return acc


def tableau_stationary(V: Tableau, p: ParamSet):
    """Stationary mass, already normalized: `_tableau_mass`, for exact
    weights one Fraction over L^(n(T-1))."""
    if not p.normalized:
        raise NotNormalized("tableau chain needs z summing to 1")
    p.require_arity(V.n)
    mass = _tableau_mass(V.columns, V.T, _tables(p)[0])
    return _mass(p, (mass,), p.tables.L ** (V.n * (V.T - 1)))


def _shifted_body(V: Tableau) -> tuple:
    """What a step keeps of V: columns 1..n-1, each without its bottom cell,
    become columns 2..n."""
    return tuple(col[1:] for col in V.columns[:-1])


def tableau_successors(V: Tableau) -> list[Tableau]:
    """All W with nonzero step probability from V: the shifted body plus
    every legal filling of the fresh first column."""
    shifted = _shifted_body(V)
    return [
        Tableau._make(((col,) + shifted, V.T))
        for col in _column_fillings(V.n, V.T, _profile(shifted))
    ]


def _tableau_step(V: Tableau):
    """The tableau step as a walk of _skeleton, with no row datum and no
    head: a move (None, W, slots) for each successor W of V
    (tableau_successors), whose fresh first column has the law's column-1
    factors."""
    mins = _profile(_shifted_body(V))
    return None, ((None, W, tuple([k for s in _column_slots(W.columns[0], mins, V.T)
                                   for k in (s, 0)])) for W in tableau_successors(V))


def _tableau_skeleton(n: int, T: int) -> Skeleton:
    return _skeleton(enumerate_tableaux(n, T), _tableau_step, key=_shifted_body)


def build_tableau_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    """The tableau chain. A row depends only on the shifted body, so each
    distinct body's successors and their factors are walked once."""
    return _evaluated(_tableau_skeleton, n, T, p, "tableau chain")


def lump_tableau(V: Tableau) -> Word:
    """Word read off the rows: letter k is the leftmost entry of the row
    at height k, or T when that row is empty."""
    letters = tuple(_row_min(V.columns, h) or V.T for h in range(1, V.n + 1))
    return Word._make((letters, V.T))


def overwriting_stationary(w: Word, p: ParamSet):
    """Stationary mass of one word, read off the word law."""
    law = overwriting_stationary_distribution(w.n, w.T, p)
    return law.weights[law.states.index(w)]


def overwriting_stationary_distribution(n: int, T: int, p: ParamSet) -> Distribution:
    """All word masses by one sweep over the tableau columns, right to left.

    A column's legal fillings and its factors read the columns to its right
    only through their row minima, and so does the lump to words. So the
    sweep keeps the summed mass per row-minimum profile, passed on as the
    single column to the right, and extends every profile by every legal
    filling of the next column. The final profiles are the words, with 0
    read as T.
    """
    if not p.normalized:
        raise NotNormalized("overwriting model needs z summing to 1")
    p.require_arity(n)
    return _word_law(enumerate_alphabet_words(n, T), n, T, p)


def _word_law(states, n: int, T: int, p: ParamSet) -> Distribution:
    """The word law's masses on `states`, all words of length n over 1..T in
    any order; p is checked by the caller. For exact weights the masses
    are ints over the scale L^(n(T-1)), with no Fraction."""
    top = _tables(p)[0]
    zero = top[0] * 0
    masses = {(): top[0] ** 0}
    for k in range(n, 0, -1):
        swept: dict = {}
        for prof, mass in masses.items():
            for col in _column_fillings(n + 1 - k, T, prof):
                key = _extend(col, prof)
                swept[key] = swept.get(key, zero) + _column_factor(mass, col, prof, T, top)
        masses = swept
    words = {tuple(x or T for x in prof): m for prof, m in masses.items()}
    return Distribution(states, [words.get(w.letters, zero) for w in states],
                        p.tables.L ** (n * (T - 1)) if p.exact else None)


# ------------------------------------------------------------ matrix chain


class MatrixState(NamedTuple):
    """(T-1) x n grid of juggler positions, row i for type i, column j for
    the step j-1 transitions back; entries in {1..n+1}."""

    grid: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        sep = "" if all(x <= 9 for row in self.grid for x in row) else "."
        return "/".join(sep.join(map(str, row)) for row in self.grid)


def _check_matrix(M: MatrixState, n: int, T: int):
    if n < 1 or T < 2:
        raise ValueError("need n >= 1 and T >= 2")
    if len(M.grid) != T - 1 or any(len(row) != n for row in M.grid):
        raise ValueError(f"grid must be {T - 1} x {n}")
    for row in M.grid:
        for x in row:
            if not 1 <= x <= n + 1:
                raise ValueError(f"entry {x} outside 1..{n + 1}")


def enumerate_matrix_states(n: int, T: int) -> list[MatrixState]:
    if n < 1 or T < 2:
        raise ValueError("need n >= 1 and T >= 2")
    size = (n + 1) ** ((T - 1) * n)
    if size > MATRIX_STATE_CAP:
        raise ValueError(f"{size} matrix states exceed the cap {MATRIX_STATE_CAP}")
    rows = list(product(range(1, n + 2), repeat=n))
    return [MatrixState._make((grid,)) for grid in product(rows, repeat=T - 1)]


def matrix_stationary_weight(M: MatrixState, p: ParamSet):
    """Product of one z per cell, row by row; already normalized over the
    full grid. For exact weights one Fraction, the product of the cells' Z
    over L^(cells)."""
    grid = M.grid
    n = len(grid[0]) if grid else 0
    _check_matrix(M, n, len(grid) + 1)
    p.require_arity(n)
    t = p.tables
    return _mass(p, (t.Z[x - 1] for row in grid for x in row), t.L ** (n * len(grid)))


def _grid_columns(n: int, T: int, Z: Sequence) -> list:
    """(column, the product of its cells' Z) for every grid column, in
    lexicographic order; Z is p's integer z table."""
    return [(col, prod(Z[x - 1] for x in col)) for col in product(range(1, n + 2), repeat=T - 1)]


def _matrix_body(M: MatrixState) -> tuple:
    """What a step keeps of M: the grid without its last column."""
    return tuple(row[:-1] for row in M.grid)


def _matrix_step(M: MatrixState):
    """The matrix step as a walk of _skeleton, with no row datum and no
    head: a move (None, successor, slots) for each fresh column of juggler
    choices, in lexicographic order. Every row shifts right, dropping its
    last column, the column is prepended, and its cells' z_x are its
    factors."""
    grid, body = M.grid, _matrix_body(M)
    return None, ((None, MatrixState(tuple([(c,) + row for c, row in zip(col, body)])),
                   tuple([k for x in col for k in (2 * x - 1, 0)]))
                  for col in product(range(1, len(grid[0]) + 2), repeat=len(grid)))


def _matrix_skeleton(n: int, T: int) -> Skeleton:
    return _skeleton(enumerate_matrix_states(n, T), _matrix_step, key=_matrix_body)


def build_matrix_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    """The matrix chain; each distinct body's row is walked once, and the
    fresh column's law is the same from every state."""
    return _evaluated(_matrix_skeleton, n, T, p, "matrix chain")


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _replay_column(right: tuple, choices: tuple) -> tuple:
    """Columns k..n of a lump, from its columns k+1..n (`right`) and grid
    column k: type i lands on the pos-th free height of column k, pos being
    its recorded position, and is dropped when fewer heights are free."""
    col = [0] * (len(right) + 1)
    columns = (col,) + right
    for i, pos in enumerate(choices, start=1):
        if pos > len(col):
            continue  # past the column's height, so past its free heights
        free = _free_heights(columns, 1, i)
        if pos <= len(free):
            col[free[pos - 1] - 1] = i
    return (tuple(col),) + right


def lump_matrix(M: MatrixState) -> Tableau:
    """Replay the juggler choices into a staircase tableau, right column
    first. Columns k..n of a lump depend on grid columns k..n only through
    the lump's columns k+1..n and grid column k, and `_replay_column` keeps
    its replays for the process, so each distinct pair is replayed once."""
    T = len(M.grid) + 1
    _check_matrix(M, len(M.grid[0]) if M.grid else 0, T)
    cols = ()
    for column in reversed(list(zip(*M.grid))):
        cols = _replay_column(cols, column)
    return Tableau._make((cols, T))


def _column_sweep(n: int, T: int, Z: Sequence) -> tuple[dict, dict]:
    """Every grid of the matrix chain by one right-to-left sweep over its
    columns, never listing a grid; Z is p's integer z table. A grid's lumped
    row reads it only through (A, B), A its lump and B the lump of its first
    n-1 columns as an (n-1)-column grid, whose replays onto the fresh column
    are the successors' lumps. Returns (pairs, pushes): pairs maps each
    reachable (A, B) to [mass, witness], the summed products of Z over its
    grids' cells, over L^(n(T-1)), and one grid's columns; pushes maps each
    B to the fresh column's law replayed onto it, {lump: int over L^(T-1)}.
    """
    columns = _grid_columns(n, T, Z)
    replays: dict = {}

    def replayed(right: tuple) -> list:
        # partial lump `right` replayed onto every grid column, in order
        if right not in replays:
            replays[right] = [_replay_column(right, col) for col, _ in columns]
        return replays[right]

    pairs = {((), ()): [1, ()]}
    for k in range(n, 0, -1):
        swept: dict = {}
        for (A, B), (mass, grid) in pairs.items():
            # grid column n is not in the body B
            for A2, B2, (col, prob) in zip(replayed(A), replayed(B) if k < n else repeat(B),
                                           columns):
                entry = swept.get((A2, B2))
                if entry is None:
                    swept[A2, B2] = [mass * prob, (col,) + grid]
                else:
                    entry[0] += mass * prob
        pairs = swept
    pushes = {B: defaultdict(int) for _, B in pairs}
    for B, push in pushes.items():
        for A2, (_, prob) in zip(replayed(B), columns):
            push[A2] += prob
    return pairs, pushes


def tower_checks(n: int, T: int, p: ParamSet, P: ChainMatrix) -> list:
    """(name, counterexample or None) of the tower's three checks on exact
    weights, P the word chain. Every grid's lumped row is the push of its B
    (_column_sweep) and must be the tableau row of its A (Kemeny and Snell,
    Finite Markov Chains, 1960, section 6.3): ints cross-multiplied once per
    distinct (B, row), that is per body. A failure names a witness grid as
    verify_lumping does: (matrix state, tableau, class sum, expected entry).
    Each A's fiber mass, summed over its pairs, must be its tableau mass,
    both ints over L^(n(T-1)): a passing check makes no Fraction.
    """
    Pt = build_tableau_chain(n, T, p)
    pairs, pushes = _column_sweep(n, T, p.tables.Z)
    index = {V.columns: i for i, V in enumerate(Pt.states)}
    Dt, Lc = _denominator_of(Pt), p.tables.L ** (T - 1)
    checked, fibers, to_tableau = set(), defaultdict(int), None
    for (A, B), (mass, grid) in pairs.items():
        fibers[A] += mass
        x = index[A]
        if to_tableau is None and (B, Pt._row_of[x]) not in checked:
            checked.add((B, Pt._row_of[x]))
            push = {index[W]: v for W, v in pushes[B].items()}
            row = Pt._integer_rows[Pt._row_of[x]]
            off = [j for j in push.keys() | row.keys()
                   if push.get(j, 0) * Dt != row.get(j, 0) * Lc]
            if off:
                b = min(off)
                to_tableau = (MatrixState(tuple(zip(*grid))), Pt.states[b],
                              Fraction(push.get(b, 0), Lc), Fraction(row[b], Dt) if b in row else 0)
    to_word = LumpingMap.from_function(lump_tableau, Pt.states, P.states)
    top = _tables(p)[0]
    fiber = next((V for V in Pt.states if fibers[V.columns] != _tableau_mass(V.columns, T, top)),
                 None)
    return [("matrix-to-tableau lumping", to_tableau),
            ("tableau-to-word lumping", verify_lumping(Pt, to_word, P)[1]),
            ("fiber weight identity", fiber)]


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
