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
one column-factor rule (`_column_factor`) prices a column with it: the
tableau law is the product of its columns' factors, the tableau step draws
its fresh first column with the column-1 factors, and the word law sums the
column factors in one right-to-left sweep over row-minimum profiles. The
matrix lumping replays each recorded juggler choice onto the same free
heights, one grid column at a time from the right. A column's legal
fillings and its free heights read the columns to its right only through
their row minima (`_profile`). So the three kernels that depend only on
the shape, the fillings of a column (`_column_fillings`), the free-height
counts of its types (`_free_counts`), both keyed on that profile, and the
replay of a grid column onto a partial lump (`_replay_column`), are pure
functions of int tuples, kept for the life of the process in caches of at
most KERNEL_CACHE_SIZE entries; a later call on a shape only multiplies its
weights in. The caches hold no state objects, so every call still builds
its own. `tower_checks` proves the tower without listing a matrix state:
one right-to-left sweep over the grid columns (`_column_sweep`) keeps the
summed grid mass per reachable pair of partial lumps (of a grid and of its
body), which proves the matrix-to-tableau lumping for every grid and gives
each tableau's fiber mass, compared with the tableau law's int core
(`_tableau_mass`). The word walk (`_overwrites`) writes the successor as it
goes and yields each move as (successor word, probability), the pair
`build_matrix` takes. A word step
reads w only past its first letter, and a tableau or matrix step keeps only
a body of its state, so each builder builds the row of each distinct w_2 ..
w_n or body once. For exact weights the three steps multiply ints over the
ParamSet's scaling (Z_k = L z_k, L - Y_k = L (1 - y_k)), and each move is a
pair (num, den), den a power of L, which `build_matrix` sums into the
chain's integer form without making a Fraction. The word law multiplies the
same ints and keeps them as masses over L^(n(T-1)), as does the tableau
law's core; its public wrapper `tableau_stationary` makes one Fraction per
tableau, which no check reads. Float weights keep their float products.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import prod
from typing import NamedTuple, Sequence

from .chain import ChainMatrix, Distribution, LumpingMap, build_matrix, verify_lumping, \
    _denominator_of
from .combinatorics import KERNEL_CACHE_SIZE, ParamSet, Word, enumerate_alphabet_words, _j_table
from .errors import NotNormalized

MATRIX_STATE_CAP = 100_000


def _overwrites(w: Word, p: ParamSet):
    """Yield (successor word, probability) for every overwrite sequence B of
    w, lexicographically on the flattened pair list.

    The walk carries the successor's letters and the running product, as a
    numerator and a denominator, down the recursion. After a pair (b, t),
    the failure factors 1 - y_{J(b+1, s)} of the types s skipped before the
    next written type all come from row b+1 of the J table, so each node
    takes them once for every next site; a written type below T then adds
    z_{J(b', t')}. Over p's integer tables each factor is L - Y or Z over
    L, and a sequence yields the pair (num, den); for float weights the
    denominators stay 1 and a sequence yields its float product.
    """
    J, n, T, tables = _j_table(w), w.n, w.T, p.tables
    one, y, z = (tables.L, tables.Y, tables.Z) if tables else (1, p.y, p.z)

    def walk(head: tuple, last_b: int, last_t: int, num, den: int):
        # pre[t - last_t - 1]: the product times the failures of types last_t+1..t-1
        pre = [(num, den)]
        for s in range(last_t + 1, T):
            a, d = pre[-1]
            pre.append((a * (one - y[J[last_b + 1][s] - 1]), d * one))
        for b in range(last_b + 1, n + 1):
            body = head + w.letters[last_b : b - 1]
            for t in range(last_t + 1, w.letters[b - 1]):
                a, d = pre[t - last_t - 1]
                yield from walk(body + (t,), b, t, a * z[J[b][t] - 1], d * one)
        # site n+1 takes any later type; J(n+1, t) = 1 and T costs no z factor
        body = head + w.letters[last_b:]
        for t in range(last_t + 1, T):
            a, d = pre[t - last_t - 1]
            yield Word._make((body + (t,), T)), (a * z[0], d * one)
        yield Word._make((body + (T,), T)), pre[-1]

    if tables:
        return walk((), 1, 0, 1, 1)
    return ((w2, num) for w2, (num, _) in walk((), 1, 0, z[0] ** 0, 1))


def build_word_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("overwriting model needs z summing to 1")
    p.require_arity(n)
    return build_matrix(enumerate_alphabet_words(n, T), lambda w: _overwrites(w, p),
                        key=lambda w: w.letters[1:])


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
    """
    out: list[tuple[int, ...]] = []
    caps = mins + (0,)

    def rec(h: int, col_floor: int, acc: list[int]):
        if h > length:
            out.append(tuple(acc))
            return
        acc.append(0)
        rec(h + 1, col_floor, acc)
        acc.pop()
        for val in range(col_floor + 1, caps[h - 1] or T):
            acc.append(val)
            rec(h + 1, val, acc)
            acc.pop()

    rec(1, 0, [])
    return tuple(out)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _free_counts(col: tuple, mins: tuple, T: int) -> tuple:
    """(free, present) for each type i = 1..T-1: the number of free heights
    of i (_free_heights) in `col`, left of columns of profile `mins`, and
    whether i sits in col."""
    return tuple((len(_free_heights((col, mins), 1, i)), i in col) for i in range(1, T))


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


def _factors(p: ParamSet) -> tuple:
    """(one, (z, fail)) for `_column_factor`: z[f] = z_{f+1} and fail[f] =
    1 - y_f for f = 0..n+1 (y_0 = 0), p's values; over p's integer tables
    Z_{f+1} and L - Y_f, each a factor over L, and one = 1."""
    if t := p.tables:
        return 1, (t.Z, tuple(t.L - y for y in (0,) + t.Y))
    return p.z[0] ** 0, (p.z, tuple(1 - p.y_at(f) for f in range(len(p.y) + 1)))


def _column_factor(acc, col: tuple, mins: tuple, T: int, factors: tuple):
    """acc times the T - 1 factors of the stationary product of column `col`,
    left of columns of profile `mins`, type 1 first: with f the free heights
    of col for type i, z_{1+f} when i sits in col, 1 - y_f when it is absent;
    `factors` is _factors(p)[1]."""
    z, fail = factors
    for free, present in _free_counts(col, mins, T):
        acc = acc * (z[free] if present else fail[free])
    return acc


def _tableau_mass(columns: tuple, T: int, acc, factors: tuple):
    """acc times the column factors of a tableau's columns, column 1 first;
    (acc, factors) = _factors(p) gives its stationary mass, over p's integer
    tables an int over L^(n(T-1))."""
    # profiles[j]: the profile of the last j columns
    profiles = [()]
    for col in reversed(columns[1:]):
        profiles.append(_extend(col, profiles[-1]))
    for col, mins in zip(columns, reversed(profiles)):
        acc = _column_factor(acc, col, mins, T, factors)
    return acc


def tableau_stationary(V: Tableau, p: ParamSet):
    """Stationary mass, already normalized: `_tableau_mass`, over p's
    integer tables one Fraction over L^(n(T-1))."""
    if not p.normalized:
        raise NotNormalized("tableau chain needs z summing to 1")
    p.require_arity(V.n)
    mass = _tableau_mass(V.columns, V.T, *_factors(p))
    return Fraction(mass, p.tables.L ** (V.n * (V.T - 1))) if p.tables else mass


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


def build_tableau_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    """The tableau chain. A row depends only on the shifted body, so each
    distinct body's successors and their factors are built once."""
    if not p.normalized:
        raise NotNormalized("tableau chain needs z summing to 1")
    p.require_arity(n)
    states = enumerate_tableaux(n, T)
    tables = p.tables
    one, factors = _factors(p)
    # over the integer tables a column's T - 1 factors are over L^(T-1)
    den = tables and tables.L ** (T - 1)

    def successors(V: Tableau):
        # the step draws W's fresh first column with the law's column-1 factors
        mins = _profile(_shifted_body(V))
        for W in tableau_successors(V):
            f = _column_factor(one, W.columns[0], mins, T, factors)
            yield W, (f, den) if tables else f

    return build_matrix(states, successors, key=_shifted_body)


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
    any order; p is checked by the caller. Over p's integer tables the
    masses are ints over the scale L^(n(T-1)), with no Fraction."""
    one, factors = _factors(p)
    zero = one * 0
    masses = {(): one}
    for k in range(n, 0, -1):
        swept: dict = {}
        for prof, mass in masses.items():
            for col in _column_fillings(n + 1 - k, T, prof):
                key = _extend(col, prof)
                swept[key] = swept.get(key, zero) + _column_factor(mass, col, prof, T, factors)
        masses = swept
    words = {tuple(x or T for x in prof): m for prof, m in masses.items()}
    return Distribution(states, [words.get(w.letters, zero) for w in states],
                        p.tables and p.tables.L ** (n * (T - 1)))


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
    """Product of one z per cell; already normalized over the full grid.
    Over p's integer tables one Fraction, the product of the cells' Z over
    L^(cells); float weights multiply cell by cell."""
    grid = M.grid
    n = len(grid[0]) if grid else 0
    _check_matrix(M, n, len(grid) + 1)
    p.require_arity(n)
    if t := p.tables:
        Z = t.Z
        return Fraction(prod([Z[x - 1] for row in grid for x in row]), t.L ** (n * len(grid)))
    acc = p.z[0] ** 0
    for row in grid:
        for x in row:
            acc = acc * p.z[x - 1]
    return acc


def _grid_columns(n: int, T: int, z: Sequence, one) -> list:
    """(column, one times the product of its cells' z) for every grid
    column, in lexicographic order; z is p.z, or p's Z table with one = 1."""
    columns = []
    for col in product(range(1, n + 2), repeat=T - 1):
        prob = one
        for x in col:
            prob = prob * z[x - 1]
        columns.append((col, prob))
    return columns


def _matrix_body(M: MatrixState) -> tuple:
    """What a step keeps of M: the grid without its last column."""
    return tuple(row[:-1] for row in M.grid)


def build_matrix_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    """The matrix chain; each distinct body's row is built once."""
    if not p.normalized:
        raise NotNormalized("matrix chain needs z summing to 1")
    p.require_arity(n)
    states = enumerate_matrix_states(n, T)
    # the fresh column's law is the same from every state; over the integer
    # tables a column's T - 1 cells are over L^(T-1)
    tables = p.tables
    if tables:
        den = tables.L ** (T - 1)
        columns = [(col, (num, den)) for col, num in _grid_columns(n, T, tables.Z, 1)]
    else:
        columns = _grid_columns(n, T, p.z, p.z[0] ** 0)

    def successors(M: MatrixState):
        # shift every row right, dropping the last column, and prepend the
        # fresh column of juggler choices
        body = _matrix_body(M)
        for newcol, prob in columns:
            yield MatrixState(tuple((c,) + row for c, row in zip(newcol, body))), prob

    return build_matrix(states, successors, key=_matrix_body)


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
    columns = _grid_columns(n, T, Z, 1)
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
    factors = _factors(p)[1]
    fiber = next((V for V in Pt.states
                  if fibers[V.columns] != _tableau_mass(V.columns, T, 1, factors)), None)
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
