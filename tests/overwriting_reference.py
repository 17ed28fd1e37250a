"""The overwriting tower's rules as they were written before the word chain
walked its overwrite sequences once per word, one free-cell rule served
the tableau rules and the word law became a sweep over tableau columns,
kept as the reference the module is tested against.

The word rule lists every overwrite sequence B of a word, then validates B
again to apply it and to price it, with J recomputed for every factor. Each
tableau rule scans the tableau cell by cell: the row block, the column block
and the shift check are spelled out separately. Every row is accumulated
from the per-choice step probability. The word law lists every tableau and
adds its mass to the word it lumps to. The fiber law `matrix_fiber_law` is
the Fraction column sweep `verify` ran before `overwriting.tower_checks`
took the fiber identity into its sweep over pairs of partial lumps. The
per-move walk `overwrites` is the word walk as it priced each move while it
walked, before the builder kept only the shape of its moves and the one
evaluator of chain.py took over the weights.
"""

from __future__ import annotations

from itertools import product

from jugglemc import overwriting
from jugglemc.chain import Distribution
from jugglemc.combinatorics import ParamSet, Word, enumerate_alphabet_words, _j_table
from jugglemc.errors import NotNormalized
from jugglemc.overwriting import (
    MatrixState,
    Tableau,
    _check_matrix,
    _replay_column,
    enumerate_matrix_states,
    enumerate_tableaux,
    tableau_successors,
)

from cascade_reference import stat_J


def cell(V: Tableau, k: int, h: int) -> int:
    """Entry at column k, height h from the bottom; 0 if empty."""
    return V.columns[k - 1][h - 1]


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


def overwrites(w: Word, p: ParamSet):
    """Yield (successor word, probability) for every overwrite sequence B of
    w, lexicographically, as the word builder walked them before it kept
    only the shape: the walk carries the successor's letters and the
    running product, as a numerator and a denominator, down the recursion.
    Over p's integer tables each factor is L - Y or Z over L, and a sequence
    yields the pair (num, den); for float weights it yields its float
    product, the failures of the skipped types first, in type order, then
    z."""
    J, n, T, tables = _j_table(w), w.n, w.T, p.tables
    one, y, z = (tables.L, tables.Y, tables.Z) if p.exact else (1, p.y, p.z)

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

    if p.exact:
        return walk((), 1, 0, 1, 1)
    return ((w2, num) for w2, (num, _) in walk((), 1, 0, z[0] ** 0, 1))


def _row_blocked(V: Tableau, h: int, i: int, from_col: int) -> bool:
    # an entry <= i at height h in columns from_col..end
    for k in range(from_col, V.n + 2 - h):
        x = cell(V, k, h)
        if 0 < x <= i:
            return True
    return False


def tableau_contribution(V: Tableau, i: int, k: int, p: ParamSet):
    """z indexed by the free cells above entry i in column k when present,
    one minus a y indexed by the free cells of the whole column when absent."""
    if not 1 <= i <= V.T - 1:
        raise ValueError(f"type {i} outside 1..{V.T - 1}")
    if not 1 <= k <= V.n:
        raise ValueError(f"column {k} outside 1..{V.n}")
    length = V.n + 1 - k
    heights = [h for h in range(1, length + 1) if cell(V, k, h) == i]
    if heights:
        h0 = heights[0]
        count = sum(
            1 for h in range(h0 + 1, length + 1) if not _row_blocked(V, h, i, k + 1)
        )
        return p.z_at(1 + count)
    count = 0
    for h in range(1, length + 1):
        if 0 < cell(V, k, h) <= i:
            continue
        if _row_blocked(V, h, i, k + 1):
            continue
        if any(0 < cell(V, k, h2) <= i for h2 in range(h + 1, length + 1)):
            continue
        count += 1
    return 1 - p.y_at(count)


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


def lump_tableau(V: Tableau) -> Word:
    """Letter k is the leftmost entry of the row at height k, or T."""
    n = V.n
    letters = []
    for k in range(1, n + 1):
        letter = V.T
        for k2 in range(1, n + 2 - k):
            x = cell(V, k2, k)
            if x:
                letter = x
                break
        letters.append(letter)
    return Word(tuple(letters), V.T)


def word_law(n: int, T: int, p: ParamSet) -> Distribution:
    """All word masses by one pass over the tableaux: each tableau's mass
    goes to the word it lumps to."""
    if not p.normalized:
        raise NotNormalized("overwriting model needs z summing to 1")
    p.require_arity(n)
    states = enumerate_alphabet_words(n, T)
    index = {w: i for i, w in enumerate(states)}
    weights = [p.z_at(1) * 0] * len(states)
    for V in enumerate_tableaux(n, T):
        i = index[overwriting.lump_tableau(V)]
        weights[i] = weights[i] + overwriting.tableau_stationary(V, p)
    return Distribution(states, weights)


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


def lump_matrix(M: MatrixState) -> Tableau:
    """Column k gets the entries whose recorded position fits among the
    cells still free."""
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


def _rows(states, moves) -> list[dict]:
    """Rows as build_matrix accumulates them, with the zero entries that
    ChainMatrix drops left out."""
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for s in states:
        row: dict = {}
        for succ, prob in moves(s):
            j = index[succ]
            row[j] = row[j] + prob if j in row else prob
        rows.append({j: v for j, v in row.items() if v != 0})
    return rows


def word_rows(n: int, T: int, p: ParamSet) -> list[dict]:
    return _rows(enumerate_alphabet_words(n, T), lambda w: (
        (apply_overwrite(w, B), overwrite_prob(w, B, p)) for B in overwrite_sequences(w)
    ))


def tableau_rows(n: int, T: int, p: ParamSet) -> list[dict]:
    return _rows(enumerate_tableaux(n, T), lambda V: (
        (W, tableau_step_prob(V, W, p)) for W in tableau_successors(V)
    ))


def matrix_rows(n: int, T: int, p: ParamSet) -> list[dict]:
    def moves(M: MatrixState):
        for newcol in product(range(1, n + 2), repeat=T - 1):
            prob = p.z_at(1) ** 0
            for x in newcol:
                prob = prob * p.z_at(x)
            yield matrix_step(M, newcol), prob

    return _rows(enumerate_matrix_states(n, T), moves)


def matrix_fiber_law(states, n: int, T: int, p: ParamSet) -> Distribution:
    """The summed matrix masses over each tableau's fiber, on `states`, all
    tableaux of (n, T) in any order, by one sweep over the grid columns right
    to left that keeps the summed mass per partial lump: columns k..n of a
    lump depend on grid columns k..n only through the lump's columns k+1..n
    and grid column k, and a grid's mass is the product of its columns' z
    products."""
    one, zero = p.z_at(1) ** 0, p.z_at(1) * 0
    columns = []
    for col in product(range(1, n + 2), repeat=T - 1):
        prob = one
        for x in col:
            prob = prob * p.z_at(x)
        columns.append((col, prob))
    masses = {(): one}
    for _ in range(n):
        swept: dict = {}
        for right, mass in masses.items():
            for col, prob in columns:
                key = _replay_column(right, col)
                swept[key] = swept.get(key, zero) + mass * prob
        masses = swept
    return Distribution(states, tuple(masses.get(V.columns, zero) for V in states))
