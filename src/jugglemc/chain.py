"""Generic finite-Markov-chain machinery.

Matrices are stored sparsely (one dict per row, successor index -> probability)
with a fixed state order, so model matrices are reproducible entry for entry.
The exact stationary solver refuses chains whose nonzero pattern is not
strongly connected (`ChainMatrix.levels`, two breadth-first sweeps made once
per chain and read by `is_irreducible` and `chain_period` too). It first
lumps the states whose rows are equal, level after level, which is exact:
equal rows make a lumpable partition, and one step of P from the lumped
chain's law gives back P's. It eliminates the innermost chain's balance
equations modulo a large prime, reads its law off by rational
reconstruction, lifts it back to P's states and returns it, as int masses
over their sum, only once the one-step certificate proves it on P;
otherwise it retries with the next prime of an unbounded ladder. The solver,
row powers, lumping checks and the certificate all run on the integer matrix
D·P, D the lcm of the entry denominators, and every exact chain holds only
that form: the evaluator below and the juggler walk hand it over as ints,
and exact values (ints and Fractions) are scaled to ints row by row when
the chain is made. Its Fraction rows are made when first read, and
nothing here reads them: `_state_rows` hands the command line D·P
to print. A float chain holds its values and has no D·P. A law (`Distribution`) has
the same two forms, float weights or int masses over one scale; exact
weights are scaled to ints once, when the law is made, so every exact law
returned or certified here is read as ints. The D·P readers share two
kernels: `_lumped` groups rows by their sums over a partition of the
columns (the solver's levels, each row power, the class sums of
`verify_lumping`), and `_push` adds one step of masses through rows (the
solver's lift, the certificate, power iteration, each row-power vector).
A row object that several states hold (as the evaluator and the juggler
walk hand out) is checked, scaled to integers, lumped, stepped by the
certificate and turned into floats once, not once per state.

Every weighted model chain is built in two halves. Its `Skeleton`, walked
once per shape and kept by the models (`combinatorics._shape_cached`),
holds per row each move's successor index and pattern, the (top, bottom)
slots of its factors in product order, and the heads the model's lead
prices per row. `_evaluate` reads the weights: each pattern's product over
the model's two factor tables once per build, as an int over D, the lcm of
the pattern denominators (for float weights the running product in slot
order), each head's numerator over its row denominator once per row
(divided there for float weights, the one division of a head), and one
product per move.

A trajectory step from state i takes successor succ[bisect_left(cum, u *
total)] of i's row, u the next random() of `random.Random(seed)`. `simulate`
draws the same u without calling random(): random() reads two 32-bit words
a, b of the generator and returns ((a >> 5)·2^26 + (b >> 6)) / 2^53, and
getrandbits(64·k) hands over the next 2k words, lowest first, so one call
per chunk of k = _CHUNK steps yields the same pairs and the stream goes on
unchanged. The top byte of a is the top 8 bits of the 53-bit draw, its
bucket. A row's guide (Chen and Asau, 1974) maps each of the 256 buckets to
the successor that every draw in it steps to, found exactly from the least
draw past each running sum, or to -1 where the bucket straddles one; a
step is one lookup guides[i][a >> 24], and -1 falls back to the bisect on u
rebuilt from a and b. Guides are built for a row when the walk first needs
one, up to _GUIDE_BUDGET rows per call; rows past it keep the bisect.
Trajectories, and so every empirical law, are the ones random() would give.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import defaultdict, deque
from fractions import Fraction
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, islice, repeat
from math import gcd, isqrt, lcm, prod
from operator import add
from struct import Struct
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .combinatorics import FLOAT_TOL, _scaled, is_exact
from .errors import DegenerateParams, ReducibleChain, RowSumError, UnknownSuccessor

_mpq = None  # read by perfbench/run.py's report until ROADMAP item 1 drops it


def _fold(values):
    """values added left to right from 0. Builtin sum adds floats with
    compensation since Python 3.12, so a float sum that sets printed bits is
    folded here to give the same bits on every Python."""
    return reduce(add, values, 0)


class ChainMatrix:
    """An enumerated finite Markov chain with a row-stochastic matrix.

    `ChainMatrix(states, rows, denominators)` takes row i as ints over
    denominators[i], summing to it, as the evaluator and the juggler walk
    hand over their rows. `ChainMatrix(states, rows)` takes each row as
    values: with no float anywhere, each row is scaled to ints over the lcm
    of its denominators and held the same way; with a float, the chain is a
    float chain and holds its values. An exact chain holds only the integer form
    D·P, D reduced to the lcm of the entries' denominators in lowest terms,
    and makes its Fraction rows (`rows`) only when they are first read. A row
    object held by several states is checked, scaled and stored once:
    _row_of[i] indexes state i's row among the distinct rows.
    """

    def __init__(self, states: Sequence, rows: Sequence[Mapping[int, object]],
                 denominators: Optional[Sequence[int]] = None):
        self.states = tuple(states)
        if len(rows) != len(self.states) or (denominators is not None
                                             and len(denominators) != len(rows)):
            raise ValueError("one row per state required")
        self.index = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValueError("duplicate states")
        exact = self.exact = denominators is not None or not any(
            isinstance(v, float) for row in rows for v in row.values())
        size = len(self.states)
        first_use: dict[int, int] = {}
        distinct: list[dict] = []
        # an exact chain's distinct rows as ints, with each one's gcd g and
        # reduced denominator d / g
        reduced: list[tuple[int, int]] = []
        row_of: list[int] = []
        for i, (row, d) in enumerate(zip(rows, denominators or repeat(None))):
            at = first_use.get(id(row))
            if at is None:
                at = first_use[id(row)] = len(distinct)
                if not exact:
                    row = _checked_row(i, row, size)
                if exact or not any(isinstance(v, float) for v in row.values()):
                    # ints over d, or exact values scaled to ints over their lcm;
                    # a float chain keeps an exact row as values
                    ints, d = (row, d) if d is not None else _scaled_row(i, row, size)
                    values = ints.values()
                    least = min(values, default=0)
                    if least < 0 or min(ints, default=0) < 0 or max(ints, default=0) >= size:
                        _checked_row(i, ints, size)  # raises the first bad entry's error
                    if (total := sum(values)) != d:
                        raise RowSumError(
                            f"row {i} ({self.states[i]}) sums to {Fraction(total, d)}")
                    if exact:
                        row = ints if least else {j: v for j, v in ints.items() if v}
                        g = gcd(*values)
                        reduced.append((g, d // g))
                else:
                    total = _fold(row.values())
                    if not abs(total - 1) <= FLOAT_TOL:
                        raise RowSumError(f"row {i} ({self.states[i]}) sums to {total}")
                distinct.append(row)
            row_of.append(at)
        self._row_of = row_of
        if exact:
            # D is the lcm of the reduced row denominators: the lcm of every
            # entry's denominator in lowest terms
            D = self._denominator = lcm(*(e for _, e in reduced))
            self._integer_rows = [row if g == 1 and e == D else
                                  {j: v // g * (D // e) for j, v in row.items()}
                                  for row, (g, e) in zip(distinct, reduced)]
        else:
            self._distinct = tuple(distinct)

    @cached_property
    def rows(self) -> tuple:
        """One dict per state, successor index -> probability, nonzero
        entries only; an exact chain makes them on first read."""
        return tuple(self._distinct[at] for at in self._row_of)

    @cached_property
    def _distinct(self) -> tuple:
        """The distinct rows as values; an exact chain makes them on first
        read, one Fraction per entry of D·P over D, in D·P's key order."""
        D = self._denominator
        return tuple({j: Fraction(v, D) for j, v in row.items()} for row in self._integer_rows)

    @cached_property
    def levels(self) -> Optional[list[int]]:
        """The breadth-first distance of each state from state 0, or None
        when the nonzero pattern is not strongly connected, that is when a
        sweep from state 0 forward or backward misses a state; computed on
        first use and kept."""
        rows = _state_rows(self)[0]
        if not rows or -1 in (level := _levels(rows)):
            return None
        back: list[list[int]] = [[] for _ in rows]
        for i, row in enumerate(rows):
            for j in row:
                back[j].append(i)
        return None if -1 in _levels(back) else level

    @property
    def size(self) -> int:
        return len(self.states)

    def dense(self) -> list[list]:
        n = self.size
        return [[self.rows[i].get(j, 0) for j in range(n)] for i in range(n)]

    def __eq__(self, other):
        if not isinstance(other, ChainMatrix):
            return NotImplemented
        return self.states == other.states and all(
            a == b for a, b in zip(self.rows, other.rows)
        )

    def __repr__(self):
        return f"ChainMatrix({self.size} states)"


def _scaled_row(i: int, row: Mapping[int, object], size: int) -> tuple[dict, int]:
    """Row i of exact values as (its ints over d, d), d the lcm of the
    entries' denominators, keys in row order; raises on the first bad entry
    as _checked_row does."""
    d, ints = _scaled(row.values())
    if min(row, default=0) < 0 or max(row, default=0) >= size or min(ints, default=0) < 0:
        _checked_row(i, row, size)
    return dict(zip(row, ints)), d


def _checked_row(i: int, row: Mapping[int, object], size: int) -> dict:
    """Row i without its zeros; raises on the first entry, in row order, whose
    index is outside 0..size-1 or whose value is negative."""
    r = {}
    for j, v in row.items():
        if not 0 <= j < size:
            raise UnknownSuccessor(f"row {i}: successor index {j}")
        if v < 0:
            raise RowSumError(f"row {i}: negative probability {v}")
        if v != 0:
            r[j] = v
    return r


class Distribution:
    """A law aligned with a chain's state order, in one of two forms: float
    weights, or int masses over one scale. `Distribution(states, masses,
    scale)` takes the masses as they are; `Distribution(states, weights)`
    keeps weights with a float among them, and scales exact ones (ints and
    Fractions) to ints over the lcm of their denominators once, here. An
    exact law's Fraction weights are made when first read."""

    def __init__(self, states: Sequence, weights: Sequence, scale: Optional[int] = None):
        self.states, weights = tuple(states), tuple(weights)
        if scale is None and all(map(is_exact, weights)):
            scale, weights = _scaled(weights)
        if scale is None:
            self.weights, self.masses = weights, None
        else:
            self.masses, self.scale = weights, scale
        if len(self.states) != len(weights):
            raise ValueError("one weight per state required")

    @cached_property
    def weights(self) -> tuple:
        return tuple(Fraction(a, self.scale) for a in self.masses)

    @property
    def total(self):
        return _fold(self.weights) if self.masses is None else Fraction(sum(self.masses), self.scale)

    def normalize(self) -> "Distribution":
        t = _fold(self.weights) if self.masses is None else sum(self.masses)
        if t == 0:
            raise ValueError("cannot normalize a zero distribution")
        if self.masses is None:
            return Distribution(self.states, tuple(w / t for w in self.weights))
        return Distribution(self.states, self.masses, t)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.states == other.states and self.weights == other.weights

    def __repr__(self):
        return f"Distribution({len(self.states)} states, total={self.total})"


class LumpingMap:
    """A total map from enriched state keys to base state keys."""

    def __init__(self, mapping: Mapping, base_states: Sequence):
        self.mapping = dict(mapping)
        self.base_states = tuple(base_states)
        missing = set(self.base_states) - set(self.mapping.values())
        if missing:
            raise ValueError(f"lumping map not surjective; misses {missing}")

    @classmethod
    def from_function(cls, fn: Callable, states: Iterable, base_states: Sequence):
        return cls({s: fn(s) for s in states}, base_states)


class Skeleton(NamedTuple):
    """The shape-only half of a weighted chain. Row r of `rows` is (its move
    set, the successor index of each move); move set m of `moves` is (the
    row datum, heads, head of each move, pattern of each move), in walk
    order, shared by the rows that have it. A head is a per-row factor the
    model's lead prices, as a numerator over the row's denominator (an
    insertion type and its z index); a pattern lists
    a move's factors in product order as (top, bottom) slot pairs, laid
    flat, into the two factor tables the model supplies. A row's successors
    are distinct."""
    states: tuple
    row_of: tuple  # each state's row
    rows: tuple
    moves: tuple
    patterns: tuple


def _skeleton(states, walk, key=None) -> Skeleton:
    """The skeleton of the chain on `states` whose moves from s are walk(s)
    = (datum, moves), each move (head, successor, slots). walk depends on s
    only through key(s), and each distinct key's row is walked once, from
    its first state; with no key each state has its own row."""
    index = {s: i for i, s in enumerate(states)}
    patterns: dict = {}
    move_sets: dict = {}
    shared: dict = {}  # move sets repeat heads and head indices: one object for each

    def one(t: tuple) -> tuple:
        return shared.setdefault(t, t)

    rows, row_of, by_key = [], [], {}
    for s in states:
        at = by_key.get(k := s if key is None else key(s))
        if at is None:
            datum, moves = walk(s)
            heads: dict = {}
            succs, at_head, at_pattern = zip(*[
                (index[s2], heads.setdefault(head, len(heads)),
                 patterns.setdefault(slots, len(patterns))) for head, s2, slots in moves])
            m = move_sets.setdefault((datum, one(tuple(heads)), one(at_head), at_pattern),
                                     len(move_sets))
            at = by_key[k] = len(rows)
            rows.append((m, succs))
        row_of.append(at)
    return Skeleton(tuple(states), tuple(row_of), tuple(rows), tuple(move_sets),
                    tuple(patterns))


def _pattern_values(patterns: tuple, tables: tuple, exact: bool) -> tuple:
    """(each pattern's product over tables = (top, bottom), D, {pattern: k +
    1} for the patterns with a bottom factor 0, k its first). Exact tables
    hold ints, and prod top / prod bottom is held as its int over D, the lcm
    of the denominators; for float weights it is the running product of top
    / bottom in slot order from top[0] ** 0, so an empty pattern is a float
    too, and D is None."""
    top, bottom = tables
    values, bad = [], {}
    for at, slots in enumerate(patterns):
        bottoms = slots[1::2]
        zero = next((k for k in bottoms if bottom[k] == 0), None)
        if zero is not None:
            bad[at] = zero + 1
            values.append((0, 1) if exact else 0)
        elif exact:
            values.append((prod(top[i] for i in slots[::2]), prod(bottom[k] for k in bottoms)))
        else:
            acc = top[0] ** 0
            for i, k in zip(slots[::2], bottoms):
                acc = acc * top[i] / bottom[k]
            values.append(acc)
    if not exact:
        return values, None, bad
    D = lcm(*(den for _, den in values))
    return [num * (D // den) for num, den in values], D, bad


def _evaluate(skel: Skeleton, p, tables: tuple, lead: Optional[Callable], what: str) -> list:
    """(den, probabilities) of each move set of skel at weights p, in order.
    lead(datum, heads) gives (d, the numerator of each head) over p's
    tables, on either backend; a head's factor, numerator / d, multiplies
    the pattern product of each of the head's moves, and with no lead a
    move is its pattern product. Over p's integer tables a probability is
    the numerator times the pattern's int, over den = d D (D from
    _pattern_values); for float weights each numerator is divided by d
    here, the one division of a head, and then multiplies the pattern's
    running product, and den is None. Rows first use the move sets in
    order, so the first bottom factor 0 in walk order raises, y_k = 0 for
    its slot k - 1, the error naming `what`."""
    values, D, bad = _pattern_values(skel.patterns, tables, p.exact)
    out = []
    for datum, heads, at_head, at_pattern in skel.moves:
        d, factors = (1, None) if lead is None else lead(datum, heads)
        if bad:
            first = next((bad[at] for at in at_pattern if at in bad), None)
            if first is not None:
                raise DegenerateParams(f"y_{first} = 0 in a {what}")
        if factors is not None and D is None:
            factors = [f / d for f in factors]
        probs = [values[at] for at in at_pattern] if factors is None else [
            factors[h] * values[at] for h, at in zip(at_head, at_pattern)]
        out.append((None if D is None else d * D, probs))
    return out


def _chain(skel: Skeleton, p, tables: tuple, lead: Optional[Callable], what: str) -> ChainMatrix:
    """The chain of skel at weights p (_evaluate): each distinct row is made
    once and handed to every state that shares it."""
    evaluated = _evaluate(skel, p, tables, lead, what)
    rows = [(evaluated[m][0], dict(zip(succs, evaluated[m][1]))) for m, succs in skel.rows]
    return ChainMatrix(skel.states, [rows[at][1] for at in skel.row_of],
                       [rows[at][0] for at in skel.row_of] if p.exact else None)


def _levels(adj: Sequence[Iterable[int]]) -> list[int]:
    """Breadth-first distance from state 0 along adj[u], -1 where unreached."""
    level = [-1] * len(adj)
    level[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _denominator_of(P: ChainMatrix) -> int:
    """D of P's integer form D·P, read by every D·P reader first: a float
    chain has no D·P and is refused here."""
    if not P.exact:
        raise ValueError("the integer form D·P needs exact probabilities")
    return P._denominator


def _state_rows(P: ChainMatrix) -> tuple[list[Mapping], Optional[int]]:
    """(each state's row, D): D·P's for an exact chain, the values and None for
    a float chain; the states that hold one row object share it."""
    distinct = P._integer_rows if P.exact else P._distinct
    return [distinct[at] for at in P._row_of], P._denominator if P.exact else None


def _require_irreducible(P: ChainMatrix) -> None:
    if P.levels is None:
        raise ReducibleChain("transition pattern is not strongly connected; "
                             "stationary distribution would not be unique")


def is_irreducible(P: ChainMatrix) -> bool:
    """True iff the nonzero pattern is strongly connected."""
    return P.levels is not None


def chain_period(P: ChainMatrix) -> int:
    """gcd of cycle lengths; 1 means aperiodic. Needs an irreducible chain."""
    level = P.levels
    if level is None:
        raise ReducibleChain("period is defined for irreducible chains only")
    g = 0
    for u, row in enumerate(_state_rows(P)[0]):
        for v in row:
            g = gcd(g, level[u] + 1 - level[v])
    return g


# exponents e with 2^e - 1 prime (each proven prime), from 127 up: the
# first moduli of the exact solver
_MERSENNE_EXPONENTS = (
    127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937,
    21701, 23209, 44497, 86243, 110503, 132049, 216091, 756839, 859433, 1257787,
    1398269, 2976221, 3021377, 6972593, 13466917, 20996011, 24036583, 25964951,
    30402457, 32582657, 37156667, 42643801, 43112609, 57885161, 74207281,
    77232917, 82589933, 136279841,
)


def _proth_prime(bits: int) -> Optional[int]:
    """The least prime p = k·2^bits + 1 with k odd, k < 2^bits and p = 2 mod
    3, or None; bits >= 2. Such a p is 1 mod 4, so 3 is a quadratic
    non-residue whenever p is prime, and by Proth's theorem p is prime iff
    3^((p-1)/2) = -1 (mod p)."""
    for k in range(1, 1 << bits, 2):
        p = (k << bits) + 1
        if p % 3 == 2 and pow(3, p >> 1, p) == p - 1:
            return p
    return None


def _prime_ladder():
    """The moduli of the exact solver, without end: the Mersenne primes
    2^e - 1 for e in _MERSENNE_EXPONENTS, then a Proth prime for each
    doubling of the bits."""
    for e in _MERSENNE_EXPONENTS:
        yield (1 << e) - 1
    bits = _MERSENNE_EXPONENTS[-1]
    while True:
        bits *= 2
        p = _proth_prime(bits)
        if p is not None:
            yield p


def _rational(u: int, p: int, bound: int) -> Optional[tuple[int, int]]:
    """(a, b) with a = b·u (mod p), |a| <= bound and 0 < b <= bound, a and b
    coprime, or None; rational reconstruction (P. S. Wang, 1981) by the
    extended Euclidean algorithm, unique when 2·bound^2 < p."""
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _solve_modulo(rows: Sequence[Mapping[int, int]], D: int, p: int) -> Optional[list[int]]:
    """A candidate stationary law, as positive ints, of the chain whose
    integer rows (one per state, each summing to D) are `rows`, from its
    balance equations eliminated modulo the prime p; or None when p is
    unlucky or too small for the answer: fewer than n - 1 pivots, a mass
    that is not positive, or a value that no small fraction fits.

    Equation j reads sum_i x_i rows[i][j] - D x_j = 0. Each pivot is the
    variable in the fewest live equations (the lowest on ties), popped from
    a heap in which every column the pivot row touches gets a fresh key,
    and its row is the shortest of those equations, scaled to a leading 1,
    so an update touches only the pivot row's entries. An update stores
    and adds its products unreduced; an entry is reduced mod p only when it
    is read, as a row's factor or in its pivot row. So an entry that
    cancels to 0 mod p stays in its equation: a factor of 0 skips its row,
    a pivot row drops its zero entries, and a pivot entry of 0 drops its
    row from the column, and the next shortest row is tried. The one
    variable left without a pivot is set to 1. Back-substitution runs mod
    p, and the fractions are read off by rational reconstruction of x_i
    times a running common denominator, which keeps most of them integers.
    """
    n = len(rows)
    if D >= p:
        rows = [{j: v % p for j, v in row.items()} for row in rows]
    equations: list[dict] = [{j: -D % p} for j in range(n)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            equations[j][i] = (v - D) % p if i == j else v
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for r, eq in enumerate(equations):
        for v, c in list(eq.items()):
            if c:
                col_rows[v].add(r)
            else:
                del eq[v]
    heap = [(len(rows), v) for v, rows in enumerate(col_rows)]
    heapify(heap)
    order: list[tuple[int, dict]] = []
    while heap:
        count, pv = heappop(heap)
        live = col_rows[pv]
        if count != len(live) or not count:
            continue  # a stale key, or a column with no live equation
        while live:
            pr = min(live, key=lambda r: len(equations[r]))
            peq = equations[pr]
            lead = peq.pop(pv) % p
            if lead:
                break
            live.discard(pr)  # the entry cancelled: pv is not in this row
        else:
            continue
        inv = pow(lead, -1, p)
        pivot_row = {}
        for v, c in peq.items():
            col_rows[v].discard(pr)
            if c := c * inv % p:
                pivot_row[v] = c
        for r in live:
            if r == pr:
                continue
            eq = equations[r]
            factor = -eq.pop(pv) % p
            if not factor:
                continue
            for v, c in pivot_row.items():
                if v in eq:
                    eq[v] += factor * c
                else:
                    eq[v] = factor * c
                    col_rows[v].add(r)
        live.clear()
        for v in peq:
            if col_rows[v]:
                heappush(heap, (len(col_rows[v]), v))
        order.append((pv, pivot_row))
    if len(order) != n - 1:
        return None
    x = [None] * n
    x[({*range(n)} - {pv for pv, _ in order}).pop()] = 1
    for pv, pivot_row in reversed(order):
        x[pv] = -sum(c * x[v] for v, c in pivot_row.items()) % p
    # x_i = a_i / d_i, d_i the common denominator when x_i is read
    bound = isqrt(p >> 1)
    d = 1
    read: list[tuple[int, int]] = []
    for xv in x:
        a = xv * d % p
        if a > bound:
            ab = _rational(a, p, bound)
            if ab is None:
                return None
            a, b = ab
            d *= b
        read.append((a, d))
    masses = [a * (d // di) for a, di in read]
    return masses if min(masses) > 0 else None


def _lumped(rows: Iterable[Mapping[int, int]], cls: Optional[Sequence[int]] = None
            ) -> tuple[list[int], list[Mapping[int, int]]]:
    """Group `rows` by their sums over the column classes cls, cls[j] the
    class of column j, or by the rows themselves when cls is None; returns
    (of, sums): of[i] is the group of rows[i], numbered in order of first
    row, and sums[g] group g's summed row, keyed by class, as its first row
    gives it. With cls None, sums holds the given row objects."""
    groups: dict = {}
    of: list[int] = []
    sums: list = []
    for row in rows:
        if cls is not None:
            summed: dict = {}
            for j, v in row.items():
                summed[cls[j]] = summed.get(cls[j], 0) + v
            row = summed
        g = groups.setdefault(frozenset(row.items()), len(groups))
        if g == len(sums):
            sums.append(row)
        of.append(g)
    return of, sums


def _push(masses: Iterable, rows: Iterable[Mapping], out):
    """out after one step of `masses` through `rows`: out[j] += m·row[j]
    for each mass m and its row, zero masses skipped."""
    for m, row in zip(masses, rows):
        if m:
            for j, v in row.items():
                out[j] += m * v
    return out


def _lumpings(P: ChainMatrix) -> tuple[list, list[dict]]:
    """Lump D·P by its equal rows, level after level, until its rows are
    all distinct; returns (levels, rows).

    levels holds one (cls, reps) per lumping, outermost first: cls[i] is
    the class of state i of that level, and reps[c] the integer row (over
    that level's states) that every state of class c holds. rows are the
    integer rows of the innermost chain, one per state. The classes of a
    level are the states of the next, and their rows are reps summed over
    cls, so every level's rows sum to D. Level 0 groups P's distinct row
    objects as they are, so a row shared by several states is read once.
    """
    of, reps = _lumped(P._integer_rows)
    cls = [of[at] for at in P._row_of]
    levels = []
    # once the rows are distinct, cls is the identity
    while len(reps) < len(cls):
        levels.append((cls, reps))
        cls, reps = _lumped(reps, cls)
    return levels, reps


def stationary_exact(P: ChainMatrix) -> Distribution:
    """The unique normalized solution of pi P = pi, int masses over their sum.

    Refuses float and reducible chains. States whose rows are equal are
    lumped together (_lumpings), and lumped again while the lumped chain
    has equal rows. Each rung of _prime_ladder gives a candidate law of the
    innermost chain by _solve_modulo (a one-state chain's law is (1), with
    no elimination); it is lifted back to P's states, and the first lifted
    candidate that first_unbalanced finds balanced on P is returned over
    its sum: on an irreducible chain a balanced law with a positive mass
    is the stationary law up to a positive scale.

    The lumping is exact. Equal rows make a partition whose states move to
    each class with the same probability, so it is lumpable (Kemeny and
    Snell, Finite Markov Chains, 1960, section 6.3): the lumped chain is
    irreducible when P is, its law m gives each class the mass of its
    states, and one step of P from those masses gives back P's law,
    pi_j = sum_c m_c R_c(j) with R_c class c's shared row.

    Any prime rung above 2·D^(2k-2), k the size of the innermost chain,
    returns the law. By the Markov chain tree theorem its law is
    proportional to integers t_i with 0 < t_i <= D^(k-1), the sums over
    spanning trees of products of its integer entries, whose rows sum to
    D, and each (k-1)-by-(k-1) minor of the balance equations is some
    ±t_i. So modulo such a prime the equations keep rank k - 1, the
    variable left free has t_free != 0, and every ratio t_i / t_free fits
    the reconstruction.
    """
    D = _denominator_of(P)
    _require_irreducible(P)
    levels, rows = _lumpings(P)
    candidates = ((_solve_modulo(rows, D, p) for p in _prime_ladder()) if len(rows) > 1
                  else ([1],))
    for masses in candidates:
        if masses is None:
            continue
        for cls, reps in reversed(levels):
            masses = _push(masses, reps, [0] * len(cls))
        law = Distribution(P.states, masses, sum(masses))
        if first_unbalanced(P, law) is None:
            return law


def stationary_power(P: ChainMatrix, tol: float = 1e-13, max_iter: int = 100000) -> Distribution:
    """Float-backend cross-check: power iteration until the step moves < tol.
    Refuses reducible chains; raises ValueError if max_iter steps do not converge."""
    _require_irreducible(P)
    n = P.size
    vec = [1.0 / n] * n
    floats = _float_rows(P)
    rows = [floats[at] for at in P._row_of]
    delta = float("inf")
    for _ in range(max_iter):
        nxt = _push(vec, rows, [0.0] * n)
        delta = _fold(abs(a - b) for a, b in zip(vec, nxt)) / 2
        vec = nxt
        if delta < tol:
            return Distribution(P.states, tuple(vec))
    raise ValueError(f"power iteration did not converge in {max_iter} iterations "
                     f"(final delta {delta:.3g}, tol {tol:g})")


def first_unbalanced(P: ChainMatrix, masses: Distribution):
    """The first state, in P's order, whose inflow under one exact step
    differs from its mass, or None; for an irreducible P, None proves the
    masses proportional to the unique stationary law. With a their int
    masses, state j balances iff sum_i a_i (D·P)_ij = D a_j."""
    if masses.states != P.states:
        raise ValueError("masses not aligned with the chain")
    if masses.masses is None:
        raise ValueError("a stationarity certificate needs exact masses")
    scaled = masses.masses
    D = _denominator_of(P)
    # the states holding one row object step together, with their summed mass
    mass = [0] * len(P._integer_rows)
    for a, at in zip(scaled, P._row_of):
        mass[at] += a
    inflow = _push(mass, P._integer_rows, [0] * P.size)
    return next((s for s, a, x in zip(P.states, scaled, inflow) if x != D * a), None)


def verify_lumping(Pt: ChainMatrix, f: LumpingMap, P: ChainMatrix):
    """Check sum_{y in class b} Pt[x][y] = P[f(x)][b] for all x, b.

    Returns (True, None) or (False, counterexample) where the counterexample
    is (enriched state, base state, class sum, expected entry), each of the
    two a Fraction, or 0 off its row. Exact chains only: the class sums of
    D·Pt are cross-multiplied with the entries of D·P, once per pair of a
    group of Pt's rows with equal class sums and the distinct row of P it
    must lump to.
    """
    for s in Pt.states:
        if s not in f.mapping:
            raise ValueError(f"lumping map undefined on {s}")
    if tuple(f.base_states) != P.states:
        raise ValueError("lumping map targets a different base state order")
    base_of = [P.index.get(f.mapping[s]) for s in Pt.states]
    if None in base_of:
        s = Pt.states[base_of.index(None)]
        raise ValueError(f"lumping map sends {s} to {f.mapping[s]}, not a base state")
    Dt, D = _denominator_of(Pt), _denominator_of(P)
    of, class_sums = _lumped(Pt._integer_rows, base_of)
    base_rows, base_row_of = P._integer_rows, P._row_of
    # the check reads x only through its pair of (class sums, base row), so
    # a pair already checked passed; the first failing x is found all the same
    checked = set()
    for x, at in enumerate(Pt._row_of):
        pair = (of[at], base_row_of[base_of[x]])
        if pair in checked:
            continue
        checked.add(pair)
        sums, brow = class_sums[pair[0]], base_rows[pair[1]]
        for b in set(sums) | set(brow):
            if sums.get(b, 0) * D != brow.get(b, 0) * Dt:
                got = Fraction(sums[b], Dt) if b in sums else 0
                want = Fraction(brow[b], D) if b in brow else 0
                return False, (Pt.states[x], P.states[b], got, want)
    return True, None


def _power_ladder(P: ChainMatrix):
    """Yield (cls, vecs) for k = 0, 1, 2, ...; row i of (D·P)^k is vecs[cls[i]],
    D = P._denominator, a dict of its nonzero entries.

    Row i of (D·P)^k is sum_c (sum of (D·P)_ij over j in class c of level
    k-1) * vec_c, lumped once per distinct row of P and built once per
    distinct lumped row; equal rows share a class. P has no negative entry, so
    no sum cancels and the rows hold no zeros.
    """
    rows = P._integer_rows
    cls = list(range(P.size))
    vecs = [{i: 1} for i in range(P.size)]
    while True:
        yield cls, vecs
        of, lumped = _lumped(rows, cls)
        at, vecs = _lumped([_push(row.values(), map(vecs.__getitem__, row), defaultdict(int))
                            for row in lumped])
        cls = [at[of[r]] for r in P._row_of]


def ultrafast_check(P: ChainMatrix, m: int):
    """True iff all rows of P^m coincide; returns (flag, common row of
    (D·P)^m as int masses over D^m, or None)."""
    if m < 0:
        raise ValueError(f"matrix power {m} is negative")
    scale = _denominator_of(P) ** m
    _, vecs = next(islice(_power_ladder(P), m, None))
    if len(vecs) != 1:
        return False, None
    return True, Distribution(P.states, [vecs[0].get(j, 0) for j in range(P.size)], scale)


def nilpotency_check(P: ChainMatrix, n: int) -> bool:
    """True iff P^(n+1) = P^n exactly (spectrum contained in {1, 0})."""
    if n < 0:
        raise ValueError(f"matrix power {n} is negative")
    D = _denominator_of(P)
    (cls_n, vecs_n), (cls_next, vecs_next) = islice(_power_ladder(P), n, n + 2)
    # (D·P)^(n+1) = D·(D·P)^n exactly when P^(n+1) = P^n
    return all({k: D * x for k, x in vecs_n[a].items()} == vecs_next[b]
               for a, b in set(zip(cls_n, cls_next)))


def total_variation(p: Distribution, q: Distribution):
    """(1/2) sum |p_i - q_i| over a shared state order: for two exact laws,
    masses a over S and b over B, the one Fraction sum |a_i B - b_i S| /
    (2 S B)."""
    if p.states != q.states:
        raise ValueError("distributions not aligned")
    if p.masses is None or q.masses is None:
        return _fold(abs(a - b) for a, b in zip(p.weights, q.weights)) / 2
    S, B = p.scale, q.scale
    return Fraction(sum(abs(a * B - b * S) for a, b in zip(p.masses, q.masses)), 2 * S * B)


def _float_rows(P: ChainMatrix) -> list[dict]:
    """P's distinct rows as floats: each entry of D·P divided by D, the
    correctly rounded float of its rational, or float(v) of each value of a
    float chain."""
    if P.exact:
        D = P._denominator
        return [{j: v / D for j, v in row.items()} for row in P._integer_rows]
    return [{j: float(v) for j, v in row.items()} for row in P._distinct]


def _check_seed(seed: int) -> None:
    # random.Random seeds from abs(seed), so -5 would replay the stream of 5
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _cumulative_rows(P: ChainMatrix) -> list[tuple[list[int], list[float], float]]:
    """Per state, the successors of its row in index order, their running
    float sums and the total; made once per distinct row and shared."""
    tables = []
    for row in _float_rows(P):
        items = sorted(row.items())
        cum = list(accumulate(v for _, v in items))
        tables.append(([j for j, _ in items], cum, cum[-1]))
    return [tables[at] for at in P._row_of]


# steps drawn per getrandbits call: two 32-bit words a step, 8·_CHUNK bytes
_CHUNK = 1024
# distinct rows that get a guide in one simulate call; a guide is 256
# entries, ~2 KB, so the guides of one call take at most ~8 MB
_GUIDE_BUDGET = 4096
# the guide of a row that has none (yet): every bucket falls back
_UNBUILT = (-1,) * 256
# 2^-53: random() returns the 53-bit draw m as m · _UNIT
_UNIT = 2.0 ** -53
_word_pair = Struct("<II").unpack_from


def _boundaries(cum: Sequence[float], total: float) -> list[int]:
    """For each j < len(cum) - 1, the least 53-bit draw m with
    (m / 2^53) * total > cum[j], that is the least m whose bisect step
    succ[bisect_left(cum, (m / 2^53) * total)] lies past successor j; 2^53
    where there is none. The test is monotone in m and fails at g - 1,
    g = floor(fl(cum[j] / total) · 2^53): the exact product
    (g - 1) · total / 2^53 is at most cum[j] (1 + 2^-53) - total / 2^53,
    not above cum[j], so it does not round above it. The walk up from g
    takes a few draws."""
    out = []
    for c in cum[:-1]:
        m = int(c / total / _UNIT)
        while m < 1 << 53 and not m * _UNIT * total > c:
            m += 1
        out.append(m)
    return out


def _guide(succ: Sequence[int], cum: Sequence[float], total: float) -> tuple:
    """The guide of one row (Chen and Asau, 1974): entry k is the successor
    that every 53-bit draw m of bucket k, k·2^45 <= m < (k+1)·2^45, steps to
    under the bisect, or -1 where a boundary (_boundaries) falls inside the
    bucket and splits it."""
    guide: list[int] = []
    for j, b in enumerate(_boundaries(cum, total)):
        k = b >> 45
        if k > len(guide):
            guide += [succ[j]] * (k - len(guide))
        if k == len(guide) and b > k << 45:
            guide.append(-1)  # b splits bucket k
    guide += [succ[-1]] * (256 - len(guide))
    return tuple(guide)


def simulate(
    chain: ChainMatrix,
    start,
    steps: int,
    seed: int,
    burn_in: Optional[int] = None,
) -> Distribution:
    """Run one trajectory; returns its empirical law, not the trajectory.

    Visits from time `burn_in` on (default steps // 10; at most `steps`, so
    the last state always counts) are tallied as the walk goes, in O(states)
    memory besides the guides and one chunk of draws; the law is the visit
    counts over steps + 1 - burn_in. The steps are those random() would draw
    (module docstring). Deterministic for a fixed seed; the seed must be >= 0.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_seed(seed)
    if burn_in is None:
        burn_in = steps // 10
    if not 0 <= burn_in <= steps:
        raise ValueError(f"burn_in must be in 0..{steps}, got {burn_in}")
    getrandbits = random.Random(seed).getrandbits
    tables, row_of = _cumulative_rows(chain), chain._row_of
    guides = [_UNBUILT] * chain.size  # per state; a row's states share its guide
    built: dict[int, tuple] = {}  # distinct row -> its guide
    counts = [0] * chain.size
    pos = chain.index[start]
    # the burn-in's visits go to a tally that is dropped; each phase tallies
    # the state it starts from, then its n steps
    for n, tally in ((burn_in, [0] * chain.size), (steps - burn_in, counts)):
        tally[pos] += 1
        while n:
            k = min(n, _CHUNK)
            n -= k
            data = getrandbits(64 * k).to_bytes(8 * k, "little")
            # the top byte of each step's first word is its draw's bucket
            tops = iter(data[3::8])
            left = tops.__length_hint__
            for top in tops:
                nxt = guides[pos][top]
                if nxt < 0:
                    if guides[pos] is _UNBUILT:
                        r = row_of[pos]
                        if r not in built and len(built) < _GUIDE_BUDGET:
                            built[r] = _guide(*tables[pos])
                        guides[pos] = built.get(r, _UNBUILT)
                        nxt = guides[pos][top]
                    if nxt < 0:
                        # the words of step k - 1 - left() of the chunk, read
                        # as random() reads them: (a >> 5) · 2^26 + (b >> 6)
                        a, b = _word_pair(data, 8 * (k - 1 - left()))
                        succ, cum, total = tables[pos]
                        u = ((a >> 5) * 67108864.0 + (b >> 6)) * _UNIT
                        nxt = succ[bisect_left(cum, u * total)]
                pos = nxt
                tally[pos] += 1
    return Distribution(chain.states, counts, steps + 1 - burn_in)


def simulate_replicas(P: ChainMatrix, start, horizon: int, replicas: int, seed: int) -> Distribution:
    """Empirical law of the state at time `horizon`: the endpoint counts of
    independent replicas over their number.

    One stream `random.Random(seed)` serves the whole run: replica r walks
    with draws r*horizon + 1 .. (r+1)*horizon, so replicas are independent
    and the run is reproducible. The seed must be >= 0.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    _check_seed(seed)
    rand = random.Random(seed).random
    tables = _cumulative_rows(P)
    start_idx = P.index[start]
    counts = [0] * P.size
    for _ in repeat(None, replicas):
        pos = start_idx
        for _ in repeat(None, horizon):
            succ, cum, total = tables[pos]
            pos = succ[bisect_left(cum, rand() * total)]
        counts[pos] += 1
    return Distribution(P.states, counts, replicas)
