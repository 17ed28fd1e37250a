"""The multispecies juggling chain: bumping dynamics, closed-form stationary
law, partition function, and the enriched chain on (word, auxiliary word)
pairs.

States are words with fixed letter counts. A transition throws the ball at
position 1 and bumps a chain of strictly heavier balls recorded by a bumping
sequence a = (1 = a(1) < ... < a(k) = n+1). Its probability is the product
of the bumping factors z_{J(a(i), t)} / y_{J(a(i-1), t)}, t the type of the
ball at a(i-1). Which factors appear, in which order, and which successor
each sequence reaches depend on the shape only, so a chain is built in two
halves. The skeleton (`_skeleton`) walks each word's sequences once, by one
recursive walk over a table of J_w, and keeps per row each move's successor
index and its pattern, the z and y indices of its factors in product order;
it is kept per process for each shape (`_shape_cached`). The evaluator
(`_evaluate`) then reads the weights: over the ParamSet's integer tables
(Z_k = L z_k, Y_k = L y_k, so each factor is Z / Y) each pattern is one int
over the lcm D of the pattern denominators, a row is a sum of ints over D
(over d D with an insertion head's denominator d), and ChainMatrix takes
the rows as ints, no Fraction made; for float weights each pattern is the
running product z / y in slot order, as the walk took it. The add_drop and
annihilation chains (fluctuating) use the same walk and evaluator. The
enriched chain reads each move's restarts off the source word's J table: a
slot a ball landed in restarts at the E of the successor, which is J_w one
position further up; its rows come from the evaluated skeleton rows. For
exact weights the law is one sweep of int masses over all words
(`_law_masses`), and the partition function is a sum of products of ints
over a power of L, one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod
from typing import Callable, NamedTuple, Optional

from .chain import ChainMatrix, build_matrix
from .combinatorics import ParamSet, TypeCounts, Word, enumerate_multiset_words, \
    complete_homogeneous, _float_normalizer, _j_table, _shape_cached
from .errors import DegenerateParams


class EnrichedState(NamedTuple):
    w: Word
    v: tuple[int, ...]

    def __str__(self):
        return f"{self.w}|{''.join(str(x) for x in self.v)}"


def _cascades(w: Word, J: list, head: tuple, slots: tuple):
    """Yield (successor word, slots) for every bumping sequence of w whose
    first len(head) + 1 positions are fixed, lexicographically.

    head holds the successor's letters before prev = len(head) + 1, the last
    fixed position, whose ball of type t lands on a heavier ball at cur or at
    the top n+1: the letters in between shift one slot left and t fills slot
    cur-1. Each step appends the factor slots of z_{J(cur, t)} / y_{J(prev,
    t)}, the indices J(cur, t) - 1 and J(prev, t) - 1, to `slots`, so a move's
    slots list its factors in the order the product takes them. J is
    _j_table(w); no weight is read.
    """
    letters = w.letters
    prev = len(head) + 1
    t = letters[prev - 1]
    k = J[prev][t] - 1
    for cur in range(prev + 1, len(letters) + 1):
        if letters[cur - 1] > t:
            yield from _cascades(w, J, head + letters[prev : cur - 1] + (t,),
                                 slots + (J[cur][t] - 1, k))
    # the sentinel: J(n+1, t) = 1
    yield Word._make((head + letters[prev:] + (t,), w.T)), slots + (0, k)


def _bumps(w: Word, J=None):
    """(0, 0, successor word, slots) for every bumping sequence of w, the
    moves of `_skeleton` with no insertion head; J is _j_table(w) when the
    caller has it."""
    for w2, slots in _cascades(w, _j_table(w) if J is None else J, (), ()):
        yield 0, 0, w2, slots


class Skeleton(NamedTuple):
    """The shape-only half of a cascade chain. Row r of `rows` is (J_w(2,
    .) of its word, heads, head of each move, pattern of each move,
    successors), the last three aligned with the moves in walk order: heads
    the distinct insertion heads (j, x), type j inserted through z_{x+1}
    ((0, 0) for msjmc's throw), and patterns[k] the factor slots of a
    cascade, z and y indices alternating. A move's successor determines its
    bumping sequence, so a row's successors are distinct."""
    states: tuple
    row_of: tuple  # each state's row
    rows: tuple
    patterns: tuple


def _skeleton(states, walk, key=lambda w: w) -> Skeleton:
    """The skeleton of the chain on `states` whose moves from w are walk(w,
    J), J = _j_table(w): (j, x, successor word, slots) each. walk depends on
    w only through key(w), and each distinct key's row is walked once, from
    its first state."""
    index = {w: i for i, w in enumerate(states)}
    patterns: dict = {}
    shared: dict = {}  # rows repeat heads and index tuples: one object for each

    def one(t: tuple) -> tuple:
        return shared.setdefault(t, t)

    rows, row_of, by_key = [], [], {}
    for w in states:
        at = by_key.get(k := key(w))
        if at is None:
            J = _j_table(w)
            heads: dict = {}
            moves = [(index[w2], heads.setdefault(one((j, x)), len(heads)),
                      patterns.setdefault(slots, len(patterns)))
                     for j, x, w2, slots in walk(w, J)]
            succs, at_head, at_pattern = zip(*moves)
            at = by_key[k] = len(rows)
            rows.append((J[2], one(tuple(heads)), one(at_head), one(at_pattern), succs))
        row_of.append(at)
    return Skeleton(tuple(states), tuple(row_of), tuple(rows), tuple(patterns))


def _pattern_values(patterns: tuple, p: ParamSet) -> tuple[list, Optional[int], dict]:
    """(each pattern's product at p, D, {pattern: k} for the patterns with a
    factor y_k = 0, k their first). Over p's integer tables the product
    prod Z / prod Y is held as its int over D, the lcm of the denominators;
    for float weights it is the running product of z / y taken in slot
    order, as the walk took it, and D is None."""
    tables = p.tables
    z, y = (tables.Z, tables.Y) if tables else (p.z, p.y)
    values, bad = [], {}
    for at, slots in enumerate(patterns):
        ys = slots[1::2]
        zero = next((k for k in ys if y[k] == 0), None)
        if zero is not None:
            bad[at] = zero + 1
            values.append((0, 1) if tables else 0)
        elif tables:
            values.append((prod(z[i] for i in slots[::2]), prod(y[k] for k in ys)))
        else:
            acc = 1
            for i, k in zip(slots[::2], ys):
                acc = acc * z[i] / y[k]
            values.append(acc)
    if not tables:
        return values, None, bad
    D = lcm(*(den for _, den in values))
    return [num * (D // den) for num, den in values], D, bad


def _evaluate(skel: Skeleton, p: ParamSet, lead: Callable, what: str):
    """Yield each row of skel at weights p, in order, as (den, row): row maps
    each successor index to its move's probability, in walk order.
    lead(J2, heads), J2 the row's J_w(2, .), gives (d, the factor of each
    insertion head), which multiplies the pattern product of each of the
    head's moves. Over p's integer tables a probability is an int over den
    = d D (D from _pattern_values); for float weights it is the head's
    factor times the pattern's running product, the walk's last operation,
    and den is None. The first y_k = 0 in walk order raises, the error
    naming `what`."""
    values, D, bad = _pattern_values(skel.patterns, p)
    for J2, heads, at_head, at_pattern, succs in skel.rows:
        d, factors = lead(J2, heads)
        if bad:
            first = next((bad[at] for at in at_pattern if at in bad), None)
            if first is not None:
                raise DegenerateParams(f"y_{first} = 0 in a {what}")
        yield None if D is None else d * D, dict(zip(succs, [
            factors[h] * values[at] for h, at in zip(at_head, at_pattern)]))


def _chain(skel: Skeleton, p: ParamSet, lead: Callable, what: str) -> ChainMatrix:
    """The chain of skel at weights p, each row (_evaluate) handed to every
    state that shares it."""
    rows = list(_evaluate(skel, p, lead, what))
    dens = [rows[at][0] for at in skel.row_of]
    return ChainMatrix(skel.states, [rows[at][1] for at in skel.row_of],
                       None if None in dens else dens)


def _mass(p: ParamSet, factors, den):
    """The product of `factors`, p's scalars, in order: over the integer
    tables one Fraction, the product over den; for float weights the
    product itself."""
    acc = prod(factors, start=1 if p.tables else p.z[0] ** 0)
    return Fraction(acc, den) if p.tables else acc


def stationary_weight(w: Word, p: ParamSet):
    """Unnormalized stationary mass prod_i y_{E_w(i)}, E_w(i) = J_w(i, w_i)."""
    J, tables = _j_table(w), p.tables
    y = tables.Y if tables else p.y
    return _mass(p, (y[J[i][x] - 1] for i, x in enumerate(w.letters, 1)),
                 tables and tables.L ** w.n)


def _law_masses(counts: TypeCounts, tables) -> tuple[list, int]:
    """(prod_i Y_{E_w(i)} for each word of enumerate_multiset_words(counts), in its order,
    L^n) by one prefix sweep: E_w(i) - 1 counts the letters left after w_i heavier than it."""
    level, Y = [(counts.counts, 1)], tables.Y
    for _ in range(counts.n):
        level = [(left[:x] + (k - 1,) + left[x + 1:], acc * Y[sum(left[x + 1:])])
                 for left, acc in level for x, k in enumerate(left) if k]
    return [acc for _, acc in level], tables.L ** counts.n


def partition_function(counts: TypeCounts, p: ParamSet):
    """Z = prod_i h_{n_i}(y_1, ..., y_{n - n_1 - ... - n_i + 1}). Over p's
    integer tables h_k(y) = h_k(Y) / L^k, so Z is a product of ints over
    L^n, one Fraction."""
    n, tables = counts.n, p.tables
    y = tables.Y if tables else p.y
    acc = 1 if tables else p.z[0] ** 0
    prefix = 0
    for ni in counts.counts:
        prefix += ni
        acc = acc * complete_homogeneous(ni, y[: n - prefix + 1])
    return Fraction(acc, tables.L ** n) if tables else _float_normalizer(acc)


def _msjmc_skeleton(counts: TypeCounts) -> Skeleton:
    return _skeleton(enumerate_multiset_words(counts), _bumps)


def _throw(J2: tuple, heads: tuple):
    """msjmc's lead: no insertion factor, each move its pattern product."""
    return 1, (1,)


def build_chain(counts: TypeCounts, p: ParamSet) -> ChainMatrix:
    """Transition matrix on all words with the given letter counts."""
    p.require_arity(counts.n)
    return _chain(_shape_cached(_msjmc_skeleton, counts), p, _throw, "transition denominator")


def _enriched_states(words) -> list[EnrichedState]:
    """All (w, v) with 1 <= v_i <= E_w(i), in the order of the words, then v."""
    out = []
    for w in words:
        J = _j_table(w)
        out += (EnrichedState(w, v) for v in
                product(*(range(1, J[i][x] + 1) for i, x in enumerate(w.letters, 1))))
    return out


def enumerate_enriched(counts: TypeCounts) -> list[EnrichedState]:
    """All (w, v) with 1 <= v_i <= E_w(i), lexicographic on (w, v)."""
    return _enriched_states(enumerate_multiset_words(counts))


def enriched_stationary_weight(s: EnrichedState, p: ParamSet):
    """Unnormalized enriched mass: prod_i z_{v_i}."""
    tables = p.tables
    z = tables.Z if tables else p.z
    return _mass(p, (z[x - 1] for x in s.v), tables and tables.L ** len(s.v))


def _restarts(J: list, w: Word, w2: Word) -> tuple[int, ...]:
    """The restart template of the move w -> w2, J = _j_table(w): E_{w2}(i)
    at the slots i a ball landed in, 0 elsewhere. A slot i < n nobody landed
    in holds the shifted w_{i+1}, and a landing ball is strictly lighter
    than the ball it bumps, so a ball landed in slot i iff w2_i != w_{i+1}.
    The balls above a landed slot i in w2 are those of w from i+1 on, so
    E_{w2}(i) = J_w(i+1, w2_i); slot n is always landed in and restarts at
    1. An insertion move starts from j w^-, whose J table agrees with w's
    from position 2 on, so w's table serves it too."""
    return tuple(J[i][x] if x != y else 0
                 for i, x, y in zip(range(2, w.n + 1), w2.letters, w.letters[1:])) + (1,)


def _enriched_matrix(states: list[EnrichedState], skel: Skeleton, p: ParamSet,
                     lead: Callable, what: str, key=None) -> ChainMatrix:
    """build_matrix on enriched states, which come grouped by word, over the
    words of skel: its rows are evaluated at p (_evaluate), and each word's
    moves are read off its row once for all its v, with its J table for
    their restart templates (_restarts). A move's successor v' takes its
    template where it is nonzero and elsewhere the entries of v shifted left
    with the balls; `key` as for build_matrix."""
    rows = list(_evaluate(skel, p, lead, what))
    words, row_at = skel.states, dict(zip(skel.states, skel.row_of))

    @lru_cache(maxsize=1)
    def word_moves(w: Word) -> list:
        J = _j_table(w)
        den, row = rows[row_at[w]]
        return [(words[j], _restarts(J, w, words[j]), v if den is None else (v, den))
                for j, v in row.items()]

    def successors(s: EnrichedState):
        shifted = s.v[1:] + (0,)
        for w2, restart, prob in word_moves(s.w):
            yield EnrichedState(w2, tuple(e or x for e, x in zip(restart, shifted))), prob

    return build_matrix(states, successors, key=key)


def build_enriched_chain(counts: TypeCounts, p: ParamSet) -> ChainMatrix:
    p.require_arity(counts.n)
    return _enriched_matrix(enumerate_enriched(counts), _shape_cached(_msjmc_skeleton, counts),
                            p, _throw, "transition denominator", key=lambda s: (s.w, s.v[1:]))
