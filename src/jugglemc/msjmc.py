"""The multispecies juggling chain: bumping dynamics, closed-form stationary
law, partition function, and the enriched chain on (word, auxiliary word)
pairs.

States are words with fixed letter counts. A transition throws the ball at
position 1 and bumps a chain of strictly heavier balls recorded by a bumping
sequence a = (1 = a(1) < ... < a(k) = n+1). Its probability is the product
of the bumping factors z_{J(a(i), t)} / y_{J(a(i-1), t)}, t the type of the
ball at a(i-1). Which factors appear, in which order, and which successor
each sequence reaches depend on the shape only, so the chain is built as
every weighted chain is: a skeleton walked once per shape and kept per
process (chain._skeleton, combinatorics._shape_cached), then chain's one
evaluator at the weights. The walk (`cascades`, over one table of J_w)
writes each successor as it goes and lists each move's factors as (top,
bottom) slots into (Z, Y) of p's tables (`bump_tables`); the add_drop and
annihilation chains (fluctuating) run it too. An enriched skeleton is
derived from its base chain's (`enriched_skeleton`): a row keeps its
word's move set and re-indexes each successor through its restart
template, read off the word's J table. Every formula reads p's tables,
whose float form is the weights over 1. For exact weights the law is one
sweep of int masses over all words (`_law_masses`), and the partition
function is a sum of products of ints over a power of L, one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .chain import ChainMatrix, Skeleton, _chain, _skeleton
from .combinatorics import ParamSet, TypeCounts, Word, enumerate_multiset_words, \
    complete_homogeneous, _float_normalizer, _j_table, _mass, _shape_cached


class EnrichedState(NamedTuple):
    w: Word
    v: tuple[int, ...]

    def __str__(self):
        return f"{self.w}|{''.join(str(x) for x in self.v)}"


def cascades(w: Word, J: list, head: tuple, slots: tuple):
    """Yield (successor word, slots) for every bumping sequence of w whose
    first len(head) + 1 positions are fixed, lexicographically.

    head holds the successor's letters before prev = len(head) + 1, the last
    fixed position, whose ball of type t lands on a heavier ball at cur or at
    the top n+1: the letters in between shift one slot left and t fills slot
    cur-1. Each step appends the factor z_{J(cur, t)} / y_{J(prev, t)} to
    `slots` as the (top, bottom) slot pair (J(cur, t) - 1, J(prev, t) - 1)
    into bump_tables, so a move's slots list its factors in the order the
    product takes them. J is _j_table(w); no weight is read. fluctuating's
    insertions run the same walk from their second position.
    """
    letters = w.letters
    prev = len(head) + 1
    t = letters[prev - 1]
    k = J[prev][t] - 1
    for cur in range(prev + 1, len(letters) + 1):
        if letters[cur - 1] > t:
            yield from cascades(w, J, head + letters[prev : cur - 1] + (t,),
                                slots + (J[cur][t] - 1, k))
    # the sentinel: J(n+1, t) = 1
    yield Word._make((head + letters[prev:] + (t,), w.T)), slots + (0, k)


def _bumps(w: Word):
    """msjmc's walk for _skeleton: no row datum, and every bumping sequence
    of w as a move with no insertion head."""
    return None, ((None, w2, slots) for w2, slots in cascades(w, _j_table(w), (), ()))


def bump_tables(p: ParamSet) -> tuple:
    """The (top, bottom) factor tables of a bumping factor z / y: (Z, Y) of
    p's tables, whose L cancels."""
    return p.tables.Z, p.tables.Y


def stationary_weight(w: Word, p: ParamSet):
    """Unnormalized stationary mass prod_i y_{E_w(i)}, E_w(i) = J_w(i, w_i)."""
    J, t = _j_table(w), p.tables
    return _mass(p, (t.Y[J[i][x] - 1] for i, x in enumerate(w.letters, 1)), t.L ** w.n)


def _law_masses(counts: TypeCounts, tables) -> tuple[list, int]:
    """(prod_i Y_{E_w(i)} for each word of enumerate_multiset_words(counts), in its order,
    L^n) by one prefix sweep: E_w(i) - 1 counts the letters left after w_i heavier than it."""
    level, Y = [(counts.counts, 1)], tables.Y
    for _ in range(counts.n):
        level = [(left[:x] + (k - 1,) + left[x + 1:], acc * Y[sum(left[x + 1:])])
                 for left, acc in level for x, k in enumerate(left) if k]
    return [acc for _, acc in level], tables.L ** counts.n


def partition_function(counts: TypeCounts, p: ParamSet):
    """Z = prod_i h_{n_i}(y_1, ..., y_{n - n_1 - ... - n_i + 1}), with h_k(y)
    = h_k(Y) / L^k over p's tables: for exact weights a product of ints over
    L^n, one Fraction."""
    n, t = counts.n, p.tables
    acc = t.L ** 0
    prefix = 0
    for ni in counts.counts:
        prefix += ni
        acc = acc * complete_homogeneous(ni, t.Y[: n - prefix + 1])
    return Fraction(acc, t.L ** n) if p.exact else _float_normalizer(acc)


def _msjmc_skeleton(counts: TypeCounts) -> Skeleton:
    return _skeleton(enumerate_multiset_words(counts), _bumps)


def build_chain(counts: TypeCounts, p: ParamSet) -> ChainMatrix:
    """Transition matrix on all words with the given letter counts."""
    p.require_arity(counts.n)
    return _chain(_shape_cached(_msjmc_skeleton, counts), p, bump_tables(p), None,
                  "transition denominator")


def enriched_states(words) -> list[EnrichedState]:
    """All (w, v) with 1 <= v_i <= E_w(i), in the order of the words, then v."""
    out = []
    for w in words:
        J = _j_table(w)
        out += (EnrichedState(w, v) for v in
                product(*(range(1, J[i][x] + 1) for i, x in enumerate(w.letters, 1))))
    return out


def enumerate_enriched(counts: TypeCounts) -> list[EnrichedState]:
    """All (w, v) with 1 <= v_i <= E_w(i), lexicographic on (w, v)."""
    return enriched_states(enumerate_multiset_words(counts))


def enriched_stationary_weight(s: EnrichedState, p: ParamSet):
    """Unnormalized enriched mass: prod_i z_{v_i}."""
    t = p.tables
    return _mass(p, (t.Z[x - 1] for x in s.v), t.L ** len(s.v))


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


def enriched_skeleton(base: Skeleton, states: list[EnrichedState]) -> Skeleton:
    """The skeleton of the enriched chain on `states`, which come grouped by
    word, over its base chain's skeleton: the row of (w, v) reads w only
    through its base row and v only through v_2 .. v_n, so each distinct
    pair's row is made once. It keeps the base row's move set, so its heads
    and patterns, and moves each successor word w' to (w', v'), v' the
    move's restart template (_restarts, read off w's J table once per word)
    where it is nonzero and elsewhere v shifted left with the balls."""
    words, row_at = base.states, dict(zip(base.states, base.row_of))
    index = {s: i for i, s in enumerate(states)}
    rows, row_of, by_key, last = [], [], {}, None
    for s in states:
        if s.w != last:
            last, J = s.w, _j_table(s.w)
            m, succs = base.rows[row_at[last]]
            templates = [(words[j], _restarts(J, last, words[j])) for j in succs]
        at = by_key.get(k := (row_at[last], s.v[1:]))
        if at is None:
            shifted = s.v[1:] + (0,)
            at = by_key[k] = len(rows)
            rows.append((m, tuple([index[EnrichedState(w2, tuple([
                e or x for e, x in zip(restart, shifted)]))] for w2, restart in templates])))
        row_of.append(at)
    return Skeleton(tuple(states), tuple(row_of), tuple(rows), base.moves, base.patterns)


def _enriched_msjmc_skeleton(counts: TypeCounts) -> Skeleton:
    return enriched_skeleton(_shape_cached(_msjmc_skeleton, counts), enumerate_enriched(counts))


def build_enriched_chain(counts: TypeCounts, p: ParamSet) -> ChainMatrix:
    p.require_arity(counts.n)
    return _chain(_shape_cached(_enriched_msjmc_skeleton, counts), p, bump_tables(p), None,
                  "transition denominator")
