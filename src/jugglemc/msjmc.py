"""The multispecies juggling chain: bumping dynamics, closed-form stationary
law, partition function, and the enriched chain on (word, auxiliary word)
pairs.

States are words with fixed letter counts. A transition throws the ball at
position 1 and bumps a chain of strictly heavier balls recorded by a bumping
sequence a = (1 = a(1) < ... < a(k) = n+1). Its probability is the product
of the bumping factors z_{J(a(i), t)} / y_{J(a(i-1), t)}, t the type of the
ball at a(i-1). Sequences with a common prefix share that part of the
product, so the builders enumerate them with one recursive walk per word
over a table of J_w. The walk carries the running product and the
successor's letters down the recursion and yields each move as (successor
word, probability), the pair `build_matrix` takes, so no sequence is kept
or checked afterwards. For exact weights the product is an integer
numerator and denominator over the ParamSet's scaling (Z_k = L z_k, Y_k =
L y_k, so each factor is Z / Y), and each move yields that pair of ints,
which `build_matrix` sums over each row's lcm into the chain's integer
form, making no Fraction; float weights keep the running float product.
The enriched chain reads each move's restarts off the source word's J
table: a slot a ball landed in restarts at the E of the successor, which
is J_w one position further up. For exact weights the law is one sweep of
int masses over all words (`_law_masses`), and the partition function is
a sum of products of ints over a power of L, one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from typing import NamedTuple

from .chain import ChainMatrix, build_matrix
from .combinatorics import ParamSet, TypeCounts, Word, enumerate_multiset_words, \
    complete_homogeneous, _float_normalizer, _j_table
from .errors import DegenerateParams


class EnrichedState(NamedTuple):
    w: Word
    v: tuple[int, ...]

    def __str__(self):
        return f"{self.w}|{''.join(str(x) for x in self.v)}"


def _cascades(w: Word, J: list, p: ParamSet, head: tuple, num, den, what: str):
    """Yield (successor word, probability) for every bumping sequence of w
    whose first len(head) + 1 positions are fixed, lexicographically.

    head holds the successor's letters before prev = len(head) + 1, the last
    fixed position, whose ball of type t lands on a heavier ball at cur or at
    the top n+1: the letters in between shift one slot left and t fills slot
    cur-1. Each step multiplies the product by z_{J(cur, t)} / y_{J(prev, t)}.
    Over p's integer tables num and den are ints, a step multiplies num by
    Z_{J(cur, t)} and den by Y_{J(prev, t)}, and a move yields the pair
    (num, den). For float weights num is the running product num * z / y,
    taken in sequence order, and den a lead factor: a move yields den * num.
    J is _j_table(w); `what` names the denominator in errors.
    """
    letters = w.letters
    prev = len(head) + 1
    t = letters[prev - 1]
    k = J[prev][t]
    tables = p.tables
    z, d = (tables.Z, tables.Y[k - 1]) if tables else (p.z, p.y[k - 1])
    if d == 0:
        raise DegenerateParams(f"y_{k} = 0 in a {what}")
    n = len(letters)
    for cur in range(prev + 1, n + 1):
        if letters[cur - 1] > t:
            f = z[J[cur][t] - 1]
            step = (num * f, den * d) if tables else (num * f / d, den)
            yield from _cascades(w, J, p, head + letters[prev : cur - 1] + (t,), *step, what)
    # the sentinel: J(n+1, t) = 1
    yield Word._make((head + letters[prev:] + (t,), w.T)), \
        (num * z[0], den * d) if tables else den * (num * z[0] / d)


def _bumps(w: Word, p: ParamSet, J=None):
    """(successor word, transition probability) for every bumping sequence
    of w; J is _j_table(w) when the caller has it."""
    return _cascades(w, _j_table(w) if J is None else J, p, (), 1, 1,
                     "transition denominator")


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


def build_chain(counts: TypeCounts, p: ParamSet) -> ChainMatrix:
    """Transition matrix on all words with the given letter counts."""
    p.require_arity(counts.n)
    return build_matrix(enumerate_multiset_words(counts), lambda w: _bumps(w, p))


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


def _enriched_matrix(states: list[EnrichedState], moves, key=None) -> ChainMatrix:
    """build_matrix on enriched states, which come grouped by word: moves(w,
    J) yields (successor word, probability) for every move of w, J its J
    table, and each word's moves are walked once for all its v, with that
    one table for the walk and for their restart templates (_restarts). A
    move's successor v' takes its template where it is nonzero and elsewhere
    the entries of v shifted left with the balls; `key` as for
    build_matrix."""
    @lru_cache(maxsize=1)
    def word_moves(w: Word) -> list:
        J = _j_table(w)
        return [(w2, _restarts(J, w, w2), prob) for w2, prob in moves(w, J)]

    def successors(s: EnrichedState):
        shifted = s.v[1:] + (0,)
        for w2, restart, prob in word_moves(s.w):
            yield EnrichedState(w2, tuple(e or x for e, x in zip(restart, shifted))), prob

    return build_matrix(states, successors, key=key)


def build_enriched_chain(counts: TypeCounts, p: ParamSet) -> ChainMatrix:
    p.require_arity(counts.n)
    return _enriched_matrix(enumerate_enriched(counts), lambda w, J: _bumps(w, p, J),
                            key=lambda s: (s.w, s.v[1:]))
