"""The per-choice rule of the bumping-cascade chains, kept as the reference
the builders are tested against.

Every probability is derived from scratch for one (word, choice) pair with
the paper's product of bumping factors, and every row is accumulated the way
the builders did before they walked the cascades once per word. The msjmc
enriched step of one state and its exact inverse, predecessor
reconstruction, live here too, and so does the rule that writes a successor
from its bumping sequence (apply_bump), which the builders' walks replace by
writing the successor as they go, and the rule that refills the bumped
slots of an auxiliary word with E_{w'} (enriched_update), which the
enriched builders replace by one restart template per move. The walks
yield successor words, not choices; bump_choice recovers the choice of a
move from its source and successor words. The statistics
J_w(m, t) and E_w(i) are computed here afresh for every factor (stat_J,
stat_E); the builders and the product formulas read them off one table per
word.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import add
from typing import NamedTuple

from jugglemc.combinatorics import (
    ParamSet,
    TypeCounts,
    Word,
    enumerate_alphabet_words,
    enumerate_multiset_words,
)
from jugglemc.errors import DegenerateParams, NotNormalized
from jugglemc.fluctuating import enumerate_enriched_words
from jugglemc.msjmc import EnrichedState, enumerate_enriched


def stat_J(w: Word, m: int, t: int) -> int:
    """J_w(m, t) = 1 + #{l : m <= l <= n, w_l > t}."""
    n = w.n
    if not 1 <= m <= n + 1:
        raise ValueError(f"m={m} outside 1..{n + 1}")
    if not 1 <= t <= w.T:
        raise ValueError(f"t={t} outside 1..{w.T}")
    return 1 + sum(1 for x in w.letters[m - 1 :] if x > t)


def stat_E(w: Word, i: int) -> int:
    """E_w(i) = J_w(i, w_i): 1 + number of strictly heavier balls above i."""
    t = w.letter(i)
    return 1 + sum(1 for x in w.letters[i:] if x > t)


class InsertionChoice(NamedTuple):
    j: int
    a: tuple[int, ...]


def _check_bump(w: Word, a: tuple[int, ...]):
    n = w.n
    if len(a) < 2 or a[0] != 1 or a[-1] != n + 1:
        raise ValueError(f"bumping sequence must run from 1 to {n + 1}: {a}")
    for prev, cur in zip(a, a[1:]):
        if cur <= prev:
            raise ValueError(f"positions must increase: {a}")
        if cur <= n and w.letters[cur - 1] <= w.letters[prev - 1]:
            raise ValueError(f"letters must increase along {a}")


def apply_bump(w: Word, a: tuple[int, ...]) -> Word:
    """The word w^a: each bumped position a(l)-1 receives the previous
    ball of the sequence, everything else shifts one slot left."""
    _check_bump(w, a)
    res = list(w.letters[1:]) + [None]
    for prev, cur in zip(a, a[1:]):
        res[cur - 2] = w.letters[prev - 1]
    return Word(tuple(res), w.T)


def bump_choice(w: Word, w2: Word) -> InsertionChoice:
    """The choice (j, a) of a move from w to w2, j the type thrown into
    j w^- (j = w_1 for msjmc) and a its bumping sequence: a ball landed in
    slot i < n iff w2_i differs from the shifted w_{i+1}, and slot n always
    takes one; the first landed slot, a(2) - 1, holds j."""
    n = w.n
    a = (1,) + tuple(i + 1 for i in range(1, n) if w2.letters[i - 1] != w.letters[i]) + (n + 1,)
    return InsertionChoice(w2.letters[a[1] - 2], a)


def intermediate_word(w: Word, j: int) -> Word:
    """j w^-: the caught ball replaced by a fresh ball of type j."""
    if not 1 <= j <= w.T:
        raise ValueError(f"type {j} outside 1..{w.T}")
    return Word((j,) + w.letters[1:], w.T)


def bumping_sequences(w: Word) -> list[tuple[int, ...]]:
    """All bumping sequences for w, lexicographically ordered.

    Entries are positions; letters along the sequence strictly increase, with
    the sentinel w_{n+1} = +infinity closing every sequence.
    """
    n = w.n
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], letter: int):
        for nxt in range(prefix[-1] + 1, n + 2):
            if nxt == n + 1:
                out.append(tuple(prefix) + (n + 1,))
            elif w.letter(nxt) > letter:
                prefix.append(nxt)
                rec(prefix, w.letter(nxt))
                prefix.pop()

    rec([1], w.letter(1) if n else 0)
    return out


def transition_prob(w: Word, a: tuple[int, ...], p: ParamSet):
    """prod_{i=2..k} z_{J(a(i), w_{a(i-1)})} / y_{J(a(i-1), w_{a(i-1)})}."""
    _check_bump(w, a)
    acc = p.z_at(1) ** 0
    for prev, cur in zip(a, a[1:]):
        t = w.letter(prev)
        den = p.y_at(stat_J(w, prev, t))
        if den == 0:
            raise DegenerateParams(
                f"y_{stat_J(w, prev, t)} = 0 in a transition denominator"
            )
        acc = acc * p.z_at(stat_J(w, cur, t)) / den
    return acc


def insertion_choices(w: Word) -> list[InsertionChoice]:
    """All (j, a) pairs, j ascending, a lexicographic."""
    out = []
    for j in range(1, w.T + 1):
        for a in bumping_sequences(intermediate_word(w, j)):
            out.append(InsertionChoice(j, a))
    return out


def _cascade_tail(W: Word, a: tuple[int, ...], p: ParamSet):
    """prod_{i=3}^k Q_{W,a}(i): the bumping factors after the insertion."""
    acc = p.z_at(1) ** 0
    for prev, cur in zip(a[1:], a[2:]):
        t = W.letter(prev)
        den = p.y_at(stat_J(W, prev, t))
        if den == 0:
            raise DegenerateParams(f"y_{stat_J(W, prev, t)} = 0 in a cascade factor")
        acc = acc * p.z_at(stat_J(W, cur, t)) / den
    return acc


def add_drop_prob(w: Word, choice: InsertionChoice, p: ParamSet):
    """c_j z_{J(a(2), j)} / sum_t c_t y_{J(2, t)} times the cascade tail."""
    if p.c is None or len(p.c) != w.T:
        raise ValueError(f"need {w.T} activities")
    j, a = choice
    W = intermediate_word(w, j)
    # folded left, as the builder does: builtin sum compensates floats since 3.12
    den = reduce(add, (p.c[t - 1] * p.y_at(stat_J(W, 2, t)) for t in range(1, w.T + 1)), 0)
    if den == 0:
        raise DegenerateParams("insertion normalizer is 0")
    return p.c[j - 1] * p.z_at(stat_J(W, a[1], j)) / den * _cascade_tail(W, a, p)


def annihilation_choices(w: Word) -> list[InsertionChoice]:
    """The choices with nonzero annihilation probability: j < T freely,
    j = T pinned to the plain top insertion."""
    out = []
    for j in range(1, w.T):
        for a in bumping_sequences(intermediate_word(w, j)):
            out.append(InsertionChoice(j, a))
    out.append(InsertionChoice(w.T, (1, w.n + 1)))
    return out


def annihilation_prob(w: Word, choice: InsertionChoice, p: ParamSet):
    """Cascading attempts: types below j all fail, then j lands, then the
    usual bumping tail; type T goes to the top with the leftover mass."""
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    j, a = choice
    T = w.T
    W = intermediate_word(w, j)
    if j == T:
        if a != (1, w.n + 1):
            raise ValueError("type T always lands at the top")
        acc = p.z_at(1) ** 0
        for t in range(1, T):
            acc = acc * (1 - p.y_at(stat_J(W, 2, t)))
        return acc
    acc = p.z_at(stat_J(W, a[1], j))
    for t in range(1, j):
        acc = acc * (1 - p.y_at(stat_J(W, 2, t)))
    return acc * _cascade_tail(W, a, p)


def enriched_fluctuating_step(s: EnrichedState, choice: InsertionChoice) -> EnrichedState:
    """Enriched update on the intermediate word: bumped slots restart at
    E_{w'}, the rest of the auxiliary word shifts left."""
    j, a = choice
    return enriched_update(s.v, apply_bump(intermediate_word(s.w, j), a), a)


def enriched_update(v: tuple[int, ...], w2: Word, a: tuple[int, ...]) -> EnrichedState:
    """(w2, v') for the word w2 a bump along a produced: the bumped slots of
    v' restart at E_{w2}, the other entries of v shift left with the balls."""
    filled = {cur - 1 for cur in a[1:]}
    return EnrichedState(
        w2, tuple(stat_E(w2, i) if i in filled else v[i] for i in range(1, w2.n + 1))
    )


def _check_enriched(s: EnrichedState):
    w, v = s
    if len(v) != w.n:
        raise ValueError("auxiliary word length mismatch")
    for i in range(1, w.n + 1):
        if not 1 <= v[i - 1] <= stat_E(w, i):
            raise ValueError(f"v_{i} = {v[i - 1]} outside 1..E_w({i}) = {stat_E(w, i)}")


def enriched_step(s: EnrichedState, a: tuple[int, ...]) -> EnrichedState:
    """Deterministic enriched update of s along the bumping sequence a."""
    _check_enriched(s)
    return enriched_update(s.v, apply_bump(s.w, a), a)


def reconstruct_predecessor(s_next: EnrichedState):
    """Invert an enriched step: the unique bump positions A and source word w
    such that every predecessor of s_next has this shape.

    Scanning right to left, position j joins A iff the auxiliary entry at
    j-1 was freshly set (v'_{j-1} = E_{w'}(j-1)) and the letters placed by the
    bump keep increasing toward the next element of A. Returns (A, w, free)
    where free lists the positions of w whose auxiliary value is arbitrary.
    """
    _check_enriched(s_next)
    w2, v2 = s_next
    n = w2.n
    rev = [n + 1]
    last_val = w2.letter(n)
    for j in range(n, 1, -1):
        if v2[j - 2] == stat_E(w2, j - 1) and w2.letter(j - 1) < last_val:
            rev.append(j)
            last_val = w2.letter(j - 1)
    rev.append(1)
    A = tuple(reversed(rev))
    src: list = [None] * n
    for l in range(len(A) - 1):
        src[A[l] - 1] = w2.letter(A[l + 1] - 1)
    in_A = set(A)
    for i in range(2, n + 1):
        if i not in in_A:
            src[i - 1] = w2.letter(i - 1)
    w = Word(tuple(src), w2.T)
    free = A[:-1]
    # one forward step must land back on s_next; anything else is a bug
    probe = tuple(1 if i + 1 in in_A else v2[i - 1] for i in range(n))
    try:
        check = enriched_step(EnrichedState(w, probe), A)
    except ValueError as exc:
        raise AssertionError(
            f"reconstruction of {s_next} fails forward check: {exc}"
        ) from exc
    if check != s_next:
        raise AssertionError(f"reconstruction of {s_next} fails forward check")
    return A, w, free


def enumerate_predecessors(s_next: EnrichedState) -> list[tuple[EnrichedState, tuple[int, ...]]]:
    """All enriched states mapping to s_next, each with its bump sequence."""
    A, w, free = reconstruct_predecessor(s_next)
    n = w.n
    v2 = s_next.v
    base: list = [None] * n
    filled = {a - 1 for a in A[1:]}
    for i in range(1, n + 1):
        if i not in filled:
            base[i] = v2[i - 1]  # v_{i+1} = v'_i; i = n is always filled
    ranges = [range(1, stat_E(w, pos) + 1) for pos in free]
    out = []
    for combo in product(*ranges):
        v = list(base)
        for pos, val in zip(free, combo):
            v[pos - 1] = val
        out.append((EnrichedState(w, tuple(v)), A))
    return out


def _rows(states, moves) -> list[dict]:
    """Rows as the builders accumulated them: a repeated successor adds to
    0 + its first probability, and zero entries are dropped."""
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for s in states:
        row: dict = {}
        for succ, prob in moves(s):
            j = index[succ]
            row[j] = row.get(j, 0) + prob
        rows.append({j: v for j, v in row.items() if v != 0})
    return rows


def msjmc_rows(counts: TypeCounts, p: ParamSet, enriched: bool = False) -> list[dict]:
    if enriched:
        return _rows(enumerate_enriched(counts), lambda s: (
            (enriched_step(s, a), transition_prob(s.w, a, p)) for a in bumping_sequences(s.w)
        ))
    return _rows(enumerate_multiset_words(counts), lambda w: (
        (apply_bump(w, a), transition_prob(w, a, p)) for a in bumping_sequences(w)
    ))


def fluctuating_rows(model: str, n: int, T: int, p: ParamSet,
                     enriched: bool = False) -> list[dict]:
    """Rows of the add_drop or annihilation chain (or its enriched cover)."""
    choices, prob = {
        "add_drop": (insertion_choices, add_drop_prob),
        "annihilation": (annihilation_choices, annihilation_prob),
    }[model]
    if enriched:
        return _rows(enumerate_enriched_words(n, T), lambda s: (
            (enriched_fluctuating_step(s, ch), prob(s.w, ch, p)) for ch in choices(s.w)
        ))
    return _rows(enumerate_alphabet_words(n, T), lambda w: (
        (apply_bump(intermediate_word(w, ch.j), ch.a), prob(w, ch, p)) for ch in choices(w)
    ))
