"""Add-drop and annihilation chains on words of length n over {1..T}.

Ball counts fluctuate: a transition replaces the first letter by a fresh ball
of type j (chosen by activities in the add-drop model, by cascading attempts
in the annihilation model) and then runs the usual bumping cascade on the
intermediate word j w^-. InsertionChoice packs (j, a) with a a bumping
sequence of the intermediate word, so the cascade code is shared verbatim.
"""

from __future__ import annotations

from typing import NamedTuple

from .chain import ChainMatrix, build_matrix
from .combinatorics import ParamSet, Word, enumerate_alphabet_words, \
    complete_homogeneous, stat_E, stat_J
from .errors import DegenerateParams, NotNormalized
from .msjmc import EnrichedState, _check_enriched, apply_bump, bumping_sequences, \
    _enriched_states, _enriched_update


class InsertionChoice(NamedTuple):
    j: int
    a: tuple[int, ...]


def intermediate_word(w: Word, j: int) -> Word:
    """j w^-: the caught ball replaced by a fresh ball of type j."""
    if not 1 <= j <= w.T:
        raise ValueError(f"type {j} outside 1..{w.T}")
    return Word((j,) + w.drop_first(), w.T)


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
    den = sum(p.c_at(t) * p.y_at(stat_J(W, 2, t)) for t in range(1, w.T + 1))
    if den == 0:
        raise DegenerateParams("insertion normalizer is 0")
    return p.c_at(j) * p.z_at(stat_J(W, a[1], j)) / den * _cascade_tail(W, a, p)


def add_drop_stationary_weight(w: Word, p: ParamSet):
    """Unnormalized stationary mass: prod_i c_{w_i} y_{E_w(i)}."""
    if p.c is None or len(p.c) != w.T:
        raise ValueError(f"need {w.T} activities")
    acc = p.z_at(1) ** 0
    for i in range(1, w.n + 1):
        acc = acc * p.c_at(w.letter(i)) * p.y_at(stat_E(w, i))
    return acc


def _compositions(n: int, parts: int):
    # weak compositions of n into `parts` nonnegative parts
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def add_drop_partition(n: int, T: int, p: ParamSet):
    """Z: sum over type histograms of the activity monomial times the
    product of complete homogeneous factors."""
    if p.c is None or len(p.c) != T:
        raise ValueError(f"need {T} activities")
    total = p.z_at(1) * 0
    for comp in _compositions(n, T):
        term = p.z_at(1) ** 0
        prefix = 0
        for i, ni in enumerate(comp, start=1):
            term = term * p.c_at(i) ** ni
            prefix += ni
            upper = n - prefix + 1
            term = term * complete_homogeneous(
                ni, [p.y_at(x) for x in range(1, upper + 1)]
            )
        total = total + term
    return total


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


def annihilation_stationary(w: Word, p: ParamSet):
    """Stationary mass, already normalized: the heavy product over sites
    carrying a type below T times the failure factors per type."""
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    acc = p.z_at(1) ** 0
    for i in range(1, w.n + 1):
        if w.letter(i) < w.T:
            acc = acc * p.y_at(stat_E(w, i))
    for level in range(2, w.T + 1):
        count = sum(1 for x in w.letters if x >= level)
        for q in range(1, count + 1):
            acc = acc * (1 - p.y_at(q))
    return acc


def _word_chain(n, T, p, choices_fn, prob_fn) -> ChainMatrix:
    def successors(w: Word):
        for choice in choices_fn(w):
            succ = apply_bump(intermediate_word(w, choice.j), choice.a)
            yield succ, prob_fn(w, choice, p)

    return build_matrix(enumerate_alphabet_words(n, T), successors)


def build_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return _word_chain(n, T, p, insertion_choices, add_drop_prob)


def annihilation_choices(w: Word) -> list[InsertionChoice]:
    """The choices with nonzero annihilation probability: j < T freely,
    j = T pinned to the plain top insertion."""
    out = []
    for j in range(1, w.T):
        for a in bumping_sequences(intermediate_word(w, j)):
            out.append(InsertionChoice(j, a))
    out.append(InsertionChoice(w.T, (1, w.n + 1)))
    return out


def build_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return _word_chain(n, T, p, annihilation_choices, annihilation_prob)


def enriched_fluctuating_step(s: EnrichedState, choice: InsertionChoice) -> EnrichedState:
    """Enriched update on the intermediate word: bumped slots restart at
    E_{w'}, the rest of the auxiliary word shifts left."""
    _check_enriched(s)
    j, a = choice
    return _enriched_update(s.v, apply_bump(intermediate_word(s.w, j), a), a)


def enumerate_enriched_words(n: int, T: int) -> list[EnrichedState]:
    """All (w, v) over the full alphabet state space, lexicographic."""
    return _enriched_states(enumerate_alphabet_words(n, T))


def enriched_add_drop_weight(s: EnrichedState, p: ParamSet):
    """Unnormalized enriched mass: prod_i c_{w_i} z_{v_i}."""
    acc = p.z_at(1) ** 0
    for letter, x in zip(s.w.letters, s.v):
        acc = acc * p.c_at(letter) * p.z_at(x)
    return acc


def enriched_annihilation_weight(s: EnrichedState, p: ParamSet):
    """Enriched mass: z factors only at sites below type T, same failure
    factors as the base law."""
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    w = s.w
    acc = p.z_at(1) ** 0
    for letter, x in zip(w.letters, s.v):
        if letter < w.T:
            acc = acc * p.z_at(x)
    for level in range(2, w.T + 1):
        count = sum(1 for t in w.letters if t >= level)
        for q in range(1, count + 1):
            acc = acc * (1 - p.y_at(q))
    return acc


def _enriched_chain(n, T, p, choices_fn, prob_fn) -> ChainMatrix:
    states = enumerate_enriched_words(n, T)

    def successors(s: EnrichedState):
        for choice in choices_fn(s.w):
            yield enriched_fluctuating_step(s, choice), prob_fn(s.w, choice, p)

    return build_matrix(states, successors)


def build_enriched_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return _enriched_chain(n, T, p, insertion_choices, add_drop_prob)


def build_enriched_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return _enriched_chain(n, T, p, annihilation_choices, annihilation_prob)
