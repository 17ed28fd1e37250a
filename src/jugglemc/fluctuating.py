"""Add-drop and annihilation chains on words of length n over {1..T}.

Ball counts fluctuate: a transition replaces the first letter by a fresh ball
of type j (chosen by activities in the add-drop model, by cascading attempts
in the annihilation model) and then runs the usual bumping cascade on the
intermediate word j w^-. Past position 1, j w^- agrees with w, so one J table
of w serves every j: per word, the builders compute the insertion factors
once (the add-drop normalizer, the annihilation failure factors) and walk
the cascades from a(2) with msjmc's walk, multiplying each tail onto its
insertion factor at the leaf. The walk writes the successor as it goes,
starting from w_2 .. w_{a(2)-1} j, so j w^- itself is never built.
"""

from __future__ import annotations

from math import prod

from .chain import ChainMatrix
from .combinatorics import ParamSet, Word, enumerate_alphabet_words, \
    complete_homogeneous, stat_E, _j_table
from .errors import DegenerateParams, NotNormalized
from .msjmc import EnrichedState, _cascades, _enriched_matrix, _enriched_states, \
    _word_matrix


def _insertions(w: Word, J: list, p: ParamSet, j: int, lead):
    """Yield (successor letters, a, probability) for every bumping sequence a
    of j w^-, lexicographically: lead(z_{J(a(2), j)}) for the insertion step
    times the cascade factors from a(2) on. J is _j_table(w), which agrees
    with the table of j w^- from position 2 on, and the successor starts with
    w_2 .. w_{a(2)-1} followed by j."""
    for a2 in range(2, w.n + 1):
        if w.letters[a2 - 1] > j:
            h = lead(p.z[J[a2][j] - 1])
            for letters, a, tail in _cascades(w, J, p, w.letters[1 : a2 - 1] + (j,), (1, a2),
                                              None, "cascade factor"):
                yield letters, a, h * tail
    yield w.letters[1:] + (j,), (1, w.n + 1), lead(p.z[0])


def _add_drop_moves(w: Word, p: ParamSet):
    """(successor letters, a, probability) for every insertion type j and
    bumping sequence a of j w^-: c_j z_{J(a(2), j)} / sum_t c_t y_{J(2, t)}
    times the cascade."""
    if p.c is None or len(p.c) != w.T:
        raise ValueError(f"need {w.T} activities")
    J = _j_table(w)
    den = sum(p.c[t - 1] * p.y[J[2][t] - 1] for t in range(1, w.T + 1))
    if den == 0:
        raise DegenerateParams("insertion normalizer is 0")
    for j, cj in enumerate(p.c, 1):
        yield from _insertions(w, J, p, j, lambda x: cj * x / den)


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


def _annihilation_moves(w: Word, p: ParamSet):
    """(successor letters, a, probability) with cascading attempts: types
    below j all fail, with factors 1 - y_{J(2, t)}, then j lands and bumps;
    type T goes to the top with the leftover mass."""
    J = _j_table(w)
    fails = [1 - p.y[J[2][t] - 1] for t in range(1, w.T)]
    for j in range(1, w.T):
        yield from _insertions(w, J, p, j, lambda x: prod(fails[: j - 1], start=x))
    yield w.letters[1:] + (w.T,), (1, w.n + 1), prod(fails, start=p.z_at(1) ** 0)


def _failure_factors(acc, w: Word, p: ParamSet):
    """acc times the annihilation failure factors: 1 - y_q for q = 1..(number
    of balls of type >= level), for every level 2..T."""
    for level in range(2, w.T + 1):
        count = sum(1 for x in w.letters if x >= level)
        for q in range(1, count + 1):
            acc = acc * (1 - p.y_at(q))
    return acc


def annihilation_stationary(w: Word, p: ParamSet):
    """Stationary mass, already normalized: the heavy product over sites
    carrying a type below T times the failure factors per type."""
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    acc = p.z_at(1) ** 0
    for i in range(1, w.n + 1):
        if w.letter(i) < w.T:
            acc = acc * p.y_at(stat_E(w, i))
    return _failure_factors(acc, w, p)


def build_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return _word_matrix(enumerate_alphabet_words(n, T), lambda w: _add_drop_moves(w, p))


def build_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return _word_matrix(enumerate_alphabet_words(n, T), lambda w: _annihilation_moves(w, p))


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
    return _failure_factors(acc, w, p)


def build_enriched_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return _enriched_matrix(enumerate_enriched_words(n, T), lambda w: _add_drop_moves(w, p))


def build_enriched_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return _enriched_matrix(enumerate_enriched_words(n, T),
                            lambda w: _annihilation_moves(w, p))
