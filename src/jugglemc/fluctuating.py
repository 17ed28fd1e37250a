"""Add-drop and annihilation chains on words of length n over {1..T}.

Ball counts fluctuate: a transition replaces the first letter by a fresh ball
of type j (chosen by activities in the add-drop model, by cascading attempts
in the annihilation model) and then runs the usual bumping cascade on the
intermediate word j w^-. Past position 1, j w^- agrees with w, so one J table
of w serves every j: per word, the builders compute the insertion factors
once (the add-drop normalizer, the annihilation failure factors) and walk
the cascades from a(2) with msjmc's walk. For exact weights the insertion
factor is an integer numerator and denominator over the ParamSet's scaling
(C_j Z / sum_t C_t Y for add-drop, Z and L - Y over powers of L for
annihilation), the walk multiplies the cascade's Z and Y onto it and yields
each move as (successor word, that pair of ints), which `build_matrix` sums
into the chain's integer form; for float weights each tail is multiplied
onto its insertion factor at the leaf. The walk writes the successor as it
goes, starting from w_2 .. w_{a(2)-1} j, so j w^- itself is never built,
and the enriched builders read each move's restarts off the same J table
of w. For exact weights each law is one suffix sweep of int masses over
all words, and the add-drop normalizer a sum of products of ints over a
power of Lc L, one Fraction. A word's row depends
only on w^- = w_2 .. w_n (the first letter is dropped before anything is
read), so each w^-'s row is built once and shared by the T words that end
in it; an enriched state's row likewise depends only on (w^-, v^-) and is
built once per pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, prod

from .chain import ChainMatrix, build_matrix
from .combinatorics import ParamSet, Word, enumerate_alphabet_words, \
    complete_homogeneous, _float_normalizer, _j_table, _suffix_sweep
from .errors import DegenerateParams, NotNormalized
from .msjmc import EnrichedState, _cascades, _enriched_matrix, _enriched_states, _mass


def _insertions(w: Word, J: list, p: ParamSet, j: int, lead):
    """Yield (successor word, probability) for every bumping sequence a of
    j w^-, lexicographically. lead(x), x = z_{J(a(2), j)} (Z over the
    integer tables), is the insertion step's factor as the start (num, den)
    of the _cascades walk, which multiplies in the cascade factors from a(2)
    on. J is _j_table(w), which agrees with the table of j w^- from position
    2 on, and the successor starts with w_2 .. w_{a(2)-1} followed by j."""
    tables = p.tables
    z = tables.Z if tables else p.z
    for a2 in range(2, w.n + 1):
        if w.letters[a2 - 1] > j:
            yield from _cascades(w, J, p, w.letters[1 : a2 - 1] + (j,),
                                 *lead(z[J[a2][j] - 1]), "cascade factor")
    num, den = lead(z[0])
    yield Word._make((w.letters[1:] + (j,), w.T)), (num, den) if tables else den * num


def _need_activities(p: ParamSet, T: int):
    if p.c is None or len(p.c) != T:
        raise ValueError(f"need {T} activities")


def _add_drop_moves(w: Word, p: ParamSet, J=None):
    """(successor word, probability) for every insertion type j and bumping
    sequence a of j w^-: c_j z_{J(a(2), j)} / sum_t c_t y_{J(2, t)}
    times the cascade; over the integer tables C_j Z_{J(a(2), j)} /
    sum_t C_t Y_{J(2, t)}. J is _j_table(w) when the caller has it."""
    _need_activities(p, w.T)
    J, tables = _j_table(w) if J is None else J, p.tables
    c, y = (tables.C, tables.Y) if tables else (p.c, p.y)
    den = sum(c[t - 1] * y[J[2][t] - 1] for t in range(1, w.T + 1))
    if den == 0 and y[0] == 0:
        raise DegenerateParams("insertion normalizer is 0")
    _float_normalizer(den, "insertion normalizer")  # activities, y_1 > 0: only floats fail
    for j, cj in enumerate(c, 1):
        yield from _insertions(w, J, p, j, lambda x: (cj * x, den) if tables
                               else (1, cj * x / den))


def add_drop_stationary_weight(w: Word, p: ParamSet):
    """Unnormalized stationary mass prod_i c_{w_i} y_{E_w(i)}."""
    _need_activities(p, w.T)
    J, tables = _j_table(w), p.tables
    c, y = (tables.C, tables.Y) if tables else (p.c, p.y)
    return _mass(p, (f for i, x in enumerate(w.letters, 1) for f in (c[x - 1], y[J[i][x] - 1])),
                 tables and (tables.Lc * tables.L) ** w.n)


def _add_drop_masses(n: int, T: int, tables) -> tuple[list, int]:
    """(prod_i C_{w_i} Y_{E_w(i)} for the words of enumerate_alphabet_words(n,
    T), in its order, by one suffix sweep; (Lc L)^n)."""
    factors = [[c * y for y in tables.Y] for c in tables.C]
    return [acc for _, acc in _suffix_sweep(n, T, factors)], (tables.Lc * tables.L) ** n


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
    product of complete homogeneous factors. Over p's integer tables each
    term is a product of ints over (Lc L)^n (c_t = C_t / Lc and h_k(y) =
    h_k(Y) / L^k), so Z is one Fraction."""
    _need_activities(p, T)
    tables = p.tables
    c, y = (tables.C, tables.Y) if tables else (p.c, p.y)
    total = 0 if tables else p.z[0] * 0
    try:
        for comp in _compositions(n, T):
            term = 1 if tables else p.z[0] ** 0
            prefix = 0
            for ci, ni in zip(c, comp):
                term = term * ci ** ni
                prefix += ni
                term = term * complete_homogeneous(ni, y[: n - prefix + 1])
            total = total + term
    except OverflowError:  # only a float power raises it
        total = inf
    return Fraction(total, (tables.Lc * tables.L) ** n) if tables else _float_normalizer(total)


def _annihilation_moves(w: Word, p: ParamSet, J=None):
    """(successor word, probability) with cascading attempts: types
    below j all fail, with factors 1 - y_{J(2, t)}, then j lands and bumps;
    type T goes to the top with the leftover mass. Over the integer tables
    the failures are L - Y_{J(2, t)} and j's insertion factor has the
    denominator L^j. J is _j_table(w) when the caller has it."""
    J, tables = _j_table(w) if J is None else J, p.tables
    one, y = (tables.L, tables.Y) if tables else (1, p.y)
    fails = [one - y[J[2][t] - 1] for t in range(1, w.T)]
    for j in range(1, w.T):
        def lead(x):
            h = prod(fails[: j - 1], start=x)
            return (h, one ** j) if tables else (1, h)
        yield from _insertions(w, J, p, j, lead)
    yield Word._make((w.letters[1:] + (w.T,), w.T)), \
        (prod(fails), one ** (w.T - 1)) if tables else prod(fails, start=p.z[0] ** 0)


def _annihilation_mass(w: Word, p: ParamSet, sites):
    """The annihilation law's mass of w: the factors `sites` (p's scalars at
    the sites below type T) times the failure factors 1 - y_q for q = 1..(the
    number of balls of type >= level), for every level 2..T; over the
    integer tables L - Y_q, and one Fraction over a power of L."""
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    tables = p.tables
    one, y = (tables.L, tables.Y) if tables else (1, p.y)
    factors = list(sites)
    for level in range(2, w.T + 1):
        factors += (one - y[q] for q in range(sum(1 for x in w.letters if x >= level)))
    return _mass(p, factors, tables and one ** len(factors))


def annihilation_stationary(w: Word, p: ParamSet):
    """Stationary mass, already normalized: the heavy product y_{E_w(i)} over
    sites carrying a type below T times the failure factors per type."""
    J, tables = _j_table(w), p.tables
    y = tables.Y if tables else p.y
    return _annihilation_mass(w, p, (y[J[i][x] - 1] for i, x in enumerate(w.letters, 1)
                                     if x < w.T))


def _annihilation_masses(n: int, T: int, p: ParamSet) -> tuple[list, int]:
    """As _add_drop_masses, for annihilation_stationary over L^(n(T-1)): a
    letter x < T has x factors (Y_E and x - 1 failures), T has T - 1, so x
    takes L^(T-1-x) too; level t+1 fails by fails[J_w(1, t) - 1]."""
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    L, Y = p.tables.L, p.tables.Y
    fails = [prod(L - y for y in Y[:q]) for q in range(n + 1)]
    sites = [[y * L ** (T - 1 - x) for y in Y] for x in range(1, T)] + [[1] * (n + 1)]
    return [prod((fails[row[t] - 1] for t in range(1, T)), start=acc)
            for row, acc in _suffix_sweep(n, T, sites)], L ** (n * (T - 1))


def build_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return build_matrix(enumerate_alphabet_words(n, T), lambda w: _add_drop_moves(w, p),
                        key=lambda w: w.letters[1:])


def build_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return build_matrix(enumerate_alphabet_words(n, T), lambda w: _annihilation_moves(w, p),
                        key=lambda w: w.letters[1:])


def enumerate_enriched_words(n: int, T: int) -> list[EnrichedState]:
    """All (w, v) over the full alphabet state space, lexicographic."""
    return _enriched_states(enumerate_alphabet_words(n, T))


def _enriched_tail(s: EnrichedState) -> tuple:
    """(w^-, v^-): an enriched row reads w only through w^- and v only
    through the shifted v_2 .. v_n."""
    return s.w.letters[1:], s.v[1:]


def enriched_add_drop_weight(s: EnrichedState, p: ParamSet):
    """Unnormalized enriched mass: prod_i c_{w_i} z_{v_i}."""
    _need_activities(p, s.w.T)
    tables = p.tables
    c, z = (tables.C, tables.Z) if tables else (p.c, p.z)
    return _mass(p, (f for x, v in zip(s.w.letters, s.v) for f in (c[x - 1], z[v - 1])),
                 tables and (tables.Lc * tables.L) ** len(s.v))


def enriched_annihilation_weight(s: EnrichedState, p: ParamSet):
    """Enriched mass: z_{v_i} only at sites below type T, same failure
    factors as the base law."""
    z = p.tables.Z if p.tables else p.z
    return _annihilation_mass(s.w, p, (z[v - 1] for x, v in zip(s.w.letters, s.v) if x < s.w.T))


def build_enriched_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return _enriched_matrix(enumerate_enriched_words(n, T),
                            lambda w, J: _add_drop_moves(w, p, J), key=_enriched_tail)


def build_enriched_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return _enriched_matrix(enumerate_enriched_words(n, T),
                            lambda w, J: _annihilation_moves(w, p, J), key=_enriched_tail)
