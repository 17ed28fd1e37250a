"""Add-drop and annihilation chains on words of length n over {1..T}.

Ball counts fluctuate: a transition replaces the first letter by a fresh ball
of type j (chosen by activities in the add-drop model, by cascading attempts
in the annihilation model) and then runs the usual bumping cascade on the
intermediate word j w^-. Past position 1, j w^- agrees with w, so one J table
of w serves every j, and a row depends only on w^- = w_2 .. w_n. The
skeleton (chain._skeleton, kept per (n, T)) walks one word per w^-: each
insertion head (j, x), x + 1 = J(a(2), j), then msjmc's cascade walk from
a(2), started from w_2 .. w_{a(2)-1} j, so j w^- is never built; the row
datum is J_w(2, .). chain's evaluator multiplies each move's bumping
product by its head's factor, which the model's lead prices once per row
as numerators over one row denominator, the same expression on every
backend: C_j Z over sum_t C_t Y for add-drop, Z times failures L - Y
over L^(T-1) for annihilation. The evaluator alone divides, for float
weights. The enriched skeletons are derived from these
(msjmc.enriched_skeleton), one row per (w^-, v^-). Every formula reads p's
tables, whose float form is the weights over 1. For exact weights each law
is one suffix sweep of int masses over all words, and the add-drop
normalizer a sum of products of ints over a power of Lc L, one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, prod

from .chain import ChainMatrix, Skeleton, _chain, _fold, _skeleton
from .combinatorics import ParamSet, Word, enumerate_alphabet_words, \
    complete_homogeneous, _float_normalizer, _j_table, _mass, _shape_cached, _suffix_sweep
from .errors import DegenerateParams, NotNormalized
from .msjmc import EnrichedState, bump_tables, cascades, enriched_skeleton, enriched_states


def _insertions(w: Word, J: list, j: int):
    """Yield (x, successor word, slots) for every bumping sequence a of
    j w^-, lexicographically: x + 1 = J(a(2), j), the index of the insertion
    step's factor z, and slots the factor slots of msjmc's cascades walk
    from a(2) on. J is _j_table(w), which agrees with the table of j w^- from
    position 2 on, and the successor starts with w_2 .. w_{a(2)-1} followed
    by j."""
    letters = w.letters
    for a2 in range(2, w.n + 1):
        if letters[a2 - 1] > j:
            x = J[a2][j] - 1
            for succ, slots in cascades(w, J, letters[1 : a2 - 1] + (j,), ()):
                yield x, succ, slots
    yield 0, Word._make((letters[1:] + (j,), w.T)), ()


def _need_activities(p: ParamSet, T: int):
    if p.c is None or len(p.c) != T:
        raise ValueError(f"need {T} activities")


def _add_drop_moves(w: Word):
    """add_drop's walk for _skeleton: the row datum J_w(2, .), and a move
    ((j, x), successor word, slots) for every insertion type j and bumping
    sequence a of j w^-, as _insertions."""
    J = _j_table(w)
    return J[2], (((j, x), succ, slots) for j in range(1, w.T + 1)
                  for x, succ, slots in _insertions(w, J, j))


def _add_drop_lead(p: ParamSet, T: int):
    """add_drop's lead at p: over a row with J_w(2, .) = J2, the insertion
    head (j, x) has the factor c_j z_{x+1} / sum_t c_t y_{J(2, t)}, given as
    the numerator C_j Z_{x+1} over the row denominator sum_t C_t Y_{J(2, t)},
    both read off p's tables; the denominator is folded left, so its float
    bits do not depend on how builtin sum adds floats."""
    _need_activities(p, T)
    c, y, z = p.tables.C, p.tables.Y, p.tables.Z

    def lead(J2: tuple, heads: tuple):
        den = _fold(c[t - 1] * y[J2[t] - 1] for t in range(1, T + 1))
        if den == 0 and y[0] == 0:
            raise DegenerateParams("insertion normalizer is 0")
        _float_normalizer(den, "insertion normalizer")  # activities, y_1 > 0: only floats fail
        return den, [c[j - 1] * z[x] for j, x in heads]

    return lead


def add_drop_stationary_weight(w: Word, p: ParamSet):
    """Unnormalized stationary mass prod_i c_{w_i} y_{E_w(i)}."""
    _need_activities(p, w.T)
    J, t = _j_table(w), p.tables
    return _mass(p, (f for i, x in enumerate(w.letters, 1) for f in (t.C[x - 1], t.Y[J[i][x] - 1])),
                 (t.Lc * t.L) ** w.n)


def _add_drop_masses(n: int, T: int, tables) -> tuple[list, int]:
    """(prod_i C_{w_i} Y_{E_w(i)} for the words of enumerate_alphabet_words(n,
    T), in its order, by one suffix sweep; (Lc L)^n)."""
    factors = [[c * y for y in tables.Y] for c in tables.C]
    return [acc for _, acc in _suffix_sweep(n, T, factors)], (tables.Lc * tables.L) ** n


def _compositions(n: int, parts: int) -> list:
    """The weak compositions of n into `parts` nonnegative parts, in
    lexicographic order: a level sweep that extends each prefix by every
    next part that fits, smallest first, and closes it with what is left."""
    level = [()]
    for _ in range(parts - 1):
        level = [c + (f,) for c in level for f in range(n - sum(c) + 1)]
    return [c + (n - sum(c),) for c in level]


def add_drop_partition(n: int, T: int, p: ParamSet):
    """Z: sum over type histograms of the activity monomial times the
    product of complete homogeneous factors, over p's tables: each term is
    a product of C and h_k(Y) over (Lc L)^n (c_t = C_t / Lc and h_k(y) =
    h_k(Y) / L^k), so for exact weights Z is one Fraction."""
    _need_activities(p, T)
    t = p.tables
    total = t.L * 0
    try:
        for comp in _compositions(n, T):
            term = t.L ** 0
            prefix = 0
            for ci, ni in zip(t.C, comp):
                term = term * ci ** ni
                prefix += ni
                term = term * complete_homogeneous(ni, t.Y[: n - prefix + 1])
            total = total + term
    except OverflowError:  # only a float power raises it
        total = inf
    return Fraction(total, (t.Lc * t.L) ** n) if p.exact else _float_normalizer(total)


def _annihilation_moves(w: Word):
    """annihilation's walk for _skeleton, with cascading attempts: the row
    datum J_w(2, .), the moves ((j, x), successor word, slots) of
    _insertions for each type j < T, then type T to the top with x = 0 and
    no cascade."""
    J = _j_table(w)
    moves = [((j, x), w2, slots) for j in range(1, w.T) for x, w2, slots in _insertions(w, J, j)]
    moves.append(((w.T, 0), Word._make((w.letters[1:] + (w.T,), w.T)), ()))
    return J[2], moves


def _annihilation_lead(p: ParamSet, T: int):
    """annihilation's lead at p: types below j all fail, with factors 1 -
    y_{J(2, t)}, then j lands through z_{x+1}; type T takes the leftover
    mass, the product of all T - 1 failures. Over p's tables the failures
    are L - Y_{J(2, t)}, and each head is its numerator over the row
    denominator L^(T-1): Z_{x+1} times its failures times L^(T-1-j), and
    the product of all failures for type T."""
    L, Y, Z = p.tables.L, p.tables.Y, p.tables.Z
    powers = [L ** k for k in range(T)]

    def lead(J2: tuple, heads: tuple):
        fails = [L - Y[J2[t] - 1] for t in range(1, T)]
        return powers[-1], [prod(fails, start=powers[0]) if j == T else
                            prod(fails[: j - 1], start=Z[x]) * powers[T - 1 - j]
                            for j, x in heads]

    return lead


def _annihilation_mass(w: Word, p: ParamSet, sites):
    """The annihilation law's mass of w: the factors `sites` (p's scalars at
    the sites below type T) times the failure factors 1 - y_q for q = 1..(the
    number of balls of type >= level), for every level 2..T; over p's
    tables L - Y_q, and for exact weights one Fraction over a power of L."""
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    L, Y = p.tables.L, p.tables.Y
    factors = list(sites)
    for level in range(2, w.T + 1):
        factors += (L - Y[q] for q in range(sum(1 for x in w.letters if x >= level)))
    return _mass(p, factors, L ** len(factors))


def annihilation_stationary(w: Word, p: ParamSet):
    """Stationary mass, already normalized: the heavy product y_{E_w(i)} over
    sites carrying a type below T times the failure factors per type."""
    J, Y = _j_table(w), p.tables.Y
    return _annihilation_mass(w, p, (Y[J[i][x] - 1] for i, x in enumerate(w.letters, 1)
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


def _tail(w: Word) -> tuple:
    return w.letters[1:]


def _add_drop_skeleton(n: int, T: int) -> Skeleton:
    return _skeleton(enumerate_alphabet_words(n, T), _add_drop_moves, key=_tail)


def _annihilation_skeleton(n: int, T: int) -> Skeleton:
    return _skeleton(enumerate_alphabet_words(n, T), _annihilation_moves, key=_tail)


def build_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return _chain(_shape_cached(_add_drop_skeleton, n, T), p, bump_tables(p),
                  _add_drop_lead(p, T), "cascade factor")


def build_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return _chain(_shape_cached(_annihilation_skeleton, n, T), p, bump_tables(p),
                  _annihilation_lead(p, T), "cascade factor")


def enumerate_enriched_words(n: int, T: int) -> list[EnrichedState]:
    """All (w, v) over the full alphabet state space, lexicographic."""
    return enriched_states(enumerate_alphabet_words(n, T))


def enriched_add_drop_weight(s: EnrichedState, p: ParamSet):
    """Unnormalized enriched mass: prod_i c_{w_i} z_{v_i}."""
    _need_activities(p, s.w.T)
    t = p.tables
    return _mass(p, (f for x, v in zip(s.w.letters, s.v) for f in (t.C[x - 1], t.Z[v - 1])),
                 (t.Lc * t.L) ** len(s.v))


def enriched_annihilation_weight(s: EnrichedState, p: ParamSet):
    """Enriched mass: z_{v_i} only at sites below type T, same failure
    factors as the base law."""
    Z = p.tables.Z
    return _annihilation_mass(s.w, p, (Z[v - 1] for x, v in zip(s.w.letters, s.v) if x < s.w.T))


def _enriched_skeleton(base_walk, n: int, T: int) -> Skeleton:
    """The enriched skeleton over the word chain base_walk(n, T) builds."""
    return enriched_skeleton(_shape_cached(base_walk, n, T), enumerate_enriched_words(n, T))


def build_enriched_add_drop_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    p.require_arity(n)
    return _chain(_shape_cached(_enriched_skeleton, _add_drop_skeleton, n, T), p,
                  bump_tables(p), _add_drop_lead(p, T), "cascade factor")


def build_enriched_annihilation_chain(n: int, T: int, p: ParamSet) -> ChainMatrix:
    if not p.normalized:
        raise NotNormalized("annihilation model needs z summing to 1")
    p.require_arity(n)
    return _chain(_shape_cached(_enriched_skeleton, _annihilation_skeleton, n, T), p,
                  bump_tables(p), _annihilation_lead(p, T), "cascade factor")
