"""Acceptance gate: nine end-to-end criteria, every comparison exact.

Each test prints a single PASS/FAIL line (with the wall time on success) so
the criteria can be read off a test run directly.
"""

import random
import time
from fractions import Fraction
from math import comb, isqrt, prod

from jugglemc import fluctuating, jugglers, msjmc, overwriting
from jugglemc.chain import (
    LumpingMap,
    nilpotency_check,
    simulate,
    simulate_replicas,
    stationary_exact,
    total_variation,
    ultrafast_check,
    verify_lumping,
)
from jugglemc.combinatorics import (
    ParamSet,
    TypeCounts,
    Word,
    enumerate_alphabet_words,
    enumerate_multiset_words,
)
from test_jugglers import count_arc_enrichments

F = Fraction


def check(capsys, number: int, label: str, budget_s: float, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{elapsed:.1f}s over the {budget_s:.0f}s budget"
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {label}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def rational_params(rng: random.Random, m: int, c_len: int = 0) -> ParamSet:
    z = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m))
    if c_len:
        c = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(c_len))
        return ParamSet(z, c=c)
    return ParamSet(z)


def normalized_params(rng: random.Random, m: int) -> ParamSet:
    raw = [F(rng.randint(1, 9)) for _ in range(m)]
    total = sum(raw)
    return ParamSet(tuple(x / total for x in raw))


def compositions(n: int, max_parts: int):
    """All ordered tuples of positive parts summing to n, at most max_parts."""
    out = []

    def rec(remaining, parts):
        if remaining == 0:
            out.append(tuple(parts))
            return
        if len(parts) == max_parts:
            return
        for k in range(1, remaining + 1):
            parts.append(k)
            rec(remaining - k, parts)
            parts.pop()

    rec(n, [])
    return out


# --- criterion 1 -----------------------------------------------------------


def reference_base_matrix(p: ParamSet):
    z1, z2, z3 = (p.z_at(i) for i in (1, 2, 3))
    y2, y3 = p.y_at(2), p.y_at(3)
    o = F(0)
    return [
        [z3 * z2 / (y3 * y2), z3 * z1 / (y3 * y2), z2 / y3, z1 / y3, o, o],
        [z3 / y3, o, o, o, z2 / y3, z1 / y3],
        [z2 / y2, z1 / y2, o, o, o, o],
        [o, o, z2 / y2, o, z1 / y2, o],
        [F(1), o, o, o, o, o],
        [o, o, F(1), o, o, o],
    ]


def test_criterion_1_base_matrix_and_eigenvector(capsys):
    def body():
        rng = random.Random(1001)
        counts = TypeCounts((1, 1, 1))
        for _ in range(20):
            p = rational_params(rng, 4)
            P = msjmc.build_chain(counts, p)
            assert [str(w) for w in P.states] == ["123", "132", "213", "231", "312", "321"]
            assert P.dense() == reference_base_matrix(p)
            y1, y2, y3 = p.y_at(1), p.y_at(2), p.y_at(3)
            vec = (y1 * y2 * y3, y1 * y1 * y3, y1 * y2 * y2,
                   y1 * y1 * y2, y1 * y1 * y2, y1 ** 3)
            total = sum(vec)
            assert stationary_exact(P).normalize().weights == tuple(v / total for v in vec)

    check(capsys, 1, "6x6 matrix and eigenvector on three single balls, 20 draws",
          1.0, body)


# --- criterion 2 -----------------------------------------------------------


def test_criterion_2_product_formula_all_small_spaces(capsys):
    def body():
        rng = random.Random(1002)
        chains = 0
        for n in range(1, 7):
            draws = 2 if n <= 4 else 1
            for parts in compositions(n, 4):
                counts = TypeCounts(parts)
                for _ in range(draws):
                    p = rational_params(rng, n + 1)
                    words = enumerate_multiset_words(counts)
                    weights = [msjmc.stationary_weight(w, p) for w in words]
                    Z = msjmc.partition_function(counts, p)
                    assert sum(weights) == Z
                    P = msjmc.build_chain(counts, p)
                    pi = stationary_exact(P).normalize()
                    assert pi.weights == tuple(x / Z for x in weights)
                chains += 1
        assert chains == 56

    check(capsys, 2, "stationary product law vs solver on all spaces to n=6, T=4",
          120.0, body)


# --- criterion 3 -----------------------------------------------------------


def test_criterion_3_enriched_fixed_vector_and_lumping(capsys):
    def body():
        rng = random.Random(1003)
        for n in range(1, 5):
            for parts in compositions(n, 4):
                counts = TypeCounts(parts)
                p = rational_params(rng, n + 1)
                Pt = msjmc.build_enriched_chain(counts, p)
                weights = [msjmc.enriched_stationary_weight(s, p) for s in Pt.states]
                # pi P = pi checked by scattering row mass, no dense products
                out = [F(0)] * Pt.size
                for i, row in enumerate(Pt.rows):
                    for j, prob in row.items():
                        out[j] += weights[i] * prob
                assert out == weights
                fibers: dict = {}
                for s, x in zip(Pt.states, weights):
                    fibers[s.w] = fibers.get(s.w, F(0)) + x
                for w in enumerate_multiset_words(counts):
                    assert fibers[w] == msjmc.stationary_weight(w, p)

    check(capsys, 3, "enriched monomial vector is exactly stationary and lumps, n <= 4",
          120.0, body)


# --- criterion 4 -----------------------------------------------------------


def reference_add_drop_matrix(p: ParamSet):
    z1, z2 = p.z_at(1), p.z_at(2)
    y1, y2 = p.y_at(1), p.y_at(2)
    c1, c2, c3 = p.c[0], p.c[1], p.c[2]
    l1 = (c1 + c2 + c3) * y1
    l2 = c1 * y2 + (c2 + c3) * y1
    l3 = (c1 + c2) * y2 + c3 * y1
    o = F(0)
    r1 = [c1 * z1 / l1, o, o, c2 * z1 / l1, o, o, c3 * z1 / l1, o, o]
    r2 = [o, c1 * z1 / l2, o, c1 * z2 / l2, c2 * z1 / l2, o, o, c3 * z1 / l2, o]
    r3 = [o, o, c1 * z1 / l3, o, o, c2 * z1 / l3, c1 * z2 / l3, c2 * z2 / l3,
          c3 * z1 / l3]
    return [r1, r1, r1, r2, r2, r2, r3, r3, r3]


def reference_add_drop_eigenvector(p: ParamSet):
    y1, y2 = p.y_at(1), p.y_at(2)
    c1, c2, c3 = p.c[0], p.c[1], p.c[2]
    return (c1 * c1 * y1 * y1, c1 * c2 * y1 * y1, c1 * c3 * y1 * y1,
            c1 * c2 * y1 * y2, c2 * c2 * y1 * y1, c2 * c3 * y1 * y1,
            c1 * c3 * y1 * y2, c2 * c3 * y1 * y2, c3 * c3 * y1 * y1)


def reference_annihilation_matrix(p: ParamSet):
    z1, z2, z3 = p.z_at(1), p.z_at(2), p.z_at(3)
    o = F(0)
    r1 = [z1, o, o, z1 * (z2 + z3), o, o, (z2 + z3) ** 2, o, o]
    r2 = [o, z1, o, z2, z1 * z3, o, o, (z2 + z3) * z3, o]
    r3 = [o, o, z1, o, o, z1 * z3, z2, z2 * z3, z3 ** 2]
    return [r1, r1, r1, r2, r2, r2, r3, r3, r3]


def reference_annihilation_eigenvector(p: ParamSet):
    z1, z2, z3 = p.z_at(1), p.z_at(2), p.z_at(3)
    return (z1 ** 2, z1 ** 2 * (z2 + z3), z1 * (z2 + z3) ** 2,
            z1 * (z1 + z2) * (z2 + z3), z1 ** 2 * z3 * (z2 + z3),
            z1 * z3 * (z2 + z3) ** 2, (z1 + z2) * (z2 + z3) ** 2,
            z3 * (z1 + z2) * (z2 + z3) ** 2, z3 ** 2 * (z2 + z3) ** 2)


def test_criterion_4_fluctuating_matrices_and_formulas(capsys):
    def body():
        rng = random.Random(1004)
        for _ in range(5):
            p = rational_params(rng, 3, c_len=3)
            P = fluctuating.build_add_drop_chain(2, 3, p)
            assert P.dense() == reference_add_drop_matrix(p)
            vec = reference_add_drop_eigenvector(p)
            total = sum(vec)
            assert stationary_exact(P).normalize().weights == tuple(v / total for v in vec)
        for _ in range(5):
            p = normalized_params(rng, 3)
            P = fluctuating.build_annihilation_chain(2, 3, p)
            assert P.dense() == reference_annihilation_matrix(p)
            vec = reference_annihilation_eigenvector(p)
            assert sum(vec) == 1
            assert stationary_exact(P).normalize().weights == vec

        # closed forms against the solver across the whole small range
        for n in range(1, 6):
            draws = 2 if n <= 3 else 1
            for T in range(1, 4):
                for _ in range(draws):
                    p = rational_params(rng, n + 1, c_len=T)
                    words = enumerate_alphabet_words(n, T)
                    Z = fluctuating.add_drop_partition(n, T, p)
                    pi = stationary_exact(fluctuating.build_add_drop_chain(n, T, p))
                    assert pi.normalize().weights == tuple(
                        fluctuating.add_drop_stationary_weight(w, p) / Z for w in words
                    )
                    q = normalized_params(rng, n + 1)
                    vec = tuple(fluctuating.annihilation_stationary(w, q) for w in words)
                    assert sum(vec) == 1
                    pi = stationary_exact(fluctuating.build_annihilation_chain(n, T, q))
                    assert pi.normalize().weights == vec

    check(capsys, 4, "add-drop and annihilation 9x9s, eigenvectors, formulas to n=5, T=3",
          300.0, body)


# --- criterion 5 -----------------------------------------------------------


def test_criterion_5_overwriting_tower(capsys):
    def body():
        rng = random.Random(1005)
        # the worked seven-site transition: B = ((3,2),(6,4),(8,6)) takes
        # w to 1262436, and distinct B give distinct successors, so the row
        # entry of 1262436 is the probability of this B alone
        w = Word((3, 1, 4, 6, 2, 5, 3), 6)
        for _ in range(3):
            p = normalized_params(rng, 8)
            want = ((1 - p.y_at(6)) * p.z_at(5) * (1 - p.y_at(3)) * p.z_at(2)
                    * (1 - p.y_at(1)))
            # the walk lists each move's factors as (top, bottom) slots into
            # the tables of the exact weights
            top, bottom = overwriting._tables(p)
            row = [(w2.letters, F(prod(top[i] for i in slots[::2]),
                                  prod(bottom[k] for k in slots[1::2])))
                   for _, w2, slots in overwriting._overwrites(w)[1]]
            assert len(dict(row)) == len(row)
            assert dict(row)[(1, 2, 6, 2, 4, 3, 6)] == want

        for n in (1, 2, 3):
            for T in (2, 3):
                p = normalized_params(rng, n + 1)
                Pw = overwriting.build_word_chain(n, T, p)
                Pt = overwriting.build_tableau_chain(n, T, p)
                Pm = overwriting.build_matrix_chain(n, T, p)
                f_tw = LumpingMap.from_function(
                    overwriting.lump_tableau, Pt.states, Pw.states
                )
                ok, witness = verify_lumping(Pt, f_tw, Pw)
                assert ok, witness
                f_mt = LumpingMap.from_function(
                    overwriting.lump_matrix, Pm.states, Pt.states
                )
                ok, witness = verify_lumping(Pm, f_mt, Pt)
                assert ok, witness
                fibers: dict = {}
                for M in Pm.states:
                    V = overwriting.lump_matrix(M)
                    fibers[V] = fibers.get(V, F(0)) + overwriting.matrix_stationary_weight(M, p)
                for V in Pt.states:
                    assert fibers.get(V, F(0)) == overwriting.tableau_stationary(V, p)

    check(capsys, 5, "overwriting tower: worked transition, double lumping, fiber sums",
          600.0, body)


# --- criterion 6 -----------------------------------------------------------


def test_criterion_6_ultrafast_and_spectrum(capsys):
    def body():
        rng = random.Random(1006)
        for n in (1, 2, 3):
            for T in (2, 3):
                p = normalized_params(rng, n + 1)
                word = overwriting.build_word_chain(n, T, p)
                tab = overwriting.build_tableau_chain(n, T, p)
                mat = overwriting.build_matrix_chain(n, T, p)
                pi_word = overwriting.overwriting_stationary_distribution(n, T, p)
                for P, pi in (
                    (word, pi_word.weights),
                    (tab, tuple(overwriting.tableau_stationary(V, p) for V in tab.states)),
                    (mat, tuple(overwriting.matrix_stationary_weight(M, p) for M in mat.states)),
                ):
                    ok, common = ultrafast_check(P, n)
                    assert ok, (n, T, P.size)
                    assert common.weights == pi
                    assert nilpotency_check(P, n)

    check(capsys, 6, "all rows of P^n agree and P^(n+1) = P^n for the three chains",
          300.0, body)


# --- criterion 7 -----------------------------------------------------------


def test_criterion_7_last_site_marginals(capsys):
    def body():
        rng = random.Random(1007)
        draws_done = 0
        for n in (1, 2, 3):
            draws = 2 if n <= 2 else 1
            for T in (2, 3, 4):
                for _ in range(draws):
                    p = normalized_params(rng, n + 1)
                    pi = stationary_exact(overwriting.build_word_chain(n, T, p))
                    mass = dict(zip(pi.states, pi.normalize().weights))
                    for j in range(1, T + 1):
                        want = sum(m for w, m in mass.items() if w.letter(n) == j)
                        assert overwriting.last_site_marginal(j, n, T, p) == want
                    if n >= 2:
                        for i in range(1, T + 1):
                            for j in range(1, T + 1):
                                want = sum(
                                    m for w, m in mass.items()
                                    if w.letter(n - 1) == i and w.letter(n) == j
                                )
                                got = overwriting.joint_last_two_marginal(i, j, n, T, p)
                                assert got == want
                    draws_done += 1
        assert draws_done >= 10

    check(capsys, 7, "closed-form last-site and joint marginals to n=3, T=4",
          300.0, body)


# --- criterion 8 -----------------------------------------------------------


JUGGLER_REFERENCE = [
    [F(1, 6)] * 6,
    [F(1, 3), F(1, 3), F(0), F(1, 3), F(0), F(0)],
    [F(1, 3), F(1, 3), F(0), F(1, 3), F(0), F(0)],
    [F(1, 3), F(0), F(1, 3), F(0), F(1, 3), F(0)],
    [F(1, 3), F(0), F(1, 3), F(0), F(1, 3), F(0)],
    [F(1), F(0), F(0), F(0), F(0), F(0)],
]
JUGGLER_DISPLAY_ORDER = [5, 1, 2, 3, 4, 0]


def test_criterion_8_several_jugglers(capsys):
    def body():
        P = jugglers.build_chain(2, 2, 2)
        dense = P.dense()
        for i, pi_ in enumerate(JUGGLER_DISPLAY_ORDER):
            for j, pj in enumerate(JUGGLER_DISPLAY_ORDER):
                assert dense[pi_][pj] == JUGGLER_REFERENCE[i][j]
        stat = stationary_exact(P).normalize()
        eigen = (6, 3, 3, 3, 3, 1)
        for i, pi_ in enumerate(JUGGLER_DISPLAY_ORDER):
            assert stat.weights[pi_] == F(eigen[i], 19)

        for r in range(1, 10):
            for c in range(1, 10):
                if r * c > 9:
                    continue
                for balls in range(r * c + 1):
                    states = jugglers.enumerate_arrays(r, c, balls)
                    weights = [jugglers.juggler_stationary_weight(A) for A in states]
                    for A, want in zip(states, weights):
                        assert count_arc_enrichments(A) == want
                    total = sum(weights)
                    pi = stationary_exact(jugglers.build_chain(r, c, balls)).normalize()
                    assert pi.weights == tuple(F(x, total) for x in weights)

    check(capsys, 8, "juggler team 6x6, eigenvector (6,3,3,3,3,1), all grids to 9 cells",
          300.0, body)


# --- criterion 9 -----------------------------------------------------------


def test_criterion_9_monte_carlo_sanity(capsys):
    def body():
        p = ParamSet((F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
        counts = TypeCounts((1, 1, 1))
        P = msjmc.build_chain(counts, p)
        Z = msjmc.partition_function(counts, p)
        exact = [msjmc.stationary_weight(w, p) / Z for w in P.states]
        emp = simulate(P, P.states[0], 1_000_000, seed=2026)
        tv = total_variation(emp, stationary_exact(P).normalize())
        assert exact == list(stationary_exact(P).normalize().weights)
        assert tv < F(1, 100), float(tv)

        q = ParamSet((F(1, 3), F(1, 3), F(1, 3)))
        Pw = overwriting.build_word_chain(2, 3, q)
        replicas = 100_000
        emp = simulate_replicas(Pw, Pw.states[0], horizon=2, replicas=replicas, seed=2027)
        bound = F(3) * F(isqrt(Pw.size * 10 ** 12 // replicas), 10 ** 6)
        tv = total_variation(emp, overwriting.overwriting_stationary_distribution(2, 3, q))
        assert tv < bound, (float(tv), float(bound))

    check(capsys, 9, "seeded Monte Carlo within TV budget of the exact laws",
          120.0, body)
