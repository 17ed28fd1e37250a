"""Overwriting chain and its two enrichments (staircase tableaux, shift
matrices), the lumping tower between them, and the last-site marginals."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from jugglemc import overwriting
from jugglemc.chain import (
    LumpingMap,
    stationary_exact,
    total_variation,
    verify_lumping,
)
from jugglemc.cli import main
from jugglemc.combinatorics import ParamSet, Word, enumerate_alphabet_words, _shape_cached
from jugglemc.errors import NotNormalized
from jugglemc.overwriting import (
    MatrixState,
    Tableau,
    build_matrix_chain,
    build_tableau_chain,
    build_word_chain,
    enumerate_matrix_states,
    enumerate_tableaux,
    joint_last_two_marginal,
    last_site_marginal,
    lump_matrix,
    lump_tableau,
    matrix_stationary_weight,
    overwriting_stationary,
    overwriting_stationary_distribution,
    tableau_stationary,
    tableau_successors,
    tower_checks,
    _grid_columns,
    _shifted_body,
)

from chain_reference import build_matrix
from overwriting_reference import apply_overwrite, matrix_fiber_law, matrix_step, \
    overwrite_prob, overwrite_sequences, tableau_step_prob

F = Fraction


def random_normalized_params(rng: random.Random, n: int) -> ParamSet:
    raw = [F(rng.randint(1, 9)) for _ in range(n + 1)]
    total = sum(raw)
    return ParamSet(tuple(x / total for x in raw))


def test_overwrite_sequences_blocked_sites():
    # sites holding a 1 can never be overwritten, so only the virtual top
    # site accepts a new letter
    seqs = overwrite_sequences(Word((1, 1), 3))
    assert seqs == [((3, 1),), ((3, 2),), ((3, 3),)]


def test_overwrite_sequences_general_count():
    # brute-force the defining constraints
    w = Word((2, 3, 1), 3)
    n, T = w.n, w.T

    def valid(B):
        if not B or B[-1][0] != n + 1:
            return False
        bs = [b for b, _ in B]
        ts = [t for _, t in B]
        if any(not 2 <= b <= n + 1 for b in bs):
            return False
        if sorted(set(bs)) != bs or sorted(set(ts)) != ts:
            return False
        if any(t > T for t in ts):
            return False
        for b, t in B[:-1]:
            if t >= w.letter(b):
                return False
        return True

    brute = set()
    for k in range(1, n + 2):
        for bs in product(range(2, n + 2), repeat=k):
            for ts in product(range(1, T + 1), repeat=k):
                B = tuple(zip(bs, ts))
                if valid(B):
                    brute.add(B)
    assert set(overwrite_sequences(w)) == brute


def test_worked_transition():
    w = Word((3, 1, 4, 6, 2, 5, 3), 6)
    B = ((3, 2), (6, 4), (8, 6))
    assert B in set(overwrite_sequences(w))
    w2 = apply_overwrite(w, B)
    assert w2.letters == (1, 2, 6, 2, 4, 3, 6)
    rng = random.Random(50)
    for _ in range(3):
        p = random_normalized_params(rng, 7)
        y = p.y_at
        z = p.z_at
        want = (1 - y(6)) * z(5) * (1 - y(3)) * z(2) * (1 - y(1))
        assert overwrite_prob(w, B, p) == want


def test_overwrite_prob_requires_normalized():
    w = Word((1, 2), 2)
    with pytest.raises(NotNormalized):
        overwrite_prob(w, ((3, 1),), ParamSet((F(1), F(1), F(1))))
    with pytest.raises(NotNormalized):
        build_word_chain(2, 2, ParamSet((F(1), F(1), F(1))))


def test_word_chain_rows():
    rng = random.Random(51)
    p = random_normalized_params(rng, 2)
    P = build_word_chain(2, 3, p)
    assert [str(w) for w in P.states] == [
        "11", "21", "31", "12", "22", "32", "13", "23", "33",
    ]
    rows = {str(w): P.rows[i] for i, w in enumerate(P.states)}
    for w in P.states:
        assert rows[str(w)] == rows["1" + str(w)[1:]]


def test_tableau_validation():
    Tableau(((1, 2), (2,)), 3)
    with pytest.raises(ValueError):
        Tableau(((2, 1), (0,)), 3)  # column must increase upward
    with pytest.raises(ValueError):
        Tableau(((2, 0), (1,)), 3)  # row must increase to the right
    with pytest.raises(ValueError):
        Tableau(((3, 0), (0,)), 3)  # entries live in 1..T-1
    with pytest.raises(ValueError):
        Tableau(((0, 0),), 3)  # wrong column count for its height


def test_tableau_cell_and_str():
    V = Tableau(((1, 2), (2,)), 3)
    assert V.columns[0] == (1, 2) and V.columns[1] == (2,)
    assert str(V) == "2/12"
    assert str(Tableau(((0, 0), (0,)), 3)) == "0/00"


def test_enumerate_tableaux_matches_brute_force():
    for n, T in ((1, 2), (2, 2), (2, 3), (3, 2)):
        brute = set()
        shapes = [n + 1 - k for k in range(1, n + 1)]
        cells = sum(shapes)
        for fill in product(range(T), repeat=cells):
            cols, idx = [], 0
            for length in shapes:
                cols.append(tuple(fill[idx : idx + length]))
                idx += length
            try:
                brute.add(Tableau(tuple(cols), T))
            except ValueError:
                continue
        got = enumerate_tableaux(n, T)
        assert len(got) == len(set(got))
        assert set(got) == brute


def test_tableau_rows_are_stochastic():
    rng = random.Random(52)
    p = random_normalized_params(rng, 2)
    for V in enumerate_tableaux(2, 3):
        succ = tableau_successors(V)
        assert len(succ) == len(set(succ))
        total = sum(tableau_step_prob(V, W, p) for W in succ)
        assert total == 1
        # anything outside the successor list carries no mass
        for W in enumerate_tableaux(2, 3):
            if W not in set(succ):
                assert tableau_step_prob(V, W, p) == 0


def test_tableau_stationary_mass_and_fixed_vector():
    rng = random.Random(53)
    for n, T in ((2, 2), (2, 3), (3, 2)):
        p = random_normalized_params(rng, n)
        tabs = enumerate_tableaux(n, T)
        weights = {V: tableau_stationary(V, p) for V in tabs}
        assert sum(weights.values()) == 1
        Pt = build_tableau_chain(n, T, p)
        pi = stationary_exact(Pt).normalize()
        assert pi.weights == tuple(weights[V] for V in Pt.states)


def test_tableau_chain_and_lumps_run_no_state_check(monkeypatch):
    checked = [0]
    check = Tableau.__new__

    def counted(cls, *args):
        checked[0] += 1
        return check(cls, *args)

    monkeypatch.setattr(Tableau, "__new__", counted)
    P = build_tableau_chain(4, 3, random_normalized_params(random.Random(58), 4))
    assert P.size == 742 and sum(len(row) for row in P.rows) == 6640
    assert len(enumerate_tableaux(3, 4)) == 350
    Pm = build_matrix_chain(2, 4, random_normalized_params(random.Random(59), 2))
    assert len({lump_matrix(M) for M in Pm.states}) == 30
    # the enumerator, the steps and the lumps build through Tableau._make
    assert checked[0] == 0
    Tableau(((1, 2), (2,)), 3)
    assert checked[0] == 1


def test_lump_tableau():
    assert lump_tableau(Tableau(((0, 0), (0,)), 3)) == Word((3, 3), 3)
    assert lump_tableau(Tableau(((1, 2), (2,)), 3)) == Word((1, 2), 3)
    # letters come from the leftmost filled cell at each height
    assert lump_tableau(Tableau(((0, 1), (2,)), 3)) == Word((2, 1), 3)


def test_tableau_lumps_to_word_chain():
    rng = random.Random(54)
    p = random_normalized_params(rng, 2)
    Pt = build_tableau_chain(2, 3, p)
    P = build_word_chain(2, 3, p)
    f = LumpingMap.from_function(lump_tableau, Pt.states, P.states)
    ok, witness = verify_lumping(Pt, f, P)
    assert ok, witness


def test_matrix_state_str_and_step():
    M = MatrixState(((1, 2), (3, 1)))
    assert str(M) == "12/31"
    assert matrix_step(M, (2, 2)) == MatrixState(((2, 1), (2, 3)))
    with pytest.raises(ValueError):
        matrix_step(M, (4, 1))  # entries live in 1..n+1


def test_enumerate_matrix_states():
    states = enumerate_matrix_states(2, 2)
    assert len(states) == 9
    assert len(set(states)) == 9
    assert len(enumerate_matrix_states(2, 3)) == 81
    with pytest.raises(ValueError):
        enumerate_matrix_states(4, 4)  # 5^12 grids blow the cap
    # the flat product over the cells, row by row, cut into T - 1 rows
    for n, T in ((1, 2), (1, 5), (2, 3), (3, 2), (2, 4), (3, 3)):
        flat = [MatrixState(tuple(cells[r * n : (r + 1) * n] for r in range(T - 1)))
                for cells in product(range(1, n + 2), repeat=(T - 1) * n)]
        assert enumerate_matrix_states(n, T) == flat


def test_matrix_chain_product_stationary():
    rng = random.Random(55)
    p = random_normalized_params(rng, 2)
    P = build_matrix_chain(2, 3, p)
    pi = stationary_exact(P).normalize()
    assert pi.weights == tuple(matrix_stationary_weight(M, p) for M in P.states)


def test_lump_matrix_edges():
    # insertions at depth n+1 always fail, leaving the tableau empty
    M = MatrixState(((3, 3), (3, 3)))
    assert lump_matrix(M) == Tableau(((0, 0), (0,)), 3)
    assert lump_tableau(lump_matrix(M)) == Word((3, 3), 3)


def test_matrix_lumps_to_tableau_chain():
    rng = random.Random(56)
    for n, T in ((2, 2), (2, 3)):
        p = random_normalized_params(rng, n)
        Pm = build_matrix_chain(n, T, p)
        Pt = build_tableau_chain(n, T, p)
        f = LumpingMap.from_function(lump_matrix, Pm.states, Pt.states)
        ok, witness = verify_lumping(Pm, f, Pt)
        assert ok, witness


def weight_sets(rng: random.Random, n: int) -> list:
    """Random weights, and random weights with a zero among them."""
    with_zeros = [F(rng.randint(0, 3)) for _ in range(n + 1)]
    i = rng.randrange(n + 1)
    with_zeros[i], with_zeros[i - 1] = F(0), with_zeros[i - 1] + 1
    return [random_normalized_params(rng, n),
            ParamSet(tuple(x / sum(with_zeros) for x in with_zeros))]


# every (n, T) with at most 8,000 matrix states, (3,3), (2,5) and (5,2) among them
FIBER_SHAPES = [(n, T) for n in range(1, 6) for T in range(2, 14)
                if (n + 1) ** (n * (T - 1)) <= 8_000]


def test_fiber_weight_identity():
    """The per-state fiber sums equal the tableau law, and the column sweep
    of matrix_fiber_law gives the same masses on any tableau order, with
    random weights and with weights holding zeros."""
    rng = random.Random(57)
    for n, T in FIBER_SHAPES:
        states = enumerate_matrix_states(n, T)
        lumps = [lump_matrix(M) for M in states]
        tableaux = enumerate_tableaux(n, T)
        rng.shuffle(tableaux)
        for p in weight_sets(rng, n):
            fibers = dict.fromkeys(tableaux, F(0))
            for M, V in zip(states, lumps):
                fibers[V] += matrix_stationary_weight(M, p)
            law = matrix_fiber_law(tableaux, n, T, p)
            assert law.states == tuple(tableaux), (n, T)
            assert law.weights == tuple(fibers[V] for V in tableaux), (n, T)
            assert law.weights == tuple(tableau_stationary(V, p) for V in tableaux), (n, T)


# every (n, T) with at most 5,000 matrix states: (3,3), (4,2) and (1,13) among them
TOWER_SHAPES = [(n, T) for n in range(1, 6) for T in range(2, 14)
                if (n + 1) ** (n * (T - 1)) <= 5_000]


def per_state_checks(n: int, T: int, p: ParamSet) -> list:
    """The tower's three verdicts from the enumerated chains: verify_lumping
    on the built matrix chain and its lumps, verify_lumping on the tableau
    chain, and the fiber sums of the grids, each grid priced column by
    column with the fresh column's law."""
    Pw, Pt, Pm = (build(n, T, p) for build in (build_word_chain, build_tableau_chain,
                                                build_matrix_chain))
    lumps = [lump_matrix(M) for M in Pm.states]
    to_tableau = verify_lumping(Pm, LumpingMap(zip(Pm.states, lumps), Pt.states), Pt)[0]
    to_word = verify_lumping(Pt, LumpingMap.from_function(lump_tableau, Pt.states, Pw.states),
                             Pw)[0]
    price = {col: F(v, p.tables.L ** (T - 1))
             for col, v in overwriting._grid_columns(n, T, p.tables.Z)}
    fibers = dict.fromkeys(Pt.states, F(0))
    for M, V in zip(Pm.states, lumps):
        fibers[V] += prod(price[col] for col in zip(*M.grid))
    return [to_tableau, to_word, all(fibers[V] == tableau_stationary(V, p) for V in Pt.states)]


def sweep_verdicts(n: int, T: int, p: ParamSet) -> list:
    checks = tower_checks(n, T, p, build_word_chain(n, T, p))
    assert [name for name, _ in checks] == ["matrix-to-tableau lumping",
                                            "tableau-to-word lumping", "fiber weight identity"]
    return [bad is None for _, bad in checks]


def test_tower_checks_match_the_per_state_checks():
    rng = random.Random(59)
    for n, T in TOWER_SHAPES:
        for p in weight_sets(rng, n):
            assert sweep_verdicts(n, T, p) == per_state_checks(n, T, p) == [True] * 3, (n, T)


def _shifted_z_columns(n, T, Z):
    # cell x priced with z_{x+1}, and n+1 with z_1: still a law on the columns
    return _grid_columns(n, T, Z[1:] + Z[:1])


MATRIX_STEP = overwriting._matrix_step


def _shifted_z_step(M):
    # the matrix chain's fresh column priced as _shifted_z_columns prices it:
    # the top slot 2x - 1 of z_x becomes that of z_{x+1}, and n+1's that of z_1
    n = len(M.grid[0])
    return None, ((None, M2, tuple(2 * ((s + 1) // 2 % (n + 1)) + 1 if i % 2 == 0 else s
                                   for i, s in enumerate(slots)))
                  for _, M2, slots in MATRIX_STEP(M)[1])


def _replay_past_the_free_height(right, choices):
    # type i lands one free height below its recorded one, wrapping to the top
    col = [0] * (len(right) + 1)
    for i, pos in enumerate(choices, start=1):
        free = overwriting._free_heights((col,) + right, 1, i)
        if pos <= len(free):
            col[free[pos % len(free)] - 1] = i
    return (tuple(col),) + right


@pytest.mark.parametrize("patches", [
    [("_grid_columns", _shifted_z_columns), ("_matrix_step", _shifted_z_step)],
    [("_replay_column", _replay_past_the_free_height)],
], ids=["shifted-z", "wrong-free-height"])
def test_tower_checks_refuse_broken_laws_as_the_per_state_checks_do(monkeypatch, patches):
    """Both paths give the same verdicts and refuse the matrix lumping, and
    the sweep's counterexample is one verify_lumping would accept as such: its
    witness grid's row, lumped onto the tableau it names, differs from the
    tableau row. The fresh column's law is read by the sweep (_grid_columns)
    and by the matrix chain's walk (_matrix_step), so a broken law breaks
    both."""
    shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]
    # the kernel caches hold the unbroken replays of every shape first
    warm = random.Random(62)
    for n, T in shapes:
        p = random_normalized_params(warm, n)
        assert sweep_verdicts(n, T, p) == [True] * 3, (n, T)
    rng = random.Random(60)
    for name, broken in patches:
        monkeypatch.setattr(overwriting, name, broken)
    for n, T in shapes:
        p = random_normalized_params(rng, n)
        verdicts = sweep_verdicts(n, T, p)
        assert verdicts == per_state_checks(n, T, p) and verdicts[:2] == [False, True], (n, T)
        (_, (M, W, got, want)), *_ = tower_checks(n, T, p, build_word_chain(n, T, p))
        Pm, Pt = build_matrix_chain(n, T, p), build_tableau_chain(n, T, p)
        lumps = [lump_matrix(M) for M in Pm.states]
        row = Pm.rows[Pm.index[M]]
        assert got == sum((v for j, v in row.items() if lumps[j] == W), F(0)) != want
        assert want == Pt.rows[Pt.index[lump_matrix(M)]].get(Pt.index[W], 0)


def test_column_sweep_keys_are_the_tableaux_with_their_shifted_bodies():
    for n, T in [(n, T) for n, T in TOWER_SHAPES if n + T <= 6]:
        p = ParamSet(tuple([F(1, n + 1)] * (n + 1)))
        pairs, pushes = overwriting._column_sweep(n, T, p.tables.Z)
        tableaux = enumerate_tableaux(n, T)
        assert sorted(A for A, _ in pairs) == [V.columns for V in tableaux], (n, T)
        assert all(B == _shifted_body(V) for (_, B), V in zip(sorted(pairs), tableaux)), (n, T)
        assert set(pushes) == {_shifted_body(V) for V in tableaux}, (n, T)


KERNELS = (overwriting._column_fillings, overwriting._column_slots, overwriting._replay_column)


def tower_results(n: int, T: int, p: ParamSet) -> tuple:
    Pw, Pt = build_word_chain(n, T, p), build_tableau_chain(n, T, p)
    return (tower_checks(n, T, p, Pw), Pt, [tableau_stationary(V, p) for V in Pt.states],
            overwriting._word_law(Pw.states, n, T, p),
            [lump_matrix(M) for M in enumerate_matrix_states(n, T)])


def test_warm_kernel_caches_give_the_cold_results():
    """Every result on a shape is the same when the shape-only kernels and
    chain skeletons are computed afresh and when they come from caches filled
    by every other shape and other weights, zeros among them."""
    rng = random.Random(61)
    cases = [(n, T, p) for n, T in TOWER_SHAPES for p in weight_sets(rng, n)]
    cold = []
    for n, T, p in cases:
        for kernel in KERNELS + (_shape_cached,):
            kernel.cache_clear()
        cold.append(tower_results(n, T, p))
    for (n, T, p), want in reversed(list(zip(cases, cold))):
        assert tower_results(n, T, p) == want, (n, T, p)


def test_kernel_caches_hold_the_largest_verify_tower_whole(capsys):
    assert {kernel.cache_info().maxsize for kernel in KERNELS} == {overwriting.KERNEL_CACHE_SIZE}
    overwriting._replay_column.cache_clear()
    assert main(["verify", "--suite", "all", "--model", "overwriting", "--n", "1", "--T", "13",
                 "--z", "1/2,1/2"]) == 0, capsys.readouterr().err
    info = overwriting._replay_column.cache_info()
    # one replay per grid column, 2^12 of them, and none evicted
    assert info.currsize == info.misses == 4096


@pytest.mark.parametrize("n,T,arity", [(3, 3, 2), (2, 3, 4)])
def test_closed_forms_refuse_weights_of_the_wrong_arity(n, T, arity):
    p = ParamSet(tuple([F(1, arity)] * arity))
    text = f"need exactly {n + 1} throw weights for {n} balls, got {arity}"
    V = enumerate_tableaux(n, T)[-1]
    M = enumerate_matrix_states(n, T)[-1]
    for law, state in ((tableau_stationary, V), (matrix_stationary_weight, M)):
        with pytest.raises(ValueError) as info:
            law(state, p)
        assert str(info.value) == text


@pytest.mark.parametrize("grid", [(), ((), ())], ids=["no-row", "no-column"])
def test_empty_grids_are_refused(grid):
    M = MatrixState(grid)
    p = ParamSet((F(1, 2), F(1, 2)))
    for call in (lump_matrix, lambda M: matrix_stationary_weight(M, p)):
        with pytest.raises(ValueError) as info:
            call(M)
        assert str(info.value) == "need n >= 1 and T >= 2"


def test_overwriting_stationary_matches_solver():
    rng = random.Random(58)
    p = random_normalized_params(rng, 2)
    P = build_word_chain(2, 3, p)
    pi = stationary_exact(P).normalize()
    assert pi.weights == tuple(overwriting_stationary(w, p) for w in P.states)
    dist = overwriting_stationary_distribution(2, 3, p)
    assert tuple(dist.states) == tuple(P.states)
    assert dist.weights == pi.weights
    assert dist.total == 1


def test_word_law_never_lists_tableaux(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("listed or lumped a tableau")

    monkeypatch.setattr(overwriting, "enumerate_tableaux", refuse)
    monkeypatch.setattr(overwriting, "lump_tableau", refuse)
    law = overwriting_stationary_distribution(6, 3, ParamSet(tuple([F(1, 7)] * 7)))
    assert len(law.states) == 3 ** 6
    assert law.total == 1
    z = ",".join(["1/7"] * 7)
    code = main(["stationary", "--method", "formula", "--model", "overwriting",
                 "--n", "6", "--T", "3", "--z", z])
    assert code == 0, capsys.readouterr().err


def test_word_law_on_one_type():
    # with T = 1 every column stays empty and has no factors, so the sweep
    # leaves mass 1 on the single word
    for z in [(F(1, 3),) * 3, (1 / 3,) * 3]:
        law = overwriting_stationary_distribution(2, 1, ParamSet(z))
        assert law.states == (Word((1, 1), 1),)
        assert [(type(m), m) for m in law.weights] == [(type(z[0]), 1)]


def test_last_site_marginal_closed_form():
    p = ParamSet((F(1, 2), F(1, 4), F(1, 4)))
    z1 = F(1, 2)
    for j in (1, 2):
        assert last_site_marginal(j, 2, 3, p) == z1 * (1 - z1) ** (j - 1)
    assert last_site_marginal(3, 2, 3, p) == (1 - z1) ** 2
    assert sum(last_site_marginal(j, 2, 3, p) for j in (1, 2, 3)) == 1


def test_marginals_match_exact_stationary():
    rng = random.Random(59)
    for n, T in ((2, 2), (2, 3), (3, 2)):
        p = random_normalized_params(rng, n)
        law = overwriting_stationary_distribution(n, T, p)
        pi = dict(zip(law.states, law.weights))
        for j in range(1, T + 1):
            want = sum(m for w, m in pi.items() if w.letter(n) == j)
            assert last_site_marginal(j, n, T, p) == want
        for i in range(1, T + 1):
            for j in range(1, T + 1):
                want = sum(
                    m
                    for w, m in pi.items()
                    if w.letter(n - 1) == i and w.letter(n) == j
                )
                assert joint_last_two_marginal(i, j, n, T, p) == want


def test_joint_marginal_row_sums():
    rng = random.Random(60)
    p = random_normalized_params(rng, 3)
    for j in range(1, 4):
        total = sum(joint_last_two_marginal(i, j, 3, 3, p) for i in range(1, 4))
        assert total == last_site_marginal(j, 3, 3, p)


def test_ultrafast_horizon_small():
    # one fresh column per step forgets the whole grid after n steps
    rng = random.Random(61)
    p = random_normalized_params(rng, 2)
    P = build_matrix_chain(2, 2, p)
    from jugglemc.chain import nilpotency_check, ultrafast_check

    ok, common = ultrafast_check(P, 2)
    assert ok
    assert common.weights == tuple(matrix_stationary_weight(M, p) for M in P.states)
    assert nilpotency_check(P, 2)
