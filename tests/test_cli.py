"""Command-line front end: spec handling, output formats, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jugglemc import chain, cli, fluctuating, jugglers, msjmc, overwriting
from jugglemc.cli import main
from jugglemc.combinatorics import (
    ParamSet, TypeCounts, enumerate_alphabet_words, enumerate_multiset_words,
)

from cascade_reference import stat_E

F = Fraction

MSJMC_ARGS = ["--model", "msjmc", "--counts", "1,1,1", "--z", "1/2,1/3,1/6,1/6"]
ANNIHILATION_ARGS = ["--model", "annihilation", "--n", "2", "--T", "3",
                     "--z", "1/3,1/3,1/3"]
JUGGLER_ARGS = ["--model", "several_jugglers", "--r", "2", "--c", "2",
                "--balls", "2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_three_types(capsys):
    code, out, _ = run(capsys, ["enumerate"] + MSJMC_ARGS)
    assert code == 0
    assert out.splitlines() == [
        "# states: 6", "123", "132", "213", "231", "312", "321",
    ]


def test_enumerate_single_state(capsys):
    code, out, _ = run(capsys, [
        "enumerate", "--model", "add_drop", "--n", "1", "--T", "1",
        "--z", "1,1", "--activities", "2",
    ])
    assert code == 0
    assert out.splitlines() == ["# states: 1", "1"]


def test_enumerate_jugglers(capsys):
    code, out, _ = run(capsys, ["enumerate"] + JUGGLER_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# states: 6"
    assert len(lines) == 7


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, ["matrix"] + MSJMC_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["spec_version"] == 2
    assert doc["model"] == "msjmc"
    assert doc["backend"] == "exact"
    assert doc["states"] == ["123", "132", "213", "231", "312", "321"]
    p = ParamSet((F(1, 2), F(1, 3), F(1, 6), F(1, 6)))
    P = msjmc.build_chain(TypeCounts((1, 1, 1)), p)
    parsed = [[F(x) for x in row] for row in doc["matrix"]]
    assert parsed == P.dense()
    # exact mode never leaks decimals
    for row in doc["matrix"]:
        for entry in row:
            assert isinstance(entry, str) and "." not in entry


@given(st.lists(st.integers(0, 10 ** 40), max_size=6), st.integers(1, 10 ** 40))
def test_ratios_print_each_mass_in_lowest_terms(masses, S):
    assert cli._ratios(masses, S) == [str(F(a, S)) for a in masses]
    assert cli._ratios([0, 6, 4, 10 ** 40], 6) == ["0", "1", "2/3", f"{5 * 10 ** 39}/3"]


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, ["matrix", "--format", "csv"] + JUGGLER_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("state,")
    labels = lines[0].split(",")[1:]
    for label, line in zip(labels, lines[1:]):
        assert line.startswith(label + ",")


def test_matrix_dot(capsys):
    code, out, _ = run(capsys, ["matrix", "--format", "dot"] + ANNIHILATION_ARGS)
    assert code == 0
    assert out.startswith("digraph")
    assert '[label="1/3"]' in out


# msjmc (3,3,3): 1,680 states, just over the dense cap of 1,500
OVER_DENSE_CAP = ["--model", "msjmc", "--counts", "3,3,3", "--z", ",".join(["1/10"] * 10)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_dense_matrix_over_its_cap_is_refused_at_once(capsys, monkeypatch, fmt):
    def refuse(*args):
        raise AssertionError("built the chain before the dense cap")

    monkeypatch.setattr(msjmc, "build_chain", refuse)
    started = time.perf_counter()
    code, out, err = run(capsys, ["matrix", "--format", fmt] + OVER_DENSE_CAP)
    assert time.perf_counter() - started < 1
    assert (code, out, err) == (
        1, "", f"error: a dense {fmt} matrix is capped at 1500 states; use --format dot\n")
    monkeypatch.undo()
    code, out, err = run(capsys, ["matrix", "--format", "dot"] + OVER_DENSE_CAP)
    assert (code, err) == (0, "")
    assert out.startswith("digraph") and out.count(" -> ") == 9240
    # the cap admits its own size: msjmc (1,1,1) has 6 states
    monkeypatch.setattr(cli, "DENSE_STATE_CAP", 6)
    assert run(capsys, ["matrix", "--format", fmt] + MSJMC_ARGS)[0] == 0
    monkeypatch.setattr(cli, "DENSE_STATE_CAP", 5)
    assert run(capsys, ["matrix", "--format", fmt] + MSJMC_ARGS)[0] == 1


def test_matrix_single_state(capsys):
    code, out, _ = run(capsys, [
        "matrix", "--model", "several_jugglers", "--r", "1", "--c", "1",
        "--balls", "1",
    ])
    assert code == 0
    assert json.loads(out)["matrix"] == [["1"]]


def test_matrix_float_backend(capsys):
    code, out, _ = run(capsys, [
        "matrix", "--model", "annihilation", "--n", "1", "--T", "2",
        "--z", "0.5,0.5",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "float"
    assert all(isinstance(x, float) for row in doc["matrix"] for x in row)


def test_stationary_both_msjmc(capsys):
    code, out, _ = run(capsys, ["stationary"] + MSJMC_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "EQUAL"
    assert doc["formula"] == doc["solve"]
    y1, y2, y3 = F(1, 2), F(5, 6), F(1)
    vec = (y1 * y2 * y3, y1 * y1 * y3, y1 * y2 * y2, y1 * y1 * y2, y1 * y1 * y2,
           y1 ** 3)
    total = sum(vec)
    assert [F(x) for x in doc["formula"]] == [v / total for v in vec]


@pytest.mark.parametrize("counts,raw,rungs", [
    ("2,2,2,1", "1/9 2/7 3/5 4/3 5 6/5 7/3 8/7", 1),
    # a 68-bit answer over 1,120 states: the 127-bit prime is too small for it
    ("3,3,1,1", "1/9 2/7 3/5 4/3 5 6/5 7/3 8/7 9", 2),
])
def test_stationary_both_is_equal_on_large_msjmc_chains(capsys, monkeypatch, counts, raw, rungs):
    w = [F(x) for x in raw.split()]
    z = ",".join(str(x / sum(w)) for x in w)
    solve, tried = chain._solve_modulo, []

    def spy(rows, D, p):
        tried.append(p)
        return solve(rows, D, p)

    monkeypatch.setattr(chain, "_solve_modulo", spy)
    code, out, err = run(capsys, ["stationary", "--model", "msjmc", "--counts", counts,
                                  "--z", z])
    doc = json.loads(out)
    assert (code, err, doc["verdict"]) == (0, "", "EQUAL")
    assert len(doc["states"]) == {"2,2,2,1": 630, "3,3,1,1": 1120}[counts]
    assert len(tried) == rungs


def test_stationary_annihilation_masses(capsys):
    code, out, _ = run(capsys, ["stationary"] + ANNIHILATION_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "EQUAL"
    assert sum(F(x) for x in doc["formula"]) == 1


def test_stationary_jugglers_proportions(capsys):
    code, out, _ = run(capsys, ["stationary", "--method", "formula"] + JUGGLER_ARGS)
    assert code == 0
    doc = json.loads(out)
    values = sorted((F(x) for x in doc["formula"]), reverse=True)
    assert values == [F(6, 19), F(3, 19), F(3, 19), F(3, 19), F(3, 19), F(1, 19)]


def test_stationary_jugglers_float_backend(capsys):
    # the chain is exact, the float formula is compared within tolerance
    code, out, _ = run(capsys, ["stationary", "--backend", "float"] + JUGGLER_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "EQUAL"
    assert all(isinstance(x, float) for x in doc["formula"])


def test_float_juggler_law_is_rounded_past_the_float_range(capsys):
    # 200 states whose int weights pass 1e308: each float entry is w / S
    # correctly rounded, S the sum of the weights
    args = ["--model", "several_jugglers", "--r", "1", "--c", "200", "--balls", "199",
            "--backend", "float"]
    weights = [jugglers.juggler_stationary_weight(A)
               for A in jugglers.enumerate_arrays(1, 200, 199)]
    S = sum(weights)
    assert S > 10 ** 308
    want = [float(F(w, S)) for w in weights]
    for argv, key in [(["stationary", "--method", "formula"], "formula"),
                      (["stationary", "--method", "both"], "formula"),
                      (["simulate", "--seed", "1", "--steps", "100"], "exact")]:
        code, out, err = run(capsys, argv + args)
        doc = json.loads(out)
        assert (code, err, doc[key]) == (0, "", want), argv
        assert doc.get("verdict", "EQUAL") == "EQUAL"


def test_verify_overwriting_all(capsys):
    code, out, _ = run(capsys, [
        "verify", "--model", "overwriting", "--n", "2", "--T", "3",
        "--z", "1/2,1/4,1/4",
    ])
    assert code == 0
    assert "PASS ultrafast mixing (rows of P^2 identical)" in out.splitlines()
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith("OK (")


@pytest.mark.parametrize("n", [1, 3])
def test_every_subcommand_on_one_type(capsys, n):
    # one type leaves one word, 1...1; every law is mass 1 on it, and only
    # the tableau tower, which needs two types, is refused
    args = ["--model", "overwriting", "--n", str(n), "--T", "1",
            "--z", ",".join([f"1/{n + 1}"] * (n + 1))]
    word = "1" * n
    code, out, err = run(capsys, ["enumerate"] + args)
    assert (code, out.splitlines(), err) == (0, ["# states: 1", word], "")
    code, out, _ = run(capsys, ["matrix"] + args)
    assert code == 0 and json.loads(out)["matrix"] == [["1"]]
    for method, laws in [("formula", ["formula"]), ("solve", ["solve"]),
                         ("both", ["formula", "solve"])]:
        code, out, err = run(capsys, ["stationary", "--method", method] + args)
        doc = json.loads(out)
        assert (code, err, doc["states"]) == (0, "", [word]), method
        assert [doc[key] for key in laws] == [["1"]] * len(laws)
    assert doc["verdict"] == "EQUAL"
    for extra in (["--steps", "10"], ["--replicas", "3"]):
        code, out, err = run(capsys, ["simulate", "--seed", "1"] + extra + args)
        doc = json.loads(out)
        assert (code, err, doc["empirical"], doc["exact"]) == (0, "", ["1"], ["1"])
    for suite in ("marginals", "ultrafast", "spectrum"):
        code, out, err = run(capsys, ["verify", "--suite", suite] + args)
        assert (code, err, out.splitlines()[-1]) == (0, "", "OK (3 checks)"), suite
    for suite in ("lumping", "all"):
        assert run(capsys, ["verify", "--suite", suite] + args) == (
            1, "", "error: the tableau tower needs T >= 2\n"
        )


REDUCIBLE_OVERWRITING = ["--model", "overwriting", "--n", "1", "--T", "2", "--z", "1,0"]


def test_verify_marginals_on_reducible_chain(capsys):
    # with z_1 = 1 every step writes a 1 and the word 2 is never reached,
    # so there is no unique stationary law to hold the marginals against
    code, out, err = run(capsys, ["verify", "--suite", "marginals"] + REDUCIBLE_OVERWRITING)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "FAIL irreducible",
        "FAIL closed-form marginals (no unique stationary law)",
        "FAILED (2 of 2 checks)",
    ]
    code, out, err = run(capsys, ["verify", "--suite", "all"] + REDUCIBLE_OVERWRITING)
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[0] == "FAIL irreducible"
    assert lines[-2:] == [
        "FAIL closed-form marginals (no unique stationary law)",
        "FAILED (2 of 7 checks)",
    ]


@pytest.mark.parametrize("wrong,off,detail", [
    ("last_site_marginal", lambda j, n, T, p: j >= 2, "last site 2"),
    ("joint_last_two_marginal", lambda i, j, n, T, p: (i, j) >= (2, 1), "joint (2, 1)"),
])
def test_verify_names_first_marginal_off_the_closed_form(capsys, monkeypatch, wrong, off,
                                                         detail):
    # each closed form is off by one from the named type on; last sites are
    # checked before joint pairs, each in lexicographic order
    right = getattr(overwriting, wrong)
    monkeypatch.setattr(overwriting, wrong, lambda *a: right(*a) + off(*a))
    code, out, _ = run(capsys, ["verify", "--suite", "marginals", "--model", "overwriting",
                                "--n", "2", "--T", "3", "--z", "1/2,1/4,1/4"])
    assert code == 2
    assert f"FAIL closed-form marginals ({detail})" in out.splitlines()


def test_verify_msjmc_lumping(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "lumping"] + MSJMC_ARGS)
    assert code == 0
    assert "FAIL" not in out


def test_verify_reports_honest_failure(capsys):
    # the base chain mixes fast but not in finitely many exact steps, so an
    # explicitly requested ultrafast suite must come back negative
    code, out, _ = run(capsys, ["verify", "--suite", "ultrafast"] + MSJMC_ARGS)
    assert code == 2
    # the probe reaches max(2n, 4) = 6 for n = 3 balls
    assert "FAIL ultrafast mixing (no identical-row power up to 6)" in out.splitlines()
    assert out.splitlines()[-1].startswith("FAILED (1 of")


def test_verify_names_first_column_off_the_product_law(capsys, monkeypatch):
    # with every enriched mass set to 1 the product law is stationary only
    # where the column sum of the enriched matrix is 1
    p = ParamSet((F(1, 2), F(1, 3), F(1, 6), F(1, 6)))
    Pt = msjmc.build_enriched_chain(TypeCounts((1, 1, 1)), p)
    first = next(s for j, s in enumerate(Pt.states)
                 if sum(row.get(j, 0) for row in Pt.rows) != 1)
    monkeypatch.setattr(msjmc, "enriched_stationary_weight", lambda s, p: F(1))
    code, out, _ = run(capsys, ["verify", "--suite", "lumping"] + MSJMC_ARGS)
    assert code == 2
    assert (f"FAIL enriched product law is stationary (counterexample {first})"
            in out.splitlines())


def test_verify_names_first_tableau_off_the_fiber_sum(capsys, monkeypatch):
    # with every tableau mass set to 1 the fiber identity holds only where
    # the matrix masses lumped onto a tableau sum to 1
    n, T, p = 2, 3, ParamSet((F(1, 2), F(1, 3), F(1, 6)))
    Pm = overwriting.build_matrix_chain(n, T, p)
    fibers: dict = {}
    for M in Pm.states:
        V = overwriting.lump_matrix(M)
        fibers[V] = fibers.get(V, 0) + overwriting.matrix_stationary_weight(M, p)
    first = next(V for V in overwriting.enumerate_tableaux(n, T) if fibers[V] != 1)
    # the tableau law's int core, over L^(n(T-1)), gives every tableau mass 1
    monkeypatch.setattr(overwriting, "_tableau_mass",
                        lambda columns, T, top: p.tables.L ** (n * (T - 1)))
    code, out, _ = run(capsys, ["verify", "--suite", "lumping", "--model", "overwriting",
                                "--n", "2", "--T", "3", "--z", "1/2,1/3,1/6"])
    assert code == 2
    assert f"FAIL fiber weight identity (counterexample {first})" in out.splitlines()


@pytest.mark.parametrize("args", [["--n", "2", "--T", "3", "--z", "1/2,1/4,1/4"],
                                  ["--n", "3", "--T", "2", "--z", "1/3,1/5,1/7,34/105"]])
def test_passing_tower_check_makes_no_fraction(capsys, monkeypatch, args):
    def refuse(*_):
        raise AssertionError("a passing tower check made a Fraction")

    monkeypatch.setattr(overwriting, "tableau_stationary", refuse)
    monkeypatch.setattr(overwriting, "Fraction", refuse)
    code, out, err = run(capsys, ["verify", "--suite", "lumping", "--model", "overwriting"]
                         + args)
    assert (code, err, out.splitlines()[-1]) == (0, "", "OK (5 checks)")


ADD_DROP_ARGS = ["--model", "add_drop", "--n", "2", "--T", "3", "--z", "1/2,1/3,1/6",
                 "--activities", "1,2,1/3"]
OVERWRITING_ARGS = ["--model", "overwriting", "--n", "2", "--T", "3", "--z", "1/2,1/4,1/4"]


def test_verify_rejects_inapplicable_suite(capsys):
    # every refused (model, suite) pair, with the suites that model runs
    for args, suite, runnable in [
        (MSJMC_ARGS, "marginals", "lumping, spectrum, ultrafast"),
        (ADD_DROP_ARGS, "marginals", "lumping, spectrum, ultrafast"),
        (ANNIHILATION_ARGS, "marginals", "lumping, spectrum, ultrafast"),
        (JUGGLER_ARGS, "lumping", "spectrum, ultrafast"),
        (JUGGLER_ARGS, "marginals", "spectrum, ultrafast"),
    ]:
        assert run(capsys, ["verify", "--suite", suite] + args) == (
            1, "", f"error: suite {suite} does not apply to {args[1]}; runnable: {runnable}\n")


@pytest.mark.parametrize("args,checks", [
    (MSJMC_ARGS, 4), (ADD_DROP_ARGS, 4), (ANNIHILATION_ARGS, 4), (OVERWRITING_ARGS, 8),
    (JUGGLER_ARGS, 2),
])
def test_verify_never_calls_the_solver(capsys, monkeypatch, args, checks):
    def refuse(P):
        raise AssertionError("verify called the exact solver")

    monkeypatch.setattr(cli, "stationary_exact", refuse)
    monkeypatch.setattr(chain, "stationary_exact", refuse)
    code, out, err = run(capsys, ["verify", "--suite", "all"] + args)
    assert (code, err, out.splitlines()[-1]) == (0, "", f"OK ({checks} checks)")


def test_verify_names_the_first_word_off_the_stationary_law(capsys, monkeypatch):
    # the closed-form word law shifted by one word along the state order:
    # the marginals check names the first word whose one-step inflow differs;
    # it aligns the swept masses with the chain's own word list
    right = overwriting._word_law

    def shifted(states, n, T, p):
        law = right(states, n, T, p)
        return chain.Distribution(law.states, law.weights[1:] + law.weights[:1])

    n, T, p = 2, 3, ParamSet((F(1, 2), F(1, 4), F(1, 4)))
    P = overwriting.build_word_chain(n, T, p)
    wrong = shifted(P.states, n, T, p)
    inflow = [sum(w * P.rows[i].get(j, 0) for i, w in enumerate(wrong.weights))
              for j in range(P.size)]
    first = next(s for s, m, x in zip(P.states, wrong.weights, inflow) if x != m)
    monkeypatch.setattr(overwriting, "_word_law", shifted)
    code, out, err = run(capsys, ["verify", "--suite", "marginals"] + OVERWRITING_ARGS)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "PASS irreducible",
        "PASS aperiodic (period 1)",
        f"FAIL closed-form marginals (counterexample {first})",
        "FAILED (1 of 3 checks)",
    ]


MIXED_SPECS = {
    "msjmc": ["--model", "msjmc", "--counts", "2,1,1", "--z", "2/3,1/7,5/9,3/11,1/13"],
    "add_drop": ["--model", "add_drop", "--n", "3", "--T", "2", "--z", "2/3,1/7,5/9,3/11",
                 "--activities", "3/4,5/2"],
    "annihilation": ["--model", "annihilation", "--n", "3", "--T", "3",
                     "--z", "1/3,1/5,2/7,19/105"],
    "overwriting": OVERWRITING_ARGS,
}


def _broken_law(model, monkeypatch) -> list:
    """Break the closed form that `stationary` prints for `model` through a
    module attribute it reads, and return the broken law's weights on the
    chain's states, computed apart from the command."""
    p = cli.load_spec(cli.build_parser().parse_args(["stationary"] + MIXED_SPECS[model])).params
    if model == "msjmc":  # the normalizer doubled
        Z = msjmc.partition_function(TypeCounts((2, 1, 1)), p)
        monkeypatch.setattr(msjmc, "partition_function", lambda *a: 2 * Z)
        return [msjmc.stationary_weight(w, p) / (2 * Z)
                for w in enumerate_multiset_words(TypeCounts((2, 1, 1)))]
    if model == "add_drop":  # the normalizer doubled
        Z = fluctuating.add_drop_partition(3, 2, p)
        monkeypatch.setattr(fluctuating, "add_drop_partition", lambda *a: 2 * Z)
        return [fluctuating.add_drop_stationary_weight(w, p) / (2 * Z)
                for w in enumerate_alphabet_words(3, 2)]
    if model == "annihilation":  # every y_{E_w(i)} read one index up, y_{E_w(i) + 1}
        sweep = fluctuating._suffix_sweep
        monkeypatch.setattr(fluctuating, "_suffix_sweep",
                            lambda n, T, factors: sweep(n, T, [f[1:] + f[:1] for f in factors]))
        law = []
        for w in enumerate_alphabet_words(3, 3):
            acc = prod((p.y_at(stat_E(w, i) + 1) for i in (1, 2, 3) if w.letter(i) < 3), start=F(1))
            for level in (2, 3):
                acc *= prod(1 - p.y_at(q) for q in range(1, 1 + sum(x >= level for x in w.letters)))
            law.append(acc)
        return law
    # overwriting: the word law moved one word along the state order
    right = overwriting._word_law

    def shifted(states, n, T, p):
        law = right(states, n, T, p)
        return chain.Distribution(law.states, law.weights[1:] + law.weights[:1])

    monkeypatch.setattr(overwriting, "_word_law", shifted)
    return list(shifted(overwriting.build_word_chain(2, 3, p).states, 2, 3, p).weights)


@pytest.mark.parametrize("model", MIXED_SPECS)
def test_stationary_both_prints_a_broken_closed_form_and_differs(capsys, monkeypatch, model):
    argv = ["stationary", "--method", "both"] + MIXED_SPECS[model]
    code, out, err = run(capsys, argv)
    assert (code, err, json.loads(out)["verdict"]) == (0, "", "EQUAL")
    solved = json.loads(out)["solve"]
    law = _broken_law(model, monkeypatch)
    code, out, err = run(capsys, argv)
    got = json.loads(out)
    assert (code, err, got["verdict"]) == (2, "", "DIFFER")
    # each list holds its own law's entries in lowest terms
    assert got["formula"] == [str(F(x)) for x in law] != got["solve"]
    assert got["solve"] == solved


def test_verify_size_cap(capsys):
    code, _, err = run(capsys, [
        "verify", "--model", "overwriting", "--n", "8", "--T", "3",
        "--z", "1/9,1/9,1/9,1/9,1/9,1/9,1/9,1/9,1/9",
    ])
    assert code == 1
    assert "cap" in err


# one spec per model whose state count is far too large to form or print:
# 2,001 weights, so 2,000 balls or sites, or a 3000 x 3000 grid
_WIDE = ["1/2001"] * 2001
OVER_CAP_SPECS = [
    {"model": "msjmc", "counts": [1000, 1000], "z": _WIDE},
    {"model": "add_drop", "n": 2000, "T": 5, "z": _WIDE, "c": [1] * 5},
    {"model": "annihilation", "n": 2000, "T": 100000, "z": _WIDE},
    {"model": "overwriting", "n": 2000, "T": 100000, "z": _WIDE},
    {"model": "several_jugglers", "r": 3000, "c": 3000, "balls": 4500000},
]


@pytest.mark.parametrize("spec", OVER_CAP_SPECS, ids=lambda s: s["model"])
@pytest.mark.parametrize("command,cap", [("enumerate", 100000), ("verify", 5000)])
def test_over_cap_spec_is_refused_at_once_naming_the_cap(capsys, tmp_path, spec,
                                                        command, cap):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    started = time.perf_counter()
    code, out, err = run(capsys, [command, "--spec", str(path)])
    assert (code, out, err) == (
        1, "", f"error: the state count exceeds the cap {cap}; shrink the model\n"
    )
    # the count stops once it passes the cap instead of forming a huge int
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("argv,cap", [
    # 4,096 words, but 27,644,437 enriched states over them
    (["--model", "add_drop", "--n", "12", "--T", "2", "--z", ",".join(["1/13"] * 13),
      "--activities", "1,1"], "27644437 enriched states exceed the verify cap 5000"),
    # 512 words, 10^9 matrix states and 115,975 tableaux
    (["--model", "overwriting", "--n", "9", "--T", "2", "--z", ",".join(["1/10"] * 10)],
     "matrix enrichment exceeds the verify cap 5000"),
])
def test_verify_counts_enrichments_before_building_them(capsys, monkeypatch, argv, cap):
    def refuse(*args):
        raise AssertionError("enumerated an enrichment past the cap")

    for module, name in [(msjmc, "enumerate_enriched"), (msjmc, "enriched_states"),
                         (fluctuating, "enumerate_enriched_words"),
                         (fluctuating, "enriched_states"),
                         (overwriting, "enumerate_tableaux"),
                         (overwriting, "enumerate_matrix_states")]:
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run(capsys, ["verify"] + argv)
    assert (code, out, err) == (1, "", f"error: {cap}\n")


def test_verify_refuses_an_over_cap_enrichment_before_the_base_chain(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built the base chain before the enrichment cap")

    monkeypatch.setattr(fluctuating, "build_add_drop_chain", refuse)
    code, out, err = run(capsys, [
        "verify", "--model", "add_drop", "--n", "12", "--T", "2",
        "--z", ",".join(["1/13"] * 13), "--activities", "1,1",
    ])
    assert (code, out, err) == (
        1, "", "error: 27644437 enriched states exceed the verify cap 5000\n"
    )


GIANT_GRID = ["--model", "several_jugglers", "--r", "100000", "--c", "100000"]


@pytest.mark.parametrize("command", ["enumerate", "matrix", "stationary", "verify",
                                     "simulate"])
@pytest.mark.parametrize("balls", ["0", "10000000000"])
def test_a_grid_over_the_cap_is_refused_before_it_is_listed(capsys, monkeypatch, command,
                                                            balls):
    # an empty or a full grid is one state, but every build lists all r*c cells
    def refuse(*args):
        raise AssertionError("listed the arrays of a grid past the cap")

    monkeypatch.setattr(jugglers, "enumerate_arrays", refuse)
    code, out, err = run(capsys, [command] + GIANT_GRID + ["--balls", balls])
    assert (code, out, err) == (
        1, "", "error: the grid's 10000000000 cells exceed the cap 100000; shrink the model\n")


def test_the_grid_cap_admits_its_own_size(capsys):
    code, out, err = run(capsys, ["enumerate", "--model", "several_jugglers", "--r", "1000",
                                  "--c", "100", "--balls", "0"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "# states: 1"
    assert len(out.splitlines()[1]) == 100_999
    assert run(capsys, ["enumerate", "--model", "several_jugglers", "--r", "100001",
                        "--c", "1", "--balls", "0"])[:2] == (1, "")


@pytest.mark.parametrize("argv,reached", [
    (["stationary"] + MSJMC_ARGS, {"msjmc.build_chain", "msjmc.partition_function"}),
    (["verify"] + ANNIHILATION_ARGS, {"fluctuating.build_enriched_annihilation_chain"}),
    (["stationary", "--model", "overwriting", "--n", "2", "--T", "3", "--z", "1/3,1/3,1/3"],
     {"overwriting.build_word_chain"}),
    (["stationary"] + JUGGLER_ARGS, {"jugglers.juggler_stationary_weight"}),
], ids=["msjmc", "annihilation", "overwriting", "several_jugglers"])
def test_commands_call_the_model_functions_patched_on_their_modules(capsys, monkeypatch,
                                                                    argv, reached):
    """The benchmark's tracer times a model function by patching its module
    attribute; the commands must run the patched function, not one bound
    before the patch."""
    calls = set()

    def counting(name, real):
        def counted(*args, **kwargs):
            calls.add(name)
            return real(*args, **kwargs)
        return counted

    for module, name in [(msjmc, "build_chain"), (msjmc, "partition_function"),
                         (fluctuating, "build_enriched_annihilation_chain"),
                         (overwriting, "build_word_chain"),
                         (jugglers, "juggler_stationary_weight")]:
        key = f"{module.__name__.split('.')[-1]}.{name}"
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert calls == reached


def count_word_lists(monkeypatch) -> list:
    """Record every listing of a model's words, wherever it is bound."""
    calls = []
    for module in (cli, msjmc, fluctuating, overwriting):
        for name in ("enumerate_multiset_words", "enumerate_alphabet_words"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, real=real: calls.append(a) or real(*a))
    return calls


WORD_LIST_SPECS = {
    "msjmc": ["--model", "msjmc", "--counts", "2,1,1", "--z", "1/2,1/4,1/8,1/16,1/16"],
    "add_drop": ["--model", "add_drop", "--n", "3", "--T", "3", "--z", "1/4,1/4,1/4,1/4",
                 "--activities", "1,2,3"],
    "overwriting": ["--model", "overwriting", "--n", "2", "--T", "3", "--z", "1/6,1/3,1/2"],
}


@pytest.mark.parametrize("model", WORD_LIST_SPECS)
@pytest.mark.parametrize("command,lists", [
    (["stationary", "--method", "both"], {"msjmc": 1, "add_drop": 1, "overwriting": 1}),
    (["stationary", "--method", "formula"], {"msjmc": 1, "add_drop": 1, "overwriting": 1}),
    (["simulate", "--steps", "50"], {"msjmc": 1, "add_drop": 1, "overwriting": 1}),
    # the enriched builders list the words once more; the tableau tower
    # lists tableaux and matrices, not words
    (["verify", "--suite", "all"], {"msjmc": 2, "add_drop": 2, "overwriting": 1}),
], ids=["both", "formula", "simulate", "verify"])
def test_each_command_lists_the_words_once(capsys, monkeypatch, model, command, lists):
    calls = count_word_lists(monkeypatch)
    code, _, err = run(capsys, command + WORD_LIST_SPECS[model])
    assert (code, err) == (0, "")
    assert len(calls) == lists[model]


@pytest.mark.parametrize("model", ["msjmc", "add_drop", "annihilation"])
def test_enrichment_cap_lists_nothing(capsys, monkeypatch, model):
    spec = cli.ModelSpec(model, "exact", counts=(4, 4, 4), n=12, T=3 if model == "msjmc" else 2)
    calls = count_word_lists(monkeypatch)
    with pytest.raises(ValueError, match="enriched states exceed the verify cap"):
        cli._enrichment_cap(spec, cli.MODELS[model])
    assert calls == []


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        yield from ((first,) + rest for rest in _compositions(n - first))


# every base shape the verify cap admits, except longer T = 1 words (one
# enriched state each) and larger alphabets
CAPPED_SHAPES = (
    [("msjmc", c) for n in range(1, 8) for c in _compositions(n) if c != (1,) * 7]
    + [(model, (n, T)) for model in ("add_drop", "annihilation") for T in range(1, 9)
       for n in range(1, 13) if T ** n <= cli.VERIFY_STATE_CAP]
)


def test_enrichment_cap_counts_the_enriched_states(monkeypatch):
    """The normalizer at unit weights counts the enriched states that the
    enriched builders list, on every shape, up to the pinned 27,644,437."""
    sizes = {}
    for model, shape in CAPPED_SHAPES:
        if model == "msjmc":
            spec = cli.ModelSpec(model, "exact", counts=shape, n=sum(shape), T=len(shape))
            words = enumerate_multiset_words(TypeCounts(shape))
        else:
            spec = cli.ModelSpec(model, "exact", n=shape[0], T=shape[1])
            words = enumerate_alphabet_words(*shape)
        size = sizes[model, shape] = sum(prod(stat_E(w, i) for i in range(1, w.n + 1))
                                         for w in words)
        if size <= cli.VERIFY_STATE_CAP:
            assert size == len(msjmc.enumerate_enriched(TypeCounts(shape))
                               if model == "msjmc" else
                               fluctuating.enumerate_enriched_words(*shape))
        monkeypatch.setattr(cli, "VERIFY_STATE_CAP", size)
        cli._enrichment_cap(spec, cli.MODELS[model])
        monkeypatch.setattr(cli, "VERIFY_STATE_CAP", size - 1)
        with pytest.raises(ValueError, match=f"^{size} enriched states exceed"):
            cli._enrichment_cap(spec, cli.MODELS[model])
        monkeypatch.undo()
    assert sizes["add_drop", (12, 2)] == sizes["annihilation", (12, 2)] == 27_644_437


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--steps", "400", "--seed", "9"] + MSJMC_ARGS
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 9
    assert doc["steps"] == 400
    assert doc["burn_in"] == 40
    assert isinstance(doc["tv_distance"], float)
    assert sum(F(x) for x in doc["empirical"]) == 1


def test_simulate_seed_sources(capsys, monkeypatch):
    argv = ["simulate", "--steps", "50"] + MSJMC_ARGS
    monkeypatch.setenv("JUGGLE_SEED", "77")
    _, out_env, _ = run(capsys, argv)
    assert json.loads(out_env)["seed"] == 77
    _, out_flag, _ = run(capsys, argv + ["--seed", "5"])
    assert json.loads(out_flag)["seed"] == 5
    monkeypatch.delenv("JUGGLE_SEED")
    _, out_default, _ = run(capsys, argv)
    assert json.loads(out_default)["seed"] == 1


def test_simulate_zero_steps_point_mass(capsys):
    code, out, _ = run(capsys, ["simulate", "--steps", "0"] + MSJMC_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["empirical"][0] == "1"
    assert all(x == "0" for x in doc["empirical"][1:])


def test_simulate_replicas(capsys):
    code, out, _ = run(capsys, [
        "simulate", "--replicas", "300", "--seed", "3",
        "--model", "overwriting", "--n", "2", "--T", "3",
        "--z", "1/3,1/3,1/3",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["spec_version"] == 2
    assert doc["replicas"] == 300
    assert doc["horizon"] == 2
    assert sum(F(x) for x in doc["empirical"]) == 1


@pytest.mark.parametrize("argv, empirical", [
    (["simulate", "--steps", "400", "--seed", "9"] + MSJMC_ARGS,
     ["100/361", "50/361", "79/361", "3/19", "51/361", "24/361"]),
    (["simulate", "--steps", "300", "--seed", "4", "--backend", "float"] + MSJMC_ARGS,
     ["78/271", "44/271", "60/271", "36/271", "36/271", "17/271"]),
    (["simulate", "--replicas", "300", "--seed", "3", "--model", "overwriting",
      "--n", "2", "--T", "3", "--z", "1/3,1/3,1/3"],
     ["37/300", "1/25", "23/150", "11/60", "1/60", "19/300", "83/300", "2/25",
      "19/300"]),
])
def test_simulate_replays_pinned_output(capsys, argv, empirical):
    # at SPEC_VERSION 2 a seed fixes every sampled law; these must not drift
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["empirical"] == empirical


def test_spec_file_input(capsys, tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({
        "model": "add-drop",
        "n": 2,
        "T": 3,
        "z": ["1/2", "1/4", "1/4"],
        "c": ["1", "2", "3"],
    }))
    code, out, _ = run(capsys, ["enumerate", "--spec", str(spec)])
    assert code == 0
    assert out.splitlines()[0] == "# states: 9"
    # command-line flags override file entries
    code, out, _ = run(capsys, [
        "enumerate", "--spec", str(spec), "--n", "1", "--z", "1/2,1/2",
    ])
    assert code == 0
    assert out.splitlines()[0] == "# states: 3"


def test_validation_errors_exit_one(capsys, monkeypatch, tmp_path):
    bad_specs = [
        {"model": "msjmc", "counts": "1,1", "z": 5},
        {"model": "msjmc", "counts": [1, [1]], "z": "1,1,1"},
        {"model": "msjmc", "counts": 3, "z": "1,1,1,1"},
        {"model": "annihilation", "n": [2], "T": 2, "z": "1/3,1/3,1/3"},
        {"model": "annihilation", "n": 2.9, "T": 2, "z": "1/3,1/3,1/3"},
        {"model": "annihilation", "n": True, "T": 2, "z": "1/2,1/2"},
        # Fraction() would read JSON true as 1 and false as 0
        {"model": "annihilation", "n": 1, "T": 2, "z": [True, False]},
        {"model": "add_drop", "n": 1, "T": 2, "z": "1,1", "c": [True, 2]},
    ]
    spec_args = []
    for k, data in enumerate(bad_specs):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(data))
        spec_args.append(["enumerate", "--spec", str(path)])
    cases = spec_args + [
        ["enumerate", "--model", "msjmc", "--z", "1,1"],
        ["enumerate", "--model", "msjmc", "--counts", "1,1", "--z", "1"],
        ["enumerate", "--model", "annihilation", "--n", "1", "--T", "2",
         "--z", "1,1"],
        ["enumerate", "--model", "add_drop", "--n", "1", "--T", "2",
         "--z", "1,1"],
        ["enumerate", "--model", "several_jugglers", "--r", "2", "--c", "2",
         "--balls", "9"],
        ["matrix", "--model", "msjmc", "--counts", "1,1", "--backend", "exact",
         "--z", "0.5,0.25,0.25"],
        ["enumerate", "--model", "msjmc", "--counts", "1,1", "--z", "1/0,1,1"],
        ["stationary", "--model", "msjmc", "--counts", "1,1", "--z", "0,1/2,1/2"],
        ["stationary", "--model", "add_drop", "--n", "1", "--T", "2",
         "--z", "0,1", "--activities", "1,1"],
        ["stationary", "--model", "msjmc", "--counts", "1,1", "--backend", "float",
         "--z", "nan,1,1"],
        ["stationary", "--model", "msjmc", "--counts", "1,1", "--backend", "float",
         "--z", "inf,1,1"],
        ["simulate", "--replicas", "0"] + MSJMC_ARGS,
        ["simulate", "--replicas", "-2"] + MSJMC_ARGS,
        ["simulate", "--replicas", "5", "--steps", "-3"] + MSJMC_ARGS,
        ["simulate", "--seed", "-5"] + MSJMC_ARGS,
        ["simulate", "--replicas", "5", "--seed", "-5"] + MSJMC_ARGS,
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert run(capsys, spec_args[-1]) == (1, "", "error: weight True is not a number\n")
    # CPython seeds from abs(seed): a negative seed would replay its positive twin
    assert run(capsys, cases[-1]) == (1, "", "error: seed must be >= 0, got -5\n")
    monkeypatch.setenv("JUGGLE_SEED", "abc")
    assert run(capsys, ["simulate"] + MSJMC_ARGS) == (
        1, "", "error: JUGGLE_SEED must be a non-negative integer, got 'abc'\n")


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("text", ["0x10", "abc", "1e"])
def test_unreadable_weight_text_is_named(capsys, backend, text):
    # text neither float() nor Fraction() reads names the weight, not the parser
    assert run(capsys, ["stationary", "--model", "msjmc", "--counts", "1,1", "--backend",
                        backend, "--z", f"{text},1,1"]) == (
        1, "", f"error: weight '{text}' is not a number\n")


_Z3 = "1/3,1/3,1/3"
_AD = ["--model", "add_drop", "--n", "1", "--T", "2"]


# one case per branch of the spec checks and per model that reaches it
@pytest.mark.parametrize("argv,line", [
    (["--model", "msjmc", "--z", "1,1"], "msjmc needs --counts n1,n2,..."),
    (["--model", "msjmc", "--counts", "1,1"], "msjmc needs --z with n+1 weights"),
    (["--model", "msjmc", "--counts", "1,1", "--z", "1,1"], "z must hold n+1 = 3 weights, got 2"),
    (["--model", "msjmc", "--counts", "1,1", "--z", "0,1,1"],
     "msjmc needs z_1 > 0: y_1 = z_1 divides its rates"),
    (["--model", "add_drop", "--T", "2", "--z", "1,1", "--activities", "1,1"],
     "add_drop needs --n and --T"),
    (["--model", "add_drop", "--n", "0", "--T", "2", "--z", "1", "--activities", "1,1"],
     "need n >= 1 and T >= 1"),
    (_AD + ["--activities", "1,1"], "add_drop needs --z with n+1 weights"),
    (_AD + ["--z", "1", "--activities", "1,1"], "z must hold n+1 = 2 weights, got 1"),
    (_AD + ["--z", "1,1"], "add_drop needs --activities with T = 2 entries"),
    (_AD + ["--z", "1,1", "--activities", "1"], "add_drop needs --activities with T = 2 entries"),
    (_AD + ["--z", "0,1", "--activities", "1,1"],
     "add_drop needs z_1 > 0: y_1 = z_1 divides its rates"),
    (["--model", "annihilation", "--n", "2", "--z", _Z3], "annihilation needs --n and --T"),
    (["--model", "annihilation", "--n", "2", "--T", "0", "--z", _Z3], "need n >= 1 and T >= 1"),
    (["--model", "annihilation", "--n", "2", "--T", "2"], "annihilation needs --z with n+1 weights"),
    (["--model", "annihilation", "--n", "2", "--T", "2", "--z", "1/2,1/2"],
     "z must hold n+1 = 3 weights, got 2"),
    (["--model", "annihilation", "--n", "2", "--T", "2", "--z", "1/3,1/3,1/2"],
     "annihilation needs z summing to 1, got 7/6"),
    (["--model", "overwriting", "--T", "2", "--z", _Z3], "overwriting needs --n and --T"),
    (["--model", "overwriting", "--n", "-1", "--T", "2", "--z", _Z3], "need n >= 1 and T >= 1"),
    (["--model", "overwriting", "--n", "2", "--T", "2"], "overwriting needs --z with n+1 weights"),
    (["--model", "overwriting", "--n", "2", "--T", "2", "--z", "1/2,1/2"],
     "z must hold n+1 = 3 weights, got 2"),
    (["--model", "overwriting", "--n", "2", "--T", "2", "--z", "1,1,1"],
     "overwriting needs z summing to 1, got 3"),
    (["--model", "several_jugglers", "--r", "2", "--c", "2"],
     "several_jugglers needs --r, --c and --balls"),
    (["--model", "several_jugglers", "--r", "0", "--c", "2", "--balls", "0"],
     "need r >= 1 and c >= 1"),
    (["--model", "several_jugglers", "--r", "2", "--c", "2", "--balls", "-1"],
     "balls must lie in 0..4"),
])
def test_each_spec_check_prints_its_error_line(capsys, argv, line):
    assert run(capsys, ["enumerate"] + argv) == (1, "", f"error: {line}\n")


_TINY_Z = ["--model", "msjmc", "--counts", "1,1", "--z", "1e-320,1e-320,1"]
_AD_FLOAT = ["--model", "add_drop", "--n", "2", "--T", "2", "--z", "1,1,1", "--backend", "float"]
_UNDERFLOW = "the normalizer Z underflows the float range; use exact weights"


# float weights whose products or sums leave the float range: the law's
# normalizer underflows to 0 or overflows, or a row's denominator overflows
@pytest.mark.parametrize("argv,line", [
    (["stationary"] + _TINY_Z, _UNDERFLOW),
    (["stationary", "--method", "formula"] + _TINY_Z, _UNDERFLOW),
    (["simulate"] + _TINY_Z, _UNDERFLOW),
    (["stationary"] + _AD_FLOAT + ["--activities", "1e-200,1e-200"], _UNDERFLOW),
    (["stationary"] + _AD_FLOAT + ["--activities", "1e300,1e300"],
     "the normalizer Z overflows the float range; use exact weights"),
    (["stationary"] + _AD_FLOAT + ["--activities", "1e308,1e308"],
     "the insertion normalizer overflows the float range; use exact weights"),
    (["stationary", "--model", "add_drop", "--n", "2", "--T", "2", "--z", "1e-10,1,1",
      "--activities", "1e-320,1e-320"],
     "the insertion normalizer underflows the float range; use exact weights"),
    (["stationary", "--model", "msjmc", "--counts", "1,1", "--z", "1e308,1e308,1e308"],
     "the throw weights sum past the float range; scale them down"),
])
def test_float_range_errors_print_one_line(capsys, argv, line):
    assert run(capsys, argv) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize("argv,line", [
    (["--model", "msjmc", "--counts", "3,3,3", "--z", ",".join(["1/10"] * 10)],
     "2058000 enriched states exceed the verify cap 5000"),
    (["--model", "add_drop", "--n", "7", "--T", "3", "--z", ",".join(["1/8"] * 8),
      "--activities", "1,1,1"], "167894 enriched states exceed the verify cap 5000"),
    (["--model", "annihilation", "--n", "7", "--T", "3", "--z", ",".join(["1/8"] * 8)],
     "167894 enriched states exceed the verify cap 5000"),
    (["--model", "overwriting", "--n", "3", "--T", "1", "--z", "1/4,1/4,1/4,1/4"],
     "the tableau tower needs T >= 2"),
    (["--model", "overwriting", "--n", "3", "--T", "4", "--z", "1/4,1/4,1/4,1/4"],
     "matrix enrichment exceeds the verify cap 5000"),
], ids=["msjmc", "add_drop", "annihilation", "tower", "matrix"])
def test_each_enrichment_cap_prints_its_error_line(capsys, argv, line):
    assert run(capsys, ["verify"] + argv) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize("z", ["1,0", "1.0,0.0"])
def test_both_solvers_refuse_a_reducible_chain(capsys, z):
    # the exact solver and the float power iteration give the same error
    argv = ["stationary", "--method", "solve"] + REDUCIBLE_OVERWRITING[:-1] + [z]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == ("error: transition pattern is not strongly connected; "
                   "stationary distribution would not be unique\n")


def test_zero_cascade_denominator_names_its_weight(capsys):
    code, out, err = run(capsys, ["stationary", "--model", "annihilation", "--n", "2",
                                  "--T", "3", "--z", "0,0,1"])
    assert (code, out, err) == (1, "", "error: y_1 = 0 in a cascade factor\n")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--model", "no_such_model"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_output_file(capsys, tmp_path):
    target = tmp_path / "states.txt"
    code, out, _ = run(capsys, ["enumerate", "--out", str(target)] + MSJMC_ARGS)
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "# states: 6"


WEIGHT_TEXTS = ["1", "0", "2", "1/2", "2/3", "-1", "0.5", "1e-3", "1/0", "x", "nan", "inf", ""]
COUNTS_TEXTS = ["1", "3", "1,1", "2,1", "1,2", "1,1,1", "2,2", "0,1", "-1,2", "1,x", ""]


@st.composite
def argvs(draw):
    """argv for every subcommand and model on shapes of at most ~64 states
    (and enrichments of at most a few hundred), mixing good and bad values."""
    small = st.integers(-1, 3)
    command = draw(st.sampled_from(["enumerate", "matrix", "stationary", "verify", "simulate"]))
    model = draw(st.sampled_from(["msjmc", "add_drop", "add-drop", "annihilation",
                                  "overwriting", "several_jugglers"]))
    argv = [command, "--model", model]
    n = 0
    if model == "msjmc":
        counts = draw(st.sampled_from(COUNTS_TEXTS))
        argv += ["--counts", counts]
        n = sum(int(x) for x in counts.split(",") if x.lstrip("-").isdigit())
    elif model == "several_jugglers":
        argv += ["--r", str(draw(small)), "--c", str(draw(st.integers(-1, 2))),
                 "--balls", str(draw(st.integers(-1, 7)))]
    else:
        n = draw(small)
        T = draw(st.integers(0, 2 if n == 3 else 3))
        argv += ["--n", str(n), "--T", str(T)]
        if draw(st.booleans()):
            argv += ["--activities", ",".join(["1", "2/3"][: max(T, 0)] + ["1"] * (T - 2))]
        elif draw(st.booleans()):
            acts = draw(st.lists(st.sampled_from(WEIGHT_TEXTS), max_size=4))
            argv += ["--activities", ",".join(acts)]
    size = n + 1 + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if draw(st.booleans()):
        # uniform weights sum to 1, which every model accepts
        weights = [f"1/{size}"] * size if size > 0 else []
    else:
        weights = draw(st.lists(st.sampled_from(WEIGHT_TEXTS), min_size=max(size, 0),
                                max_size=max(size, 0)))
    if model != "several_jugglers" or draw(st.booleans()):
        argv += ["--z", ",".join(weights)]
    if draw(st.booleans()):
        argv += ["--backend", draw(st.sampled_from(["exact", "float"]))]
    if command == "matrix":
        argv += ["--format", draw(st.sampled_from(["json", "csv", "dot"]))]
    elif command == "stationary":
        argv += ["--method", draw(st.sampled_from(["formula", "solve", "both"]))]
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(
            ["lumping", "ultrafast", "spectrum", "marginals", "all"]))]
    elif command == "simulate":
        argv += ["--steps", str(draw(st.integers(-2, 40))), "--seed", str(draw(small))]
        if draw(st.booleans()):
            argv += ["--replicas", str(draw(small))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
            usage_error = False
        except SystemExit as exc:  # argparse rejects the command line
            code, usage_error = exc.code, True
    assert code in (0, 1, 2), (argv, code)
    err = err.getvalue()
    if code == 1:
        assert [line for line in err.splitlines() if "error:" in line], (argv, err)
        if not usage_error:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert out.getvalue() == "", argv
        else:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    else:
        assert err == "", (argv, err)


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": "src"}

    def jugglemc(*argv):
        return subprocess.run([sys.executable, "-m", "jugglemc", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)

    ok = jugglemc("enumerate", "--model", "msjmc", "--counts", "1,1", "--z", "1,1,1")
    assert ok.returncode == 0 and ok.stderr == ""
    assert ok.stdout.splitlines() == ["# states: 2", "12", "21"]
    bad = jugglemc("enumerate", "--model", "msjmc", "--counts", "1,x", "--z", "1,1,1")
    assert bad.returncode == 1 and bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("error: ")
    # the library import does not run the entry point
    probe = subprocess.run([sys.executable, "-c", "import sys, jugglemc.cli; "
                            "print('jugglemc.__main__' in sys.modules)"],
                           cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert probe.stdout == "False\n"


# exact bytes of verify --suite all on the overwriting tower, recorded before
# rows shared by several states were checked and lumped once
PINNED_VERIFY = [
    (["--n", "2", "--T", "4", "--z", "1/6,1/3,1/2"], 0, [
        "PASS irreducible",
        "PASS aperiodic (period 1)",
        "PASS matrix-to-tableau lumping",
        "PASS tableau-to-word lumping",
        "PASS fiber weight identity",
        "PASS ultrafast mixing (rows of P^2 identical)",
        "PASS spectrum in {0, 1} at horizon 2",
        "PASS closed-form marginals",
        "OK (8 checks)",
    ]),
    (["--n", "4", "--T", "2", "--z", "0,1/4,1/4,1/4,1/4"], 2, [
        "FAIL irreducible",
        "PASS matrix-to-tableau lumping",
        "PASS tableau-to-word lumping",
        "PASS fiber weight identity",
        "PASS ultrafast mixing (rows of P^4 identical)",
        "PASS spectrum in {0, 1} at horizon 4",
        "FAIL closed-form marginals (no unique stationary law)",
        "FAILED (2 of 7 checks)",
    ]),
]


@pytest.mark.parametrize("shape,code,lines", PINNED_VERIFY, ids=["(2,4)", "(4,2)"])
def test_verify_tower_replays_pinned_output(capsys, shape, code, lines):
    got = run(capsys, ["verify", "--suite", "all", "--model", "overwriting"] + shape)
    assert got == (code, "\n".join(lines) + "\n", "")
