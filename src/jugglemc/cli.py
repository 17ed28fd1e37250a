"""Command line front end for the juggling chains.

Subcommands: enumerate, matrix, stationary, verify, simulate. A model is
specified either by flags or by a JSON spec file (flags win field by
field). Exact mode reads and writes rationals as "p/q" strings; decimal
weights require the float backend. Exit codes: 0 success, 1 spec or
usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, islice, repeat
from math import gcd, isfinite
from operator import mul
from typing import Callable, NamedTuple, Optional

from . import fluctuating, jugglers, msjmc, overwriting
from .chain import (
    ChainMatrix, Distribution, LumpingMap, _power_ladder, _state_rows, chain_period,
    first_unbalanced, is_irreducible, nilpotency_check, simulate,
    simulate_replicas, stationary_exact, stationary_power, total_variation,
    verify_lumping,
)
from .combinatorics import ParamSet, TypeCounts, enumerate_alphabet_words, \
    enumerate_multiset_words, _shape_cached
from .errors import DegenerateParams, JuggleError

SPEC_VERSION = 2  # 2: one seeded stream per replica run replaces per-replica seeds
DEFAULT_SEED = 1
STATE_CAP = 100_000
# json and csv print all n^2 entries; a json table of 1,365 states peaks at
# ~180 MB of memory, and the cost grows with the square of the state count
DENSE_STATE_CAP = 1_500
VERIFY_STATE_CAP = 5_000

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for
    # verification failures, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class ModelSpec:
    model: str
    backend: str
    counts: Optional[tuple] = None
    n: Optional[int] = None
    T: Optional[int] = None
    r: Optional[int] = None
    c: Optional[int] = None
    balls: Optional[int] = None
    z: Optional[tuple] = None
    activities: Optional[tuple] = None

    @cached_property
    def params(self) -> ParamSet:
        """The weights as one ParamSet, built on first use and shared by
        every step of the command; only add_drop's carries activities."""
        return ParamSet(self.z, self.activities if self.model == "add_drop" else None)


def _is_decimal(text: str) -> bool:
    text = text.lower()
    return "." in text or "e" in text or "inf" in text or "nan" in text


def _parse_weight(raw, backend: str):
    if isinstance(raw, bool):  # Fraction() would read JSON true as 1
        raise ValueError(f"weight {raw!r} is not a number")
    decimal = isinstance(raw, float) or (isinstance(raw, str) and _is_decimal(raw))
    try:
        value = float(raw) if decimal else Fraction(raw)
        if not decimal and backend == "float":
            value = float(value)
    except ValueError:  # text that float() or Fraction() cannot read, such as 0x10
        raise ValueError(f"weight {raw!r} is not a number") from None
    except (ZeroDivisionError, OverflowError, TypeError):
        raise ValueError(f"weight {raw!r} is not a finite number") from None
    if decimal and not isfinite(value):
        raise ValueError(f"weight {raw!r} is not a finite number")
    if decimal and backend == "exact":
        raise ValueError(f"decimal weight {raw!r} is not exact; use --backend float")
    return value


def _int(name: str, raw) -> int:
    # int() alone would read JSON true as 1 and 2.9 as 2
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {raw!r}")


def _int_list(name: str, raw) -> tuple:
    if isinstance(raw, str):
        raw = raw.split(",")
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list of integers, got {raw!r}")
    return tuple(_int(f"{name} entry", x) for x in raw)


def _raw_list(raw) -> list:
    if isinstance(raw, str):
        return [x.strip() for x in raw.split(",")]
    if not isinstance(raw, list):
        raise ValueError(f"weights must be a list or comma-separated text, got {raw!r}")
    return list(raw)


def load_spec(args) -> ModelSpec:
    data = {}
    if getattr(args, "spec", None):
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("spec file must hold a JSON object")

    def pick(name, default=None):
        flag = getattr(args, name, None)
        return flag if flag is not None else data.get(name, default)

    model = pick("model")
    if model is None:
        raise ValueError(f"a model is required: one of {', '.join(MODELS)}")
    model = str(model).replace("-", "_")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; pick one of {', '.join(MODELS)}")

    raw_z = pick("z")
    backend = pick("backend")
    if backend is None:
        decimals = raw_z is not None and any(
            isinstance(x, float) or (isinstance(x, str) and _is_decimal(x))
            for x in _raw_list(raw_z)
        )
        backend = "float" if decimals else "exact"
    if backend not in ("exact", "float"):
        raise ValueError("backend must be exact or float")

    spec = ModelSpec(model=model, backend=backend)
    if raw_z is not None:
        spec.z = tuple(_parse_weight(x, backend) for x in _raw_list(raw_z))

    raw_act = pick("activities")
    if raw_act is None and model == "add_drop":
        raw_act = data.get("c")  # the spec-file name for activities
    if raw_act is not None:
        spec.activities = tuple(_parse_weight(x, backend) for x in _raw_list(raw_act))

    if pick("counts") is not None:
        spec.counts = _int_list("counts", pick("counts"))
    for name in ("n", "T", "r", "balls"):
        value = pick(name)
        if value is not None:
            setattr(spec, name, _int(name, value))
    if model == "several_jugglers" and pick("c") is not None:
        spec.c = _int("c", pick("c"))

    _validate(spec)
    return spec


def _need(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _validate(spec: ModelSpec):
    if spec.model == "msjmc":
        _need(spec.counts is not None, "msjmc needs --counts n1,n2,...")
        counts = TypeCounts(spec.counts)
        spec.n, spec.T = counts.n, counts.T
        _need(spec.z is not None, "msjmc needs --z with n+1 weights")
        _need(len(spec.z) == spec.n + 1,
              f"z must hold n+1 = {spec.n + 1} weights, got {len(spec.z)}")
        _need(spec.z[0] > 0, "msjmc needs z_1 > 0: y_1 = z_1 divides its rates")
    elif spec.model in ("add_drop", "annihilation", "overwriting"):
        _need(spec.n is not None and spec.T is not None,
              f"{spec.model} needs --n and --T")
        _need(spec.n >= 1 and spec.T >= 1, "need n >= 1 and T >= 1")
        _need(spec.z is not None, f"{spec.model} needs --z with n+1 weights")
        _need(len(spec.z) == spec.n + 1,
              f"z must hold n+1 = {spec.n + 1} weights, got {len(spec.z)}")
        if spec.model == "add_drop":
            _need(spec.activities is not None and len(spec.activities) == spec.T,
                  f"add_drop needs --activities with T = {spec.T} entries")
            _need(spec.z[0] > 0, "add_drop needs z_1 > 0: y_1 = z_1 divides its rates")
        else:
            _need(spec.params.normalized,
                  f"{spec.model} needs z summing to 1, got {spec.params.y[-1]}")
    else:
        _need(spec.r is not None and spec.c is not None and spec.balls is not None,
              "several_jugglers needs --r, --c and --balls")
        _need(spec.r >= 1 and spec.c >= 1, "need r >= 1 and c >= 1")
        _need(0 <= spec.balls <= spec.r * spec.c,
              f"balls must lie in 0..{spec.r * spec.c}")


def _binomial_run(binomials):
    """Partial counts of a product of binomials comb(N, k), nondecreasing up
    to the product, so a cap stops them early instead of forming a huge int:
    each comb(N, k) through comb(N - k + i, i), i = 1..k."""
    done = 1
    for N, k in binomials:
        k, c = min(k, N - k), 1
        for i in range(1, k + 1):
            c = c * (N - k + i) // i
            yield done * c
        done *= c


def _grid(spec: ModelSpec) -> tuple:
    # every grid build lists all r*c cells, even when one state fills the grid
    _need(spec.r * spec.c <= STATE_CAP,
          f"the grid's {spec.r * spec.c} cells exceed the cap {STATE_CAP}; shrink the model")
    return spec.r, spec.c, spec.balls


def _product_law(states: list, p: ParamSet, sweep, per_word, Z=1) -> Distribution:
    """A closed form over its normalizer Z on `states`, in their model's order:
    exact, sweep()'s (int masses, denominator) over one scale; else per_word(w, p) / Z."""
    if not p.exact:
        return Distribution(states, tuple(per_word(w, p) / Z for w in states))
    (masses, den), Z = sweep(), Fraction(Z)
    g = gcd(den, Z.denominator)
    return Distribution(states, [a * (Z.denominator // g) for a in masses], den // g * Z.numerator)


def _msjmc_law(spec: ModelSpec, states: list) -> Distribution:
    p, counts = spec.params, TypeCounts(spec.counts)
    return _product_law(states, p, lambda: msjmc._law_masses(counts, p.tables),
                        msjmc.stationary_weight, msjmc.partition_function(counts, p))


def _add_drop_law(spec: ModelSpec, states: list) -> Distribution:
    p, n, T = spec.params, spec.n, spec.T
    return _product_law(states, p, lambda: fluctuating._add_drop_masses(n, T, p.tables),
                        fluctuating.add_drop_stationary_weight,
                        fluctuating.add_drop_partition(n, T, p))


def _annihilation_law(spec: ModelSpec, states: list) -> Distribution:
    p, n, T = spec.params, spec.n, spec.T
    # the chain builder divides by y_1 in a cascade exactly when n, T >= 2
    if p.tables.Y[0] == 0 and n >= 2 and T >= 2:
        raise DegenerateParams("y_1 = 0 in a cascade factor")
    return _product_law(states, p, lambda: fluctuating._annihilation_masses(n, T, p),
                        fluctuating.annihilation_stationary)


def _juggler_weights(r: int, c: int, balls: int) -> tuple:
    """Each placement's int weight, in enumerate_arrays order, and their sum;
    the law has no weights, so it is kept per shape (`_shape_cached`)."""
    weights = tuple(jugglers.juggler_stationary_weight(A)
                    for A in jugglers.enumerate_arrays(r, c, balls))
    return weights, sum(weights)


def _juggler_law(spec: ModelSpec, states: list) -> Distribution:
    weights, S = _shape_cached(_juggler_weights, *_grid(spec))
    if spec.backend == "float":  # int true division: correctly rounded, where float(w) overflows
        return Distribution(states, [w / S for w in weights])
    return Distribution(states, weights, S)


class Model(NamedTuple):
    """What the commands read of one model. Each field reaches its model
    module's functions through the module when it runs, so a function
    patched there (by a tracer or a test) is the one that runs. The
    defaults are those of the words of length n over T letters."""
    chain: Callable  # spec -> ChainMatrix
    law: Callable  # (spec, states) -> the closed-form law on those states
    # spec -> partial state counts, nondecreasing to the count: T^n a factor at a time
    sizes: Callable = lambda s: accumulate(repeat(s.T, s.n), mul)
    states: Callable = lambda s: enumerate_alphabet_words(s.n, s.T)
    horizon: Callable = lambda s: s.n
    # what `verify --suite all` runs; ultrafast and spectrum hold for
    # overwriting only, but an explicit request runs them on any model
    suites: tuple = ("lumping",)
    enriched: Optional[Callable] = None  # (spec, p) -> (enriched chain, weight(s, p))
    enriched_size: Optional[Callable] = None  # (spec, p) -> its count, at unit weights p


MODELS: dict[str, Model] = {
    "msjmc": Model(
        chain=lambda s: msjmc.build_chain(TypeCounts(s.counts), s.params), law=_msjmc_law,
        # the multinomial n! / prod n_i! is a product of binomials
        sizes=lambda s: _binomial_run(zip(accumulate(s.counts), s.counts)),
        states=lambda s: enumerate_multiset_words(TypeCounts(s.counts)),
        enriched=lambda s, p: (msjmc.build_enriched_chain(TypeCounts(s.counts), p),
                               msjmc.enriched_stationary_weight),
        enriched_size=lambda s, p: msjmc.partition_function(TypeCounts(s.counts), p)),
    "add_drop": Model(
        chain=lambda s: fluctuating.build_add_drop_chain(s.n, s.T, s.params), law=_add_drop_law,
        enriched=lambda s, p: (fluctuating.build_enriched_add_drop_chain(s.n, s.T, p),
                               fluctuating.enriched_add_drop_weight),
        enriched_size=lambda s, p: fluctuating.add_drop_partition(s.n, s.T, p)),
    "annihilation": Model(
        chain=lambda s: fluctuating.build_annihilation_chain(s.n, s.T, s.params),
        law=_annihilation_law,
        enriched=lambda s, p: (fluctuating.build_enriched_annihilation_chain(s.n, s.T, p),
                               fluctuating.enriched_annihilation_weight),
        enriched_size=lambda s, p: fluctuating.add_drop_partition(s.n, s.T, p)),
    # its enrichment is the tableau and matrix tower, which `verify` checks apart
    "overwriting": Model(
        chain=lambda s: overwriting.build_word_chain(s.n, s.T, s.params),
        law=lambda s, states: overwriting._word_law(states, s.n, s.T, s.params),
        suites=("lumping", "ultrafast", "spectrum", "marginals")),
    "several_jugglers": Model(
        chain=lambda s: jugglers.build_chain(*_grid(s)), law=_juggler_law,
        sizes=lambda s: _binomial_run([(s.r * s.c, s.balls)]),
        states=lambda s: jugglers.enumerate_arrays(*_grid(s)), horizon=lambda s: s.r,
        suites=()),
}


def _cap(spec: ModelSpec, model: Model, cap: int):
    if any(size > cap for size in model.sizes(spec)):
        raise ValueError(f"the state count exceeds the cap {cap}; shrink the model")


def _ratios(masses, S: int) -> list[str]:
    """Each int mass over S in lowest terms, "a/b" or "a", by one gcd and no Fraction."""
    return [str(a // g) if (g := gcd(a, S)) == S else f"{a // g}/{S // g}" for a in masses]


def _entries(law: Distribution) -> list:
    """A law's entries for output: exact masses by _ratios, float weights as they are."""
    return list(law.weights) if law.masses is None else _ratios(law.masses, law.scale)


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", args)


# ----------------------------------------------------------------- commands


def cmd_enumerate(spec: ModelSpec, args) -> int:
    model = MODELS[spec.model]
    _cap(spec, model, STATE_CAP)
    states = model.states(spec)
    lines = [f"# states: {len(states)}"] + [str(s) for s in states]
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_matrix(spec: ModelSpec, args) -> int:
    model = MODELS[spec.model]
    _cap(spec, model, STATE_CAP)
    if args.format != "dot" and any(size > DENSE_STATE_CAP for size in model.sizes(spec)):
        raise ValueError(f"a dense {args.format} matrix is capped at {DENSE_STATE_CAP} "
                         "states; use --format dot")
    P = model.chain(spec)
    labels = [str(s) for s in P.states]
    rows, D = _state_rows(P)
    # each distinct row formatted once: D·P over D by _ratios, a float chain's values as they are
    distinct = {id(row): row for row in rows}
    shown = {k: row if D is None else dict(zip(row, _ratios(row.values(), D)))
             for k, row in distinct.items()}
    if args.format == "dot":
        lines = ["digraph chain {", "  rankdir=LR;"]
        for label, row in zip(labels, rows):
            lines += (f'  "{label}" -> "{labels[j]}" [label="{x}"];'
                      for j, x in sorted(shown[id(row)].items()))
        _emit("\n".join(lines + ["}"]) + "\n", args)
        return 0
    # the dense rows, an entry off its row printed as "0"
    dense = {k: [row.get(j, "0") for j in range(P.size)] for k, row in shown.items()}
    if args.format == "json":
        _emit_json({"spec_version": SPEC_VERSION, "model": spec.model, "backend": spec.backend,
                    "states": labels, "matrix": [dense[id(row)] for row in rows]}, args)
    else:  # csv
        joined = {k: ",".join(map(str, row)) for k, row in dense.items()}
        lines = ["state," + ",".join(labels)] + [
            f"{label},{joined[id(row)]}" for label, row in zip(labels, rows)]
        _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_stationary(spec: ModelSpec, args) -> int:
    model = MODELS[spec.model]
    _cap(spec, model, STATE_CAP)
    P = None if args.method == "formula" else model.chain(spec)
    states = model.states(spec) if P is None else P.states
    out = {"spec_version": SPEC_VERSION, "model": spec.model, "method": args.method,
           "states": [str(s) for s in states]}
    formula = None if args.method == "solve" else model.law(spec, states)
    solved = None if P is None else stationary_exact(P) if P.exact else stationary_power(P)
    if args.method != "both":
        out[args.method] = _entries(formula or solved)
        _emit_json(out, args)
        return 0
    # several_jugglers has no weights, so its chain stays exact while the
    # float backend gives a float formula
    if exact := P.exact and spec.backend == "exact":  # a / S = b / B, cross-multiplied
        a, S, b, B = formula.masses, formula.scale, solved.masses, solved.scale
        equal = all(x * B == y * S for x, y in zip(a, b))
    else:
        equal = all(abs(x - y) <= 1e-9 for x, y in zip(formula.weights, solved.weights))
    # equal exact laws print the same entries, formatted once for both lists
    out["formula"] = _entries(solved if equal and exact else formula)
    out["solve"] = out["formula"] if equal and exact else _entries(solved)
    out["verdict"] = "EQUAL" if equal else "DIFFER"
    _emit_json(out, args)
    return 0 if equal else 2


def _base_m_probe(P: ChainMatrix, limit: int):
    """The least m in 1..limit with all rows of P^m equal, or None."""
    levels = enumerate(islice(_power_ladder(P), 1, limit + 1), 1)
    return next((m for m, (_, vecs) in levels if len(vecs) == 1), None)


def _enrichment_cap(spec: ModelSpec, model: Model):
    """Refuse an enrichment past the verify cap, counted without listing
    anything."""
    if model.enriched_size is None:  # the overwriting tower
        _need(spec.T >= 2, "the tableau tower needs T >= 2")
        # the matrix-to-tableau lumping is onto, so the tableaux number at
        # most the matrix states and this one count caps both enrichments
        _need((spec.n + 1) ** (spec.n * (spec.T - 1)) <= VERIFY_STATE_CAP,
              f"matrix enrichment exceeds the verify cap {VERIFY_STATE_CAP}")
        return
    # the enriched states over a word w number prod_i E_w(i), its weight
    # prod_i y_{E_w(i)} at unit weights (y_j = j): the normalizer at z = 1
    size = model.enriched_size(spec, ParamSet((1,) * (spec.n + 1), (1,) * spec.T))
    _need(size <= VERIFY_STATE_CAP,
          f"{size} enriched states exceed the verify cap {VERIFY_STATE_CAP}")


def _check(checks: list, name: str, bad) -> None:
    """Record a check that passes iff its counterexample `bad` is None."""
    checks.append((name, bad is None, None if bad is None else f"counterexample {bad}"))


def _lumping_checks(spec: ModelSpec, model: Model, P: ChainMatrix, checks: list):
    p = spec.params
    if model.enriched is None:  # the overwriting tower
        for name, bad in overwriting.tower_checks(spec.n, spec.T, p, P):
            _check(checks, name, bad)
        return
    Pt, weight = model.enriched(spec, p)
    _check(checks, "enriched-to-base lumping", verify_lumping(
        Pt, LumpingMap.from_function(lambda s: s.w, Pt.states, P.states), P)[1])
    _check(checks, "enriched product law is stationary", first_unbalanced(
        Pt, Distribution(Pt.states, [weight(s, p) for s in Pt.states])))


def cmd_verify(spec: ModelSpec, args) -> int:
    if spec.backend != "exact":
        raise ValueError("verify needs the exact backend")
    model = MODELS[spec.model]
    _cap(spec, model, VERIFY_STATE_CAP)
    suites = set(model.suites)
    if args.suite != "all":
        runnable = suites | {"ultrafast", "spectrum"}
        if args.suite not in runnable:
            raise ValueError(
                f"suite {args.suite} does not apply to {spec.model}; "
                f"runnable: {', '.join(sorted(runnable))}"
            )
        suites = {args.suite}

    if "lumping" in suites:
        _enrichment_cap(spec, model)
    P = model.chain(spec)
    checks: list[tuple[str, bool, Optional[str]]] = []
    irr = is_irreducible(P)
    checks.append(("irreducible", irr, None))
    if irr:
        period = chain_period(P)
        checks.append(("aperiodic", period == 1, f"period {period}"))
    horizon = model.horizon(spec)

    if "lumping" in suites:
        _lumping_checks(spec, model, P, checks)
    if "ultrafast" in suites:
        limit = max(2 * horizon, 4)
        m = _base_m_probe(P, limit)
        checks.append(("ultrafast mixing", m is not None,
                       f"rows of P^{m} identical" if m is not None
                       else f"no identical-row power up to {limit}"))
    if "spectrum" in suites:
        flat = nilpotency_check(P, horizon)
        checks.append((f"spectrum in {{0, 1}} at horizon {horizon}", flat, None))
    if "marginals" in suites and not irr:
        checks.append(("closed-form marginals", False, "no unique stationary law"))
    elif "marginals" in suites:
        p, n, T = spec.params, spec.n, spec.T
        # the closed-form word law, which one exact step certifies as the
        # unique stationary law, and its last-site and last-two totals
        pi = model.law(spec, P.states)
        off = first_unbalanced(P, pi)
        masses, S = pi.masses, pi.scale  # the marginals are compared times S
        last = [0] * (T + 1)
        pair = [[0] * (T + 1) for _ in range(T + 1)]
        for w, m in zip(pi.states, masses):
            last[w.letter(n)] += m
            if n >= 2:
                pair[w.letter(n - 1)][w.letter(n)] += m
        bad = f"counterexample {off}" if off is not None else next(
            (f"last site {j}" for j in range(1, T + 1)
             if last[j] != S * overwriting.last_site_marginal(j, n, T, p)), None)
        if bad is None and n >= 2:
            bad = next((f"joint ({i}, {j})" for i in range(1, T + 1) for j in range(1, T + 1)
                        if pair[i][j] != S * overwriting.joint_last_two_marginal(i, j, n, T, p)),
                       None)
        checks.append(("closed-form marginals", bad is None, bad))

    lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
             for name, ok, detail in checks]
    failures = sum(not ok for _, ok, _ in checks)
    lines.append(f"FAILED ({failures} of {len(checks)} checks)" if failures
                 else f"OK ({len(checks)} checks)")
    _emit("\n".join(lines) + "\n", args)
    return 2 if failures else 0


def _env_seed() -> int:
    raw = os.environ.get("JUGGLE_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ValueError(f"JUGGLE_SEED must be a non-negative integer, got {raw!r}")


def cmd_simulate(spec: ModelSpec, args) -> int:
    model = MODELS[spec.model]
    _cap(spec, model, STATE_CAP)
    P = model.chain(spec)
    seed = args.seed
    if seed is None:
        seed = _env_seed()
    exact = model.law(spec, P.states)
    start = P.states[0]
    out = {
        "spec_version": SPEC_VERSION,
        "model": spec.model,
        "seed": seed,
        "states": [str(s) for s in P.states],
    }
    if args.replicas is not None:
        horizon = args.steps if args.steps is not None else model.horizon(spec)
        empirical = simulate_replicas(P, start, horizon, args.replicas, seed)
        out["replicas"] = args.replicas
        out["horizon"] = horizon
    else:
        steps = args.steps if args.steps is not None else 10_000
        empirical = simulate(P, start, steps, seed)
        out["steps"] = steps
        out["burn_in"] = steps // 10
    out["empirical"] = _entries(empirical)
    out["exact"] = _entries(exact)
    out["tv_distance"] = float(total_variation(empirical, exact))
    _emit_json(out, args)
    return 0


@cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later `main` call in the process."""
    parser = _Parser(prog="jugglemc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--spec", help="JSON model spec file")
    common.add_argument("--model", choices=[m for m in MODELS] + ["add-drop", "several-jugglers"])
    common.add_argument("--counts", help="comma-separated ball counts (msjmc)")
    common.add_argument("--n", type=int, help="word length")
    common.add_argument("--T", type=int, help="number of types")
    common.add_argument("--r", type=int, help="rows (several_jugglers)")
    common.add_argument("--c", type=int, help="columns (several_jugglers)")
    common.add_argument("--balls", type=int, help="ball count (several_jugglers)")
    common.add_argument("--z", help="comma-separated throw weights, n+1 entries")
    common.add_argument("--activities", help="comma-separated activities (add_drop)")
    common.add_argument("--backend", choices=["exact", "float"])
    common.add_argument("--out", help="write output to a file instead of stdout")

    sub.add_parser("enumerate", parents=[common],
                   help="list the canonical state order")
    mat = sub.add_parser("matrix", parents=[common],
                         help="print the transition matrix")
    mat.add_argument("--format", choices=["json", "csv", "dot"], default="json")
    sta = sub.add_parser("stationary", parents=[common],
                         help="stationary distribution by formula and/or solver")
    sta.add_argument("--method", choices=["formula", "solve", "both"],
                     default="both")
    ver = sub.add_parser("verify", parents=[common],
                         help="run exact verification suites")
    ver.add_argument("--suite",
                     choices=["lumping", "ultrafast", "spectrum", "marginals", "all"],
                     default="all")
    sim = sub.add_parser("simulate", parents=[common],
                         help="seeded Monte Carlo with TV against the exact law")
    sim.add_argument("--steps", type=int,
                     help="trajectory length (or horizon with --replicas)")
    sim.add_argument("--seed", type=int,
                     help="RNG seed >= 0; one stream serves the whole run, "
                          "replicas included (default: $JUGGLE_SEED or 1)")
    sim.add_argument("--replicas", type=int,
                     help="independent runs; empirical law of the endpoints")
    return parser


COMMANDS = {
    "enumerate": cmd_enumerate,
    "matrix": cmd_matrix,
    "stationary": cmd_stationary,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args)
        return COMMANDS[args.command](spec, args)
    except (JuggleError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
