"""Command-line harness: option parsing, experiment cells and report
records around the library's verification suites, character-sum sweeps
and bit extraction.

Commands: verify, sums, extract, find-curve, report.  Configuration
comes from a flat key=value file plus command-line flag overrides; the
only positional argument is the command.  Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 resource budget
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time

# x_multiples and group_structure are unused here; the benchmark's
# per-layer tracer (bench/spans.py) looks them up, like the other
# library names below, as attributes of this module.
from .charsum import (
    count_product_collisions,
    subgroup_sum,
    sum_U,
    sum_V,
    x_multiples,  # noqa: F401
)
from .curve import (
    Curve,
    ExhaustionError,
    check_subgroup_budget,
    check_unique_subgroup,
    find_curve,
    group_structure,  # noqa: F401
    subgroup_generator,
    subgroup_of_order,
    subgroup_order_for_policy,
)
from .divpoly import DivisionPolynomials
from .extract import (
    _check_code_budget,
    _check_pattern_budget,
    _check_window,
    bitstream,
    delta,
    pack_bits,
    sampled_deviation,
)
from .field import (
    PreconditionError,
    ResourceBudgetError,
    field,
)
from .poly import rational_square_test

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


class ConfigError(ValueError):
    """Bad or missing configuration."""


# -- report records -----------------------------------------------------


def write_records(records: list[dict], out_prefix: str, skipped=()) -> None:
    """The records to PREFIX.json and PREFIX.csv.  A partial run, whose
    skipped cells went over their budget, keeps its completed records
    in the .csv and writes {"incomplete": true, "skipped": ...,
    "records": ...} to the .json."""
    if skipped:
        doc = {"incomplete": True, "skipped": skipped, "records": records}
    else:
        doc = records
    with open(out_prefix + ".json", "w") as fh:
        json.dump(doc, fh, indent=2)
    with open(out_prefix + ".csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema", "experiment", "inputs", "lhs", "rhs_total",
                    "ratio", "exact", "wall_ms"])
        for r in records:
            w.writerow([
                r["schema"], r["experiment"],
                json.dumps(r["inputs"], sort_keys=True), r["lhs"],
                sum(b["value"] for b in r["bound_terms"]), r["ratio"],
                int(r["exact"]), round(r["wall_ms"], 3),
            ])


# -- curves from options ---------------------------------------------------


def _curve_from_inputs(inputs: dict) -> Curve:
    """The curve named by p, a, b in options or a report record; an
    unusable one is a configuration error."""
    try:
        return Curve(field(inputs["p"]), inputs["a"], inputs["b"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _flag_curve(args) -> Curve:
    """The curve given by --p/--a/--b."""
    if args.a is None or args.b is None:
        raise ConfigError("--p needs --a and --b as well")
    return _curve_from_inputs(vars(args))


def _p_range(args) -> range:
    if args.p_min is None or args.p_max is None:
        raise ConfigError("need --p or both --p-min and --p-max")
    if args.p_max < args.p_min:
        raise ConfigError("empty prime range")
    return range(args.p_min, args.p_max + 1)


def _curve_and_t(args, reads_t: bool = True) -> tuple[Curve, int]:
    """The --p/--a/--b curve with its --t-policy subgroup order, or the
    first admissible curve with p in --p-min..--p-max (its group
    structure is not built: nothing here reads it).  The order-t
    subgroup is unique either way: find_curve admits no other curve,
    and check_unique_subgroup refuses a --p curve's t otherwise.  A run
    that reads_t refuses t = 1, as H = {O} measures no sum; find_curve
    admits only t >= sqrt(p)."""
    if args.p is None:
        fc = find_curve(_p_range(args), args.big_n, args.t_policy,
                        structure_budget=0)
        return fc.curve, fc.t
    C = _flag_curve(args)
    t = subgroup_order_for_policy(C.order(), args.big_n, args.t_policy)
    check_unique_subgroup(C, t)
    if reads_t and t < 2:
        raise ConfigError(f"subgroup policy produced trivial t = {t}")
    return C, t


# -- sums experiments ----------------------------------------------------

# The acceptance tests' slack: sums warns on stderr above it (collision
# counts never get there: count_product_collisions raises above its bound)
SLACK = 10.0


def _curve_and_H(cell: dict) -> tuple:
    """The curve of a v or lemma5 cell and its order-t subgroup."""
    C = _curve_from_inputs(cell)
    return C, subgroup_of_order(C, cell["t"])


# The cells one sums experiment may build; more is refused before the
# first cell is drawn
CELL_BUDGET = 100_000


def _lemma5_cell_count(d_max: int, s_max: int) -> int:
    """The sum_{s <= s-max} C(d-max, s) increasing tuples d that lemma5
    cells draw from, before their gcd filter, summed only until it passes
    CELL_BUDGET."""
    count = 0
    for s in range(1, min(d_max, s_max) + 1):
        count += math.comb(d_max, s)
        if count > CELL_BUDGET:
            break
    return count


# The sums experiments, in their default --experiments order: the cells
# of each (a generator over the options, the curve {p, a, b} and t), the
# (value, BoundReport) of one cell, whose lambda reads the kernel's name in
# this module at each call, the number of cells before any gcd filter,
# and for its refusals the option values that give a cell and those given.
_SUMS = {
    "u": (
        lambda args, curve, t: (
            {"experiment": "u", **curve, "N": N} for N in range(2, args.big_n + 1)),
        lambda cell: sum_U(_curve_from_inputs(cell), cell["N"]),
        lambda args: max(args.big_n - 1, 0),
        "big-n >= 2", "big-n = {big_n}"),
    "v": (
        lambda args, curve, t: (
            {"experiment": "v", **curve, "t": t, "N": N, "k": k, "c": [1] * k}
            for k in (1, 2) for N in range(2, min(args.big_n, 6) + 1)),
        lambda cell: sum_V(*_curve_and_H(cell), tuple(cell["c"]), cell["N"]),
        lambda args: 2 * max(min(args.big_n, 6) - 1, 0),
        "big-n >= 2", "big-n = {big_n}"),
    "lemma5": (
        lambda args, curve, t: (
            {"experiment": "lemma5", **curve, "t": t, "d": list(d), "c": [1] * len(d)}
            for s in range(1, min(args.d_max, args.s_max) + 1)
            for d in itertools.combinations(range(1, args.d_max + 1), s)
            if math.gcd(t, math.prod(d)) == 1),
        lambda cell: subgroup_sum(*_curve_and_H(cell), tuple(cell["d"]),
                                  tuple(cell["c"])),
        lambda args: _lemma5_cell_count(args.d_max, args.s_max),
        "d-max >= 1 and s-max >= 1", "d-max = {d_max}, s-max = {s_max}"),
    "collisions": (
        lambda args, curve, t: (
            {"experiment": "collisions", "N": N, "k": len(c), "c": list(c)}
            for c in ((1,), (1, 1), (1, 0), (0, 1)) for N in range(2, args.n_max + 1)),
        lambda cell: count_product_collisions(cell["N"], cell["k"], tuple(cell["c"])),
        lambda args: 4 * max(args.n_max - 1, 0),
        "n-max >= 2", "n-max = {n_max}"),
}


def run_sum_cell(cell: dict) -> dict:
    """Evaluate one experiment cell described by plain data into its
    report record (both picklable so a worker pool can run cells in
    parallel; merge order is the submission order, which keeps reports
    deterministic)."""
    start = time.perf_counter()
    kind = cell["experiment"]
    # a report record's experiment can be any JSON value
    if not isinstance(kind, str) or kind not in _SUMS:
        raise ConfigError(f"unknown experiment {kind!r}")
    value, report = _SUMS[kind][1](cell)
    # U and collision counts are ints, written as JSON ints (a float stops
    # being exact above 2^53); V and lemma 5's |sum| are the report's lhs
    lhs = value if isinstance(value, int) else report.lhs
    wall_ms = (time.perf_counter() - start) * 1000
    return {
        "schema": SCHEMA_VERSION,
        "experiment": kind,
        "inputs": {k: v for k, v in cell.items() if k != "experiment"},
        "lhs": lhs,
        "bound_terms": [{"name": n, "value": v} for n, v in report.rhs_terms],
        "ratio": report.ratio,
        "exact": isinstance(lhs, int),
        "wall_ms": wall_ms,
    }


def build_sum_cells(args) -> list[dict]:
    experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
    if not experiments:
        raise ConfigError("no experiments requested")
    firsts = []  # each kind's first cell at t = 1, which every gcd filter passes
    for kind in experiments:  # before the curve search, which can be slow
        if kind not in _SUMS:
            raise ConfigError(f"unknown experiment {kind!r}")
        if experiments.count(kind) > 1:
            raise ConfigError(f"experiment {kind} is listed more than once")
        cells, _, size, need, got = _SUMS[kind]
        got, size = got.format(**vars(args)), size(args)
        if not size:
            raise ConfigError(f"experiment {kind} builds no cells: need {need}, got {got}")
        if size > CELL_BUDGET:
            raise ResourceBudgetError(
                f"experiment {kind} builds more than {CELL_BUDGET} cells: got {got}")
        firsts.append(next(cells(args, dict.fromkeys("pab"), 1)))
    c_vec = _parse_c(args.c) if args.c is not None else None
    if c_vec is not None:  # the rules that need no curve, before the search
        if not any(c_vec):
            raise ConfigError("coefficient vector c must be nonzero")
        s = len(c_vec)
        if not ("v" in experiments and s <= 2
                or "lemma5" in experiments and s <= min(args.d_max, args.s_max)):
            raise ConfigError(f"no cell takes c = {args.c}: v cells take 1 or 2 "
                              "entries, lemma5 cells one per entry of d")
    curve, t = {}, None
    if any("p" in first for first in firsts):
        # a kind reads the curve when its cells name p, and H when they
        # name t: u reads no H, so only v and lemma5 refuse t = 1
        C, t = _curve_and_t(args, reads_t=any("t" in first for first in firsts))
        curve = {"p": C.p, "a": C.a, "b": C.b}
    cells = [cell for kind in experiments for cell in _SUMS[kind][0](args, curve, t)]
    if c_vec is not None:
        # c_vec replaces the all-ones c of every v and lemma5 cell of its
        # length; the gcd(t, prod d) filter can leave no lemma5 cell that long
        takers = set()
        for cell in cells:
            if cell["experiment"] in ("v", "lemma5") and len(cell["c"]) == len(c_vec):
                cell["c"] = list(c_vec)
                takers.add(cell["experiment"])
        if not takers:
            raise ConfigError(f"no cell takes c = {args.c}: no lemma5 d of "
                              f"{len(c_vec)} entries has gcd(t, d_1...d_s) = 1")
        if "v" in takers and not any(v % C.p for v in c_vec):
            raise PreconditionError("coefficient vector must be nonzero")
        if "lemma5" in takers and c_vec[-1] % C.p == 0:
            raise PreconditionError("the last coefficient c_s must be nonzero")
    if "lemma5" in experiments and not C.is_ordinary():
        raise PreconditionError("the bound requires an ordinary curve")
    return cells


def _cell_or_budget_error(cell: dict) -> dict:
    try:
        return run_sum_cell(cell)
    except ResourceBudgetError as exc:
        return {"budget_error": str(exc), "cell": cell}


def run_sums(args) -> int:
    cells = build_sum_cells(args)
    # a fork-started pool forks every worker at its first submit
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        # imported here, where the only pool starts: a serial run of any
        # command never loads concurrent.futures or multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_cell_or_budget_error, cells))
    else:
        outcomes = [_cell_or_budget_error(cell) for cell in cells]
    skipped = [o for o in outcomes if "budget_error" in o]
    recs = [o for o in outcomes if "budget_error" not in o]
    if args.out:
        write_records(recs, args.out, skipped)
    for r in recs:
        kind, ratio = r["experiment"], r["ratio"]
        print(f"{kind}: inputs={r['inputs']} lhs={r['lhs']:.6g} "
              f"ratio={ratio:.4g} exact={r['exact']}")
        if ratio > SLACK:
            print(f"WARN {kind} ratio {ratio:.4g} exceeds slack {SLACK}",
                  file=sys.stderr)
    for o in skipped:
        print(f"skipped {o['cell']}: {o['budget_error']}", file=sys.stderr)
    return EXIT_BUDGET if skipped else EXIT_OK


# -- extract -------------------------------------------------------------


def run_extract(args) -> int:
    # every result exists before the first output file is opened, so the
    # library's own checks in delta and sampled_deviation refuse a run
    # without leaving a file behind
    if args.out is None:
        raise ConfigError("--out is required for extract")
    _check_code_budget(args.k, args.big_n)  # before the curve search
    C, t = _curve_and_t(args)
    _check_window(C.p, args.k, args.ell, args.big_n)
    _check_pattern_budget(args.k, args.ell)
    exact = t <= args.delta_budget
    if exact:
        check_subgroup_budget(t)  # before the generator search
    gen = subgroup_generator(C, t)
    if exact:
        rep = delta(C, gen, t, args.k, args.ell, args.big_n)
        key, deviation = "deviation", {
            "total": str(rep.total),
            "total_float": float(rep.total),
            "total_excluding_infinity": str(rep.total_excluding_infinity),
            "expected": str(rep.expected),
            "bound_value": rep.bound_value,
            "bound_constant": rep.bound_constant,
            "ratio": rep.ratio,
            "per_point": [(s, str(v)) for s, v in rep.per_point],
        }
    else:
        key, deviation = "deviation_sampled", sampled_deviation(
            C, gen, t, args.k, args.ell, args.big_n, args.samples, args.seed)
    stream = bitstream(C, gen, args.k, args.ell, args.big_n)
    packed = pack_bits(stream)
    payload = {
        "schema": SCHEMA_VERSION,
        "experiment": "extract",
        "inputs": {"p": C.p, "a": C.a, "b": C.b, "k": args.k, "ell": args.ell,
                   "N": args.big_n, "t": t, "t_policy": args.t_policy,
                   "seed": args.seed},
        "stream_bits": len(stream),
        "generator": repr(gen),
        key: deviation,
    }
    with open(args.out + ".bits", "wb") as fh:
        fh.write(packed)
    with open(args.out + ".json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}.bits ({len(stream)} bits) and {args.out}.json")
    return EXIT_OK


# -- verify command ------------------------------------------------------


def _ftilde_pairs(dp: DivisionPolynomials, n_max: int):
    """(n, whether f~_n is built) for n <= n-max, and for n = p and 2p
    when p <= 13, where f~_n takes a p-th root."""
    p = dp.curve.p
    for n in sorted({*range(1, n_max + 1), *((p, 2 * p) if p <= 13 else ())}):
        try:
            dp.f_tilde(n)  # raises when extraction or degree fails
        except RuntimeError:
            yield n, False
        else:
            yield n, True


# The verify checks, in their default --checks order: the least n-max at
# which each builds a record, and its (index, pass) pairs on the division
# polynomials dp of one curve up to n-max.  Each reads dp's methods, and
# rational_square_test in this module, at its call.
_VERIFY = {
    "degrees": (1, lambda dp, n_max: (
        (n, f.degree() == n * n and g.degree() <= n * n - 1)
        for n in range(1, n_max + 1) for f, g, _ in [dp.f_g_h(n)])),
    "xfg": (1, lambda dp, n_max: (
        (n, dp.verify_xfg(n)) for n in range(1, min(n_max, 12) + 1))),
    "torsion": (2, lambda dp, n_max: (
        (n, dp.verify_torsion_roots(n)) for n in range(2, min(n_max, 8) + 1))),
    "division_points": (1, lambda dp, n_max: (
        (n, dp.verify_division_point_roots(n)) for n in range(1, min(n_max, 8) + 1))),
    "ftilde": (1, _ftilde_pairs),
    "squarefree": (1, lambda dp, n_max: [(n_max, dp.verify_squarefree_ftilde(n_max))]),
    "squares": (2, lambda dp, n_max: (
        ((m, n), not any(map(rational_square_test, dp.phi_psi(m, n))))
        for m in range(1, min(n_max, 8) + 1) for n in range(m + 1, min(n_max, 8) + 1))),
}


# verify's largest n-max: three checks build f_n, of degree n^2, for each n <= it
VERIFY_N_MAX = 40


def default_verify_curves() -> list[Curve]:
    return [find_curve(range(start, start + 31), 4, "largest").curve
            for start in (7, 11, 13)]


def run_verify(args) -> int:
    checks = {c.strip() for c in args.checks.split(",") if c.strip()}
    if not checks:
        raise ConfigError("empty check list")
    bad = checks - set(_VERIFY)
    if bad:
        raise ConfigError(f"unknown checks: {sorted(bad)}")
    if args.n_max < 1:
        raise ConfigError(f"need n-max >= 1, got n-max = {args.n_max}")
    if args.n_max > VERIFY_N_MAX:
        raise ResourceBudgetError(f"n-max = {args.n_max} exceeds budget {VERIFY_N_MAX}")
    need = min(_VERIFY[c][0] for c in checks)
    if args.n_max < need:  # a run that would check nothing
        names = ",".join(c for c in _VERIFY if c in checks)
        raise ConfigError(f"check {names} builds no records: "
                          f"need n-max >= {need}, got n-max = {args.n_max}")
    curves = [_flag_curve(args)] if args.p is not None else default_verify_curves()
    # one record per (curve, check, index), the checks in table order
    records = [
        {"check": check, "p": C.p, "a": C.a, "b": C.b, "index": index, "pass": bool(ok)}
        for C in curves for dp in [DivisionPolynomials(C)]
        for check, (_, pairs) in _VERIFY.items() if check in checks
        for index, ok in pairs(dp, args.n_max)]
    failures = [r for r in records if not r["pass"]]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": SCHEMA_VERSION, "experiment": "verify",
                       "records": records}, fh, indent=2)
    print(f"verify: {len(records) - len(failures)}/{len(records)} checks passed")
    for r in failures:
        print(f"FAIL {r['check']} at (p={r['p']}, a={r['a']}, b={r['b']}, "
              f"index={r['index']})")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# -- find-curve command --------------------------------------------------


def run_find_curve(args) -> int:
    p_values = [args.p] if args.p is not None else _p_range(args)
    fc = find_curve(p_values, args.big_n, args.t_policy)
    out = {
        "p": fc.curve.p, "a": fc.curve.a, "b": fc.curve.b,
        "order": fc.order, "factors": {str(k): v for k, v in fc.factors.items()},
        "t": fc.t, "t_policy": args.t_policy,
    }
    if fc.structure is not None:
        out["d1"] = fc.structure.d1
        out["d2"] = fc.structure.d2
        out["gen1"] = repr(fc.structure.gen1)
        out["gen2"] = repr(fc.structure.gen2)
    print(json.dumps(out, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    return EXIT_OK


# -- report command ------------------------------------------------------


def _recorded_lhs(rec: dict) -> int | float:
    """The lhs of a sums record as a number in the float range (the ratio
    beside it is a float), kept as written when it is an exact int.  An
    exact lhs is an int, or an integral float in files written before
    exact values were ints; either compares exactly with the recomputed
    int."""
    lhs = rec["lhs"]
    value = float(lhs)
    return lhs if rec["exact"] and type(lhs) is int else value


def _report_records(path: str) -> list[tuple[dict, dict, int | float, bool]]:
    """(record, cell to re-run, recorded lhs, exact flag) for every record
    of a sums report."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("records", [data])
    try:
        return [(rec, dict(rec["inputs"], experiment=rec["experiment"]),
                 _recorded_lhs(rec), bool(rec["exact"])) for rec in data]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} holds no sums report records: {exc!r}") from exc


def run_report(args) -> int:
    if args.infile is None:
        raise ConfigError("--in is required for report")
    failures = 0
    for i, (rec, cell, lhs, exact) in enumerate(_report_records(args.infile)):
        try:
            redo = run_sum_cell(cell)["lhs"]
        except (KeyError, TypeError, ValueError) as exc:
            # a ConfigError (an unknown experiment) is already a message
            detail = exc if isinstance(exc, ConfigError) else repr(exc)
            raise ConfigError(f"{args.infile} record {i} ({rec['experiment']} "
                              f"inputs={rec['inputs']}): {detail}") from exc
        if exact:
            ok = redo == lhs
        else:
            ok = abs(redo - lhs) <= 1e-6 * max(1.0, abs(lhs))
        failures += not ok
        print(f"{'OK  ' if ok else 'FAIL'} {rec['experiment']} "
              f"inputs={rec['inputs']} lhs={lhs:.6g} recomputed={redo:.6g}")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# -- option plumbing -----------------------------------------------------


def _parse_c(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad coefficient vector {text!r}") from exc


def load_config(path: str) -> dict:
    """{option name: value text} from a flat key=value file.  A key is an
    option's flag without its dashes (big-n, in) or its name (big_n,
    infile); a key that names no option, or a second key for one
    option, is a configuration error."""
    names = {}
    for name in _OPTIONS:
        names[name] = names[_flag(name)[2:]] = name
    cfg = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in names:
            raise ConfigError(f"config key {key!r} names no option")
        if names[key] in cfg:
            raise ConfigError(f"config key {key!r} sets {_flag(names[key])} "
                              "a second time")
        cfg[names[key]] = value.strip()
    return cfg


# Every option but --config, in --help order: name (the argparse dest and
# a config-file key, as is its flag without the dashes), type, default,
# and optional extra argparse keywords ("flag" overrides the flag
# "--" + name with dashes).  A flag beats the config file, which beats
# the default.
_OPTIONS = {
    "p": (int, None),
    "a": (int, None),
    "b": (int, None),
    "p_min": (int, None),
    "p_max": (int, None),
    "n_max": (int, 10),
    "k": (int, 1),
    "ell": (int, 1),
    "big_n": (int, 4),
    "t_policy": (str, "largest", {"choices": ("largest", "prime")}),
    "out": (str, None),
    "jobs": (int, os.cpu_count() or 1),
    "seed": (int, 0),
    "samples": (int, 100),
    "delta_budget": (int, 2048),
    "d_max": (int, 8),
    "s_max": (int, 3),
    "c": (str, None, {"help": "comma-separated coefficient vector of the v and "
                            "lemma5 cells whose length it fits"}),
    "checks": (str, ",".join(_VERIFY)),
    "experiments": (str, ",".join(_SUMS)),
    "infile": (str, None, {"flag": "--in"}),
}


def _flag(name: str) -> str:
    """The command-line flag of an option."""
    extra = _OPTIONS[name][2] if len(_OPTIONS[name]) > 2 else {}
    return extra.get("flag", "--" + name.replace("_", "-"))


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    cfg = load_config(args.config) if args.config else {}
    for key, (typ, default, *_) in _OPTIONS.items():
        if getattr(args, key) is None:
            if key in cfg:
                try:
                    setattr(args, key, typ(cfg[key]))
                except ValueError as exc:
                    raise ConfigError(f"bad config value for {key}") from exc
            else:
                setattr(args, key, default)
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecbits",
        description="character-sum bound checks and bit extraction on "
                    "elliptic curves over prime fields",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", help="flat key=value config file")
    for key, (typ, _, *extra) in _OPTIONS.items():
        kwargs = dict(extra[0]) if extra else {}
        kwargs.pop("flag", None)
        parser.add_argument(_flag(key), dest=key, type=typ, **kwargs)
    return parser


def _check_out_dir(out: str | None) -> None:
    """--out must name a file (or file prefix) in an existing directory,
    checked before any work so a long run cannot end in a failed write."""
    if out is not None:
        directory = os.path.dirname(out) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"--out directory {directory!r} does not exist")


_HANDLERS = {
    "verify": run_verify,
    "sums": run_sums,
    "extract": run_extract,
    "find-curve": run_find_curve,
    "report": run_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config(args)
        _check_out_dir(args.out)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExhaustionError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
