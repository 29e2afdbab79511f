"""The four benchmark workloads and the checks of their outputs.

Each workload is one `ecbits` command run as a closed loop with one
client in a single process (`--jobs 1`; the CLI default is
`os.cpu_count()`, which would start a process pool).  Why each one
exists, which layer it loads and which it bypasses is recorded in
`bench/WORKLOADS.md`.

`expect_nonzero` / `expect_zero` name per-layer call counts that the
traced run must find nonzero (the workload moves that metric) or zero
(the workload bypasses that layer).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from fractions import Fraction

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Relative tolerance for complex-accumulated results (V, lemma 5): the
# replay tolerance `ecbits report` uses.
COMPLEX_RTOL = 1e-6
# Float statistics computed in a fixed order (sampled deviation means,
# the Delta bound value): equal up to summation-order rounding.
FLOAT_RTOL = 1e-9


def _argv_sums(out, seed):
    return ["sums", "--p", "1009", "--a", "1", "--b", "1", "--big-n", "6",
            "--d-max", "7", "--experiments", "u,v,lemma5,collisions",
            "--jobs", "1", "--out", os.path.join(out, "sums")]


def _argv_verify(out, seed):
    return ["verify", "--jobs", "1", "--out", os.path.join(out, "verify.json")]


def _argv_extract_exact(out, seed):
    return ["extract", "--p", "1549", "--a", "1", "--b", "3", "--k", "2",
            "--ell", "2", "--big-n", "24", "--jobs", "1",
            "--out", os.path.join(out, "extract")]


def _argv_extract_sampled(out, seed):
    return ["extract", "--p-min", "500000", "--p-max", "500200", "--k", "1",
            "--ell", "4", "--big-n", "256", "--samples", "2000",
            "--seed", str(seed), "--jobs", "1",
            "--out", os.path.join(out, "extract")]


# Layer groups for the expectations below (see WORKLOADS.md for why).
_POLY = ["poly.mul.calls", "poly.divmod.calls", "poly.gcd.calls",
         "poly.squarefree_part.calls", "poly.rational_square_test.calls"]
_DIVPOLY = ["divpoly.psi.calls", "divpoly.f_g_h.calls", "divpoly.f_tilde.calls",
            "divpoly.verify_xfg.calls", "divpoly.verify_torsion_roots.calls",
            "divpoly.verify_division_point_roots.calls"]
_CHARSUM_SUMS = ["charsum.sum_U.calls", "charsum.sum_V.calls",
                 "charsum.sum_T.calls", "charsum.subgroup_sum.calls",
                 "charsum.count_product_collisions.calls"]

WORKLOADS = {
    "sums": {
        "argv": _argv_sums,
        "expect_nonzero": _CHARSUM_SUMS + [
            "field.inv.calls", "field.psi.calls", "field.chi.calls",
            "curve.add.calls", "curve.mul.calls",
            "curve.subgroup_of_order.calls", "curve.enumerate_points.calls",
            "charsum.x_multiples.calls", "cli.run_sum_cell.calls",
            "cli.output.calls",
        ],
        "expect_zero": _POLY + _DIVPOLY + [
            "field.fp2_mul.calls", "extract.delta.calls",
            "cli.sampled_deviation.calls", "cli.find_curve.calls",
        ],
    },
    "verify": {
        "argv": _argv_verify,
        "expect_nonzero": _POLY + _DIVPOLY + [
            "field.fp2_mul.calls", "curve.rational_division_points.calls",
            "curve.group_structure.calls", "cli.find_curve.calls",
            "cli.output.calls",
        ],
        "expect_zero": _CHARSUM_SUMS + [
            "charsum.x_multiples.calls", "field.psi.calls",
            "extract.delta.calls", "extract.bitstream.calls",
            "cli.sampled_deviation.calls", "cli.run_sum_cell.calls",
        ],
    },
    "extract-exact": {
        "argv": _argv_extract_exact,
        "expect_nonzero": [
            "field.inv.calls", "curve.add.calls", "charsum.x_multiples.calls",
            "extract.delta.calls", "extract.bitstream.calls",
            "extract.pack_bits.calls", "cli.subgroup_generator.calls",
            "cli.output.calls",
        ],
        "expect_zero": _POLY + _DIVPOLY + _CHARSUM_SUMS + [
            "field.psi.calls", "field.fp2_mul.calls",
            "cli.sampled_deviation.calls", "cli.find_curve.calls",
        ],
    },
    "extract-sampled": {
        "argv": _argv_extract_sampled,
        "expect_nonzero": [
            "field.inv.calls", "field.chi_table.calls", "curve.order.calls",
            "curve.add.calls", "charsum.x_multiples.calls",
            "cli.find_curve.calls", "cli.subgroup_generator.calls",
            "cli.sampled_deviation.calls", "extract.bitstream.calls",
            "cli.output.calls",
        ],
        "expect_zero": _POLY + _DIVPOLY + _CHARSUM_SUMS + [
            "field.psi.calls", "field.fp2_mul.calls", "extract.delta.calls",
            "curve.subgroup_of_order.calls",
        ],
    },
}


# -- output checks --------------------------------------------------------


class Checks:
    """Tally of output checks; each failure keeps a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def close(value, ref, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def load_ref(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, workload + ".json")) as fh:
        return json.load(fh)


def _load_json(path: str, checks: Checks):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        checks.check(False, f"unreadable output {os.path.basename(path)}: {exc}")
        return None


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_sums(out: str, ref: dict, seed: int, checks: Checks) -> None:
    data = _load_json(os.path.join(out, "sums.json"), checks)
    if data is None:
        return
    if isinstance(data, dict):  # partial run: budget-skipped cells
        for s in data.get("skipped", []):
            checks.check(False, f"budget-skipped cell {s.get('cell')}")
        data = data.get("records", [])
    refs = ref["records"]
    checks.check(len(data) == len(refs),
                 f"sums wrote {len(data)} records, reference has {len(refs)}")
    for got, want in zip(data, refs):
        what = f"sums {want['experiment']} {want['inputs']}"
        if got["experiment"] != want["experiment"] or got["inputs"] != want["inputs"]:
            checks.check(False, what + ": record order or inputs differ")
        elif want["exact"]:
            # numeric, not textual: 42 == 42.0, so int-vs-float storage passes
            checks.check(got["lhs"] == want["lhs"],
                         f"{what}: lhs {got['lhs']} != {want['lhs']}")
        else:
            checks.check(close(got["lhs"], want["lhs"], COMPLEX_RTOL),
                         f"{what}: lhs {got['lhs']} vs {want['lhs']}")


def check_verify(out: str, ref: dict, seed: int, checks: Checks) -> None:
    data = _load_json(os.path.join(out, "verify.json"), checks)
    if data is None:
        return
    recs = data["records"]
    refs = ref["records"]
    checks.check(len(recs) == len(refs),
                 f"verify wrote {len(recs)} checks, reference has {len(refs)}")
    key = ("check", "p", "a", "b", "index")
    for got, want in zip(recs, refs):
        checks.check(all(got[k] == want[k] for k in key) and got["pass"] is True,
                     f"verify {[want[k] for k in key]}: got {got}")


def _check_extract_common(out: str, ref: dict, checks: Checks):
    payload = _load_json(os.path.join(out, "extract.json"), checks)
    if payload is None:
        return None
    inputs = {k: v for k, v in payload["inputs"].items() if k != "seed"}
    checks.check(inputs == ref["inputs"], f"extract inputs {inputs}")
    checks.check(payload["stream_bits"] == ref["stream_bits"],
                 f"stream length {payload['stream_bits']} != {ref['stream_bits']}")
    checks.check(payload["generator"] == ref["generator"],
                 f"generator {payload['generator']} != {ref['generator']}")
    bits = os.path.join(out, "extract.bits")
    checks.check(os.path.exists(bits) and sha256_file(bits) == ref["bits_sha256"],
                 "bitstream file differs from the reference")
    return payload


def check_extract_exact(out: str, ref: dict, seed: int, checks: Checks) -> None:
    payload = _check_extract_common(out, ref, checks)
    if payload is None:
        return
    dev, want = payload.get("deviation"), ref["deviation"]
    if not checks.check(dev is not None, "exhaustive deviation missing"):
        return
    for k in ("total", "total_excluding_infinity", "expected"):
        checks.check(Fraction(dev[k]) == Fraction(want[k]),
                     f"Delta {k} {dev[k]} != {want[k]}")
    checks.check(close(dev["bound_value"], want["bound_value"], FLOAT_RTOL),
                 f"bound value {dev['bound_value']} vs {want['bound_value']}")
    checks.check(len(dev["per_point"]) == len(want["per_point"]),
                 "per-point deviation count differs")
    for (pt, v), (wpt, wv) in zip(dev["per_point"], want["per_point"]):
        checks.check(pt == wpt and Fraction(v) == Fraction(wv),
                     f"per-point deviation at {wpt}: {pt} {v} != {wv}")


def check_extract_sampled(out: str, ref: dict, seed: int, checks: Checks) -> None:
    payload = _check_extract_common(out, ref, checks)
    if payload is None:
        return
    rows = payload.get("deviation_sampled")
    if not checks.check(rows is not None, "sampled deviation missing"):
        return
    checks.check(rows["samples"] == ref["samples"] and rows["seed"] == seed,
                 f"sample count/seed {rows['samples']}/{rows['seed']}")
    mean, top = rows["mean_rel_deviation"], rows["max_rel_deviation"]
    checks.check(0 <= mean <= top <= 1, f"deviations {mean}, {top} not in [0, 1]")
    want = ref["per_seed"].get(str(seed))
    if want is not None:
        checks.check(close(mean, want["mean_rel_deviation"], FLOAT_RTOL),
                     f"mean deviation {mean} vs {want['mean_rel_deviation']}")
        checks.check(close(top, want["max_rel_deviation"], FLOAT_RTOL),
                     f"max deviation {top} vs {want['max_rel_deviation']}")


CHECKERS = {
    "sums": check_sums,
    "verify": check_verify,
    "extract-exact": check_extract_exact,
    "extract-sampled": check_extract_sampled,
}


def output_digest(out: str) -> str:
    """Digest of everything the command wrote, minus the timing fields
    (`wall_ms` in JSON records, the `wall_ms` CSV column), so traced and
    untraced runs of the same command can be compared."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".json"):
            with open(path) as fh:
                body = json.dumps(_drop_wall(json.load(fh)), sort_keys=True).encode()
        elif name.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            if rows and "wall_ms" in rows[0]:
                col = rows[0].index("wall_ms")
                rows = [r[:col] + r[col + 1:] for r in rows]
            body = json.dumps(rows).encode()
        else:
            with open(path, "rb") as fh:
                body = fh.read()
        h.update(name.encode() + b"\0" + body)
    return h.hexdigest()


def _drop_wall(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_drop_wall(v) for v in obj]
    return obj
