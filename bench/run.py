"""The ecbits benchmark: one `ecbits` command per workload, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` repeats the workload's command in a fresh interpreter per
repetition (so no in-process cache such as the `field()` lru_cache and
its chi tables is ever warm) for S seconds and reports the end-to-end
metrics of BENCHMARK.json.  `--trace 1` alternates one untraced and two
traced repetitions (PYTHONHASHSEED 1 and 2) and reports the per-layer
metrics; it also checks that the traced outputs equal the untraced ones,
that counts repeat exactly under both hash seeds, and that every layer
the workload moves (or bypasses) shows nonzero (or zero) calls.

Every repetition's outputs are checked against the references in
`bench/refs/`, recorded with `bench/record_refs.py`.  The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it give each metric with its
unit and the run's environment (Python version, CPU count, load).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_BASE = os.path.join(ROOT, ".bench_tmp")
REP_TIMEOUT_S = 150

sys.path.insert(0, BENCH_DIR)
from calibrate import NOMINAL_S, typical  # noqa: E402
from workloads import CHECKERS, WORKLOADS, Checks, load_ref, output_digest  # noqa: E402

TRACED_HASH_SEEDS = ("1", "2")
TIMED_HASH_SEED = "0"


def child_env(hash_seed: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = hash_seed
    return env


def run_rep(workload: str, seed: int, ref: dict, checks: Checks, tmp: str,
            traced: bool = False, hash_seed: str = TIMED_HASH_SEED) -> dict | None:
    """One repetition in a fresh interpreter; its outputs are checked
    into `checks`.  Returns the child's measurements, or None when the
    child produced none."""
    rep_dir = tempfile.mkdtemp(dir=tmp)
    out = os.path.join(rep_dir, "out")
    os.mkdir(out)
    result_path = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "rep.py"), result_path,
           os.path.join(rep_dir, "stdout.txt")]
    cmd += ["--trace"] if traced else []
    cmd += ["--"] + WORKLOADS[workload]["argv"](out, seed)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(hash_seed), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        checks.check(False, f"repetition timed out after {REP_TIMEOUT_S} s")
        return None
    ended = time.monotonic()
    if not checks.check(proc.returncode == 0 and os.path.exists(result_path),
                        f"repetition process failed: {proc.stderr.strip()[-500:]}"):
        return None
    with open(result_path) as fh:
        res = json.load(fh)
    if not checks.check(res["ecbits_file"].startswith(SRC + os.sep),
                        f"imported ecbits from {res['ecbits_file']}, not {SRC}"):
        return None
    checks.check(res["rc"] == 0, f"ecbits exited with {res['rc']}: "
                 f"{proc.stderr.strip()[-500:]}")
    try:
        CHECKERS[workload](out, ref, seed, checks)
        res["digest"] = output_digest(out)
    except (KeyError, TypeError, ValueError) as exc:
        checks.check(False, f"malformed output: {exc!r}")
        return None
    res["duration_s"] = ended - spawned
    # every time is reported at the calibrated host speed (calibrate.py)
    speed = NOMINAL_S / typical(res["calibration_s"])
    res["speed"] = speed
    res["wall_raw_s"] = res["wall_s"]
    res["wall_s"] *= speed
    res["setup_s"] = (res["ready"] - spawned) * speed
    if workload == "sums":
        with open(os.path.join(out, "sums.json")) as fh:
            data = json.load(fh)
        records = data["records"] if isinstance(data, dict) else data
        res["cell_ms"] = [r["wall_ms"] * speed for r in records]
    else:  # one command, one cell
        res["cell_ms"] = [res["wall_s"] * 1000]
    for k in res.get("trace", {}):
        if k.endswith(".self_s"):
            res["trace"][k] *= speed
    shutil.rmtree(rep_dir)
    return res


def timed_run(workload, seed, seconds, ref, checks, tmp) -> tuple[dict, dict]:
    """End-to-end metrics, and facts about the run for the log."""
    reps = []
    start = time.monotonic()
    while True:
        res = run_rep(workload, seed, ref, checks, tmp)
        if res is None:
            break
        reps.append(res)
        # start another repetition only if it should end within the budget
        if time.monotonic() - start + res["duration_s"] > seconds:
            break
    if not reps:
        return {}, {}
    cells = [c for r in reps for c in r["cell_ms"]]
    p90 = (statistics.quantiles(cells, n=10, method="inclusive")[8]
           if len(cells) > 1 else cells[0])
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in reps),
        "cell_ms_p50": statistics.median(cells),
        "cell_ms_p90": p90,
    }, {
        "repetitions": len(reps),
        "cells": len(cells),
        "wall_raw_s": statistics.median(r["wall_raw_s"] for r in reps),
        "host_speed": statistics.median(r["speed"] for r in reps),
    }


def traced_run(workload, seed, seconds, ref, checks, tmp) -> tuple[dict, dict]:
    """Per-layer metrics, and facts about the run for the log."""
    spec = WORKLOADS[workload]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        cycle = time.monotonic()
        res = run_rep(workload, seed, ref, checks, tmp)
        if res is None:
            return {}, {}
        plain.append(res)
        for hs in TRACED_HASH_SEEDS:
            res = run_rep(workload, seed, ref, checks, tmp, traced=True,
                          hash_seed=hs)
            if res is None:
                return {}, {}
            traced.append(res)
        now = time.monotonic()
        if now - start + (now - cycle) > seconds:
            break
    first = traced[0]["trace"]
    for problem in traced[0]["trace_problems"]:
        checks.check(False, f"trace coverage: {problem}")
    for res in plain + traced:
        checks.check(res["digest"] == plain[0]["digest"],
                     "traced outputs differ from untraced outputs")
    counts = [k for k in first if not k.endswith(".self_s")]
    for res in traced[1:]:
        for k in counts:
            checks.check(res["trace"][k] == first[k],
                         f"{k} is not a count: {first[k]} vs {res['trace'][k]}")
    for k in spec["expect_nonzero"]:
        checks.check(first.get(k, 0) > 0, f"{k} is zero on {workload}, "
                     "which should move it")
    for k in spec["expect_zero"]:
        checks.check(first.get(k) == 0, f"{k} = {first.get(k)} on "
                     f"{workload}, which should bypass it")
    metrics = dict(first)
    for k in first:
        if k.endswith(".self_s"):
            metrics[k] = statistics.median(r["trace"][k] for r in traced)
    metrics["trace_overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain))
    return metrics, {
        "repetitions": len(plain) + len(traced),
        "traced_wall_s": statistics.median(r["wall_s"] for r in traced),
        "host_speed": statistics.median(r["speed"] for r in plain + traced),
    }


def environment(workload, seed, seconds, trace) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "ecbits", "cli.py")):
        print(f"no ecbits sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # compile the package once (writes bytecode), so set-up times measure
    # imports as a user's second and later invocations see them
    subprocess.run([sys.executable, "-c", "import ecbits.cli"],
                   env=child_env(TIMED_HASH_SEED), cwd=ROOT,
                   timeout=REP_TIMEOUT_S)
    ref = load_ref(args.workload)
    checks = Checks()
    os.makedirs(TMP_BASE, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_BASE) as tmp:
            run = traced_run if args.trace else timed_run
            got, info = run(args.workload, args.seed, args.seconds, ref,
                            checks, tmp)
    finally:
        try:
            os.rmdir(TMP_BASE)
        except OSError:
            pass  # another run still uses it

    metrics = {}
    for m in wanted:
        if checks.check(m["name"] in got, f"metric {m['name']} not measured"):
            metrics[m["name"]] = {"value": got[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<44} {got[m['name']]:>14.6g} {m['unit']}")
    if checks.attempted:
        print(f"{'fail_ratio':<44} {len(checks.failures) / checks.attempted:>14.6g} 1")
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(dict(env, **info)))
    for why in checks.failures[:20]:
        print("FAILED: " + why, file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
