"""Record the reference outputs the benchmark checks against.

    python3 bench/record_refs.py

Runs each workload's command once (fresh interpreter, untraced) and
writes `bench/refs/<workload>.json`.  `extract-sampled` is run for
seeds 0..SAMPLED_SEEDS-1; other seeds are checked against its seed-independent
facts only.  Re-record only on a commit whose outputs are known good:
the references define what a correct output is.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from run import BENCH_DIR, ROOT, TIMED_HASH_SEED, TMP_BASE, child_env
from workloads import REFS_DIR, WORKLOADS, sha256_file

SAMPLED_SEEDS = 32


def run_once(workload: str, seed: int, tmp: str) -> str:
    out = tempfile.mkdtemp(dir=tmp)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "rep.py"),
           os.path.join(out, "result.json"), os.path.join(out, "stdout.txt"),
           "--"] + WORKLOADS[workload]["argv"](out, seed)
    subprocess.run(cmd, env=child_env(TIMED_HASH_SEED), cwd=ROOT, check=True)
    with open(os.path.join(out, "result.json")) as fh:
        rc = json.load(fh)["rc"]
    if rc != 0:
        raise SystemExit(f"{workload} exited with {rc}; not recording")
    return out


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def extract_ref(out: str) -> dict:
    payload = _load(os.path.join(out, "extract.json"))
    return {
        "inputs": {k: v for k, v in payload["inputs"].items() if k != "seed"},
        "stream_bits": payload["stream_bits"],
        "generator": payload["generator"],
        "bits_sha256": sha256_file(os.path.join(out, "extract.bits")),
    }


def main() -> None:
    os.makedirs(TMP_BASE, exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=TMP_BASE) as tmp:
        out = run_once("sums", 0, tmp)
        data = _load(os.path.join(out, "sums.json"))
        if isinstance(data, dict):
            raise SystemExit("sums skipped cells; not recording")
        refs["sums"] = {"records": [
            {k: r[k] for k in ("experiment", "inputs", "lhs", "exact")}
            for r in data]}

        out = run_once("verify", 0, tmp)
        recs = _load(os.path.join(out, "verify.json"))["records"]
        if not all(r["pass"] for r in recs):
            raise SystemExit("verify has failing checks; not recording")
        refs["verify"] = {"records": recs}

        out = run_once("extract-exact", 0, tmp)
        ref = extract_ref(out)
        dev = _load(os.path.join(out, "extract.json"))["deviation"]
        ref["deviation"] = {k: dev[k] for k in (
            "total", "total_excluding_infinity", "expected", "bound_value",
            "per_point")}
        refs["extract-exact"] = ref

        per_seed = {}
        for seed in range(SAMPLED_SEEDS):
            out = run_once("extract-sampled", seed, tmp)
            ref = extract_ref(out)
            rows = _load(os.path.join(out, "extract.json"))["deviation_sampled"]
            if seed == 0:
                sampled = dict(ref, samples=rows["samples"])
            elif ref != {k: sampled[k] for k in ref}:
                raise SystemExit(f"seed {seed} changed seed-independent outputs")
            per_seed[str(seed)] = {k: rows[k] for k in (
                "mean_rel_deviation", "max_rel_deviation")}
        refs["extract-sampled"] = dict(sampled, per_seed=per_seed)

    for name, ref in refs.items():
        with open(os.path.join(REFS_DIR, name + ".json"), "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote refs/{name}.json")


if __name__ == "__main__":
    main()
