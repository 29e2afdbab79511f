"""One benchmark repetition, run in a fresh interpreter.

    python3 bench/rep.py RESULT_JSON STDOUT_FILE [--trace] -- ARGV...

Imports `ecbits.cli` first, so the parent can time interpreter start up
to that point from the monotonic clock reading written here, then runs
`cli.main(ARGV)` once with its standard output sent to STDOUT_FILE,
sampling the host speed around and during the call (calibrate.py).
With `--trace` the per-layer wrappers of `spans.py` are installed
between the import and the call.
"""

import time  # the only import before ecbits: set-up ends when that import returns

import ecbits.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from calibrate import HostSpeed  # noqa: E402


def main() -> None:
    result_path, stdout_path, *rest = sys.argv[1:]
    sep = rest.index("--")
    traced = "--trace" in rest[:sep]
    argv = rest[sep + 1:]
    tracer = problems = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        problems = tracer.install()
    with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
        with HostSpeed() as speed:
            start = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - start
    result = {
        "rc": rc,
        "ready": READY,
        "wall_s": wall - speed.spent,
        "calibration_s": speed.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ecbits_file": cli.__file__,
    }
    if traced:
        result["trace"] = tracer.results()
        result["trace_problems"] = problems
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
