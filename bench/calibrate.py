"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the same pure-Python
loop runs up to ~50% slower for tens of seconds at a time when a
neighbour is busy, which swamps any change worth measuring.  So each
repetition also times `chunk()`, a fixed ~2 ms pure-Python kernel with
the same instruction mix as ecbits (modular inversion by `pow`, slotted
point objects, list appends), on the same core and at the same time as
the command: a few times before it, every INTERVAL_S while it runs
(from a SIGALRM handler, whose time is subtracted from the command's),
and a few times after.  A time t measured next to a typical chunk time
c (`typical`) is reported as t * NOMINAL_S / c: seconds on a host where
one chunk takes NOMINAL_S.  The kernel shares no code with ecbits, so no change to the
program can move it.
"""

from __future__ import annotations

import signal
import time

# A round figure near the chunk time on a 2-vCPU 2.0 GHz Xeon host with
# CPython 3.11 (1.3-2.0 ms there, as neighbours come and go); it only
# sets the unit.
NOMINAL_S = 0.002
INTERVAL_S = 0.1
EDGE_CHUNKS = 3

_P = 1_000_003


class _Pt:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _chord(P, Q, p):
    s = (Q.y - P.y) * pow(Q.x - P.x, p - 2, p) % p
    x3 = (s * s - P.x - Q.x) % p
    return _Pt(x3, (s * (P.x - x3) - P.y) % p)


def chunk() -> float:
    """Run the fixed kernel once; return its duration in seconds."""
    start = time.perf_counter()
    R = _Pt(5, 7)
    bits = []
    for i in range(2, 500):
        R = _chord(R, _Pt(i, i * i % _P), _P)
        bits.append(R.x & 15)
    sum(bits)
    return time.perf_counter() - start


def typical(samples: list[float]) -> float:
    """Mean of the middle 80% of the chunk times: the average slowness
    over the call, without the chunks a context switch interrupted."""
    s = sorted(samples)
    cut = len(s) // 10
    return sum(s[cut:len(s) - cut]) / (len(s) - 2 * cut)


class HostSpeed:
    """Context manager sampling `chunk()` around and during a timed call.

    `samples` holds every chunk time; `spent` is the time the sampling
    took while the call ran, to be subtracted from the call's duration.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(chunk())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples += [chunk() for _ in range(EDGE_CHUNKS)]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [chunk() for _ in range(EDGE_CHUNKS)]
        return False
