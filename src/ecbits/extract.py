"""Least-significant-bit extraction from x-coordinates of point
multiples: the exact deviation of the bit-pattern counts over a
subgroup (and its sampled estimate for subgroups too large to
enumerate), and bitstream generation.

Bits are always least significant ones: for primes just below a power
of two the most significant bits of random residues are biased, while
the low bits are exactly balanced up to O(1/p).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from operator import lshift
from sys import byteorder
from typing import NamedTuple

from . import curve as _curve
# _t_sum is unused here; the benchmark's per-layer tracer (bench/spans.py)
# looks it up as an attribute of this module
from .charsum import (
    _t_sum,  # noqa: F401
    check_coprime_to_factorial,
    prefix_sums,
    window_table,
    x_multiples,
)
from .curve import (
    INFINITY,
    Curve,
    CurvePoint,
    _bit_sum,
    check_subgroup_budget,
    multiples,
    sample_scalars,
    torsion_doublings,
)
from .field import PreconditionError, ResourceBudgetError
from .poly import _unpack


def _check_window(p: int, k: int, ell: int, N: int) -> None:
    """k windows of ell < log2(p) bits over the index range [1, N]."""
    if k < 1 or ell < 1:
        raise PreconditionError(f"need k >= 1 and ell >= 1, got k = {k}, ell = {ell}")
    if ell >= (p - 1).bit_length():  # 2^ell >= p, without building 2^ell
        raise PreconditionError(
            f"2^ell must be smaller than p = {p}, got ell = {ell}")
    if N < 1:
        raise PreconditionError(f"need N >= 1, got N = {N}")


# N^k codes, and as many x-coordinates, are held per point at a time
CODE_BUDGET = 10_000_000
# The sampled estimate reads samples * N windows, one sample at a time
SAMPLE_BUDGET = 10_000_000
# Delta and the sampled histogram count 2^(k*ell) patterns per point
PATTERN_BUDGET = 1 << 16


def _check_code_budget(k: int, N: int) -> None:
    """N^k <= CODE_BUDGET, without building N^k for a large k."""
    if N > 1 and (k >= CODE_BUDGET.bit_length() or N**k > CODE_BUDGET):
        raise ResourceBudgetError(
            f"N^k = {N}^{k} codes per point exceed the budget {CODE_BUDGET}")


def _check_pattern_budget(k: int, ell: int) -> None:
    """2^(k*ell) <= PATTERN_BUDGET, without building 2^(k*ell)."""
    if k * ell >= PATTERN_BUDGET.bit_length():
        raise ResourceBudgetError(f"2^(k*ell) = 2^{k * ell} patterns per point "
                                  f"exceed the budget {PATTERN_BUDGET}")


def _codes(xs: list[int], k: int, ell: int, N: int) -> list[int]:
    """The k*ell-bit code of every index tuple (n_1..n_k) in [1,N]^k, in
    itertools.product order, from xs[m - 1] = x(mR), m = 1..N^k: its j-th
    ell-bit field, most significant first, holds the ell low bits of
    x((n_1...n_j) R)."""
    mask = (1 << ell) - 1
    windows = [x & mask for x in xs]
    if k == 1:  # n_1 = 1..N in order, so the codes are the windows
        return windows
    # the fields do not overlap, so the code is the sum of the shifted windows
    return prefix_sums([[w << (k - 1 - j) * ell for w in windows[:N ** (j + 1)]]
                        for j in range(k)], range(1, N + 1))


def _window_codes(curve: Curve, R: CurvePoint, k: int, ell: int,
                  N: int) -> list[int]:
    """_codes of R, read from a walk of its first N^k multiples."""
    _check_window(curve.p, k, ell, N)
    _check_code_budget(k, N)
    return _codes(x_multiples(curve, R, N**k), k, ell, N)


def _histogram(codes: list[int], k: int, ell: int) -> list[int]:
    """How often each k*ell-bit pattern occurs among codes."""
    counts = [0] * (1 << (k * ell))
    for c in codes:
        counts[c] += 1
    return counts


def _mirrored(half: list, t: int) -> list:
    """The list v of length t with v[i] = half[i] for i < len(half) and
    v[t - i] = v[i]: half holds i = 0..t // 2."""
    return half + half[t - len(half):0:-1]


def _pattern_counts(tx: list[int], k: int, ell: int, N: int):
    """The histogram of _codes for every point of one orbit, through the
    prefix-product recursion on its x table.

    tx[i] = x(iG) for i < o = ord(G), with tx[0] = x(O) = 0, so
    tx[o - i] = tx[i] (x(-R) = x(R)), and every level below inherits that
    symmetry: A_j(o - i) = A_j(i).  Since
    (n_1 n_2...n_j)(iG) = (n_2...n_j)(n_1 iG), the codes of iG over
    [1,N]^j are those of its multiples n_1 iG over [1,N]^(j-1), each
    under one more most significant window, w(x(n_1 iG)):

      A_0(i) = 1 (the empty tuple),
      A_j(i) = sum_{n=1..N} A_(j-1)(n i mod o) under w(tx[n i mod o]).

    Each A_j(i) is one int whose slot c, the smallest of 1, 2, 4 or 8
    bytes (or wider) that holds N^k, counts pattern c; "under window w"
    is a left shift by w slots of 2^((j-1) ell) each.  Levels 1..k-1 are
    built for i = 0..o // 2, o shifts and (o // 2 + 1)*N adds each, and
    mirrored onto the rest of the orbit; the last level only for the
    indices asked of the returned function: N shift-adds and one
    unpacking each.  Memory: o ints of at most
    2^((k-1) ell) slots.  At k = 1 there is no level to build, and the
    returned function counts the N windows of iG into a plain histogram.
    """
    o = len(tx)
    mask = (1 << ell) - 1
    windows = [x & mask for x in tx]
    ns = range(1, N + 1)
    if k == 1:  # no recursion: the N windows of iG, counted directly
        return lambda i: _histogram([windows[n * i % o] for n in ns], 1, ell)
    width = 1
    while 8 * width < (N**k).bit_length():
        width *= 2

    def shifts(j):  # A_(j-1)(m) goes under the window of tx[m]
        return [(8 * width << (j - 1) * ell) * w for w in windows]

    level = [1] * o
    for j in range(1, k):
        lifted = list(map(lshift, level, shifts(j)))
        level = _mirrored([sum(map(lifted.__getitem__, [n * i % o for n in ns]))
                           for i in range(o // 2 + 1)], o)
    top = shifts(k)
    nbytes = width << k * ell

    def counts_at(i: int):
        """The 2^(k*ell) pattern counts of iG, pattern c at index c."""
        idx = [n * i % o for n in ns]
        packed = sum(map(lshift, map(level.__getitem__, idx),
                         map(top.__getitem__, idx)))
        counts = _unpack(packed.to_bytes(nbytes, byteorder), width)
        # a big-endian int puts the highest slot first
        return counts if byteorder == "little" else counts[::-1]

    return counts_at


def _worst_deviation(counts, total: int) -> int:
    """max over patterns of |count * len(counts) - total|: the worst
    deviation from total / len(counts), times len(counts)."""
    size = len(counts)
    # |count * size - total| peaks at the rarest or the commonest pattern
    return max(max(counts) * size - total, total - min(counts) * size)


class DeviationReport(NamedTuple):
    """Exact worst-pattern deviations of the bit counts over a subgroup.

    Counts are integers and the reference value N^k / 2^(k*ell) is a
    dyadic rational, so every deviation is an exact Fraction.  The
    bound value is the proved shape evaluated at BOUND_CONSTANT (the
    paper only asserts such a constant exists).
    """

    k: int
    ell: int
    N: int
    p: int
    t: int
    expected: Fraction
    per_point: list[tuple[str, Fraction]]
    total: Fraction
    total_excluding_infinity: Fraction
    bound_constant: float
    bound_value: float

    @property
    def ratio(self) -> float:
        return float(self.total) / self.bound_value


# The C of Delta's bound, which the paper leaves unspecified.  At C = 1,
# within the code, pattern, p and subgroup budgets, the bound and
# t N^k / bound (Delta's largest ratio to it) are finite and positive.
BOUND_CONSTANT = 1.0


def deviation_bound(k: int, N: int, p: int, t: int) -> float:
    """(N^2k p^(1/4) t^(1/2) + N^(k-1/2) t) * (C log p)^k."""
    return (N ** (2 * k) * p**0.25 * t**0.5 + N**k / math.sqrt(N) * t) * (
        BOUND_CONSTANT * math.log(p)
    ) ** k


def delta(
    curve: Curve,
    G: CurvePoint,
    t: int,
    k: int,
    ell: int,
    N: int,
) -> DeviationReport:
    """Delta_{k,ell}(<G>, N): the sum over R in the order-t subgroup <G>
    of the worst deviation of the pattern count from N^k / 2^(k*ell),
    taken over all patterns.

    The points are reported O first, then by x, then by y; the sum
    includes the point at infinity, whose degenerate all-zero orbit is
    also reported separately via total_excluding_infinity.  G is an F_p
    point of order t: t < 1 or G off the curve is a ValueError, and
    tG != O or ord(G) < t a PreconditionError; t > SUBGROUP_BUDGET is
    refused first, and 2^(k*ell) > PATTERN_BUDGET before the walk.

    Cost: the counts of R read only x(nR) = x(n(-R)), and the classes
    {R, -R} of <G> are {jG, (t - j)G}, so everything runs once per class.
    One walk of curve.multiples reads the int pairs (x, y) of jG for
    j = 1..t // 2, and tx[t - j] = tx[j] fills the x table of <G>.  Then
    _pattern_counts builds its lower levels over the same half: at most
    k*N shift-adds per class, with one packed int of at most
    2^((k-1) ell) slots per point of <G> held at a time.  The last level,
    its unpacking and the worst deviation run once per class, t // 2 + 1
    times, and each class reports (x, y) and (x, p - y) from the walk's
    pair, or one point when y = 0.
    """
    check_subgroup_budget(t)
    p = curve.p
    if p <= k:
        raise PreconditionError(f"need p > k, got p = {p}, k = {k}")
    _check_window(p, k, ell, N)
    _check_pattern_budget(k, ell)
    check_coprime_to_factorial(t, N)
    torsion_doublings(curve, G, t)
    half = list(islice(multiples(curve, G), t // 2))
    if len(half) < t // 2:
        raise PreconditionError(f"ord(G) < t = {t} for G = {G}")
    counts_at = _pattern_counts(_mirrored([0, *(x for x, _ in half)], t),
                                k, ell, N)
    size = 1 << (k * ell)
    worst_o = _worst_deviation(counts_at(0), N**k)
    per_point = [(repr(INFINITY), Fraction(worst_o, size))]
    total_wo_o = 0  # numerator over 2^(k*ell)
    for x, y, j in sorted((x, min(y, p - y), j)
                          for j, (x, y) in enumerate(half, 1)):
        worst = _worst_deviation(counts_at(j), N**k)
        dev = Fraction(worst, size)
        ys = (y, p - y) if y else (y,)
        per_point += [(repr(CurvePoint(x, v)), dev) for v in ys]
        total_wo_o += worst * len(ys)
    return DeviationReport(
        k=k,
        ell=ell,
        N=N,
        p=p,
        t=t,
        expected=Fraction(N**k, size),
        per_point=per_point,
        total=Fraction(worst_o + total_wo_o, size),
        total_excluding_infinity=Fraction(total_wo_o, size),
        bound_constant=BOUND_CONSTANT,
        bound_value=deviation_bound(k, N, p, t),
    )


def bitstream(curve: Curve, R: CurvePoint, k: int, ell: int, N: int) -> str:
    """Concatenation, in lexicographic (n_1..n_k) order, of the k ell-bit
    low windows of each coordinate vector; length k*ell*N^k."""
    if R.is_infinity:
        raise ValueError("the infinity orbit is degenerate; pick R != O")
    codes = _window_codes(curve, R, k, ell, N)
    # one string per distinct code: at most 2^(k*ell), and at most N^k
    bits = {c: format(c, f"0{k * ell}b") for c in set(codes)}
    return "".join(map(bits.__getitem__, codes))


def _reads_table(t: int, N: int, samples: int) -> bool:
    """Whether sampled_deviation reads a window table of the order-t
    subgroup (t // 2 multiples, t bytes at ell <= 8) rather than walk
    each sample's first N multiples (samples * (N - 1) point steps)."""
    return t // 2 <= samples * (N - 1) and t <= _curve.SUBGROUP_BUDGET


def _table_windows(C: Curve, gen: CurvePoint, t: int, ell: int, N: int,
                   samples: int, seed: int) -> Iterator[list[int]]:
    """The ell low bits of x(n kG), n = 1..N, for each k of
    sample_scalars(t, samples, seed): w[nk mod t] of one window table."""
    w = window_table(C, gen, t, ell)
    ns = range(1, N + 1)
    for k in sample_scalars(t, samples, seed):
        yield [w[n * k % t] for n in ns]


def _walk_windows(C: Curve, gen: CurvePoint, t: int, ell: int, N: int,
                  samples: int, seed: int) -> Iterator[list[int]]:
    """_table_windows, each sampled kG read by its own x_multiples instead.

    Cost: torsion_doublings checks tG = O and gives the doublings 2^i G,
    i < t.bit_length(); each kG then takes one addition per further set
    bit of k, and x_multiples reads its N multiples."""
    p, a = C.p, C.a
    table = torsion_doublings(C, gen, t)
    for k in sample_scalars(t, samples, seed):
        kG = _bit_sum(p, a, table, k)
        P = INFINITY if kG is None else CurvePoint._make(kG)
        yield _codes(x_multiples(C, P, N), 1, ell, N)


def sampled_deviation(C: Curve, gen: CurvePoint, t: int, k: int, ell: int,
                      N: int, samples: int, seed: int) -> dict:
    """Average worst-pattern deviation over the sampled subgroup points
    kG, k from curve.sample_scalars(t, samples, seed) and gen of order t
    (the exhaustive Delta is out of reach for large t); k = 1 only, and
    like delta it needs gcd(N!, t) = 1 and 2^(k*ell) <= PATTERN_BUDGET,
    and samples * N <= SAMPLE_BUDGET, checked before any point step.  A
    gen off the curve is a ValueError, and one with tG != O a
    PreconditionError, from the one torsion_doublings check that the
    chosen way makes.

    Cost: x(n kG), n = 1..N, is read the way with fewer point steps
    (_reads_table), each step a few multiplications and one inversion
    mod p, or in a block a share of one:
    - from one charsum.window_table of <gen>, when t // 2 <=
      samples * (N - 1) and t <= SUBGROUP_BUDGET: t // 2 multiples, in
      blocks of about sqrt(t) that share one inversion mod p each, a
      table of t bytes at ell <= 8, then N reads per sample;
    - otherwise by x_multiples of each sampled kG (_walk_windows), read
      from the doublings of the order check: samples * (N - 1) steps,
      in blocks from N = BLOCK_MIN on, held one sample at a time.
    Both read the same k, so the result does not depend on the way.  The
    mean is the integer sum of the worst deviations divided once.
    """
    if k != 1:
        raise PreconditionError("sampled deviation sweeps support k = 1")
    if samples < 1:
        raise PreconditionError(f"need samples >= 1, got samples = {samples}")
    check_coprime_to_factorial(t, N)
    _check_window(C.p, k, ell, N)
    _check_code_budget(k, N)
    _check_pattern_budget(k, ell)
    if samples * N > SAMPLE_BUDGET:
        raise ResourceBudgetError(f"samples * N = {samples} * {N} window reads "
                                  f"exceed the budget {SAMPLE_BUDGET}")
    windows = _table_windows if _reads_table(t, N, samples) else _walk_windows
    total = top = 0
    for codes in windows(C, gen, t, ell, N, samples, seed):
        worst = _worst_deviation(_histogram(codes, k, ell), N)
        total += worst
        top = max(top, worst)
    return {
        "samples": samples,
        "seed": seed,
        "mean_rel_deviation": total / (samples * (N << ell)),
        "max_rel_deviation": top / (N << ell),
    }


def pack_bits(stream: str) -> bytes:
    """Pack a bit string into bytes, little-endian within each byte: bit
    i of the stream lands in byte i // 8 at bit position i % 8."""
    bad = stream.translate(str.maketrans("", "", "01"))
    if bad:
        raise ValueError(f"bad bit {bad[0]!r}")
    # reversed, bit i of the stream is bit i of one int
    return int(stream[::-1] or "0", 2).to_bytes((len(stream) + 7) // 8, "little")
