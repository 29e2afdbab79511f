"""Exact evaluation of the point character sums and their comparison
against the proved bounds.

U aggregates |S(P, Q; N)|^2 over all point pairs, S summing the
quadratic character of x(nP)x(nQ).  x_multiples reads x of the first
multiples of one point: from BLOCK_MIN of them on in blocks of
multiples around giant-step centres cG, one inversion per block for
the pairs (c +- j)G, and below that, or when a block meets O, by
_walk_x, the walk of multiples, one inversion per step; window_table
keeps the low bits of x over a whole cyclic subgroup of order t, half
of it built from the same blocks (from _walk_x when they meet O) and
the other half mirrored through x(mG) = x((t - m)G): O(sqrt(t))
inversions, and O(sqrt(t)) ints beside the t-entry table; x_columns
reads x(mR) for every point R of a set, one column per multiplier m,
each filled on its first read from the x tables of the orbits that
_orbit_rows walks once per cyclic subgroup met, and kept per point set
for U and lemma 5.  U and V read a point R only through
x(nR) = x(n(-R)): once_per_pair evaluates V's per-point terms once per
class {R, -R} of any point set, and U takes one x column entry per
class (the exact Delta of extract takes its classes as j and t - j of
<G>); as chi is completely multiplicative, U reads chi once per class
and multiplier and sums W(m, n) as dot products of chi columns.  T is
the multiplicative-product additive-character sum, its psi arguments
built level by level over [1,N]^k by prefix_sums; V aggregates |T|^2
over a subgroup.  The subgroup exponential sum and the
product-collision count back the two proof devices.  Every
integer-valued quantity is computed exactly; complex accumulation uses
a fixed summation order so results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter, mul
from typing import NamedTuple

from .curve import (
    INFINITY,
    Curve,
    CurvePoint,
    _add_pairs,
    check_subgroup_budget,
    multiples,
    torsion_doublings,
)
from .field import PreconditionError, ResourceBudgetError, primes_upto

U_BUDGET = 50_000_000  # #E * N^2 of one U: points times multiplier pairs
TERM_BUDGET = 1_000_000  # N^k index tuples of one T
COLLISION_BUDGET = 10_000_000  # 2^|support| N^(max support + 1) entries of one count


class BoundReport(NamedTuple):
    """Measured left-hand side next to the bound's summands.

    The paper's implied constants are unspecified, so the report carries
    the raw ratio lhs / sum(rhs terms); acceptance criteria pin their
    own explicit slack factors.
    """

    lhs: float
    rhs_terms: list[tuple[str, float]]

    @property
    def rhs_total(self) -> float:
        return sum(v for _, v in self.rhs_terms)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs_total

    def within(self, slack: float) -> bool:
        return self.lhs <= slack * self.rhs_total


def check_coprime_to_factorial(t: int, N: int) -> None:
    """The hypothesis gcd(N!, t) = 1 on a subgroup order t; the error
    names the smallest prime q <= N dividing t."""
    for q in primes_upto(N):
        if t % q == 0:
            raise PreconditionError(
                f"gcd(N!, t) != 1: prime {q} <= N = {N} divides t = {t}"
            )


def prefix_sums(tables: list[list[int]], ns: range) -> list[int]:
    """sum_j tables[j][n_1...n_(j+1) - 1] for every index tuple
    (n_1..n_k) in ns^k, k = len(tables), in itertools.product order;
    tables[j] needs its first max(ns)^(j+1) entries.

    Built level by level: the len(ns)^j sums and products n_1...n_j of
    ns^j, extended by one index per level, with no k-tuple built.
    """
    sums, prods = [0], [1]
    for j, table in enumerate(tables):
        sums = [s + table[m * n - 1] for s, m in zip(sums, prods) for n in ns]
        if j < len(tables) - 1:
            prods = [m * n for m in prods for n in ns]
    return sums


# x_multiples reads giant-step blocks from this many multiples on: per
# point they took 0.8-1.2 times the walk's time at 32 multiples and
# 0.7-1.0 at 64, for p from 1009 to 2^31 - 1 (CPython 3.11, x86-64)
BLOCK_MIN = 64


def x_multiples(curve: Curve, P: CurvePoint, count: int) -> list[int]:
    """[x(P), x(2P), ..., x(count*P)] with the x(O) = 0 convention, for
    an F_p point P: from BLOCK_MIN multiples on the blocks of
    _block_columns, about sqrt(2 count) multiples per inversion mod p;
    below that, or when a block meets O, _walk_x."""
    if count >= BLOCK_MIN:
        xs = list(itertools.chain.from_iterable(_block_columns(curve, P, count)))
        if len(xs) >= count:
            return xs[:count]
    return _walk_x(curve, P, count)


def _walk_x(curve: Curve, P: CurvePoint, count: int) -> list[int]:
    """x_multiples(curve, P, count) from at most count steps of the walk
    of multiples, one inversion each: when ord(P) <= count the walk
    stops at O and its period x(P), ..., x((o-1)P), 0 is repeated."""
    xs = [x for x, _ in itertools.islice(multiples(curve, P), count)]
    if len(xs) < count:
        period = xs + [0]
        xs = (period * (count // len(period) + 1))[:count]
    return xs


def _inverses(dens: list[int], p: int) -> list[int] | None:
    """[1/d mod p for d in dens] from one inversion mod p (Montgomery's
    trick: invert the product of all of them, then peel each inverse off
    it with two multiplications), or None when some d is 0 mod p."""
    before = []  # before[i] = dens[0] * ... * dens[i - 1] mod p
    acc = 1
    for d in dens:
        before.append(acc)
        acc = acc * d % p
    if not acc:
        return None
    inv = pow(acc, -1, p)  # 1 / (dens[0] * ... * dens[i]), i from the end
    invs = []
    for d, b in zip(reversed(dens), reversed(before)):
        invs.append(b * inv % p)
        inv = inv * d % p
    invs.reverse()
    return invs


def _block_columns(curve: Curve, G: CurvePoint, h: int) -> Iterator[list[int]]:
    """[x(mG) for m = c - J .. c + J] for the centres c = J + 1,
    J + 1 + K, ... (K = 2J + 1, J = max(1, isqrt(h // 2))), one block
    each, until the blocks cover m = 1..h: the last one may run past h.

    The baby multiples jG, j <= J, come from one walk of multiples, and
    each centre from the last by one addition of KG.  cG + jG and
    cG - jG have the slopes (y(jG) -+ y(cG)) / (x(jG) - x(cG)), so one
    batch of J inverses gives the 2J values around x(cG).  The blocks
    stop early when a centre is O or a denominator is 0: exactly when
    some multiple they reach is O, that is when ord(G) is at most the
    last one, ceil(h / K) K.
    """
    p, a = curve.p, curve.a
    J = max(1, math.isqrt(h // 2))
    baby = list(itertools.islice(multiples(curve, G), J))
    if len(baby) < J:
        return
    centre = _add_pairs(p, a, baby[-1], baby[0])
    step = _add_pairs(p, a, baby[-1], centre)
    for i in range(-(-h // (2 * J + 1))):
        if i:
            centre = _add_pairs(p, a, centre, step)
        if centre is None:
            return
        xc, yc = centre
        invs = _inverses([xj - xc for xj, _ in baby], p)
        if invs is None:
            return
        below, above = [], []
        for (xj, yj), v in zip(baby, invs):
            s, d = (yj - yc) * v % p, (yj + yc) * v % p
            above.append((s * s - xc - xj) % p)
            below.append((d * d - xc - xj) % p)
        below.reverse()
        yield below + [xc] + above


def window_table(curve: Curve, G: CurvePoint, t: int, ell: int) -> array:
    """w with w[m] = x(mG) & (2^ell - 1) for 0 <= m < t (w[0] = 0, as
    x(O) = 0), for an F_p point G whose order divides t, in the smallest
    array typecode that holds ell bits: t * w.itemsize bytes.

    Cost: x(mG) = x((t - m)G), so only m = 1..h = t // 2 are computed,
    in the blocks of _block_columns, each written into w as it comes,
    and w[t - m] = w[m] fills the rest: about 1.5 sqrt(t) inversions
    mod p, where a walk of the half takes t / 2.  The last block may
    run past h, but not past t - 1, onto values the mirror writes
    again.  When ord(G) < t, or t is 2 or 3, the blocks meet O, and
    _walk_x reads the half from G instead, with no block built again.
    Memory: the table, plus O(sqrt(t)) ints for the baby multiples and
    one block; t > curve.SUBGROUP_BUDGET is refused before any of it.
    """
    check_subgroup_budget(t)
    torsion_doublings(curve, G, t)
    typecode = next(c for c in "BHILQ" if 8 * array(c).itemsize >= ell)
    w = array(typecode, [0]) * t
    mask = (1 << ell) - 1
    h = t // 2
    m = 1  # the next multiple to fill
    for col in _block_columns(curve, G, h):
        w[m:m + len(col)] = array(typecode, [x & mask for x in col])
        m += len(col)
    if m <= h:
        w[1:h + 1] = array(typecode, [x & mask for x in _walk_x(curve, G, h)])
    w[t - h:] = w[h:0:-1]
    return w


def _orbit_rows(curve: Curve, points: tuple[CurvePoint, ...]) -> tuple:
    """(tx, j) for each R of points, in order, where tx[i] = x(iG)
    (x(O) = 0) is the x table of the orbit of the first point G met of
    <R>, and R = jG.

    Cost: one walk of multiples, ord(R) - 1 additions on int pairs, per
    cyclic subgroup <R> met, after the check that R is on the curve;
    every other point of that orbit reads its table and index, keyed by
    its (x, y) pair, which a CurvePoint equals and hashes as.
    """
    index = {}  # (x, y) of jG -> (tx, j)
    for R in points:
        if R not in index:
            if not curve.contains(R):
                raise ValueError(f"point {R} is not on {curve}")
            walk = list(multiples(curve, R))
            tx = (0, *map(itemgetter(0), walk))
            index[INFINITY] = (tx, 0)
            index.update(zip(walk, zip(itertools.repeat(tx), itertools.count(1))))
    return tuple(map(index.__getitem__, points))


class XColumns(dict):
    """Column m = [x(mR) for R in points], x(O) = 0, by multiplier
    m >= 0, each filled on first use from the orbit rows of the points:
    for R = jG, x(mR) = x((mj mod ord(G)) G)."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        super().__init__()
        self.rows = rows

    def __missing__(self, m: int) -> list[int]:
        column = self[m] = [tx[m * j % len(tx)] for tx, j in self.rows]
        return column


@functools.lru_cache(maxsize=8)
def x_columns(curve: Curve, points: tuple[CurvePoint, ...]) -> XColumns:
    """The x columns of a point set: x_columns(curve, points)[m][i] is
    x(m points[i]).  Kept per (curve, points) for the process, so every
    cell over one point set reads the same columns; readers share them
    and must not change them.

    Cost: that of _orbit_rows on the first call, then |points| table
    reads per column on its first read, and nothing on the next.
    Memory: at most 8 point sets, each holding its orbit rows and
    (largest m read) * |points| list slots.
    """
    return XColumns(_orbit_rows(curve, points))


def once_per_pair(points: Iterable[CurvePoint], value) -> list:
    """[value(R) for R in points], value called once per class {R, -R}
    met: for a value that reads R only through x(nR) = x(n(-R)).  The
    classes are keyed by the affine x, whose None keeps O apart from the
    points with x = 0."""
    memo = {}
    return [memo[R.x] if R.x in memo else memo.setdefault(R.x, value(R))
            for R in points]


def sum_U(curve: Curve, N: int) -> tuple[int, BoundReport]:
    """U(N) = sum over all point pairs of |S(P, Q; N)|^2, exactly, through
    the proof's rearrangement: expanding the square and swapping the sums
    gives sum_{m,n<=N} W(m, n)^2 with W(m, n) = sum_P chi(x(mP)x(nP)).
    chi is completely multiplicative (chi(0) = 0 included), so
    W(m, n) = sum_P chi(x(mP)) chi(x(nP)), the dot product of the chi
    columns of m and n.  W is symmetric, so only the N(N+1)/2 pairs
    m <= n are summed, and the off-diagonal squares count twice.
    x(n(-P)) = x(nP), so W sums twice over one point of each pair
    {P, -P} with y != 0, plus once over O and the points of order 2:
    (#E + #E[2]) / 2 class points, #E[2] in {1, 2, 4} counting O and the
    points of order 2.

    Reported against the N^6 q + N q^2 bound.

    Cost: columns 1..N of x_columns over the class points, filled once
    per process (a sweep over N = 2..6 fills 6 columns, not 20), one chi
    table read per class point and multiplier, then N(N + 1) / 2 integer
    dot products of the chi columns, summed in C (sum(map(mul, ...))).
    """
    if N < 1:
        raise ValueError("N must be positive")
    q = curve.p
    ne = curve.order()
    if ne * N * N > U_BUDGET:
        raise ResourceBudgetError(f"#E * N^2 = {ne * N * N} exceeds budget {U_BUDGET}")
    lookup = curve.field.chi_table().__getitem__
    points = curve.enumerate_points()
    # O (y = None) and the points with y = 0 are their own negatives; one
    # point of each other pair {P, -P} stands for both
    fixed = [P for P in points if not P.y]
    paired = list({P.x: P for P in points if P.y}.values())
    columns = x_columns(curve, tuple(fixed + paired))
    chis = [list(map(lookup, columns[m])) for m in range(1, N + 1)]
    nf = len(fixed)
    total = 0
    for m, cm in enumerate(chis):
        for n in range(m, N):
            cn = chis[n]
            # the paired points weigh 2, the fixed ones 1
            w = 2 * sum(map(mul, cm, cn)) - sum(map(mul, cm[:nf], cn[:nf]))
            total += w * w if m == n else 2 * w * w
    report = BoundReport(
        lhs=float(total),
        rhs_terms=[("N^6*q", float(N**6 * q)), ("N*q^2", float(N * q * q))],
    )
    return total, report


def _t_sum(curve: Curve, c: tuple[int, ...], R: CurvePoint, N: int) -> complex:
    """T_k kernel without the nonzero-vector check (the Fourier identity
    for the bit counts needs the c = 0 term as well)."""
    k = len(c)
    if N**k > TERM_BUDGET:
        raise ResourceBudgetError(f"N^k = {N**k} exceeds the term budget")
    p = curve.p
    xs = x_multiples(curve, R, N**k)
    # tables[j][m - 1] = c_(j+1) x(mR) mod p, read at m = n_1...n_(j+1)
    tables = [[cj % p * x % p for x in xs[:N ** (j + 1)]] for j, cj in enumerate(c)]
    args = [a % p for a in prefix_sums(tables, range(1, N + 1))]
    total = 0j
    for value in map(curve.field.psi_memo.__getitem__, args):
        total += value
    return total


def sum_T(curve: Curve, c: tuple[int, ...], R: CurvePoint, N: int) -> complex:
    """T_k(c, R; N) = sum over (n_1..n_k) in [1,N]^k of
    psi(sum_j c_j x((n_1...n_j) R))."""
    if N < 1:
        raise ValueError("N must be positive")
    if not c or all(v % curve.p == 0 for v in c):
        raise PreconditionError("coefficient vector must be nonzero")
    return _t_sum(curve, c, R, N)


def sum_V(
    curve: Curve, H: Sequence[CurvePoint], c: tuple[int, ...], N: int
) -> tuple[float, BoundReport]:
    """V_k(c, H; N) = sum_{R in H} |T_k(c, R; N)|^2, H a subgroup whose
    order t has gcd(N!, t) = 1.  Reported against
    k N^(4k) sqrt(p) + k N^(2k-1) t.

    Cost: T reads R only through x(nR) = x(n(-R)), so sum_T runs once
    per distinct x(R) of H, (t + 1) / 2 times for an odd t: a walk of
    N^k multiples and N^k psi memo reads each.  The memoised squares are
    added in H's order, so the total is the per-point loop's bit for
    bit.
    """
    t = len(H)
    if t < 1:
        raise PreconditionError("H must be nonempty")
    check_coprime_to_factorial(t, N)
    k = len(c)
    total = 0.0
    for square in once_per_pair(H, lambda R: abs(sum_T(curve, c, R, N)) ** 2):
        total += square
    p = curve.p
    report = BoundReport(
        lhs=total,
        rhs_terms=[
            ("k*N^(4k)*sqrt(p)", k * N ** (4 * k) * math.sqrt(p)),
            ("k*N^(2k-1)*t", float(k * N ** (2 * k - 1) * t)),
        ],
    )
    return total, report


def subgroup_sum(
    curve: Curve,
    H: Sequence[CurvePoint],
    d: tuple[int, ...],
    c: tuple[int, ...],
) -> tuple[complex, BoundReport]:
    """sum over Q in H, Q != O, of psi(sum_i c_i x(d_i Q)), for strictly
    increasing multipliers d with gcd(#H, d_1...d_s) = 1 and c_s != 0 on
    an ordinary curve.  Reported against s D^2 sqrt(p), D = d_s.

    Cost: columns d_1..d_s of x_columns over the affine points of H,
    each filled once per process (the 63 cells of d <= 7 fill 7), then
    s column reads and one psi memo read per point, in H's order, so the
    sum is the per-point loop's bit for bit."""
    s = len(d)
    if s == 0 or len(c) != s:
        raise PreconditionError("need matching nonempty d and c tuples")
    if any(d[i] <= 0 for i in range(s)) or any(d[i] >= d[i + 1] for i in range(s - 1)):
        raise PreconditionError("multipliers must be strictly increasing and positive")
    p = curve.p
    if c[-1] % p == 0:
        raise PreconditionError("the last coefficient c_s must be nonzero")
    t = len(H)
    prod_d = math.prod(d)
    if math.gcd(t, prod_d) != 1:
        raise PreconditionError(f"gcd(t, d_1...d_s) = {math.gcd(t, prod_d)} != 1")
    if not curve.is_ordinary():
        raise PreconditionError("the bound requires an ordinary curve")
    D = d[-1]
    # the affine points of H, in H's order (only O has x = None)
    columns = x_columns(curve, tuple([Q for Q in H if Q.x is not None]))
    first, *rest = [columns[di] for di in d]
    args = [c[0] * x for x in first]
    for ci, col in zip(c[1:], rest):
        args = [a + ci * x for a, x in zip(args, col)]
    total = 0j
    for value in map(curve.field.psi_memo.__getitem__, [a % p for a in args]):
        total += value
    report = BoundReport(
        lhs=abs(total),
        rhs_terms=[("s*D^2*sqrt(p)", s * D * D * math.sqrt(p))],
    )
    return total, report


def count_product_collisions(
    N: int, k: int, c: tuple[int, ...]
) -> tuple[int, BoundReport]:
    """Exact count of index pairs (m_1..m_k), (n_1..n_k) in [2,N]^2k whose
    partial-product vectors collide at some position with a nonzero
    coefficient, reported against the proof's bound k N^(2k-1).

    By inclusion-exclusion over the nonempty subsets S of the support,
    the count is sum_S (-1)^(|S|+1) sum_key cnt_S[key]^2, where cnt_S
    counts the index tuples by their partial products at the positions
    of S, keyed by one int: prefix_sums of the tables m B^rank(j) on S
    and 0 off it, B = N^k + 1 above every product.  The key reads only
    n_1..n_(s+1), s = max S, so the walk covers [2,N]^(s+1) and each of
    its keys stands for (N - 1)^(k - 1 - s) tuples of [2,N]^k.  Cost:
    2^|support| N^(max support + 1) table entries, held to COLLISION_BUDGET.
    """
    if k < 1 or len(c) != k:
        raise ValueError("need a length-k coefficient tuple")
    if N < 1:
        raise ValueError("N must be positive")
    support = [j for j in range(k) if c[j]]
    if not support:
        raise PreconditionError("coefficient vector must be nonzero")
    if 2 ** len(support) * N ** (support[-1] + 1) > COLLISION_BUDGET:
        raise ResourceBudgetError("collision enumeration exceeds budget")
    B = N**k + 1
    count = 0
    for size in range(1, len(support) + 1):
        for S in itertools.combinations(support, size):
            weight = [B ** S.index(j) if j in S else 0 for j in range(S[-1] + 1)]
            tables = [[m * w for m in range(1, N ** (j + 1) + 1)]
                      for j, w in enumerate(weight)]
            cnt = Counter(prefix_sums(tables, range(2, N + 1)))
            count += ((-1) ** (size + 1) * (N - 1) ** (2 * (k - len(tables)))
                      * sum(n * n for n in cnt.values()))
    bound = k * N ** (2 * k - 1)
    if count > bound:
        raise RuntimeError(f"{count} collisions exceed the proved bound "
                           f"k*N^(2k-1) = {bound}")
    return count, BoundReport(lhs=float(count),
                              rhs_terms=[("k*N^(2k-1)", float(bound))])
