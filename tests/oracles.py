"""Slow forms that mirror the paper's proofs, kept as test oracles.

No command reaches these: each evaluates a quantity the way a proof
writes it, and the tests pin the library's fast paths (or the proof's
identities themselves) against them.  They import the way conftest
does: `from oracles import ...`.

- x_rows: x of the first multiples of each point of a set, one walk per
  point: the per-point form of charsum.x_columns.
- points_by_scan: the rational points from one points_by_x per u, a chi
  and a square root per x: the per-x form of Curve.enumerate_points.
- prefix_products: the partial-product vector of every index tuple,
  one tuple each: the tuple form of charsum.prefix_sums, and the keys
  of the collision count before they became one int.
- sum_S: S(P, Q; N), the point character sum that U aggregates.
- u_by_pairs: U(N) with chi read of the product x(mP) x(nP) for every
  point and every pair (m, n): the per-pair form of charsum.sum_U.
- chi_pair_sum_direct, chi_pair_sum_phi_psi: the chi pair sum over the
  rational points, and the same sum through the division-polynomial
  side Phi, Psi.
- v_sum_expanded: V_k squared out with the summation order swapped.
- lsb_string, BitWindow, count_A, fourier_count_A: the pattern count A
  of a bit-window query, and A through its additive-character expansion.
- delta_over_points: Delta over any point set H, one orbit table per
  cyclic subgroup met and one evaluation per class {R, -R} of H.
- deviation_trend: the mean sampled deviation per prime.
- orthogonality_indicator, incomplete_geometric_sum, geometric_sum_cap:
  the complete and incomplete geometric sums behind that expansion.
- chi_square_uniformity: the chi-square statistic of a bitstream's
  block values, a uniformity check the proved bound does not need.
- add_fp2, horner_fp2: the F_p^2 group law and Horner evaluation on Fp2
  objects: the object forms of Curve._add_ext and Poly.__call__, which
  run on int pairs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from ecbits.charsum import (
    _orbit_rows,
    _t_sum,
    check_coprime_to_factorial,
    x_multiples,
)
from ecbits.curve import (
    INFINITY,
    Curve,
    CurvePoint,
    _point_key,
    find_curve,
    subgroup_generator,
)
from ecbits.divpoly import DivisionPolynomials
from ecbits.extract import (
    BOUND_CONSTANT,
    DeviationReport,
    _check_window,
    _pattern_counts,
    _window_codes,
    _worst_deviation,
    deviation_bound,
    sampled_deviation,
)
from ecbits.field import Fp2, PreconditionError, PrimeField
from ecbits.poly import Poly

# -- character sums ---------------------------------------------------------


def x_rows(curve: Curve, points, count: int) -> list[list[int]]:
    """x_multiples(curve, R, count) = [x(R), ..., x(count R)] (x(O) = 0)
    for each R of points, in order: one walk of multiples per point,
    where charsum.x_columns reads each column from the orbit tables."""
    return [x_multiples(curve, R, count) for R in points]


def points_by_scan(curve: Curve) -> list[CurvePoint]:
    """O, then points_by_x(u) for u = 0..p-1 (y ascending): one chi and
    one square root per x, where Curve.enumerate_points reads a table of
    roots."""
    return [INFINITY, *itertools.chain.from_iterable(
        map(curve.points_by_x, range(curve.p)))]


def u_by_pairs(curve: Curve, N: int) -> int:
    """U(N) over all N^2 pairs (m, n) and every point P, with no class
    {P, -P} taken once: W(m, n) = sum_P chi(x(mP) x(nP) mod q), one chi
    read of the product per point and pair, where charsum.sum_U reads
    one chi column per multiplier and takes dot products."""
    q = curve.p
    chi = curve.field.chi_table()
    pairs = [(m, n) for m in range(N) for n in range(N)]
    inner = [0] * len(pairs)
    for xs in x_rows(curve, curve.enumerate_points(), N):
        inner = [s + chi[xs[m] * xs[n] % q] for s, (m, n) in zip(inner, pairs)]
    return sum(s * s for s in inner)


def prefix_products(N: int, k: int, lo: int = 1) -> list[tuple[int, ...]]:
    """The partial-product vector (n_1, n_1 n_2, ..., n_1...n_k) of every
    index tuple (n_1..n_k) in [lo, N]^k, in itertools.product order."""
    walk = [()]
    for _ in range(k):
        walk = [w + (w[-1] * n if w else n,)
                for w in walk for n in range(lo, N + 1)]
    return walk


def sum_S(curve: Curve, P: CurvePoint, Q: CurvePoint, N: int) -> int:
    """S(P, Q; N) = sum_{n<=N} chi(x(nP) * x(nQ)), an exact integer."""
    if N < 1:
        raise ValueError("N must be positive")
    chi = curve.field.chi_table()
    p = curve.p
    xp = x_multiples(curve, P, N)
    xq = x_multiples(curve, Q, N)
    return sum(chi[xp[n] * xq[n] % p] for n in range(N))


def chi_pair_sum_direct(curve: Curve, m: int, n: int) -> int:
    """sum over rational P of chi(x(mP) * x(nP))."""
    q = curve.p
    chi = curve.field.chi_table()
    rows = x_rows(curve, curve.enumerate_points(), max(m, n))
    return sum(chi[xs[m - 1] * xs[n - 1] % q] for xs in rows)


def chi_pair_sum_phi_psi(divpolys: DivisionPolynomials, m: int, n: int) -> int:
    """The same pair sum evaluated through the division-polynomial side:
    sum_u chi(Phi_mn(u)) + sum_u chi(Psi_mn(u)).

    chi of a fraction is taken as chi(numerator * denominator), which
    matches the formal x(O) = 0 / chi(0) = 0 conventions at the poles.
    """
    C = divpolys.curve
    chi = C.field.chi_table()
    p = C.p
    num = divpolys.f(m) * divpolys.f(n)
    den = divpolys.g(m) * divpolys.g(n)
    prod = num * den
    prod_twisted = divpolys.curve_poly * prod
    return sum(chi[prod(u)] + chi[prod_twisted(u)] for u in range(p))


def v_sum_expanded(
    curve: Curve, H: list[CurvePoint], c: tuple[int, ...], N: int
) -> float:
    """V_k recomputed by squaring out and swapping the summation order,
    as in the proof; agrees with the direct form up to rounding."""
    k = len(c)
    p = curve.p
    F = curve.field
    c = tuple(v % p for v in c)
    tables = list(x_rows(curve, H, N**k))
    args = prefix_products(N, k)
    total = 0j
    for m_prods in args:
        for n_prods in args:
            inner = 0j
            for xs in tables:
                e = 0
                for j in range(k):
                    e += c[j] * (xs[m_prods[j] - 1] - xs[n_prods[j] - 1])
                inner += F.psi(e)
            total += inner
    return total.real


# -- bit-window pattern counts ----------------------------------------------


def lsb_string(x: int, ell: int, p: int) -> str:
    """The ell least significant bits of the canonical representative of
    x, most significant bit of the window first; requires 2^ell < p."""
    if ell < 1:
        raise ValueError("ell must be positive")
    if 1 << ell >= p:
        raise ValueError(f"2^ell = {1 << ell} must be smaller than p = {p}")
    return format(x % p & ((1 << ell) - 1), f"0{ell}b")


class _BitWindowFields(NamedTuple):
    k: int
    ell: int
    N: int
    sigma: tuple[str, ...]


class BitWindow(_BitWindowFields):
    """A pattern query: k windows of ell low bits over index range [1, N].

    sigma holds the k target bit strings; sigma_bar their integer
    values.  L_j = ceil((p - sigma_bar_j) / 2^ell) - 1 counts the
    admissible high parts y in x = 2^ell y + sigma_bar_j.
    """

    __slots__ = ()

    def __new__(cls, k: int, ell: int, N: int, sigma: tuple[str, ...]):
        if k < 1 or ell < 1 or N < 1:
            raise ValueError("k, ell, N must be positive")
        if len(sigma) != k:
            raise ValueError(f"need {k} bit strings, got {len(sigma)}")
        for s in sigma:
            if len(s) != ell or set(s) - {"0", "1"}:
                raise ValueError(f"bad {ell}-bit string {s!r}")
        return super().__new__(cls, k, ell, N, sigma)

    @property
    def sigma_bar(self) -> tuple[int, ...]:
        return tuple(int(s, 2) for s in self.sigma)

    def L_values(self, p: int) -> tuple[int, ...]:
        e = 1 << self.ell
        if e >= p:
            raise ValueError(f"2^ell = {e} must be smaller than p = {p}")
        return tuple(-(-(p - sb) // e) - 1 for sb in self.sigma_bar)

    def reciprocal_shift(self, field: PrimeField) -> int:
        """The field inverse of 2^ell, so that lam*(x - sigma_bar) = y."""
        return field.inv(1 << self.ell)


def count_A(curve: Curve, R: CurvePoint, spec: BitWindow) -> int:
    """How many index tuples (n_1..n_k) in [1,N]^k have, for every j, the
    ell low bits of x((n_1...n_j) R) equal to sigma_j."""
    codes = _window_codes(curve, R, spec.k, spec.ell, spec.N)
    return codes.count(int("".join(spec.sigma), 2))


def fourier_count_A(curve: Curve, R: CurvePoint, spec: BitWindow) -> complex:
    """The same count through the additive-character expansion:

      A = p^-k sum_{c in F_p^k} T_k(lam*c, R; N) psi(-lam sum c_j sigma_bar_j)
            prod_j sum_{y=0..L_j} psi(-c_j y)

    Evaluated by direct summation over all vectors c, including c = 0.
    """
    F = curve.field
    p = curve.p
    lam = spec.reciprocal_shift(F)
    sbar = spec.sigma_bar
    L = spec.L_values(p)
    geo = [
        [incomplete_geometric_sum(F, cj, L[j]) for cj in range(p)]
        for j in range(spec.k)
    ]
    total = 0j
    for c in itertools.product(range(p), repeat=spec.k):
        term = _t_sum(curve, tuple(lam * cj % p for cj in c), R, spec.N)
        term *= F.psi(-lam * sum(cj * sbar[j] for j, cj in enumerate(c)))
        for j, cj in enumerate(c):
            term *= geo[j][cj]
        total += term
    return total / p**spec.k


def delta_over_points(
    curve: Curve,
    H: list[CurvePoint],
    k: int,
    ell: int,
    N: int,
) -> DeviationReport:
    """Delta_{k,ell}(H, N): the sum over R in H of the worst deviation of
    the pattern count from N^k / 2^(k*ell), taken over all patterns.

    H is treated as a set, reported with its points sorted; the sum
    includes the point at infinity, whose degenerate all-zero orbit is
    also reported separately via total_excluding_infinity.  H need not
    be a subgroup: every nR lies in the orbit of R, so the counts of R
    read that orbit alone.  extract.delta is this over H = <G>.

    Cost: one walk of ord(R) additions per cyclic subgroup <R> met, from
    the first point R of H in it (charsum._orbit_rows), then the
    prefix-product recursion of _pattern_counts on its x table.  The
    counts of R read only x(nR) = x(n(-R)), so the last level, its
    unpacking and the worst deviation are computed once per distinct
    x(R) of H.
    """
    p = curve.p
    met = list(dict.fromkeys(H))  # the points of H, in the order given
    t = len(met)
    if p <= k:
        raise PreconditionError(f"need p > k, got p = {p}, k = {k}")
    _check_window(p, k, ell, N)
    check_coprime_to_factorial(t, N)
    size = 1 << (k * ell)
    per_point = []
    total = total_wo_o = 0  # numerators over 2^(k*ell)
    rows = dict(zip(met, _orbit_rows(curve, tuple(met))))
    # one _pattern_counts per orbit table: the points of an orbit share it
    distinct = {id(tx): tx for tx, _ in rows.values()}
    counts = {i: _pattern_counts(tx, k, ell, N) for i, tx in distinct.items()}

    def worst_at(R):
        tx, j = rows[R]
        return _worst_deviation(counts[id(tx)](j), N**k)

    memo = {}  # worst_at by the affine x, whose None keeps O apart from x = 0
    for R in sorted(met, key=_point_key):
        if R.x not in memo:
            memo[R.x] = worst_at(R)
        worst = memo[R.x]
        per_point.append((repr(R), Fraction(worst, size)))
        total += worst
        if not R.is_infinity:
            total_wo_o += worst
    return DeviationReport(
        k=k,
        ell=ell,
        N=N,
        p=p,
        t=t,
        expected=Fraction(N**k, size),
        per_point=per_point,
        total=Fraction(total, size),
        total_excluding_infinity=Fraction(total_wo_o, size),
        bound_constant=BOUND_CONSTANT,
        bound_value=deviation_bound(k, N, p, t),
    )


def deviation_trend(primes: list[int], N: int = 32, ells: tuple[int, ...] = (1, 2),
                    samples: int = 100, seed: int = 0) -> list[dict]:
    """Mean sampled deviation per prime, for the monotone-trend report."""
    rows = []
    for p in primes:
        fc = find_curve([p], N, "prime", structure_budget=0)
        C, t = fc.curve, fc.t
        gen = subgroup_generator(C, t)
        row = {"p": C.p, "a": C.a, "b": C.b, "t": t}
        for ell in ells:
            row[f"mean_dev_ell{ell}"] = sampled_deviation(
                C, gen, t, 1, ell, N, samples, seed
            )["mean_rel_deviation"]
        rows.append(row)
    return rows


# -- geometric sums ---------------------------------------------------------


def orthogonality_indicator(field: PrimeField, v: int) -> complex:
    """(1/p) * sum_c psi(c*v), evaluated by direct summation.

    Equals 1 when v = 0 and 0 otherwise, up to rounding.
    """
    p = field.p
    total = 0j
    for c in range(p):
        total += field.psi(c * v)
    return total / p


def incomplete_geometric_sum(field: PrimeField, c: int, L: int) -> complex:
    """sum_{y=0..L} psi(-c*y), the incomplete geometric sum.

    Requires 0 <= L < p.  For c != 0 the closed form gives
    |sum| <= p / (2*min(c, p-c)); see geometric_sum_cap.
    """
    p = field.p
    if not 0 <= L < p:
        raise PreconditionError(f"need 0 <= L < p, got L={L}, p={p}")
    c %= p
    total = 0j
    for y in range(L + 1):
        total += field.psi(-c * y)
    return total


def geometric_sum_cap(field: PrimeField, c: int) -> float:
    """Upper bound p / (2*min(c, p-c)) for the incomplete geometric sum, c != 0."""
    p = field.p
    c %= p
    if c == 0:
        raise PreconditionError("cap is only defined for c != 0")
    return p / (2 * min(c, p - c))


# -- bitstream statistics ---------------------------------------------------


class ChiSquareReport(NamedTuple):
    statistic: float
    dof: int
    blocks: int
    counts: list[int]


def chi_square_uniformity(stream: str, block: int) -> ChiSquareReport:
    """Chi-square statistic of the histogram of consecutive block-bit
    values against the uniform law, with 2^block - 1 degrees of freedom.

    Block values read the bits most significant first.
    """
    if block < 1:
        raise ValueError("block must be positive")
    if not stream or len(stream) % block:
        raise ValueError(
            f"stream length {len(stream)} is not a positive multiple of {block}"
        )
    nvals = 1 << block
    counts = [0] * nvals
    for i in range(0, len(stream), block):
        counts[int(stream[i : i + block], 2)] += 1
    nblocks = len(stream) // block
    exp = nblocks / nvals
    stat = sum((obs - exp) ** 2 for obs in counts) / exp
    return ChiSquareReport(statistic=stat, dof=nvals - 1, blocks=nblocks, counts=counts)


# -- F_p^2 arithmetic on Fp2 objects ------------------------------------------


def add_fp2(curve: Curve, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q over F_p^2 by the chord-and-tangent formulas on Fp2 objects,
    each int coordinate lifted to an Fp2."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    F = curve.field
    x1, y1, x2, y2 = (v if isinstance(v, Fp2) else Fp2(F, v) for v in (*P, *Q))
    if x1 == x2:
        if (y1 + y2).is_zero():
            return INFINITY
        # x1 = x2 and y1 = y2 here, so this is the tangent slope
        s = (3 * x1 * x2 + curve.a) * (y1 + y2).inv()
    else:
        s = (y2 - y1) * (x2 - x1).inv()
    x3 = s * s - x1 - x2
    return CurvePoint(x3, s * (x1 - x3) - y1)


def horner_fp2(f: Poly, u: Fp2) -> Fp2:
    """f(u) at an F_p^2 point by Horner on Fp2 objects."""
    acc = Fp2(f.field, 0)
    for c in reversed(f.coeffs):
        acc = acc * u + c
    return acc
