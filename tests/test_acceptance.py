"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (run with -s or -rP to see them all).

Exact statements are asserted with zero tolerance; bound checks use the
explicit slack factors fixed here, standing in for the unspecified
implied constants.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from oracles import (
    BitWindow,
    chi_pair_sum_direct,
    chi_pair_sum_phi_psi,
    count_A,
    deviation_trend,
    fourier_count_A,
    incomplete_geometric_sum,
    sum_S,
)

from ecbits.charsum import count_product_collisions, subgroup_sum, sum_U, sum_V
from ecbits.curve import Curve, CurvePoint, INFINITY, find_curve
from ecbits.divpoly import DivisionPolynomials
from ecbits.extract import delta
from ecbits.field import field
from ecbits.poly import rational_square_test, squarefree_part

SLACK = 10.0  # explicit slack for every O(.) bound check


def report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:02d}: PASS  {detail}")


@pytest.fixture(scope="module")
def admissible_curves():
    curves = []
    for start in (7, 11, 13):
        fc = find_curve(list(range(start, start + 30)), 4)
        curves.append(fc.curve)
    return curves


@pytest.fixture(scope="module")
def divpolys(admissible_curves):
    return [DivisionPolynomials(C) for C in admissible_curves]


@pytest.fixture(scope="module")
def mid_curve():
    fc = find_curve(list(range(200, 500)), 8)
    assert 200 <= fc.curve.p <= 500
    return fc


def test_criterion_01_division_polynomial_identities(divpolys):
    start = time.perf_counter()
    for dp in divpolys:
        for n in range(1, 13):
            f, g, h = dp.f_g_h(n)
            assert f.degree() == n * n
            assert g.degree() <= n * n - 1
            if n % 2:
                assert g == h * h
            else:
                assert g == dp.curve_poly * h * h
            assert dp.verify_xfg(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(1, f"deg/shape/xfg exact for n <= 12 on 3 curves ({elapsed:.2f}s)")


def test_criterion_02_division_point_roots(divpolys):
    start = time.perf_counter()
    for dp in divpolys:
        for n in range(1, 9):
            assert dp.verify_division_point_roots(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(2, f"every F_p-root of f_n lifts to an n-division point of P0, "
              f"n <= 8, 3 curves ({elapsed:.2f}s)")


def test_criterion_03_p_power_extraction_and_squarefree(divpolys):
    dp = next(d for d in divpolys if d.curve.p <= 13)
    p = dp.curve.p
    for n in (p, 2 * p):
        ft = dp.f_tilde(n)  # raises if extraction or degree fails
        assert ft.degree() == dp.torsion_size(n)
        assert ft ** p == dp.f(n)
    for n in range(1, 11):
        ft = dp.f_tilde(n)
        assert squarefree_part(ft) == ft  # ft is monic already
    report(3, f"f_n = ft^p for n in {{{p}, {2*p}}} with deg ft = #E[n]; "
              f"ft squarefree for n <= 10 (p = {p})")


def test_criterion_04_phi_psi_never_squares(divpolys):
    start = time.perf_counter()
    pairs = 0
    for dp in divpolys:
        for m in range(1, 9):
            for n in range(m + 1, 9):
                phi, psi_fn = dp.phi_psi(m, n)
                assert not rational_square_test(phi)
                assert not rational_square_test(psi_fn)
                pairs += 1
    elapsed = time.perf_counter() - start
    report(4, f"{pairs} (m, n) pairs, Phi and Psi both non-squares "
              f"({elapsed:.2f}s)")


def test_criterion_05_pair_sum_proof_identity():
    fc = find_curve([13], 4)
    C = fc.curve
    assert C.order() == 13  # prime > 6: no low-order points
    dp = DivisionPolynomials(C)
    for m in range(1, 7):
        for n in range(1, 7):
            if m != n:
                assert chi_pair_sum_direct(C, m, n) == chi_pair_sum_phi_psi(dp, m, n)
    report(5, "sum_P chi(x(mP)x(nP)) = sum_u chi(Phi) + sum_u chi(Psi), "
              "exact integers, m != n <= 6 on prime-order-13 curve")


def test_criterion_06_theorem_1_bound(mid_curve):
    start = time.perf_counter()
    C = mid_curve.curve
    ratios = []
    for N in range(2, 9):
        value, rep = sum_U(C, N)
        assert rep.within(SLACK)
        ratios.append(f"U({N})/bnd={rep.ratio:.3g}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(6, f"p={C.p}: " + " ".join(ratios) + f" ({elapsed:.2f}s)")


def test_criterion_07_theorem_2_bound(mid_curve):
    start = time.perf_counter()
    C, t = mid_curve.curve, mid_curve.t
    ratios = []
    for k, vectors in ((1, [(1,), (3,)]), (2, [(1, 1), (1, 0), (0, 1)])):
        for c in vectors:
            for N in range(2, 7):
                value, rep = sum_V(C, t, c, N)
                assert rep.within(SLACK)
                ratios.append(rep.ratio)
    # degenerate oracle: t = 1 gives exactly N^(2k)
    for k in (1, 2):
        for N in range(2, 7):
            value, _ = sum_V(C, 1, (1,) * k, N)
            assert value == N ** (2 * k)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(7, f"p={C.p}, t={t}: max V ratio {max(ratios):.3g}; "
              f"t=1 oracle exact ({elapsed:.2f}s)")


def test_criterion_08_lemma_5_bound(mid_curve):
    start = time.perf_counter()
    C, t = mid_curve.curve, mid_curve.t
    worst = 0.0
    cells = 0
    for s in (1, 2, 3):
        for d in itertools.combinations(range(1, 9), s):
            if math.gcd(t, math.prod(d)) != 1:
                continue
            value, rep = subgroup_sum(C, t, d, (1,) * s)
            assert rep.lhs <= SLACK * rep.rhs_total + 1e-6
            worst = max(worst, rep.ratio)
            cells += 1
    elapsed = time.perf_counter() - start
    report(8, f"{cells} (s, d) cells on p={C.p}, t={t}; "
              f"max |sum|/(s D^2 sqrt(p)) = {worst:.3g} ({elapsed:.2f}s)")


def test_criterion_09_product_collision_cap():
    worst = 0.0
    for N in range(2, 13):
        for k, c in ((1, (1,)), (2, (1, 1)), (2, (1, 0)), (2, (0, 1))):
            M = count_product_collisions(N, k, c)[0]
            cap = k * N ** (2 * k - 1)
            assert M <= cap
            worst = max(worst, M / cap)
    # the c = (1, 0) pattern achieves the bound's order: M = (N-1)^3
    equality_orders = [count_product_collisions(N, 2, (1, 0))[0] / (2 * N**3)
                       for N in (4, 8, 12)]
    assert all(a < b for a, b in zip(equality_orders, equality_orders[1:]))
    assert equality_orders[-1] > 0.38  # approaching the 1/2 limit
    report(9, f"M <= k N^(2k-1) exact for k <= 2, N <= 12; worst fill "
              f"{worst:.3g}; c=(1,0) ratio -> {equality_orders[-1]:.3g}")


def test_criterion_10_fourier_identity_for_counts(admissible_curves):
    checked = 0
    curves = list(admissible_curves) + [find_curve([31], 4).curve]
    for C in curves:
        assert C.p <= 31
        pts = C.enumerate_points()
        sample = pts[:: max(1, len(pts) // 6)]
        for R in sample:
            for N in (1, 2, 3, 4):
                for sigma in ("0", "1"):
                    spec = BitWindow(1, 1, N, (sigma,))
                    direct = count_A(C, R, spec)
                    expanded = fourier_count_A(C, R, spec)
                    assert abs(expanded - direct) < 1e-6
                    checked += 1
    report(10, f"count matches character expansion within 1e-6 at "
               f"{checked} (curve, R, N, sigma) cells")


def test_criterion_11_orthogonality_and_geometric_sums():
    start = time.perf_counter()
    primes = [p for p in range(3, 102) if all(p % r for r in range(2, p))]
    for p in primes:
        F = field(p)
        # complete-sum indicator, all v
        for v in range(p):
            got = sum(F.psi(c * v) for c in range(p)) / p
            want = 1 if v == 0 else 0
            assert abs(got - want) <= 1e-9 * p
        # incomplete geometric sums, all c != 0, all L < p, via running sums
        for c in range(1, p):
            cap = p / (2 * min(c, p - c))
            running = 0j
            for L in range(p):
                running += F.psi(-c * L)
                assert abs(running) <= cap + 1e-9
    # spot-check incomplete_geometric_sum against the running-sum oracle
    F = field(101)
    for c, L in ((1, 50), (7, 99), (50, 13)):
        direct = sum(F.psi(-c * y) for y in range(L + 1))
        assert abs(incomplete_geometric_sum(F, c, L) - direct) < 1e-12
    elapsed = time.perf_counter() - start
    report(11, f"indicator exact within 1e-9*p and |geom sum| <= "
               f"p/(2 min(c, p-c)) for all p <= 101 ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_12_uniformity_trend():
    start = time.perf_counter()
    primes = [1009, 10007, 100003, 1000003]
    rows = deviation_trend(primes, N=32, ells=(1, 2), samples=100, seed=0)
    lines = []
    for row in rows:
        lines.append(f"p={row['p']} t={row['t']} "
                     f"ell1={row['mean_dev_ell1']:.4f} "
                     f"ell2={row['mean_dev_ell2']:.4f}")
    # the sweep spans three decades; the average worst-pattern deviation
    # must come down between the sweep ends for each window width
    for ell in (1, 2):
        values = [row[f"mean_dev_ell{ell}"] for row in rows]
        assert values[-1] < values[0], (ell, values)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(12, "; ".join(lines) + f" ({elapsed:.2f}s)")


def test_criterion_13_hand_verified_micro_oracle():
    C = Curve(field(7), 1, 1)
    pts = C.enumerate_points()
    assert pts == [INFINITY, CurvePoint(0, 1), CurvePoint(0, 6),
                   CurvePoint(2, 2), CurvePoint(2, 5)]
    dp = DivisionPolynomials(C)
    f2, g2, _ = dp.f_g_h(2)
    P = CurvePoint(0, 1)
    x2P = C.mul(2, P).x
    assert x2P == 2
    assert f2(0) * C.field.inv(g2(0)) % 7 == x2P
    assert sum_S(C, P, P, 2) == 1
    rep = delta(C, P, len(pts), 1, 1, 4)  # P generates E, of order 5
    assert rep.total == Fraction(10)
    report(13, "p=7 worked example reproduces: group, x(2P) = f2/g2 = 2, "
               "S(P,P;2) = 1, Delta_{1,1}(H,4) = 10")
