import cmath
import itertools
import math
from collections import Counter

import pytest
from conftest import add_walk_x_multiples, small_curves, x_formal
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    chi_pair_sum_direct,
    chi_pair_sum_phi_psi,
    prefix_products,
    sum_S,
    u_by_pairs,
    v_sum_expanded,
    x_rows,
)

import ecbits.charsum as charsum_module
from ecbits.charsum import (
    BLOCK_MIN,
    _t_sum,
    _walk_x,
    count_product_collisions,
    prefix_sums,
    subgroup_sum,
    sum_T,
    sum_U,
    sum_V,
    window_table,
    x_columns,
    x_multiples,
)
import ecbits.curve as curve_module
from ecbits.cli import run_sum_cell
from ecbits.curve import (
    INFINITY,
    Curve,
    CurvePoint,
    _point_key,
    coprime_part,
    factorize,
    mul_int,
    orbit,
    subgroup_generator,
    subgroup_of_order,
)
from ecbits.divpoly import DivisionPolynomials
from ecbits.field import PreconditionError, ResourceBudgetError, field


def chi_of_point_product(C, P, Q, n):
    """Independent per-term oracle via scalar multiplication."""
    xp = x_formal(C.mul(n, P))
    xq = x_formal(C.mul(n, Q))
    return C.field.chi(xp * xq)


class TestSumS:
    def test_zero_when_x_is_zero(self, micro_curve):
        P = CurvePoint(0, 1)
        assert sum_S(micro_curve, P, P, 1) == 0

    def test_hand_example(self, micro_curve):
        P = CurvePoint(0, 1)
        # chi(0) + chi(x(2P)^2) = 0 + chi(4) = 1
        assert sum_S(micro_curve, P, P, 2) == 1

    def test_matches_termwise_oracle(self, micro_curve, micro_points):
        for P in micro_points:
            for Q in micro_points:
                for N in (1, 2, 3, 7):
                    want = sum(
                        chi_of_point_product(micro_curve, P, Q, n)
                        for n in range(1, N + 1)
                    )
                    assert sum_S(micro_curve, P, Q, N) == want

    def test_termwise_bound(self, micro_curve, micro_points):
        for P in micro_points:
            for Q in micro_points:
                assert abs(sum_S(micro_curve, P, Q, 6)) <= 6


def u_by_definition(C, N):
    """U(N) as its definition: sum over all pairs (P, Q) of S(P, Q; N)^2."""
    pts = C.enumerate_points()
    return sum(sum_S(C, P, Q, N) ** 2 for P in pts for Q in pts)


class TestSumU:
    # b = 0 curves have full 2-torsion over p = 1 mod 4 and the point
    # (0, 0), whose x(nP) = 0 reads chi(0) = 0
    @settings(max_examples=40, deadline=None)
    @given(small_curves() | small_curves(b=0), st.integers(min_value=1, max_value=8))
    def test_symmetric_columns_equal_all_pairs(self, C, N):
        got, report = sum_U(C, N)
        assert type(got) is int
        assert got == u_by_pairs(C, N)
        assert report.lhs == float(got)

    def test_one_chi_column_per_multiplier(self, monkeypatch):
        # #E = 1034 with one point of order 2: 518 classes {P, -P}, each
        # read once per multiplier, not once per pair (m, n) <= 6
        C = Curve(field(1009), 1, 1)
        want = u_by_pairs(C, 6)
        reads = []

        class CountingTable(list):
            def __getitem__(self, u):
                reads.append(u)
                return super().__getitem__(u)

        monkeypatch.setattr(C.field, "_chi_table", CountingTable(C.field.chi_table()))
        assert sum_U(C, 6)[0] == want
        assert len(reads) == 6 * 518

    def test_micro_brute_force(self, micro_curve, micro_points):
        # 25-pair enumeration with the independent per-term oracle
        want = 0
        for P in micro_points:
            for Q in micro_points:
                s = sum(chi_of_point_product(micro_curve, P, Q, n) for n in (1, 2))
                want += s * s
        got, report = sum_U(micro_curve, 2)
        assert got == want == 8
        assert report.ratio == 8 / (2**6 * 7 + 2 * 49)

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_rearranged_order_agrees_exactly(self, micro_curve, N):
        got, _ = sum_U(micro_curve, N)
        assert got == u_by_definition(micro_curve, N)

    def test_rearranged_on_larger_curve(self):
        C = Curve(field(11), 1, 1)
        for N in (2, 4):
            got, _ = sum_U(C, N)
            assert got == u_by_definition(C, N)

    @settings(max_examples=15, deadline=None)
    @given(small_curves(), st.integers(min_value=1, max_value=4))
    def test_rearranged_equals_definition(self, C, N):
        got, _ = sum_U(C, N)
        assert got == u_by_definition(C, N)

    def test_diagonal_positivity(self, micro_curve, micro_points):
        got, _ = sum_U(micro_curve, 3)
        diag = sum(sum_S(micro_curve, P, P, 3) ** 2 for P in micro_points)
        assert got >= diag

    def test_n1_bounded_by_pairs(self, micro_curve):
        got, _ = sum_U(micro_curve, 1)
        ne = micro_curve.order()
        assert got <= ne * ne

    def test_budget(self, micro_curve, monkeypatch):
        monkeypatch.setattr(charsum_module, "U_BUDGET", 10)
        with pytest.raises(ResourceBudgetError):
            sum_U(micro_curve, 2)

    def test_budget_boundary(self, micro_curve, monkeypatch):
        # #E * N^2 = 5 * 2^2 = 20
        monkeypatch.setattr(charsum_module, "U_BUDGET", 19)
        with pytest.raises(ResourceBudgetError):
            sum_U(micro_curve, 2)
        monkeypatch.setattr(charsum_module, "U_BUDGET", 20)
        assert sum_U(micro_curve, 2)[0] == 8


class TestSumT:
    def test_k1_at_point_with_zero_x(self, micro_curve):
        got = sum_T(micro_curve, (1,), CurvePoint(0, 1), 1)
        assert abs(got - 1) < 1e-12  # psi(x(R)) = psi(0) = 1

    def test_infinity_orbit_counts_terms(self, micro_curve):
        for k, N in [(1, 4), (2, 3)]:
            got = sum_T(micro_curve, (1,) * k, INFINITY, N)
            assert abs(got - N**k) < 1e-9

    def test_zero_vector_rejected(self, micro_curve):
        with pytest.raises(PreconditionError):
            sum_T(micro_curve, (0, 7), CurvePoint(0, 1), 2)

    def test_term_budget_boundary(self, micro_curve, monkeypatch):
        # N^k = 3^2 = 9 index tuples
        monkeypatch.setattr(charsum_module, "TERM_BUDGET", 8)
        with pytest.raises(ResourceBudgetError, match=r"N\^k = 9"):
            sum_T(micro_curve, (1, 1), CurvePoint(0, 1), 3)
        monkeypatch.setattr(charsum_module, "TERM_BUDGET", 9)
        assert abs(sum_T(micro_curve, (1, 1), CurvePoint(0, 1), 3)) <= 9

    def test_triangle_inequality(self, micro_curve, micro_points):
        for R in micro_points:
            for k, N in [(1, 5), (2, 4)]:
                got = sum_T(micro_curve, (1, 3)[:k], R, N)
                assert abs(got) <= N**k * (1 + 1e-12)

    def test_k1_matches_single_loop(self, micro_curve, micro_points):
        F = micro_curve.field
        for R in micro_points:
            for c in (1, 2, 5):
                N = 4
                want = 0j
                for n in range(1, N + 1):
                    want += F.psi(c * x_formal(micro_curve.mul(n, R)))
                assert abs(sum_T(micro_curve, (c,), R, N) - want) < 1e-12

    def test_k2_matches_double_loop(self, micro_curve):
        F = micro_curve.field
        R = CurvePoint(2, 2)
        c = (3, 1)
        N = 3
        want = 0j
        for n1 in range(1, N + 1):
            for n2 in range(1, N + 1):
                x1 = x_formal(micro_curve.mul(n1, R))
                x2 = x_formal(micro_curve.mul(n1 * n2, R))
                want += F.psi(c[0] * x1 + c[1] * x2)
        assert abs(sum_T(micro_curve, c, R, N) - want) < 1e-12


def t_sum_per_term(C, c, R, N):
    """T_k(c, R; N) with one F.psi call per index tuple, accumulated in
    itertools.product order: the per-term loop that the levelled kernel
    and the psi memo replaced, kept as their oracle."""
    F = C.field
    xs = x_multiples(C, R, N ** len(c))
    total = 0j
    for prods in prefix_products(N, len(c)):
        arg = 0
        for j, cj in enumerate(c):
            arg += cj * xs[prods[j] - 1]
        total += F.psi(arg)
    return total


class TestPerTermOracle:
    @settings(max_examples=40, deadline=None)
    @given(small_curves(), st.data())
    def test_t_sum_equals_per_term_loop(self, C, data):
        R = data.draw(st.sampled_from(C.enumerate_points()))
        k = data.draw(st.integers(1, 3))
        N = data.draw(st.integers(1, 5 if k < 3 else 3))
        c = tuple(data.draw(st.integers(-2 * C.p, 2 * C.p)) for _ in range(k))
        assert _t_sum(C, c, R, N) == t_sum_per_term(C, c, R, N)

    @settings(max_examples=25, deadline=None)
    @given(small_curves(), st.data())
    def test_sum_v_equals_per_term_loop(self, C, data):
        H = C.enumerate_points()
        N = data.draw(st.integers(1, min([*factorize(len(H)), 5]) - 1))
        k = data.draw(st.integers(1, 2))
        c = tuple(data.draw(st.integers(0, C.p - 1)) for _ in range(k - 1))
        c += (data.draw(st.integers(1, C.p - 1)),)
        want = 0.0
        for R in H:
            want += abs(t_sum_per_term(C, c, R, N)) ** 2
        assert sum_V(C, H, c, N)[0] == want


class TestSumV:
    def test_trivial_subgroup_exact(self, micro_curve):
        for k, N in [(1, 4), (2, 3)]:
            got, _ = sum_V(micro_curve, [INFINITY], (1,) * k, N)
            assert got == N ** (2 * k)

    def test_micro_brute_force(self, micro_curve, micro_points):
        got, _ = sum_V(micro_curve, micro_points, (1,), 4)
        want = sum(abs(sum_T(micro_curve, (1,), R, 4)) ** 2 for R in micro_points)
        assert abs(got - want) < 1e-9

    def test_expansion_identity(self, micro_curve, micro_points):
        for c in [(1,), (2,)]:
            direct, _ = sum_V(micro_curve, micro_points, c, 4)
            expanded = v_sum_expanded(micro_curve, micro_points, c, 4)
            assert abs(direct - expanded) <= 1e-6 * max(1.0, abs(direct))

    def test_expansion_identity_k2(self, micro_curve, micro_points):
        direct, _ = sum_V(micro_curve, micro_points, (1, 2), 3)
        expanded = v_sum_expanded(micro_curve, micro_points, (1, 2), 3)
        assert abs(direct - expanded) <= 1e-6 * max(1.0, abs(direct))

    def test_gcd_precondition(self, micro_curve, micro_points):
        with pytest.raises(PreconditionError):
            sum_V(micro_curve, micro_points, (1,), 5)  # 5 | t = 5

    @settings(max_examples=50, deadline=None)
    @given(small_curves(), st.data())
    def test_expansion_identity_on_subgroups(self, C, data):
        # H of order t, the part of #E coprime to N! (prime or composite)
        N = data.draw(st.integers(1, 3))
        t = coprime_part(C.order(), N)
        assume(t > 1)
        H = subgroup_of_order(C, t)
        k = data.draw(st.integers(1, 2))
        c = tuple(data.draw(st.lists(st.integers(0, C.p - 1), min_size=k,
                                     max_size=k).filter(any)))
        direct, _ = sum_V(C, H, c, N)
        expanded = v_sum_expanded(C, H, c, N)
        assert abs(direct - expanded) <= 1e-6 * max(1.0, abs(direct))

    def test_termwise_cap(self, micro_curve, micro_points):
        got, _ = sum_V(micro_curve, micro_points, (1,), 4)
        t, k, N = 5, 1, 4
        assert 0 <= got <= t * N ** (2 * k) * (1 + 1e-9)


def v_per_point(C, H, c, N):
    """V as the loop over every point of H, one T per point in H's order:
    the form that the one-T-per-{R, -R} kernel replaced."""
    total = 0.0
    for R in H:
        total += abs(sum_T(C, c, R, N)) ** 2
    return total


# y^2 = x^3 + 1 over F_211: #E = 228 = 4 * 3 * 19, full 2-torsion (x = 15,
# 197, 210) and (0, +-1) of order 3
GOLDEN_CURVE = Curve(field(211), 0, 1)
# curves whose points are all O and 2-torsion: {O, (0, 0), (2, 0), (3, 0)}
# (x = 0 on a point other than O) and {O, (1, 0), (2, 0), (4, 0)}
TWO_TORSION_CURVES = [Curve(field(5), 1, 0), Curve(field(7), 0, 6)]


class TestPlusMinusPairs:
    """U and V read a point only through x of its multiples, and
    x(n(-P)) = x(nP): one evaluation per class {P, -P}, keyed by the
    affine x, so O (x = None) stays apart from the points with x = 0."""

    def test_golden_values_recorded_before_pairing(self):
        C = GOLDEN_CURVE
        E = C.enumerate_points()
        H57, H19 = subgroup_of_order(C, 57), subgroup_of_order(C, 19)
        assert [sum_U(C, N)[0] for N in range(1, 7)] == [
            50625, 98433, 154548, 203796, 258633, 312489]
        assert sum_V(C, E, (1,), 1)[0] == 228.0
        assert sum_V(C, E, (5, 3), 1)[0] == 228.0
        assert sum_V(C, H57, (1,), 2)[0] == 123.50568043467739
        assert sum_V(C, H57, (2, 7), 2)[0] == 283.34278065865277
        assert sum_V(C, H19, (1,), 4)[0] == 94.6462353762222
        assert sum_V(C, H19, (1, 1), 4)[0] == 637.7136414807841
        lhs = {(len(H), d, c): subgroup_sum(C, H, d, c)[1].lhs
               for H, d, c in [(E, (1,), (1,)), (E, (1, 5), (1, 1)),
                               (H57, (1, 2), (3, 1)), (H19, (1, 7, 8), (1, 1, 1))]}
        assert lhs == {(228, (1,), (1,)): 4.679244050090327,
                       (228, (1, 5), (1, 1)): 29.56480151052065,
                       (57, (1, 2), (3, 1)): 6.227392116493103,
                       (19, (1, 7, 8), (1, 1, 1)): 18.0}

    def test_infinity_keyed_apart_from_x_zero(self, micro_curve, micro_points):
        # O first, then (0, +-1) of order 5, whose T differs from T(O) = N^k
        assert micro_points[:3] == [INFINITY, CurvePoint(0, 1), CurvePoint(0, 6)]
        assert sum_T(micro_curve, (1,), CurvePoint(0, 1), 4) != 4
        for c in [(1,), (4, 2)]:
            assert sum_V(micro_curve, micro_points, c, 4)[0] == v_per_point(
                micro_curve, micro_points, c, 4)

    def test_points_without_their_negatives(self):
        C = GOLDEN_CURVE
        H57 = subgroup_of_order(C, 57)
        # (0, 1), O and 27 points of order 19 or 57, none with its negative
        H = [P for P in H57 if P.is_infinity or P.y < 106][:29]
        assert not {CurvePoint(P.x, -P.y % C.p) for P in H if P.y} & set(H)
        for c in [(1,), (3, 2)]:
            assert sum_V(C, H, c, 2)[0] == v_per_point(C, H, c, 2)

    def test_sum_v_adds_in_h_order(self):
        # the order-57 subgroup in walk order: its float total differs
        # from the same squares added in sorted order
        C = GOLDEN_CURVE
        H = orbit(C, subgroup_generator(C, 57))
        for c in [(1,), (2, 7)]:
            want = v_per_point(C, H, c, 2)
            assert want != v_per_point(C, sorted(H, key=_point_key), c, 2)
            assert sum_V(C, H, c, 2)[0] == want

    @pytest.mark.parametrize("C", TWO_TORSION_CURVES, ids=["p5", "p7"])
    def test_group_of_o_and_two_torsion(self, C):
        E = C.enumerate_points()
        assert all(P.is_infinity or P.y == 0 for P in E)
        for N in range(1, 6):
            assert sum_U(C, N)[0] == u_by_pairs(C, N) == u_by_definition(C, N)
        for c in [(1,), (2, 3)]:
            assert sum_V(C, E, c, 1)[0] == v_per_point(C, E, c, 1)

    @pytest.mark.parametrize("p,a,b", [(211, 0, 1), (103, 1, 0), (89, 2, 5)])
    def test_two_torsion_counted_once(self, p, a, b):
        # three, one and no points of order 2 beside O, (0, 0) among them
        # at p = 103
        C = Curve(field(p), a, b)
        for N in (1, 3, 4):
            assert sum_U(C, N)[0] == u_by_pairs(C, N)

    @settings(max_examples=25, deadline=None)
    @given(small_curves(), st.data())
    def test_sum_v_on_any_point_list(self, C, data):
        H = data.draw(st.lists(st.sampled_from(C.enumerate_points()),
                               min_size=1, max_size=12))
        N = data.draw(st.integers(1, min([*factorize(len(H)), 5]) - 1))
        c = (data.draw(st.integers(1, C.p - 1)),)
        assert sum_V(C, H, c, N)[0] == v_per_point(C, H, c, N)

    def test_benchmark_v_cell_evaluates_t_once_per_pair(self, monkeypatch):
        # t = 517 = 11 * 47: O and 258 pairs {R, -R}
        calls = []

        def counting_sum_T(C, c, R, N):
            calls.append(R)
            return sum_T(C, c, R, N)

        monkeypatch.setattr(charsum_module, "sum_T", counting_sum_T)
        got = run_sum_cell({"experiment": "v", "p": 1009, "a": 1, "b": 1,
                            "t": 517, "N": 6, "k": 2, "c": [1, 1]})
        monkeypatch.undo()
        assert len(calls) == len({R.x for R in calls}) == 259
        C = Curve(field(1009), 1, 1)
        assert got["lhs"] == v_per_point(C, subgroup_of_order(C, 517), (1, 1), 6)


class TestSubgroupSum:
    def test_hand_example(self, micro_curve, micro_points):
        got, report = subgroup_sum(micro_curve, micro_points, (1,), (1,))
        want = 2 + 2 * cmath.exp(4j * math.pi / 7)
        assert abs(got - want) < 1e-12
        assert report.lhs <= 4  # t - 1 termwise

    def test_full_group_cross_check_via_counting(self, micro_curve):
        # sum over Q != O of psi(c x(Q)) equals
        # sum_u (1 + chi(u^3+au+b)) psi(cu) when H is the whole group
        F = micro_curve.field
        H = micro_curve.enumerate_points()
        for c in (1, 2, 3):
            got, _ = subgroup_sum(micro_curve, H, (1,), (c,))
            want = 0j
            for u in range(7):
                want += (1 + F.chi(micro_curve.rhs(u))) * F.psi(c * u)
            assert abs(got - want) < 1e-12

    def test_multiplier_ordering_enforced(self, micro_curve, micro_points):
        with pytest.raises(PreconditionError):
            subgroup_sum(micro_curve, micro_points, (2, 2), (1, 1))
        with pytest.raises(PreconditionError):
            subgroup_sum(micro_curve, micro_points, (3, 1), (1, 1))

    def test_gcd_precondition(self, micro_curve, micro_points):
        with pytest.raises(PreconditionError):
            subgroup_sum(micro_curve, micro_points, (5,), (1,))

    def test_last_coefficient_nonzero(self, micro_curve, micro_points):
        with pytest.raises(PreconditionError):
            subgroup_sum(micro_curve, micro_points, (1, 2), (1, 0))

    @settings(max_examples=30, deadline=None)
    @given(small_curves(), st.sets(st.integers(1, 6), min_size=1, max_size=3),
           st.data())
    def test_matches_mul_oracle_on_every_subgroup(self, C, d, data):
        d = tuple(sorted(d))
        p = C.p
        c = tuple(data.draw(st.integers(0, p - 1)) for _ in d[1:])
        c += (data.draw(st.integers(1, p - 1)),)
        for t in range(1, C.order() + 1):
            if C.order() % t:
                continue
            try:
                H = subgroup_of_order(C, t)
            except PreconditionError:  # no unique subgroup of order t
                continue
            if math.gcd(t, math.prod(d)) != 1 or not C.is_ordinary():
                with pytest.raises(PreconditionError):
                    subgroup_sum(C, H, d, c)
                continue
            want = 0j
            for Q in H:
                if not Q.is_infinity:
                    want += C.field.psi(sum(ci * x_formal(C.mul(di, Q))
                                            for ci, di in zip(c, d)))
            got, _ = subgroup_sum(C, H, d, c)
            assert got == want  # same psi arguments, same order

    def test_triangle_bound_various(self):
        C = Curve(field(11), 1, 1)
        H = subgroup_of_order(C, 7)
        for d, c in [((1,), (1,)), ((1, 2), (1, 1)), ((2, 3), (5, 2))]:
            got, _ = subgroup_sum(C, H, d, c)
            assert abs(got) <= len(H) - 1 + 1e-9


def brute_collisions(N, k, c):
    import itertools

    support = [j for j in range(k) if c[j]]
    count = 0
    for m in itertools.product(range(2, N + 1), repeat=k):
        for n in itertools.product(range(2, N + 1), repeat=k):
            for j in support:
                if math.prod(m[: j + 1]) == math.prod(n[: j + 1]):
                    count += 1
                    break
    return count


class TestPrefixProducts:
    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=3), st.sampled_from((1, 2)))
    def test_matches_product_definition(self, N, k, lo):
        expected = []
        for tup in itertools.product(range(lo, N + 1), repeat=k):
            prods, prod = [], 1
            for n in tup:
                prod *= n
                prods.append(prod)
            expected.append(tuple(prods))
        assert prefix_products(N, k, lo) == expected


class TestPrefixSums:
    @given(st.integers(min_value=0, max_value=6), st.sampled_from((1, 2)), st.data())
    def test_matches_product_definition(self, N, lo, data):
        k = data.draw(st.integers(0, 3))
        tables = [data.draw(st.lists(st.integers(-50, 50), min_size=N ** (j + 1),
                                     max_size=N ** (j + 1) + 2))
                  for j in range(k)]
        want = [sum(tables[j][math.prod(tup[:j + 1]) - 1] for j in range(k))
                for tup in itertools.product(range(lo, N + 1), repeat=k)]
        assert prefix_sums(tables, range(lo, N + 1)) == want


def pair_loop_collisions(N, k, c):
    """The collision count by the (N-1)^(2k) pair loop over partial-product
    vectors, which inclusion-exclusion replaced; kept as its oracle."""
    support = [j for j in range(k) if c[j]]
    prods = prefix_products(N, k, lo=2)
    count = 0
    for mv in prods:
        for nv in prods:
            if any(mv[j] == nv[j] for j in support):
                count += 1
    return count


def tuple_key_collisions(N, k, c):
    """The collision count by inclusion-exclusion with each subset S of
    the support keyed by the tuple of its partial products, counted by a
    Counter: the form that the one-int keys of prefix_sums replaced."""
    support = [j for j in range(k) if c[j]]
    prods = prefix_products(N, k, lo=2)
    count = 0
    for size in range(1, len(support) + 1):
        for S in itertools.combinations(support, size):
            cnt = Counter(tuple(v[j] for j in S) for v in prods)
            count += (-1) ** (size + 1) * sum(n * n for n in cnt.values())
    return count


class TestProductCollisions:
    @pytest.mark.parametrize("support", [
        s for k in (1, 2, 3) for s in itertools.product((0, 1), repeat=k) if any(s)])
    @settings(max_examples=8, deadline=None)
    @given(N=st.integers(1, 7), data=st.data())
    def test_inclusion_exclusion_equals_pair_loop(self, support, N, data):
        # the count depends on the support only; coefficients vary freely
        c = tuple(data.draw(st.integers(1, 50)) if j else 0 for j in support)
        k = len(c)
        assert count_product_collisions(N, k, c)[0] == pair_loop_collisions(N, k, c)

    @pytest.mark.parametrize("support", [
        s for k in (1, 2, 3) for s in itertools.product((0, 1), repeat=k) if any(s)])
    def test_one_int_keys_equal_tuple_keys(self, support):
        k = len(support)
        for N in range(1, 13):
            assert count_product_collisions(N, k, support)[0] == \
                tuple_key_collisions(N, k, support)

    def test_budget_counts_subsets_times_tuples(self, monkeypatch):
        # 2^|support| N^(max support + 1) table entries: 4 * 60^2 = 14400
        # for N = 60, k = 2, one position in the support halves it, and a
        # support that ends at position 1 walks [2,N] only: 2 * 60
        for c, boundary in [((1, 1), 14_400), ((0, 1), 7_200), ((1, 0), 120)]:
            monkeypatch.setattr(charsum_module, "COLLISION_BUDGET", boundary - 1)
            with pytest.raises(ResourceBudgetError):
                count_product_collisions(60, 2, c)
            monkeypatch.setattr(charsum_module, "COLLISION_BUDGET", boundary)
            assert count_product_collisions(60, 2, c)[0] <= 2 * 60**3

    def test_k1_diagonal(self):
        assert count_product_collisions(3, 1, (1,))[0] == 2

    def test_c_10_equality_order(self):
        # only position 1 constrains: (N-1) diagonal choices for the
        # first index, the rest free
        for N in (3, 5, 8):
            assert count_product_collisions(N, 2, (1, 0))[0] == (N - 1) ** 3

    @pytest.mark.parametrize("k,c", [(1, (1,)), (2, (1, 1)), (2, (1, 0)), (2, (0, 1))])
    def test_against_brute_oracle(self, k, c):
        for N in (2, 4, 6):
            assert count_product_collisions(N, k, c)[0] == brute_collisions(N, k, c)

    @pytest.mark.parametrize("k,c", [(1, (1,)), (2, (1, 1)), (2, (1, 0))])
    def test_paper_cap(self, k, c):
        for N in range(2, 13):
            assert count_product_collisions(N, k, c)[0] <= k * N ** (2 * k - 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(PreconditionError):
            count_product_collisions(4, 2, (0, 0))

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(charsum_module, "COLLISION_BUDGET", 100)
        with pytest.raises(ResourceBudgetError):
            count_product_collisions(12, 2, (1, 1))
        # c = (1, 0): 2 * 50 entries, where 2 * 50^2 = 5000 were counted before
        assert count_product_collisions(50, 2, (1, 0))[0] == 49**3
        with pytest.raises(ResourceBudgetError):
            count_product_collisions(51, 2, (1, 0))


@pytest.fixture(scope="module")
def prime_order_curve():
    C = Curve(field(13), 1, 6)
    assert C.order() == 13
    return C


class TestProofIdentity:
    """sum_P chi(x(mP)x(nP)) = sum_u chi(Phi(u)) + sum_u chi(Psi(u)),
    exactly, on a curve of prime order > 6 (no low-order points)."""

    def test_identity_all_pairs(self, prime_order_curve):
        dp = DivisionPolynomials(prime_order_curve)
        for m in range(1, 7):
            for n in range(1, 7):
                if m == n:
                    continue
                lhs = chi_pair_sum_direct(prime_order_curve, m, n)
                rhs = chi_pair_sum_phi_psi(dp, m, n)
                assert lhs == rhs, (m, n)

    @pytest.mark.parametrize("p,a,b", [(11, 1, 5), (17, 1, 3), (19, 1, 4),
                                       (23, 1, 4), (29, 1, 11), (31, 1, 3)])
    def test_identity_on_prime_order_curves(self, p, a, b):
        C = Curve(field(p), a, b)
        n_order = C.order()
        assert n_order > 6 and all(n_order % q for q in range(2, 7))
        dp = DivisionPolynomials(C)
        for m in range(1, 5):
            for n in range(1, 5):
                if m != n:
                    assert chi_pair_sum_direct(C, m, n) == chi_pair_sum_phi_psi(dp, m, n)

    def test_conventions_also_absorb_torsion_degeneracies(self, micro_curve):
        # on the order-5 curve, pairs hitting the group order make every
        # x(mP) formal zero; chi(num*den) zeroes the same terms on the
        # polynomial side, so the identity extends beyond its hypothesis
        dp = DivisionPolynomials(micro_curve)
        for m, n in [(1, 5), (5, 2), (2, 3), (1, 2)]:
            assert chi_pair_sum_direct(micro_curve, m, n) == chi_pair_sum_phi_psi(dp, m, n)


def test_x_multiples_matches_scalar_mul(micro_curve, micro_points):
    for P in micro_points:
        xs = x_multiples(micro_curve, P, 8)
        for n in range(1, 9):
            assert xs[n - 1] == x_formal(micro_curve.mul(n, P))


@settings(max_examples=30, deadline=None)
@given(small_curves())
@example(Curve(field(5), 0, 1))  # Z/6: O, a 2-torsion point, order-3 points
@example(Curve(field(7), 3, 1))  # Z/12
def test_x_multiples_matches_add_walk(C):
    # every point and every count from 1 to three periods past ord(P)
    for P in C.enumerate_points():
        o = C.point_order(P)
        want = add_walk_x_multiples(C, P, 3 * o + 1)
        for count in range(1, 3 * o + 2):
            assert x_multiples(C, P, count) == want[:count]


@settings(max_examples=40, deadline=None)
@given(small_curves(), st.data())
def test_x_rows_matches_scalar_mul(C, data):
    # any point set: O, repeats, points of different subgroups, and
    # counts past the order of every point
    pts = C.enumerate_points()
    points = data.draw(st.lists(st.sampled_from(pts), max_size=8))
    count = data.draw(st.integers(0, C.order() + 3))
    want = [[x_formal(C.mul(m, R)) for m in range(1, count + 1)] for R in points]
    assert list(x_rows(C, points, count)) == want


@settings(max_examples=40, deadline=None)
@given(small_curves(), st.data())
def test_x_columns_match_scalar_mul(C, data):
    # point sets spanning several cyclic subgroups, with O, every point
    # with y = 0 and repeats put in, read at multipliers from 0 to past
    # the order of every point, in any order and more than once
    pts = C.enumerate_points()
    points = data.draw(st.lists(st.sampled_from(pts), max_size=12))
    for P in pts:
        if P.is_infinity or P.y == 0:
            points.insert(data.draw(st.integers(0, len(points))), P)
    columns = x_columns(C, tuple(points))
    for m in data.draw(st.lists(st.integers(0, C.order() + 3), max_size=8)):
        assert columns[m] == [x_formal(C.mul(m, Q)) for Q in points]


def test_x_columns_refuse_a_point_off_the_curve(micro_curve):
    # (0, 0) is not on y^2 = x^3 + x + 1 over F_7: its walk of multiples
    # would follow the group law of another curve
    with pytest.raises(ValueError, match=r"point \(0, 0\) is not on"):
        x_columns(micro_curve, (CurvePoint(0, 1), CurvePoint(0, 0)))


def test_later_cells_on_a_point_set_reuse_its_rows(monkeypatch):
    # a sweep's lemma 5 cells share H, and its U cells the points of E:
    # the first cell on each walks its orbits and fills its columns, the
    # next ones read the kept columns (filling the new multipliers d = 3
    # and N = 4) and return the cold values bit for bit
    C = Curve(field(1009), 1, 1)
    H = subgroup_of_order(C, 517)
    cells = [lambda: subgroup_sum(C, H, (1, 2), (1, 1)), lambda: sum_U(C, 3),
             lambda: subgroup_sum(C, H, (2, 3), (1, 5)), lambda: sum_U(C, 4)]
    cold = []
    for cell in cells:
        x_columns.cache_clear()
        cold.append(cell())
    assert [cell() for cell in cells[:2]] == cold[:2]

    def no_walk(*args):
        raise AssertionError("the rows of this point set were kept")

    monkeypatch.setattr(charsum_module, "multiples", no_walk)
    assert [cell() for cell in cells[2:]] == cold[2:]


# y^2 = x^3 + x + 1 over F_500009, the curve of the extract-sampled
# benchmark: #E = 499,013 = 569 * 877, cyclic, with (0, 1) a generator
C_500K = Curve(field(500009), 1, 1)
G_500K = CurvePoint(0, 1)
P569 = CurvePoint(317888, 397327)  # 877 G, of order 569
P877 = CurvePoint(92266, 191659)  # 569 G, of order 877


class TestXWalks:
    """x_multiples, the walks of x along the multiples of each point:
    giant-step blocks from BLOCK_MIN multiples on, the walk of multiples
    below that or when a block meets O."""

    @settings(max_examples=60, deadline=None)
    @given(small_curves(), st.data())
    def test_equals_x_multiples_and_add_walk(self, C, data):
        # lists with O and every 2-torsion point put in at drawn places,
        # and counts below, at and above the order of a drawn point
        pts = C.enumerate_points()
        points = data.draw(st.lists(st.sampled_from(pts), min_size=33, max_size=96))
        for P in pts:
            if P.is_infinity or P.y == 0:
                points.insert(data.draw(st.integers(0, len(points))), P)
        o = C.point_order(data.draw(st.sampled_from(pts)))
        count = max(1, o + data.draw(st.integers(-1, 1)))
        rows = [x_multiples(C, P, count) for P in points]
        assert rows == [add_walk_x_multiples(C, P, count) for P in points]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_blocks_equal_the_add_walk(self, data):
        # counts BLOCK_MIN - 1, BLOCK_MIN and past it, and counts near
        # ord(P) on both sides: P = O, 2-torsion points and every order
        # of the small curves, and orders 569, 877 and #E at p = 500009
        C = data.draw(st.one_of(small_curves(), st.just(C_500K)))
        if C is C_500K:
            P, o = data.draw(st.sampled_from([
                (INFINITY, 1), (P569, 569), (P877, 877), (G_500K, 499013)]))
        else:
            P = data.draw(st.sampled_from(C.enumerate_points()))
            o = C.point_order(P)
        counts = [st.sampled_from([BLOCK_MIN - 1, BLOCK_MIN]),
                  st.integers(BLOCK_MIN, 4 * BLOCK_MIN)]
        if o < 1000:
            counts.append(st.integers(max(0, o - 3), o + 3))
        count = data.draw(st.one_of(counts))
        assert x_multiples(C, P, count) == add_walk_x_multiples(C, P, count)

    @pytest.mark.parametrize("P,count,blocks,steps", [
        # the walk of multiples: count - 1 steps, one inversion each
        (G_500K, BLOCK_MIN - 1, 0, BLOCK_MIN - 2),
        # blocks of K = 2J + 1, J = isqrt(count // 2): one inversion per
        # block, J - 1 steps for the baby multiples jG, two additions
        # for the first centre and KG, one per further centre
        (G_500K, BLOCK_MIN, 6, 5 + 6),
        (G_500K, 256, 12, 11 + 12),
        # a block meets O: the blocks before it (J = 16 and 17, block
        # (o - 1) // K), J + 1 additions and one per later centre, then
        # the walk to -P, 567 steps; ord(P) just past count, where only
        # the last block, m = 562..594, meets O, and ord(P) <= count
        (P569, 568, 17, 16 + 1 + 17 + 567),
        (P569, 600, 16, 17 + 1 + 16 + 567),
        (P877, 876, 21, 20 + 1 + 21 + 875),
        # O: no baby multiple, no step
        (INFINITY, BLOCK_MIN, 0, 0),
    ])
    def test_inversions_per_branch(self, monkeypatch, P, count, blocks, steps):
        want = add_walk_x_multiples(C_500K, P, count)
        inversions, point_steps = [], []

        def counting(calls):
            def counting_pow(*args):
                calls.append(args)
                return pow(*args)
            return counting_pow

        monkeypatch.setattr(charsum_module, "pow", counting(inversions), raising=False)
        monkeypatch.setattr(curve_module, "pow", counting(point_steps), raising=False)
        xs = x_multiples(C_500K, P, count)
        monkeypatch.undo()
        assert xs == want
        assert (len(inversions), len(point_steps)) == (blocks, steps)

    def test_empty_and_zero_count(self, micro_curve, micro_points):
        assert [x_multiples(micro_curve, P, 0) for P in micro_points] == [[]] * 5
        assert x_multiples(micro_curve, INFINITY, BLOCK_MIN) == [0] * BLOCK_MIN


# #E = 1034 = 2 * 11 * 47, cyclic: a generator (1, 149) of order 1034
# and points of every order dividing it
C_1009 = Curve(field(1009), 1, 1)

# (curve, G, t = ord(G)): odd and even t, with blocks of J = 1, 2, 3, 4,
# 11 and 16 baby multiples, and t = 1..7 and 16 (t // 2 in {1, 2, 3}
# has J = 1)
WINDOW_GROUPS = [
    (C_1009, CurvePoint(1, 149), 1034),
    (C_1009, CurvePoint(0, 1), 517),
    (C_1009, CurvePoint(92, 296), 94),
    (C_1009, CurvePoint(18, 352), 47),
    (C_1009, CurvePoint(27, 192), 11),
    (C_1009, CurvePoint(999, 0), 2),
    (Curve(field(10007), 1, 2), INFINITY, 1),
    (Curve(field(7), 0, 1), CurvePoint(0, 1), 3),
    (Curve(field(17), 2, 4), CurvePoint(2, 4), 16),
    (Curve(field(5), 1, 2), CurvePoint(1, 2), 4),
    (Curve(field(5), 3, 0), CurvePoint(1, 2), 5),
    (Curve(field(5), 0, 1), CurvePoint(2, 2), 6),
    (Curve(field(5), 2, 1), CurvePoint(0, 1), 7),
]


def masked_orbit(C, G, t, ell):
    """[x(mG) & (2^ell - 1) for m < t] (x(O) = 0) by the walk of multiples."""
    return [0] + [x & (1 << ell) - 1 for x in x_multiples(C, G, t - 1)]


class TestWindowTable:
    @pytest.mark.parametrize("ell,itemsize", [(1, 1), (4, 1), (8, 1), (9, 2), (16, 2)])
    @pytest.mark.parametrize("C,G,t", WINDOW_GROUPS)
    def test_equals_masked_x_multiples(self, C, G, t, ell, itemsize):
        assert C.point_order(G) == t
        w = window_table(C, G, t, ell)
        assert w.itemsize == itemsize and len(w) == t
        assert list(w) == masked_orbit(C, G, t, ell)

    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    def test_power_of_two_orders(self, t):
        C = Curve(field(17), 2, 4)  # cyclic of order 16
        G = mul_int(C, 16 // t, CurvePoint(2, 4))
        assert list(window_table(C, G, t, 3)) == masked_orbit(C, G, t, 3)

    @settings(max_examples=60, deadline=None)
    @given(small_curves(), st.data())
    def test_any_multiple_of_the_order(self, C, data):
        # t a multiple of ord(G), O included: a centre can meet O, or a
        # denominator be 0
        G = data.draw(st.sampled_from(C.enumerate_points()))
        t = C.point_order(G) * data.draw(st.integers(1, 3))
        ell = data.draw(st.sampled_from([1, 4, 9]))
        w = window_table(C, G, t, ell)
        assert list(w) == masked_orbit(C, G, t, ell)
        assert list(w) == [0] + [x & (1 << ell) - 1
                                 for x in add_walk_x_multiples(C, G, t - 1)]

    def test_refuses_an_order_not_dividing_t(self, micro_curve):
        with pytest.raises(PreconditionError, match="tG != O"):
            window_table(C_1009, CurvePoint(0, 1), 516, 4)
        with pytest.raises(ValueError, match="is not on"):
            window_table(micro_curve, CurvePoint(0, 0), 5, 1)

    @pytest.mark.parametrize("G,t,blocks", [
        (CurvePoint(1, 149), 1034, 16), (CurvePoint(0, 1), 517, 12),
        (CurvePoint(92, 296), 94, 6), (CurvePoint(27, 192), 11, 2)])
    def test_one_inversion_per_block(self, monkeypatch, G, t, blocks):
        # blocks of K = 2J + 1 multiples, J = isqrt(t // 4), cover
        # m = 1..t // 2: one batch inversion each; the baby multiples,
        # the centres and G's doublings with the tG check take the rest
        J = math.isqrt(t // 4)
        assert blocks == -(-(t // 2) // (2 * J + 1))
        batches, setup = [], []

        def counting(calls):
            def counting_pow(*args):
                calls.append(args)
                return pow(*args)
            return counting_pow

        monkeypatch.setattr(charsum_module, "pow", counting(batches), raising=False)
        monkeypatch.setattr(curve_module, "pow", counting(setup), raising=False)
        w = window_table(C_1009, G, t, 4)
        monkeypatch.undo()
        assert list(w) == masked_orbit(C_1009, G, t, 4)
        assert len(batches) == blocks
        assert len(setup) <= J + blocks + 2 * t.bit_length()

    @pytest.mark.parametrize("C,G,t", WINDOW_GROUPS[:3])
    def test_last_block_past_half(self, C, G, t):
        # 16 * 33 > 517, 12 * 23 > 258 and 6 * 9 > 47 multiples
        h, J = t // 2, math.isqrt(t // 4)
        assert -(-h // (2 * J + 1)) * (2 * J + 1) > h
        assert list(window_table(C, G, t, 9)) == masked_orbit(C, G, t, 9)

    @pytest.mark.parametrize("C,G,t", [
        (Curve(field(17), 2, 4), CurvePoint(2, 4), 16),
        (Curve(field(5), 1, 2), CurvePoint(1, 2), 4)])
    def test_point_of_order_two_as_centre(self, C, G, t):
        # the centres J + 1 + iK meet t // 2: 3, 8 for t = 16 and 2 for t = 4
        h, J = t // 2, math.isqrt(t // 4)
        assert (h - J - 1) % (2 * J + 1) == 0
        assert mul_int(C, h, G).y == 0
        assert list(window_table(C, G, t, 4)) == masked_orbit(C, G, t, 4)

    @pytest.mark.parametrize("C,G,o", WINDOW_GROUPS)
    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_half_walk_exactly_below_the_order(self, monkeypatch, C, G, o, times):
        # with ord(G) < t a multiple of ord(G) in 1..t // 2 is a centre at
        # O or a zero denominator, so the blocks stop and _walk_x walks
        # the half; with ord(G) = t only t = 2 and 3 stop
        t = o * times
        want = masked_orbit(C, G, t, 4)
        walks = []

        def counting_walk_x(*args):
            walks.append(args[2])
            return _walk_x(*args)

        monkeypatch.setattr(charsum_module, "_walk_x", counting_walk_x)
        assert list(window_table(C, G, t, 4)) == want
        assert walks == ([t // 2] if times > 1 or t in (2, 3) else [])

    def test_blocks_that_meet_o_are_not_built_again(self, monkeypatch):
        # G = (0, 1) of order 517 in t = 1034: blocks of 33 multiples
        # around 17, 50, ..., the 16th of which reaches 517G = O without
        # an inversion, and the half walk builds none of the 15 again
        G = CurvePoint(0, 1)
        want = masked_orbit(C_1009, G, 1034, 4)
        inversions = []

        def counting_pow(*args):
            inversions.append(args)
            return pow(*args)

        monkeypatch.setattr(charsum_module, "pow", counting_pow, raising=False)
        w = window_table(C_1009, G, 1034, 4)
        monkeypatch.undo()
        assert list(w) == want
        assert len(inversions) == 15

    def test_large_table_takes_the_blocks(self, monkeypatch):
        # t = 3959: 32 blocks of 63 multiples, no half walk
        C = Curve(field(20011), 1, 1)
        G = CurvePoint(10373, 790)
        assert C.point_order(G) == 3959

        def no_walk(*args):
            raise AssertionError("the block path walks no half")

        want = masked_orbit(C, G, 3959, 1)
        monkeypatch.setattr(charsum_module, "_walk_x", no_walk)
        assert list(window_table(C, G, 3959, 1)) == want
