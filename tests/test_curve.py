import functools
import itertools
import math
import pickle
import random

import pytest
from conftest import add_walk_orbit, small_curves, x_formal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import add_fp2, points_by_scan

import ecbits.curve as curve_module
import ecbits.extract as extract_module
from ecbits.charsum import x_multiples
from ecbits.curve import (
    INFINITY,
    Curve,
    CurvePoint,
    _point_key,
    check_unique_subgroup,
    factorize,
    find_curve,
    group_structure,
    index_table,
    multiples,
    mul_int,
    orbit,
    order_over,
    rational_division_points,
    sample_scalars,
    subgroup_generator,
    subgroup_of_order,
)
from ecbits.extract import _walk_windows
from ecbits.field import (
    Fp2,
    PreconditionError,
    PrimeField,
    ResourceBudgetError,
    field,
)


def brute_order(p, a, b):
    """Independent oracle: count solutions of y^2 = x^3 + ax + b by pairs."""
    count = 1  # infinity
    for x in range(p):
        for y in range(p):
            if (y * y - (x**3 + a * x + b)) % p == 0:
                count += 1
    return count


class TestPointAdd:
    def test_neutral(self, micro_curve):
        P = CurvePoint(0, 1)
        assert micro_curve.add(P, INFINITY) == P
        assert micro_curve.add(INFINITY, P) == P

    def test_doubling_hand_example(self, micro_curve):
        assert micro_curve.add(CurvePoint(0, 1), CurvePoint(0, 1)) == CurvePoint(2, 5)

    def test_chord_hand_example(self, micro_curve):
        assert micro_curve.add(CurvePoint(2, 5), CurvePoint(0, 1)) == CurvePoint(2, 2)

    def test_inverse_pair(self, micro_curve):
        assert micro_curve.add(CurvePoint(0, 1), CurvePoint(0, 6)) == INFINITY

    def test_off_curve_rejected(self, micro_curve):
        with pytest.raises(ValueError):
            micro_curve.add(CurvePoint(1, 1), CurvePoint(0, 1))

    def test_singular_curve_rejected(self):
        with pytest.raises(ValueError):
            Curve(field(7), 0, 0)
        with pytest.raises(ValueError):
            Curve(field(13), 1, 3)  # 4 + 27*9 = 247 = 0 mod 13


class TestGroupAxioms:
    @pytest.mark.parametrize("p,a,b", [(7, 1, 1), (7, 1, 3), (11, 1, 1)])
    def test_exhaustive_axioms(self, p, a, b):
        C = Curve(field(p), a, b)
        pts = C.enumerate_points()
        assert len(pts) <= 30
        for P, Q in itertools.product(pts, repeat=2):
            assert C.add(P, Q) == C.add(Q, P)
        for P, Q, R in itertools.product(pts, repeat=3):
            assert C.add(C.add(P, Q), R) == C.add(P, C.add(Q, R))
        for P in pts:
            assert C.add(P, C.neg(P)) == INFINITY


class TestScalarMul:
    def test_small_multiples(self, micro_curve):
        P = CurvePoint(0, 1)
        assert micro_curve.mul(1, P) == P
        assert micro_curve.mul(4, P) == CurvePoint(0, 6)
        assert micro_curve.mul(5, P) == INFINITY

    def test_zero_gives_infinity(self, micro_curve):
        assert micro_curve.mul(0, CurvePoint(0, 1)) == INFINITY

    def test_matches_repeated_addition(self, micro_curve):
        P = CurvePoint(2, 2)
        acc = INFINITY
        for n in range(1, 12):
            acc = micro_curve.add(acc, P)
            assert micro_curve.mul(n, P) == acc

    @pytest.mark.parametrize("p,a,b", [(7, 1, 1), (11, 1, 1), (13, 1, 6)])
    def test_order_annihilates_every_point(self, p, a, b):
        C = Curve(field(p), a, b)
        n = C.order()
        for P in C.enumerate_points():
            assert C.mul(n, P) == INFINITY


class TestOrderViaCharacter:
    def test_micro_curve(self, micro_curve):
        assert micro_curve.order() == 5
        assert brute_order(7, 1, 1) == 5

    def test_enumeration_matches_order(self, micro_curve):
        assert len(micro_curve.enumerate_points()) == 5

    def test_enumeration_is_kept_per_curve_value(self):
        C = Curve(field(11), 1, 1)
        pts = C.enumerate_points()
        want = list(pts)
        pts.append(pts[1])
        pts[0] = pts[2]
        pts.sort(key=repr)
        again = Curve(field(11), 1, 1).enumerate_points()  # an equal curve
        assert again == want and again is not pts
        assert Curve._points.cache_info().misses == 1

    @settings(max_examples=40, deadline=None)
    @given(small_curves() | small_curves(b=0))
    def test_enumeration_equals_the_per_x_scan(self, C):
        assert C.enumerate_points() == points_by_scan(C)

    # p = 1 and 3 mod 4: Tonelli-Shanks and the (p + 1) / 4 power in the
    # scan's square roots; b = 0 puts (0, 0) on the curve
    @pytest.mark.parametrize("p", [1009, 1019])
    @pytest.mark.parametrize("a,b", [(1, 1), (0, 7), (3, 0)])
    def test_enumeration_equals_the_per_x_scan_mod_4(self, p, a, b):
        C = Curve(field(p), a, b)
        assert C.enumerate_points() == points_by_scan(C)

    def test_enumeration_takes_no_square_root(self, monkeypatch):
        # the per-x scan takes 516 square roots and 1,535 chi on this curve:
        # 1,009 by x, one in each root, 10 finding the non-residue
        calls = []

        def counting(name):
            real = getattr(PrimeField, name)

            def wrapper(self, u):
                calls.append(name)
                return real(self, u)
            return wrapper

        for name in ("sqrt", "chi"):
            monkeypatch.setattr(PrimeField, name, counting(name))
        C = Curve(field(1009), 1, 1)
        C.order()
        assert len(C.enumerate_points()) == 1034
        assert calls == []

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_all_curves_against_brute_force(self, p):
        F = field(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                C = Curve(F, a, b)
                assert C.order() == brute_order(p, a, b)

    @pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
    def test_all_curves_up_to_31_against_count_oracle(self, p):
        # independent oracle: tally solutions y of y^2 = v by enumeration,
        # then sweep x; no quadratic character involved
        F = field(p)
        y_solutions = [0] * p
        for y in range(p):
            y_solutions[y * y % p] += 1
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                C = Curve(F, a, b)
                want = 1 + sum(y_solutions[(x**3 + a * x + b) % p] for x in range(p))
                assert C.order() == want

    @pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23, 29, 31])
    def test_hasse_window(self, p):
        F = field(p)
        for a in range(1, p):
            for b in range(1, p):
                if (4 * a**3 + 27 * b * b) % p == 0:
                    continue
                n = Curve(F, a, b).order()
                assert abs(n - (p + 1)) <= 2 * math.isqrt(4 * p)


class TestOrdinary:
    def test_micro_curve_is_ordinary(self, micro_curve):
        assert micro_curve.is_ordinary()

    def test_definition_on_b_zero_curve(self):
        C = Curve(field(7), 1, 0)
        assert C.is_ordinary() == (C.order() != 8)

    def test_supersingular_search(self):
        found = []
        for p in [5, 7, 11, 13, 17, 19, 23]:
            F = field(p)
            for a in range(p):
                for b in range(p):
                    if (4 * a**3 + 27 * b * b) % p == 0:
                        continue
                    C = Curve(F, a, b)
                    if not C.is_ordinary():
                        assert C.order() == p + 1
                        found.append((p, a, b))
        assert found  # supersingular curves exist in this range


class TestGroupStructure:
    def test_micro_curve_cyclic(self, micro_curve):
        gs = group_structure(micro_curve)
        assert (gs.order, gs.d1, gs.d2) == (5, 1, 5)
        assert gs.gen1 == INFINITY
        assert micro_curve.point_order(gs.gen2) == 5

    def test_prime_order_is_cyclic(self):
        C = Curve(field(13), 1, 6)
        gs = group_structure(C)
        assert C.order() == 13 and gs.d1 == 1

    def test_full_two_torsion_rank_two(self):
        # x^3 - 1 = (x-1)(x-2)(x-4) mod 7: full rational 2-torsion
        C = Curve(field(7), 0, 6)
        gs = group_structure(C)
        assert gs.d1 % 2 == 0 and gs.d2 % 2 == 0
        assert gs.d1 * gs.d2 == gs.order
        assert gs.d2 % gs.d1 == 0

    @pytest.mark.parametrize("p,a,b", [(7, 1, 1), (11, 1, 1), (13, 1, 6), (7, 0, 6)])
    def test_generators_regenerate_group(self, p, a, b):
        C = Curve(field(p), a, b)
        gs = group_structure(C)
        span = set()
        for i in range(gs.d1):
            for j in range(gs.d2):
                span.add(C.add(C.mul(i, gs.gen1), C.mul(j, gs.gen2)))
        assert span == set(C.enumerate_points())

    def test_budget(self, micro_curve, monkeypatch):
        # the index table that group_structure reads refuses #E = 5
        monkeypatch.setitem(curve_module.TABLE_BUDGET, 1, 4)
        with pytest.raises(ResourceBudgetError, match=r"#E\(F_p\^1\) = 5 exceeds"):
            group_structure(micro_curve)


class TestSubgroup:
    def test_trivial(self, micro_curve):
        assert subgroup_of_order(micro_curve, 1) == (INFINITY,)

    def test_full_micro_group(self, micro_curve, micro_points):
        H = subgroup_of_order(micro_curve, 5)
        assert H == tuple(micro_points)
        assert H[0] == INFINITY

    def test_lagrange_violation(self, micro_curve):
        with pytest.raises(ValueError):
            subgroup_of_order(micro_curve, 3)

    def test_ambiguous_two_torsion(self):
        C = Curve(field(7), 0, 6)  # full 2-torsion: three order-2 subgroups
        with pytest.raises(PreconditionError):
            subgroup_of_order(C, 2)

    def test_closure_under_addition(self):
        C = Curve(field(11), 1, 1)  # order 14
        H = subgroup_of_order(C, 7)
        hs = set(H)
        for P in H:
            for Q in H:
                assert C.add(P, Q) in hs

    @pytest.mark.parametrize("p,a,b", [(11, 1, 1), (13, 2, 3), (23, 1, 1)])
    def test_generator_has_exact_order(self, p, a, b):
        C = Curve(field(p), a, b)
        n = C.order()
        for t in range(2, n + 1):
            if n % t == 0:
                G = subgroup_generator(C, t)
                assert C.mul(t, G) == INFINITY
                assert all(C.mul(t // q, G) != INFINITY for q in factorize(t))

    def test_generator_of_trivial_subgroup_rejected(self, micro_curve):
        with pytest.raises(PreconditionError):
            subgroup_generator(micro_curve, 1)

    def test_generator_on_non_cyclic_group(self):
        C = Curve(field(7), 0, 6)  # E = Z/2 x Z/2: every (#E/2)P is O
        G = subgroup_generator(C, 2)
        assert G != INFINITY and C.mul(2, G) == INFINITY
        with pytest.raises(PreconditionError):
            subgroup_of_order(C, 2)

    def test_unique_subgroup_check_on_49_points(self):
        # #E = 49 over F_43 with 7 | p - 1: the Weil-pairing test cannot
        # show E[7] cyclic on either curve, so the kernel of [7] decides
        for a, b in ((0, 3), (2, 4)):
            assert not curve_module._torsion_cyclic(Curve(field(43), a, b), 7)
        # E = Z/7 x Z/7: eight subgroups of order 7
        with pytest.raises(PreconditionError, match=r"^no unique subgroup of "
                           r"order 7: kernel of \[t\] has 49 points$"):
            check_unique_subgroup(Curve(field(43), 0, 3), 7)
        # E = Z/49: one subgroup of order 7
        check_unique_subgroup(Curve(field(43), 2, 4), 7)

    def test_find_curve_counts_an_ambiguous_subgroup(self, monkeypatch):
        # no curve of the a, b >= 1 scan has E[t] = Z/t x Z/t with t^2 >= p
        # (at p = 7, 43 and 157 all such curves have a = 0), so the first
        # check is made to refuse its curve
        refused = []

        def refuse_first(C, t):
            if not refused:
                refused.append(C)
                raise PreconditionError("no unique subgroup")
            check_unique_subgroup(C, t)

        monkeypatch.setattr(curve_module, "check_unique_subgroup", refuse_first)
        fc = find_curve([11, 13], 4, t_policy="prime")
        assert fc.rejected["subgroup_ambiguous"] == 1
        assert fc.curve != refused[0]
        assert fc.t in factorize(fc.order)


# E = Z/2 x Z/2 over F_7, and E = Z/12 over F_7, where subgroup_of_order
# walks an orbit for t = 3 and reads E[t](F_7) from the index table for
# t = 2, 4, 6, 12
NON_CYCLIC = Curve(field(7), 0, 6)
MIXED_PATHS = Curve(field(7), 3, 1)


class TestGroupStructureProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_curves())
    @example(NON_CYCLIC)
    @example(MIXED_PATHS)
    def test_structure_equals_scan(self, C):
        # oracle: d2 is the largest point order, d1 = #E / d2
        pts = C.enumerate_points()
        d2 = max(C.point_order(P) for P in pts)
        gs = group_structure(C)
        assert (gs.order, gs.d1, gs.d2) == (len(pts), len(pts) // d2, d2)
        assert C.point_order(gs.gen1) == gs.d1
        span = {C.add(C.mul(i, gs.gen1), Q)
                for i in range(gs.d1) for Q in orbit(C, gs.gen2)}
        assert span == set(pts)

    def test_no_point_order_scan(self, monkeypatch):
        C = Curve(field(40009), 1, 1)
        calls = []
        point_order = Curve.point_order

        def counted(self, *args):
            calls.append(args)
            return point_order(self, *args)

        monkeypatch.setattr(Curve, "point_order", counted)
        index_table.cache_clear()
        gs = group_structure(C)
        assert (gs.d1, gs.d2) == (2, 20010)
        assert len(calls) < 100  # a scan makes one call per point: 40,020


class TestOrbitProperties:
    @given(small_curves(), st.integers(0, 200))
    @example(NON_CYCLIC, 1)
    def test_orbit_is_the_multiples(self, C, i):
        pts = C.enumerate_points()
        G = pts[i % len(pts)]
        orb = orbit(C, G)
        assert len(orb) == C.point_order(G)
        assert orb == [C.mul(j, G) for j in range(len(orb))]

    @settings(max_examples=40, deadline=None)
    @given(small_curves())
    @example(MIXED_PATHS)
    def test_orbit_matches_add_walk(self, C):
        for G in C.enumerate_points():
            assert orbit(C, G) == add_walk_orbit(C, G)

    @settings(max_examples=40, deadline=None)
    @given(small_curves())
    @example(MIXED_PATHS)
    def test_multiples_are_the_affine_multiples(self, C):
        for P in C.enumerate_points():
            pairs = list(multiples(C, P))
            assert len(set(pairs)) == len(pairs) == C.point_order(P) - 1
            assert all(type(x) is int and type(y) is int
                       and C.contains(CurvePoint(x, y)) for x, y in pairs)

    def test_fp_walks_make_no_group_law_call(self, monkeypatch):
        C = MIXED_PATHS
        pts = C.enumerate_points()
        want = [add_walk_orbit(C, G) for G in pts]
        ext_gen = index_table(C, 2).rows[0][1]

        def refused(*args):
            raise AssertionError("group-law call in an F_p walk")

        monkeypatch.setattr(Curve, "_add", refused)
        monkeypatch.setattr(PrimeField, "inv", refused)
        assert [orbit(C, G) for G in pts] == want
        assert [x_multiples(C, G, 30) for G in pts] == [
            [x_formal(orb[m % len(orb)]) for m in range(1, 31)] for orb in want]
        monkeypatch.undo()
        # an F_p^2 generator still walks by the group law
        assert orbit(C, ext_gen) == add_walk_orbit(C, ext_gen)

    def test_orbit_rejects_point_off_curve(self, micro_curve):
        with pytest.raises(ValueError):
            orbit(micro_curve, CurvePoint(0, 0))

    @given(small_curves())
    @example(NON_CYCLIC)
    @example(MIXED_PATHS)
    def test_subgroup_is_the_kernel_of_t(self, C):
        n = C.order()
        pts = C.enumerate_points()
        for t in (t for t in range(1, n + 1) if n % t == 0):
            kernel = [P for P in pts if C.mul(t, P) == INFINITY]
            if len(kernel) == t:
                assert subgroup_of_order(C, t) == tuple(kernel)
            else:
                with pytest.raises(PreconditionError):
                    subgroup_of_order(C, t)

    @given(small_curves())
    @example(NON_CYCLIC)
    def test_generator_found_whenever_order_occurs(self, C):
        n = C.order()
        orders = {C.point_order(P) for P in C.enumerate_points()}
        for t in (t for t in range(2, n + 1) if n % t == 0):
            if t in orders:
                assert C.point_order(subgroup_generator(C, t)) == t
            else:
                with pytest.raises(PreconditionError):
                    subgroup_generator(C, t)


class TestMulInt:
    @settings(max_examples=40, deadline=None)
    @given(small_curves(), st.integers(-10**6, 10**6))
    @example(NON_CYCLIC, 0)
    @example(NON_CYCLIC, 5)  # three points of order 2
    @example(MIXED_PATHS, 7)
    @example(MIXED_PATHS, -13)
    def test_equals_mul(self, C, n):
        for P in C.enumerate_points():  # O first, and every 2-torsion point
            Q = mul_int(C, n, P)
            assert type(Q) is CurvePoint and Q == C.mul(n, P)
            assert Q.is_infinity or (type(Q.x) is int and type(Q.y) is int)

    def test_two_torsion_and_zero(self):
        C = NON_CYCLIC
        torsion = [P for P in C.enumerate_points() if not P.is_infinity]
        assert len(torsion) == 3 and all(P.y == 0 for P in torsion)
        for P in [INFINITY, *torsion]:
            assert mul_int(C, 0, P) == INFINITY
            assert mul_int(C, 2, P) == mul_int(C, -4, P) == INFINITY
            assert mul_int(C, 3, P) == mul_int(C, -1, P) == P
        assert mul_int(C, 10**6, INFINITY) == INFINITY

    def test_rejects_point_off_curve(self, micro_curve):
        with pytest.raises(ValueError):
            mul_int(micro_curve, 3, CurvePoint(0, 0))

    def test_samples_are_the_seeded_multiples(self, monkeypatch):
        # the walk path of the sampled deviation reads each kG off the
        # doublings of its order check with mul_int's additions
        C = Curve(field(1009), 1, 1)
        gen = subgroup_generator(C, 517)
        rng = random.Random(7)
        want = [C.mul(rng.randrange(1, 517), gen) for _ in range(50)]
        fed = fed_to_x_multiples(monkeypatch)
        list(_walk_windows(C, gen, 517, 1, 4, 50, 7))
        assert fed == want


def fed_to_x_multiples(monkeypatch) -> list:
    """The points extract._walk_windows hands x_multiples, one per
    sample in the order they are read, collected into the returned
    list."""
    fed = []
    x_multiples = extract_module.x_multiples

    def recording(curve, P, count):
        fed.append(P)
        return x_multiples(curve, P, count)

    monkeypatch.setattr(extract_module, "x_multiples", recording)
    return fed


def seeded_mul_int(C, gen, t, count, seed):
    """The per-sample form of the sampler: mul_int of each seeded k."""
    rng = random.Random(seed)
    return [mul_int(C, rng.randrange(1, t), gen) for _ in range(count)]


# cyclic of order 16, generated by (2, 4)
CYCLIC_16 = Curve(field(17), 2, 4)


class TestSampleSubgroupPoints:
    """The sampled multiples kG of a generator that the walk path of the
    sampled deviation (extract._walk_windows) feeds x_multiples: read from
    the doublings 2^i G of its tG = O check, for the k of sample_scalars,
    and equal to mul_int's."""

    @pytest.mark.parametrize("t", [2, 4, 8, 16])
    def test_power_of_two_orders(self, monkeypatch, t):
        gen = mul_int(CYCLIC_16, 16 // t, CurvePoint(2, 4))
        assert CYCLIC_16.point_order(gen) == t
        fed = fed_to_x_multiples(monkeypatch)
        for seed in range(4):
            fed.clear()
            rows = list(_walk_windows(CYCLIC_16, gen, t, 1, 3, 40, seed))
            assert fed == seeded_mul_int(CYCLIC_16, gen, t, 40, seed)
            assert len(rows) == 40 and INFINITY not in fed

    def test_order_517(self, monkeypatch):
        C = Curve(field(1009), 1, 1)
        gen = subgroup_generator(C, 517)
        fed = fed_to_x_multiples(monkeypatch)
        for seed in range(3):
            fed.clear()
            list(_walk_windows(C, gen, 517, 4, 8, 70, seed))
            assert fed == seeded_mul_int(C, gen, 517, 70, seed)
            assert all(type(Q) is CurvePoint and type(Q.x) is type(Q.y) is int
                       for Q in fed)

    @settings(max_examples=40, deadline=None)
    @given(small_curves(), st.data())
    def test_equals_mul_int_for_any_t(self, C, data):
        """t need only be a multiple of ord(G): k past ord(G) wraps, kG
        may be O, and the doubling table may reach O part way; a t that
        ord(G) does not divide is refused."""
        gen = data.draw(st.sampled_from(C.enumerate_points()))
        o = C.point_order(gen)
        t = o * data.draw(st.integers(1 if o > 1 else 2, 3))
        seed = data.draw(st.integers(0, 100))
        with pytest.MonkeyPatch.context() as mp:
            fed = fed_to_x_multiples(mp)
            list(_walk_windows(C, gen, t, 1, 2, 20, seed))
        assert fed == seeded_mul_int(C, gen, t, 20, seed)
        bad = data.draw(st.integers(2, 3 * C.order()).filter(lambda u: u % o))
        with pytest.raises(PreconditionError, match="tG != O"):
            next(_walk_windows(C, gen, bad, 1, 2, 20, seed))

    def test_scalars_of_the_points(self, monkeypatch):
        """The points are mul_int of the scalars sample_scalars draws."""
        C = Curve(field(1009), 1, 1)
        gen = subgroup_generator(C, 517)
        fed = fed_to_x_multiples(monkeypatch)
        for seed in range(3):
            rng = random.Random(seed)
            ks = list(sample_scalars(517, 40, seed))
            assert ks == [rng.randrange(1, 517) for _ in range(40)]
            fed.clear()
            list(_walk_windows(C, gen, 517, 1, 4, 40, seed))
            assert fed == [mul_int(C, k, gen) for k in ks]

    def test_streams(self, monkeypatch):
        """Points are drawn as they are read: at 10^12 samples, the first
        row needs only the first kG, and each further row one more."""
        C = Curve(field(1009), 1, 1)
        gen = subgroup_generator(C, 517)
        fed = fed_to_x_multiples(monkeypatch)
        rows = _walk_windows(C, gen, 517, 1, 4, 10**12, 0)
        next(rows)
        assert fed == seeded_mul_int(C, gen, 517, 1, 0)
        for _ in range(40):
            next(rows)
        assert fed == seeded_mul_int(C, gen, 517, 41, 0)

    def test_rejects_generator_off_curve(self, micro_curve):
        with pytest.raises(ValueError, match="is not on"):
            next(_walk_windows(micro_curve, CurvePoint(0, 0), 5, 1, 4, 1, 0))


class TestDivisionPoints:
    def test_n_one_returns_q(self, micro_curve):
        Q = CurvePoint(2, 5)
        assert rational_division_points(micro_curve, 1, Q) == [Q]

    def test_halving_hand_example(self, micro_curve):
        got = rational_division_points(micro_curve, 2, CurvePoint(0, 1))
        assert got == [CurvePoint(2, 2)]
        assert micro_curve.mul(2, CurvePoint(2, 2)) == CurvePoint(0, 1)

    def test_coset_closure(self, micro_curve):
        Q = CurvePoint(0, 1)
        members = rational_division_points(micro_curve, 2, Q)
        torsion = rational_division_points(micro_curve, 2, INFINITY)
        for P in members:
            for T in torsion:
                assert micro_curve.add(P, T) in members

    def test_rational_torsion_size_divides_n_squared(self):
        for p, a, b in [(7, 1, 1), (7, 0, 6), (11, 1, 1), (13, 1, 6)]:
            C = Curve(field(p), a, b)
            for n in (2, 3, 4):
                tor = rational_division_points(C, n, INFINITY)
                assert n * n % len(tor) == 0

    def test_ext_contains_base_members(self, micro_curve):
        # over the closure #E[2, Q] = #E[2] = 4, but only closure points
        # with F_49-rational coordinates are enumerable here
        base = rational_division_points(micro_curve, 2, CurvePoint(0, 1), ext=1)
        extended = rational_division_points(micro_curve, 2, CurvePoint(0, 1), ext=2)
        ext_set = {(P.x, P.y) for P in extended if not P.is_infinity}
        for P in base:
            assert (P.x, P.y) in ext_set  # Fp2 == int comparison
        assert len(extended) >= len(base)

    def test_ext_full_torsion_coset(self):
        # x^3 + 6 splits over F_7, so E[2] is fully rational and ext=2
        # must find exactly the same four members as ext=1
        C = Curve(field(7), 0, 6)
        base = rational_division_points(C, 2, INFINITY, ext=1)
        extended = rational_division_points(C, 2, INFINITY, ext=2)
        assert len(base) == 4
        assert len(extended) == 4

    def test_ext_members_verify(self, micro_curve):
        Q = CurvePoint(0, 1)
        for P in rational_division_points(micro_curve, 3, Q, ext=2):
            assert micro_curve.contains(P)
            assert micro_curve.mul(3, P) == Q

    def test_budget(self):
        # #E(F_p^2) is about p^2 = 10^6, over index_table's 10^5 for ext 2
        C = Curve(field(1009), 1, 1)
        with pytest.raises(ResourceBudgetError, match="exceeds budget 100000"):
            rational_division_points(C, 2, INFINITY, ext=2)


@functools.lru_cache(maxsize=4)
def points_over(C, ext):
    """Every point of E(F_p) (ext=1) or E(F_p^2) (ext=2), the latter by
    lifting each of the p^2 x-coordinates through the curve equation."""
    if ext == 1:
        return tuple(C.enumerate_points())
    F = C.field
    pts = [INFINITY]
    for re in range(C.p):
        for im in range(C.p):
            x = Fp2(F, re, im)
            y = C.rhs(x).sqrt()
            if y is not None:
                pts.append(CurvePoint(x, y))
                if not y.is_zero():
                    pts.append(CurvePoint(x, -y))
    return tuple(pts)


@functools.lru_cache(maxsize=8)
def multiples_over(C, ext, n):
    """nP for every P of points_over(C, ext), by Curve.mul."""
    return tuple(C.mul(n, P) for P in points_over(C, ext))


def scan_division_points(C, n, Q, ext):
    """Oracle: the division points by scanning E(F_p^ext) and testing
    nP = Q with Curve.mul."""
    return [P for P, R in zip(points_over(C, ext), multiples_over(C, ext, n))
            if R == Q]


class TestDivisionPointTable:
    @settings(max_examples=30, deadline=None)
    @given(small_curves(), st.sampled_from([1, 2]), st.integers(1, 6),
           st.sampled_from(["O", "P0", "random", "no division points"]),
           st.integers(0, 10**6))
    @example(NON_CYCLIC, 1, 2, "no division points", 0)
    @example(NON_CYCLIC, 2, 2, "no division points", 0)
    @example(NON_CYCLIC, 2, 6, "random", 5)
    @example(MIXED_PATHS, 2, 2, "no division points", 0)
    @example(MIXED_PATHS, 2, 4, "random", 7)
    @example(MIXED_PATHS, 1, 6, "P0", 0)
    def test_table_equals_scan(self, C, ext, n, which, i):
        pts = points_over(C, ext)
        if which == "O":
            Q = INFINITY
        elif which == "P0":
            Q = CurvePoint(Fp2(C.field, 0), Fp2(C.field, C.b).sqrt())
        elif which == "random":
            Q = pts[i % len(pts)]
        else:
            lonely = sorted(set(pts) - set(multiples_over(C, ext, n)), key=repr)
            Q = lonely[i % len(lonely)] if lonely else pts[i % len(pts)]
        got = rational_division_points(C, n, Q, ext)
        want = scan_division_points(C, n, Q, ext)
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == set(want)
        if which == "no division points" and Q not in multiples_over(C, ext, n):
            assert got == []

    @settings(max_examples=20, deadline=None)
    @given(small_curves(), st.sampled_from([1, 2]), st.integers(0, 10**6))
    @example(NON_CYCLIC, 1, 0)
    @example(NON_CYCLIC, 2, 0)
    @example(MIXED_PATHS, 2, 0)
    def test_table_indexes_the_whole_group(self, C, ext, i):
        T = index_table(C, ext)
        pts = points_over(C, ext)
        assert len(T.index) == len(pts) == order_over(C, ext) == T.d1 * T.d2
        assert set(T.index) == set(pts)
        assert all(C.contains(P) for P in T.index)
        assert T.d2 % T.d1 == 0
        G1 = T.rows[1][0] if T.d1 > 1 else INFINITY
        G2 = T.rows[0][1] if T.d2 > 1 else INFINITY
        assert C.point_order(G1, None, len(pts)) == T.d1
        assert C.point_order(G2, None, len(pts)) == T.d2
        row, col = i % T.d1, (i // T.d1) % T.d2
        P = T.rows[row][col]
        assert T.index[P] == (row, col)
        assert P == C.add(C.mul(row, G1), C.mul(col, G2))

    def test_non_cyclic_examples(self):
        # E(F_7) = Z/2 x Z/2 for y^2 = x^3 + 6; over F_49 both F_7 examples
        # are Z/4 x Z/12
        assert (index_table(NON_CYCLIC, 1).d1, index_table(NON_CYCLIC, 1).d2) == (2, 2)
        for C in (NON_CYCLIC, MIXED_PATHS):
            T = index_table(C, 2)
            assert (T.d1, T.d2) == (4, 12)

    @pytest.mark.parametrize("ext", [1, 2])
    def test_budget_refused_before_sampling(self, monkeypatch, ext):
        def no_sample(*args):
            raise AssertionError("a point sampled over the budget")

        sample = curve_module._random_point
        n = order_over(NON_CYCLIC, ext)
        monkeypatch.setitem(curve_module.TABLE_BUDGET, ext, n - 1)
        monkeypatch.setattr(curve_module, "_random_point", no_sample)
        with pytest.raises(ResourceBudgetError,
                           match=rf"^#E\(F_p\^{ext}\) = {n} exceeds budget {n - 1}$"):
            index_table(NON_CYCLIC, ext)
        assert index_table.cache_info().currsize == 0
        monkeypatch.setitem(curve_module.TABLE_BUDGET, ext, n)
        monkeypatch.setattr(curve_module, "_random_point", sample)
        assert len(index_table(NON_CYCLIC, ext).index) == n

    def test_short_table_refused(self, monkeypatch):
        full_rows = curve_module._rows
        monkeypatch.setattr(curve_module, "_rows", lambda *args: full_rows(*args)[:-1])
        index_table.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="distinct points"):
                index_table(NON_CYCLIC, 2)
        finally:
            index_table.cache_clear()

    def test_no_generators_within_the_samples(self, monkeypatch):
        monkeypatch.setattr(curve_module, "TABLE_SAMPLES", 0)
        index_table.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="no generators"):
                index_table(NON_CYCLIC, 2)
        finally:
            index_table.cache_clear()

    def test_order_over_f_p2(self):
        # #E(F_p^2) = #E(F_p) * #E'(F_p) for the quadratic twist E'
        for p, a, b in [(7, 1, 1), (11, 1, 1), (13, 1, 6), (7, 0, 6)]:
            C = Curve(field(p), a, b)
            twist = 2 * (p + 1) - C.order()
            assert order_over(C, 2) == C.order() * twist == len(points_over(C, 2))


def f_p2_image(C, P):
    """P with its coordinates as Fp2 elements (O stays O)."""
    if P.is_infinity:
        return INFINITY
    return CurvePoint(Fp2(C.field, P.x), Fp2(C.field, P.y))


class TestPointValues:
    @settings(max_examples=25, deadline=None)
    @given(small_curves())
    @example(NON_CYCLIC)
    @example(MIXED_PATHS)
    def test_f_p_point_is_its_f_p2_image(self, C):
        pts = C.enumerate_points()
        images = [f_p2_image(C, P) for P in pts]
        index = index_table(C, 2).index
        off = Fp2(C.field, 0, 1)  # (y + sqrt(d))^2 - y^2 = 2y sqrt(d) + d != 0
        for P, image in zip(pts, images):
            assert P == image and image == P and hash(P) == hash(image)
            assert index[P] == index[image]
            assert C.contains(image)
            assert image.is_infinity or not C.contains(CurvePoint(image.x, image.y + off))
        for P in pts:
            for Q, Q_image in zip(pts, images):
                assert C._add(P, Q_image) == C._add(P, Q)
                assert C._add(Q_image, P) == C._add(Q, P)

    def test_pickle_round_trip(self, micro_curve):
        T = index_table(NON_CYCLIC, 2)
        for P in [INFINITY, *micro_curve.enumerate_points(), T.rows[1][1]]:
            back = pickle.loads(pickle.dumps(P))
            assert type(back) is CurvePoint
            assert back == P and hash(back) == hash(P)
            assert back.is_infinity == P.is_infinity

    def test_repr(self, micro_curve):
        F = micro_curve.field  # sqrt(3) adjoined: 3 is the least non-residue mod 7
        assert repr(INFINITY) == "O"
        assert repr(CurvePoint(2, 5)) == "(2, 5)"
        assert repr(CurvePoint(Fp2(F, 3, 1), Fp2(F, 2))) == "(Fp2(3+1*sqrt(3)), Fp2(2))"
        assert [repr(P) for P in micro_curve.enumerate_points()] == [
            "O", "(0, 1)", "(0, 6)", "(2, 2)", "(2, 5)"]

    @pytest.mark.parametrize("C", [NON_CYCLIC, MIXED_PATHS])
    def test_sort_order(self, C):
        def coordinates(P):  # O first, then x, then y, each as (re, im)
            if P.is_infinity:
                return ()
            return tuple(v for c in P for v in (c.re, c.im))

        pts = C.enumerate_points()
        assert sorted(pts[::-1], key=_point_key) == pts
        assert [P.x for P in pts[1:]] == sorted(P.x for P in pts[1:])
        ext = list(points_over(C, 2))
        assert sorted(ext[::-1], key=_point_key) == sorted(ext, key=coordinates)


def draw_point(draw, C):
    """O, an F_p point with int coordinates, its Fp2 image, or a point of
    E(F_p^2): the first point at or after a drawn x, with a drawn sign of y."""
    kind = draw(st.sampled_from(["O", "int", "image", "ext"]))
    p, sign = C.p, draw(st.sampled_from([1, -1]))
    if kind == "O":
        return INFINITY
    if kind != "ext":
        u = draw(st.integers(0, p - 1))
        row = next(r for k in range(p) if (r := C.points_by_x((u + k) % p)))
        P = row[0] if sign == 1 else row[-1]
        return P if kind == "int" else f_p2_image(C, P)
    start = draw(st.integers(0, p * p - 1))
    for k in range(p * p):
        x = Fp2(C.field, *divmod((start + k) % (p * p), p))
        y = C.rhs(x).sqrt()
        if y is not None:
            return CurvePoint(x, sign * y)
    raise AssertionError("E(F_p^2) has an affine point")


class TestAddOverFp2:
    @settings(max_examples=200, deadline=None)
    @given(small_curves(p_max=101), st.data())
    def test_add_matches_fp2_object_oracle(self, C, data):
        """Curve._add against the chord-and-tangent formulas on Fp2
        objects: chords, doubling (Q = P or its image), P + (-P), O, and
        int coordinates mixed with Fp2 ones."""
        P = draw_point(data.draw, C)
        relation = data.draw(st.sampled_from(["any", "same", "image", "neg"]))
        if relation == "any":
            Q = draw_point(data.draw, C)
        elif relation == "same":
            Q = P
        elif relation == "image":
            Q = f_p2_image(C, P) if isinstance(P.x, int) else P
        else:
            Q = C.neg(P)
        R = C._add(P, Q)
        assert R == add_fp2(C, P, Q)
        assert C.contains(R)
        if relation == "neg":
            assert R.is_infinity
        if not R.is_infinity and (isinstance(P.x, Fp2) or isinstance(Q.x, Fp2)):
            assert isinstance(R.x, Fp2) and isinstance(R.y, Fp2)


class TestSqrtInBaseOrExt:
    def test_zero(self):
        assert Fp2(field(7), 0).sqrt() == 0

    def test_residue_stays_in_base(self):
        r = Fp2(field(7), 2).sqrt()
        assert r.im == 0 and r.re == 3

    def test_nonresidue_goes_to_extension(self):
        r = Fp2(field(7), 3).sqrt()
        assert r.im != 0 and r.re == 0
        assert r * r == 3

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_square_roundtrip_all_residues(self, p):
        F = field(p)
        for u in range(p):
            r = Fp2(F, u).sqrt()
            assert r * r == u
            assert (r.im == 0) == (F.chi(u) >= 0)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2 * 3 * 5 * 7 * 11 * 13) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1}
