import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import oracles
import pytest
from conftest import small_curves, x_formal
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BitWindow,
    ChiSquareReport,
    chi_square_uniformity,
    count_A,
    delta_over_points,
    fourier_count_A,
    lsb_string,
    x_rows,
)

import ecbits.charsum as charsum_module
import ecbits.curve as curve_module
import ecbits.extract as extract_module
from ecbits.charsum import (
    BLOCK_MIN,
    BoundReport,
    sum_V,
    window_table,
    x_multiples,
)
from ecbits.curve import (
    INFINITY,
    Curve,
    CurvePoint,
    FoundCurve,
    SUBGROUP_BUDGET,
    GroupStructure,
    IndexTable,
    factorize,
    mul_int,
    multiples,
    orbit,
    subgroup_generator,
    subgroup_of_order,
    torsion_doublings,
)
from ecbits.extract import (
    DeviationReport,
    _check_code_budget,
    _check_pattern_budget,
    _codes,
    _pattern_counts,
    _reads_table,
    _table_windows,
    _walk_windows,
    bitstream,
    delta,
    pack_bits,
    sampled_deviation,
)
from ecbits.field import PreconditionError, ResourceBudgetError, field, primes_upto


class TestLsbString:
    def test_zero(self):
        assert lsb_string(0, 3, 11) == "000"

    def test_hand_example(self):
        # 5 = 101 in binary, last two bits "01"
        assert lsb_string(5, 2, 7) == "01"

    def test_window_too_wide_rejected(self):
        with pytest.raises(ValueError):
            lsb_string(1, 3, 7)

    @pytest.mark.parametrize("p", [11, 13, 101])
    def test_reconstruction_roundtrip(self, p):
        # x = 2^ell y + sigma_bar, and lam (x - sigma_bar) = y in F_p,
        # with 0 <= y <= L + 1 - 1 ... the L definition counts exactly
        # the y values that keep x below p
        F = field(p)
        for ell in (1, 2, 3):
            lam = F.inv(1 << ell)
            for x in range(p):
                sigma = lsb_string(x, ell, p)
                sbar = int(sigma, 2)
                y = (x - sbar) >> ell
                assert x == (y << ell) + sbar
                assert lam * (x - sbar) % p == y

    @pytest.mark.parametrize("p", [11, 13, 101])
    def test_L_counts_admissible_high_parts(self, p):
        for ell in (1, 2):
            for sbar in range(1 << ell):
                spec = BitWindow(1, ell, 1, (format(sbar, f"0{ell}b"),))
                L = spec.L_values(p)[0]
                members = [x for x in range(p) if x % (1 << ell) == sbar]
                assert len(members) == L + 1
                assert max(members) == (L << ell) + sbar


class TestBitWindow:
    @pytest.mark.parametrize("args,message", [
        ((0, 1, 1, ()), "k, ell, N must be positive"),
        ((1, 0, 1, ("",)), "k, ell, N must be positive"),
        ((1, 1, 0, ("0",)), "k, ell, N must be positive"),
        ((1, 1, -2, ("0",)), "k, ell, N must be positive"),
        ((2, 1, 1, ("0",)), "need 2 bit strings, got 1"),
        ((1, 2, 1, ("0",)), "bad 2-bit string '0'"),
        ((1, 2, 1, ("02",)), "bad 2-bit string '02'"),
        ((2, 1, 1, ("1", "x")), "bad 1-bit string 'x'"),
    ])
    def test_rejects_bad_window(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BitWindow(*args)

    def test_keywords_and_properties(self):
        spec = BitWindow(k=2, ell=2, N=3, sigma=("01", "11"))
        assert spec == BitWindow(2, 2, 3, ("01", "11"))
        assert spec.sigma_bar == (1, 3)
        assert spec.L_values(11) == (2, 1)


# field names, in order, of every record type; a record is a NamedTuple
@pytest.mark.parametrize("record,fields", [
    (BoundReport, ("lhs", "rhs_terms")),
    (GroupStructure, ("order", "d1", "d2", "gen1", "gen2")),
    (IndexTable, ("d1", "d2", "rows", "index")),
    (FoundCurve, ("curve", "order", "factors", "t", "structure", "rejected")),
    (BitWindow, ("k", "ell", "N", "sigma")),
    (DeviationReport, ("k", "ell", "N", "p", "t", "expected", "per_point", "total",
                       "total_excluding_infinity", "bound_constant", "bound_value")),
    (ChiSquareReport, ("statistic", "dof", "blocks", "counts")),
])
def test_record_fields(record, fields):
    assert record._fields == fields


def test_record_properties():
    rep = BoundReport(lhs=6.0, rhs_terms=[("a", 1.0), ("b", 3.0)])
    assert (rep.rhs_total, rep.ratio) == (4.0, 1.5)
    assert rep.within(1.5) and not rep.within(1.4)
    dev = DeviationReport(1, 1, 2, 7, 5, Fraction(1), [], Fraction(3), Fraction(3),
                          1.0, 2.0)
    assert dev.ratio == 1.5


class TestCountA:
    def test_single_index(self, micro_curve):
        R = CurvePoint(0, 1)
        spec0 = BitWindow(1, 1, 1, ("0",))
        spec1 = BitWindow(1, 1, 1, ("1",))
        assert count_A(micro_curve, R, spec0) == 1  # x(R) = 0 is even
        assert count_A(micro_curve, R, spec1) == 0

    def test_hand_example(self, micro_curve):
        # x(nR) = 0, 2, 2, 0 for n = 1..4: all even
        R = CurvePoint(0, 1)
        assert count_A(micro_curve, R, BitWindow(1, 1, 4, ("0",))) == 4

    def test_matches_lsb_string_definition(self, micro_curve, micro_points):
        for R in micro_points:
            for sigma in ("0", "1"):
                spec = BitWindow(1, 1, 4, (sigma,))
                want = 0
                for n in range(1, 5):
                    x = x_formal(micro_curve.mul(n, R))
                    want += lsb_string(x, 1, 7) == sigma
                assert count_A(micro_curve, R, spec) == want

    @pytest.mark.parametrize("k,ell,N", [(1, 1, 6), (1, 2, 5), (2, 1, 4), (2, 2, 3)])
    def test_partition_identity(self, k, ell, N):
        C = Curve(field(11), 1, 1)
        for R in (CurvePoint(0, 1), INFINITY, C.mul(3, CurvePoint(0, 1))):
            total = 0
            for sig in itertools.product(range(1 << ell), repeat=k):
                spec = BitWindow(k, ell, N, tuple(format(s, f"0{ell}b") for s in sig))
                total += count_A(C, R, spec)
            assert total == N**k


class TestFourierIdentity:
    @pytest.mark.parametrize("p,a,b", [(7, 1, 1), (11, 1, 1), (13, 1, 6)])
    def test_direct_equals_character_expansion(self, p, a, b):
        C = Curve(field(p), a, b)
        pts = C.enumerate_points()
        for R in pts[:3]:
            for N in (1, 2, 4):
                for sigma in ("0", "1"):
                    spec = BitWindow(1, 1, N, (sigma,))
                    direct = count_A(C, R, spec)
                    expanded = fourier_count_A(C, R, spec)
                    assert abs(expanded - direct) < 1e-6

    def test_wider_windows_and_higher_dimension(self):
        # the expansion also has to hold for 2-bit windows and k = 2
        C = Curve(field(11), 1, 1)
        R = CurvePoint(0, 1)
        for spec in (
            BitWindow(1, 2, 3, ("01",)),
            BitWindow(1, 2, 3, ("10",)),
            BitWindow(2, 1, 2, ("0", "1")),
            BitWindow(2, 1, 3, ("1", "1")),
        ):
            direct = count_A(C, R, spec)
            expanded = fourier_count_A(C, R, spec)
            assert abs(expanded - direct) < 1e-6

    def test_zero_vector_term_bound(self):
        # (L_1+1)...(L_k+1) N^k / p^k deviates from 2^-kl N^k by at most
        # k 2^-(k-1)l N^k / p
        for p in (7, 11, 13, 31):
            for k in (1, 2):
                for ell in (1, 2):
                    if 1 << ell >= p:
                        continue
                    for N in (2, 4):
                        for sig in itertools.product(range(1 << ell), repeat=k):
                            spec = BitWindow(
                                k, ell, N,
                                tuple(format(s, f"0{ell}b") for s in sig),
                            )
                            Ls = spec.L_values(p)
                            zero_term = math.prod(L + 1 for L in Ls) * N**k / p**k
                            main = N**k / (1 << (k * ell))
                            cap = k * N**k / (1 << ((k - 1) * ell)) / p
                            assert abs(zero_term - main) <= cap + 1e-12


# a generator of the micro curve's group, of prime order 5
MICRO_G = CurvePoint(0, 1)


class TestDelta:
    def test_degenerate_subgroup(self, micro_curve):
        rep = delta(micro_curve, INFINITY, 1, 1, 1, 4)
        assert rep.total == Fraction(4, 2)  # A("0") = N, deviation N/2

    def test_hand_example_total_10(self, micro_curve, micro_points):
        rep = delta(micro_curve, MICRO_G, 5, 1, 1, 4)
        assert rep.total == 10
        assert rep.expected == 2
        assert all(dev == 2 for _, dev in rep.per_point)
        assert rep.total_excluding_infinity == 8

    def test_termwise_cap(self, micro_curve, micro_points):
        for k, ell, N in [(1, 1, 4), (1, 2, 3), (2, 1, 3)]:
            rep = delta(micro_curve, MICRO_G, 5, k, ell, N)
            assert rep.total <= len(micro_points) * N**k

    def test_set_semantics(self, micro_curve, micro_points):
        shuffled = list(micro_points)
        random.Random(1).shuffle(shuffled)
        a = delta_over_points(micro_curve, micro_points, 1, 1, 4)
        b = delta_over_points(micro_curve, shuffled + [INFINITY], 1, 1, 4)
        assert a.total == b.total
        assert a.per_point == b.per_point

    def test_gcd_precondition_named(self, micro_curve):
        with pytest.raises(PreconditionError, match="gcd") as from_delta:
            delta(micro_curve, MICRO_G, 5, 1, 1, 5)
        with pytest.raises(PreconditionError) as from_v:
            sum_V(micro_curve, 5, (1,), 5)
        with pytest.raises(PreconditionError) as from_sampled:
            sampled_deviation(micro_curve, CurvePoint(0, 1), 5, 1, 1, 5, 1, 0)
        assert str(from_delta.value) == str(from_v.value) == str(from_sampled.value)

    def test_p_greater_than_k_named(self, micro_curve, micro_points):
        with pytest.raises(PreconditionError, match="p > k"):
            delta(micro_curve, MICRO_G, 5, 7, 1, 4)

    def test_generator_off_the_curve(self, micro_curve):
        with pytest.raises(ValueError, match="is not on"):
            delta(micro_curve, CurvePoint(0, 0), 5, 1, 1, 4)

    def test_order_not_dividing_t_named(self, micro_curve):
        # 7G = 2G != O; the window table and the sampled deviation refuse
        # it with the same words
        with pytest.raises(PreconditionError, match="tG != O") as from_delta:
            delta(micro_curve, MICRO_G, 7, 1, 1, 4)
        with pytest.raises(PreconditionError) as from_table:
            window_table(micro_curve, MICRO_G, 7, 1)
        with pytest.raises(PreconditionError) as from_sampled:
            sampled_deviation(micro_curve, MICRO_G, 7, 1, 1, 4, 1, 0)
        assert str(from_delta.value) == str(from_table.value) == str(
            from_sampled.value)

    @pytest.mark.parametrize("G,t", [(MICRO_G, 25), (INFINITY, 5)],
                             ids=["order-5-of-25", "O-of-5"])
    def test_order_below_t_named(self, micro_curve, G, t):
        # tG = O, but the walk of G ends before t // 2 points
        with pytest.raises(PreconditionError, match="ord\\(G\\) < t"):
            delta(micro_curve, G, t, 1, 1, 4)

    def test_exact_rational_arithmetic(self):
        C = Curve(field(11), 1, 1)
        rep = delta(C, subgroup_generator(C, 7), 7, 1, 2, 3)
        assert rep.expected == Fraction(3, 4)
        assert rep.total.denominator in (1, 2, 4)


def per_point_sampled_deviation(C, gen, t, ell, N, samples, seed):
    """The per-point form sampled_deviation replaced, kept as its oracle:
    each seeded kG by the group law, one walk per point, and the float
    mean of the relative worst deviations."""
    rng = random.Random(seed)
    devs = []
    for _ in range(samples):
        xs = x_multiples(C, C.mul(rng.randrange(1, t), gen), N)
        counts = Counter(x % (1 << ell) for x in xs)
        worst = max(abs(counts[w] * (1 << ell) - N) for w in range(1 << ell))
        devs.append(worst / (N << ell))
    return {"samples": samples, "seed": seed,
            "mean_rel_deviation": sum(devs) / len(devs),
            "max_rel_deviation": max(devs)}


class TestSampledDeviation:
    # t = 181 on y^2 = x^3 + x + 2 over F_10007, coprime to 32!
    C = Curve(field(10007), 1, 2)
    T = 181

    @pytest.mark.parametrize("ell", [1, 4])
    @pytest.mark.parametrize("samples", [1, 33, 70])
    def test_equals_per_point_oracle(self, ell, samples):
        # N * 2^ell is a power of two, so the two means agree exactly
        gen = subgroup_generator(self.C, self.T)
        for N, seed in [(16, 0), (32, 5)]:
            got = sampled_deviation(self.C, gen, self.T, 1, ell, N, samples, seed)
            assert got == per_point_sampled_deviation(self.C, gen, self.T, ell, N,
                                                      samples, seed)

    @pytest.mark.parametrize("ell", [1, 4])
    def test_other_n_within_rounding(self, ell):
        # N = 24: one division of the integer sum against the float mean
        gen = subgroup_generator(self.C, self.T)
        got = sampled_deviation(self.C, gen, self.T, 1, ell, 24, 45, 3)
        want = per_point_sampled_deviation(self.C, gen, self.T, ell, 24, 45, 3)
        assert got["max_rel_deviation"] == want["max_rel_deviation"]
        assert math.isclose(got["mean_rel_deviation"], want["mean_rel_deviation"],
                            rel_tol=1e-15)


_C_1009 = Curve(field(1009), 1, 1)  # cyclic of order 1034 = 2 * 11 * 47

# (curve, generator, t): odd and even t, t in {2, 3, 4}, and blocks of
# J = 1..16 baby multiples in window_table
_SAMPLED_GROUPS = [
    (Curve(field(10007), 1, 2), None, 181),
    (_C_1009, CurvePoint(0, 1), 517),
    (_C_1009, CurvePoint(1, 149), 1034),
    (_C_1009, CurvePoint(92, 296), 94),
    (_C_1009, CurvePoint(27, 192), 11),
    (_C_1009, 517, 2),
    (Curve(field(7), 0, 1), CurvePoint(0, 1), 3),
    (Curve(field(17), 2, 4), CurvePoint(0, 15), 4),
]


def _sampled_group(i):
    """(curve, gen, t) of _SAMPLED_GROUPS, an int m standing for the point
    m * (1, 149) of _C_1009, None for subgroup_generator's."""
    C, gen, t = _SAMPLED_GROUPS[i]
    if gen is None:
        gen = subgroup_generator(C, t)
    elif isinstance(gen, int):
        gen = mul_int(C, gen, CurvePoint(1, 149))
    assert C.point_order(gen) == t
    return C, gen, t


class _Spy:
    """Counts the calls of a function and forwards them."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _forced(rule):
    """_reads_table replaced by a constant, to run one path on purpose."""
    return lambda t, N, samples: rule


class TestSampledPaths:
    """The window-table path of sampled_deviation against the walk path."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_path_equals_walk_path(self, data):
        C, gen, t = _sampled_group(data.draw(st.integers(0, len(_SAMPLED_GROUPS) - 1)))
        ell = data.draw(st.sampled_from([1, 4, 9]))
        N = data.draw(st.integers(1, 40))
        samples = data.draw(st.integers(1, 96))
        seed = data.draw(st.integers(0, 10**6))
        args = (C, gen, t, ell, N, samples, seed)
        # the same windows of the same sampled points, in the same order
        assert list(_table_windows(*args)) == list(_walk_windows(*args))
        if ell < (C.p - 1).bit_length() and all(t % q for q in primes_upto(N)):
            got = {}
            for rule in (True, False):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(extract_module, "_reads_table", _forced(rule))
                    got[rule] = sampled_deviation(C, gen, t, 1, ell, N, samples, seed)
            assert got[True] == got[False]

    @pytest.mark.parametrize("N", [BLOCK_MIN - 1, BLOCK_MIN, 3 * BLOCK_MIN])
    def test_table_path_equals_walk_path_past_block_min(self, N):
        # from BLOCK_MIN multiples on, x_multiples reads each walked kG
        # in giant-step blocks: the kG of order 517 and 1034 take them,
        # and one of order at most 94 meets O in a block and walks
        for i in (1, 2):  # t = 517 and 1034
            C, gen, t = _sampled_group(i)
            args = (C, gen, t, 4, N, 60, i)
            assert list(_table_windows(*args)) == list(_walk_windows(*args))

    def test_rule_at_the_crossover(self):
        # t // 2 = 90 against samples * (N - 1)
        assert _reads_table(181, 91, 1) and not _reads_table(181, 90, 1)
        assert _reads_table(181, 16, 6) and not _reads_table(181, 16, 5)
        # the oracle tests above: samples = 1 walks, 33 and 70 read the table
        for N in (16, 32):
            assert not _reads_table(181, N, 1)
            assert _reads_table(181, N, 33) and _reads_table(181, N, 70)
        big = SUBGROUP_BUDGET
        assert _reads_table(big, 2, big)
        assert not _reads_table(big + 1, 2, big) and not _reads_table(big + 2, 2, big)

    @pytest.mark.parametrize("N,samples,table", [
        (91, 1, True), (90, 1, False), (16, 6, True), (16, 5, False),
        (16, 33, True), (16, 1, False)])
    def test_sampled_deviation_takes_the_chosen_path(self, monkeypatch, N, samples,
                                                    table):
        C, gen, t = _sampled_group(0)
        want = sampled_deviation(C, gen, t, 1, 4, N, samples, 2)
        tables = _Spy(extract_module.window_table)
        walks = _Spy(extract_module.x_multiples)
        monkeypatch.setattr(extract_module, "window_table", tables)
        monkeypatch.setattr(extract_module, "x_multiples", walks)
        assert sampled_deviation(C, gen, t, 1, 4, N, samples, 2) == want
        assert (tables.calls, walks.calls) == ((1, 0) if table else (0, samples))

    def test_subgroup_budget_sends_a_large_t_to_the_walks(self, monkeypatch):
        C, gen, t = _sampled_group(0)
        want = sampled_deviation(C, gen, t, 1, 4, 16, 33, 0)
        monkeypatch.setattr(curve_module, "SUBGROUP_BUDGET", t - 1)
        tables = _Spy(extract_module.window_table)
        monkeypatch.setattr(extract_module, "window_table", tables)
        assert sampled_deviation(C, gen, t, 1, 4, 16, 33, 0) == want
        assert tables.calls == 0

    def test_table_path_cost(self, monkeypatch):
        # t = 719, t // 2 = 359: 14 blocks of 2J + 1 = 27 multiples, one
        # inversion each, where the walks would take 70 * 31 steps
        C = Curve(field(20011), 1, 2)
        gen = subgroup_generator(C, 719)
        want = sampled_deviation(C, gen, 719, 1, 4, 32, 70, 1)
        inversions = []

        def counting_pow(*args):
            inversions.append(args)
            return pow(*args)

        def no_walk(*args):
            raise AssertionError("the table path walks no sample")

        monkeypatch.setattr(charsum_module, "pow", counting_pow, raising=False)
        monkeypatch.setattr(extract_module, "x_multiples", no_walk)
        assert sampled_deviation(C, gen, 719, 1, 4, 32, 70, 1) == want
        assert len(inversions) == -(-359 // (2 * math.isqrt(179) + 1)) == 14

    def test_generator_off_the_curve(self):
        C, _, t = _sampled_group(0)
        for samples in (1, 33):  # the walks, then the table
            with pytest.raises(ValueError, match="is not on"):
                sampled_deviation(C, CurvePoint(1, 1), t, 1, 4, 16, samples, 0)

    def test_checks_on_both_paths(self, monkeypatch):
        C, gen, t = _sampled_group(0)
        monkeypatch.setattr(extract_module, "CODE_BUDGET", 15)
        for samples in (1, 33):
            with pytest.raises(PreconditionError, match="support k = 1"):
                sampled_deviation(C, gen, t, 2, 4, 16, samples, 0)
            with pytest.raises(PreconditionError, match="gcd"):
                sampled_deviation(C, gen, 2 * t, 1, 4, 16, samples, 0)
            with pytest.raises(PreconditionError, match="2\\^ell"):
                sampled_deviation(C, gen, t, 1, 14, 16, samples, 0)
            with pytest.raises(ResourceBudgetError, match="codes per point"):
                sampled_deviation(C, gen, t, 1, 4, 16, samples, 0)
        with pytest.raises(PreconditionError, match="samples >= 1"):
            sampled_deviation(C, gen, t, 1, 4, 16, 0, 0)

    def test_generator_outside_the_order_t_subgroup(self):
        # (0, 1) has order 517 on _C_1009, which does not divide t = 11:
        # neither path may read its multiples as an order-11 subgroup
        for samples in (1, 33):
            with pytest.raises(PreconditionError, match="tG != O"):
                sampled_deviation(_C_1009, CurvePoint(0, 1), 11, 1, 1, 4, samples, 0)

    @pytest.mark.parametrize("samples,table", [(1, False), (33, True)])
    def test_one_order_check_per_run(self, monkeypatch, samples, table):
        # tG = O is checked once: by window_table on the table path, by
        # _walk_windows, whose doublings then give the kG, on the walks
        C, gen, t = _sampled_group(0)
        want = sampled_deviation(C, gen, t, 1, 4, 16, samples, 0)
        checks = _Spy(curve_module.torsion_doublings)
        for module in (charsum_module, extract_module):
            monkeypatch.setattr(module, "torsion_doublings", checks)
        tables = _Spy(extract_module.window_table)
        monkeypatch.setattr(extract_module, "window_table", tables)
        assert sampled_deviation(C, gen, t, 1, 4, 16, samples, 0) == want
        assert (checks.calls, tables.calls) == (1, int(table))


class TestBitstream:
    def test_single_bit_parity(self, micro_curve):
        assert bitstream(micro_curve, CurvePoint(0, 1), 1, 1, 1) == "0"
        assert bitstream(micro_curve, CurvePoint(2, 2), 1, 1, 1) == "0"

    def test_hand_example(self, micro_curve):
        assert bitstream(micro_curve, CurvePoint(0, 1), 1, 1, 4) == "0000"

    def test_length(self, micro_curve):
        C = Curve(field(11), 1, 1)
        R = CurvePoint(0, 1)
        for k, ell, N in [(1, 1, 5), (1, 2, 4), (2, 1, 3)]:
            assert len(bitstream(C, R, k, ell, N)) == k * ell * N**k

    def test_infinity_rejected(self, micro_curve):
        with pytest.raises(ValueError):
            bitstream(micro_curve, INFINITY, 1, 1, 4)

    def test_window_consistency_with_count(self):
        C = Curve(field(11), 1, 1)
        R = CurvePoint(0, 1)
        stream = bitstream(C, R, 1, 2, 5)
        windows = [stream[i : i + 2] for i in range(0, len(stream), 2)]
        for sigma in ("00", "01", "10", "11"):
            spec = BitWindow(1, 2, 5, (sigma,))
            assert count_A(C, R, spec) == windows.count(sigma)

    def test_code_budget_edges(self):
        for k, N in [(1, 10**7), (23, 2), (10**9, 1), (7, 10)]:
            _check_code_budget(k, N)
        for k, N in [(1, 10**7 + 1), (24, 2), (10**9, 2), (3, 216)]:
            with pytest.raises(ResourceBudgetError, match="codes per point"):
                _check_code_budget(k, N)

    def test_pattern_budget_edges(self):
        for k, ell in [(1, 16), (2, 8), (4, 4), (16, 1)]:
            _check_pattern_budget(k, ell)
        for k, ell in [(1, 17), (12, 2), (3, 6), (10**9, 10**9)]:
            with pytest.raises(ResourceBudgetError, match="patterns per point"):
                _check_pattern_budget(k, ell)

    def test_pattern_budget_before_any_walk(self, micro_curve, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walk before the pattern budget")

        for name in ("torsion_doublings", "multiples", "window_table"):
            monkeypatch.setattr(extract_module, name, no_walk)
        monkeypatch.setattr(extract_module, "PATTERN_BUDGET", 8)
        with pytest.raises(ResourceBudgetError, match="2\\^4 patterns"):
            delta(micro_curve, MICRO_G, 5, 2, 2, 4)
        C, gen, t = _sampled_group(0)
        for samples in (1, 33):  # the walks, then the table
            with pytest.raises(ResourceBudgetError, match="2\\^4 patterns"):
                sampled_deviation(C, gen, t, 1, 4, 16, samples, 0)

    def test_code_budget_spares_delta(self, micro_curve, micro_points, monkeypatch):
        monkeypatch.setattr(extract_module, "CODE_BUDGET", 3)
        R = CurvePoint(0, 1)
        with pytest.raises(ResourceBudgetError):
            bitstream(micro_curve, R, 1, 1, 4)
        with pytest.raises(ResourceBudgetError):
            count_A(micro_curve, R, BitWindow(1, 1, 4, ("0",)))
        assert delta(micro_curve, MICRO_G, 5, 1, 1, 4).t == 5


_ORACLE_CURVE = Curve(field(11), 1, 1)  # order 14: points of order 2, 7, 14


def _oracle_windows(C, R, k, ell, N):
    """The k low-bit windows of every (n_1..n_k) in [1,N]^k, in
    itertools.product order, from scalar multiplication alone."""
    out = []
    for ns in itertools.product(range(1, N + 1), repeat=k):
        Qs = [C.mul(math.prod(ns[: j + 1]), R) for j in range(k)]
        out.append(tuple(lsb_string(0 if Q.is_infinity else Q.x, ell, C.p)
                         for Q in Qs))
    return out


class TestWindowOracle:
    points = st.sampled_from(_ORACLE_CURVE.enumerate_points())
    finite_points = points.filter(lambda P: not P.is_infinity)
    shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5))

    @given(finite_points, shapes)
    def test_bitstream_matches_scalar_multiples(self, R, shape):
        k, ell, N = shape
        windows = _oracle_windows(_ORACLE_CURVE, R, k, ell, N)
        assert bitstream(_ORACLE_CURVE, R, k, ell, N) == "".join(
            "".join(w) for w in windows)

    @given(points, shapes)
    def test_delta_per_point_is_brute_force_worst_pattern(self, R, shape):
        k, ell, N = shape
        windows = _oracle_windows(_ORACLE_CURVE, R, k, ell, N)
        expected = Fraction(N**k, 2 ** (k * ell))
        patterns = itertools.product(
            ["".join(b) for b in itertools.product("01", repeat=ell)], repeat=k)
        worst = max(abs(windows.count(sigma) - expected) for sigma in patterns)
        rep = delta_over_points(_ORACLE_CURVE, [R], k, ell, N)
        assert rep.per_point == [(repr(R), worst)]

    @given(small_curves(), st.data())
    def test_delta_per_point_on_any_point_set(self, C, data):
        # H need not be a subgroup; N stays below every prime factor of |H|
        H = data.draw(st.lists(st.sampled_from(C.enumerate_points()),
                               min_size=1, max_size=8))
        N = data.draw(st.integers(1, min([*factorize(len(set(H))), 5]) - 1))
        k = data.draw(st.integers(1, 2))
        ell = data.draw(st.integers(1, min(3, (C.p - 1).bit_length() - 1)))
        assert delta_over_points(C, H, k, ell, N).per_point == (
            _brute_force_per_point(C, H, k, ell, N))

    @given(points, shapes, st.data())
    def test_count_A_matches_scalar_multiples(self, R, shape, data):
        k, ell, N = shape
        bits = st.text("01", min_size=ell, max_size=ell)
        sigma = tuple(data.draw(bits) for _ in range(k))
        windows = _oracle_windows(_ORACLE_CURVE, R, k, ell, N)
        spec = BitWindow(k, ell, N, sigma)
        assert count_A(_ORACLE_CURVE, R, spec) == windows.count(sigma)


def _brute_force_per_point(C, H, k, ell, N):
    """delta's per_point from _oracle_windows: O first, then (x, y) order."""
    expected = Fraction(N**k, 2 ** (k * ell))
    patterns = list(itertools.product(
        ["".join(b) for b in itertools.product("01", repeat=ell)], repeat=k))
    affine = sorted((P for P in set(H) if not P.is_infinity),
                    key=lambda P: (P.x, P.y))
    out = []
    for R in [INFINITY] * (INFINITY in H) + affine:
        counts = Counter(_oracle_windows(C, R, k, ell, N))
        out.append((repr(R), max(abs(counts[s] - expected) for s in patterns)))
    return out


class TestPatternCounts:
    @given(small_curves(), st.data())
    def test_counts_are_the_histogram_of_each_points_codes(self, C, data):
        G = data.draw(st.sampled_from(C.enumerate_points()))
        orb = orbit(C, G)
        k = data.draw(st.integers(1, 3))
        ell = data.draw(st.integers(1, min(3, (C.p - 1).bit_length() - 1)))
        # up to 2 ord(G) + 1, so n*i wraps mod ord(G) and meets x(O) = 0,
        # with at most 2,000 codes per point
        N = data.draw(st.integers(1, min(2 * len(orb) + 1, int(2000 ** (1 / k)))))
        counts_at = _pattern_counts([x_formal(Q) for Q in orb], k, ell, N)
        for i, row in enumerate(x_rows(C, orb, N**k)):
            counts = counts_at(i)
            assert len(counts) == 1 << (k * ell)
            assert {c: n for c, n in enumerate(counts) if n} == Counter(
                _codes(row, k, ell, N))

    @pytest.mark.parametrize("k,N", [(1, 255), (2, 16), (1, 65535), (2, 256)],
                             ids=["255", "256", "65535", "65536"])
    def test_slot_width_boundaries(self, k, N):
        # N^k on either side of the 1- and 2-byte slot limits; index 0
        # (the point O) puts all N^k codes in the slot of pattern 0.  The
        # table is that of an order-3 orbit, tx[3 - i] = tx[i]
        tx = [0, 5, 5]  # windows 0, 1, 1 for ell = 1
        counts_at = _pattern_counts(tx, k, 1, N)
        for i in range(len(tx)):
            row = [tx[m * i % len(tx)] for m in range(1, N**k + 1)]
            want = Counter(_codes(row, k, 1, N))
            assert list(counts_at(i)) == [want[c] for c in range(1 << k)]
        assert counts_at(0)[0] == N**k

    def test_k3_delta_against_scalar_multiples(self):
        C = Curve(field(89), 2, 5)  # #E = 101, prime
        H = C.enumerate_points()
        k, ell, N = 3, 2, 4
        rep = delta(C, H[1], 101, k, ell, N)
        want = _brute_force_per_point(C, H, k, ell, N)
        assert rep.per_point == want
        assert rep.total == sum(dev for _, dev in want)
        assert rep.total_excluding_infinity == sum(dev for _, dev in want[1:])

    def test_delta_walks_each_cyclic_subgroup_once(self, monkeypatch):
        walked = []

        def counting_walk(curve, G):
            walked.append(G)
            return multiples(curve, G)

        def per_point_walk(*args, **kwargs):
            raise AssertionError("delta read multiples point by point")

        monkeypatch.setattr(charsum_module, "multiples", counting_walk)
        for module in (charsum_module, extract_module, oracles):
            monkeypatch.setattr(module, "x_multiples", per_point_walk)
        monkeypatch.setattr(oracles, "x_rows", per_point_walk)
        C = Curve(field(89), 2, 5)  # prime order 101: orbits {O} and E
        delta_over_points(C, C.enumerate_points(), 2, 1, 3)
        assert walked == [INFINITY, min(C.enumerate_points()[1:],
                                        key=lambda P: (P.x, P.y))]
        # Z/14 without one point of order 2: {O}, then each orbit met once
        walked.clear()
        H = [P for P in _ORACLE_CURVE.enumerate_points()
             if P.is_infinity or _ORACLE_CURVE.mul(2, P) != INFINITY]
        delta_over_points(_ORACLE_CURVE, H, 1, 1, 4)
        orbits = [frozenset(orbit(_ORACLE_CURVE, G)) for G in walked]
        assert len(set(orbits)) == len(orbits)
        assert set(H) <= set().union(*orbits)


class TestDeltaPlusMinusPairs:
    """delta counts the patterns once per class {R, -R} = {jG, (t - j)G},
    and the oracle over any point set once per affine x, so O (x = None)
    stays apart from the points with x = 0; both still report every
    point."""

    @pytest.mark.parametrize("k,ell,N", [(1, 2, 4), (2, 2, 3)])
    def test_infinity_keyed_apart_from_x_zero(self, micro_curve, micro_points,
                                              k, ell, N):
        # per_point starts O, (0, 1), (0, 6)
        want = _brute_force_per_point(micro_curve, micro_points, k, ell, N)
        assert want[0][1] != want[1][1] == want[2][1]
        assert delta(micro_curve, MICRO_G, 5, k, ell, N).per_point == want

    def test_points_without_their_negatives(self):
        C = Curve(field(89), 2, 5)  # #E = 101, prime
        H = [P for P in C.enumerate_points() if P.is_infinity or P.y < 45][:25]
        assert not {CurvePoint(P.x, -P.y % C.p) for P in H if P.y} & set(H)
        rep = delta_over_points(C, H, 2, 2, 4)
        assert rep.per_point == _brute_force_per_point(C, H, 2, 2, 4)

    @pytest.mark.parametrize("p,a,b", [(5, 1, 0), (7, 0, 6)])
    def test_group_of_o_and_two_torsion(self, p, a, b):
        # {O, (0, 0), (2, 0), (3, 0)} and {O, (1, 0), (2, 0), (4, 0)}
        C = Curve(field(p), a, b)
        E = C.enumerate_points()
        assert all(P.is_infinity or P.y == 0 for P in E)
        for k, ell in [(1, 1), (2, 2), (3, 1)]:
            rep = delta_over_points(C, E, k, ell, 1)
            assert rep.per_point == _brute_force_per_point(C, E, k, ell, 1)

    def test_extract_exact_counts_once_per_pair(self, monkeypatch):
        # the extract-exact benchmark: t = 1,579 = O and 789 pairs {R, -R}
        C = Curve(field(1549), 1, 3)
        G = subgroup_generator(C, 1579)
        H = orbit(C, G)
        read = []

        def counting_pattern_counts(*args):
            counts_at = _pattern_counts(*args)

            def counted(i):
                read.append(i)
                return counts_at(i)

            return counted

        monkeypatch.setattr(extract_module, "_pattern_counts",
                            counting_pattern_counts)
        rep = delta(C, G, 1579, 2, 2, 24)
        assert len(read) == 790
        assert len(rep.per_point) == 1579
        dev = dict(rep.per_point)
        assert all(dev[repr(P)] == dev[repr(CurvePoint(P.x, -P.y % C.p))]
                   for P in H[1:])


class TestDeltaOverTheSubgroup:
    """delta over <G> from one half walk of G, against the oracle over the
    points of <G>."""

    @settings(deadline=None)
    @given(small_curves(), st.data())
    def test_matches_the_oracle_over_the_orbit(self, C, data):
        # G drawn by its order, so orders 1, 2 and 3 come up whenever the
        # curve has them; N <= 6 stays below every prime factor of t
        by_order = {C.point_order(P): P for P in C.enumerate_points()}
        t = data.draw(st.sampled_from(sorted(by_order)))
        G = by_order[t]
        k = data.draw(st.integers(1, 3))
        ell = data.draw(st.integers(1, (C.p - 1).bit_length() - 1))
        N = data.draw(st.integers(1, min([*factorize(t), 7]) - 1))
        got = delta(C, G, t, k, ell, N)
        want = delta_over_points(C, orbit(C, G), k, ell, N)
        for name, a, b in zip(DeviationReport._fields, got, want, strict=True):
            assert a == b, name

    @pytest.mark.parametrize("p,a,b,t", [(7, 1, 1, 1), (11, 1, 1, 2),
                                         (7, 0, 1, 3), (7, 1, 1, 5),
                                         (11, 1, 1, 14)])
    def test_small_orders_against_the_oracle(self, p, a, b, t):
        # odd and even t, with the one point of order 2 at t = 2 and 14
        C = Curve(field(p), a, b)
        G = INFINITY if t == 1 else subgroup_generator(C, t)
        for k, ell in [(1, 1), (2, 2), (3, 1)]:
            got = delta(C, G, t, k, ell, 1)
            assert got == delta_over_points(C, orbit(C, G), k, ell, 1)
            assert len(got.per_point) == t
            assert sum(s.endswith(", 0)") for s, _ in got.per_point) == 1 - t % 2

    def test_extract_exact_cost(self, monkeypatch):
        # t = 1,579: one walk of G read for t // 2 points, and the x table
        # and the one lower level of k = 2 each built for i = 0..789
        C = Curve(field(1549), 1, 3)
        G = subgroup_generator(C, 1579)
        walks = []  # [points read, ran to its end] of each walk of multiples
        multiples = curve_module.multiples
        halves = []  # len(half) of each _mirrored call
        mirrored = extract_module._mirrored

        def counting_multiples(curve, P):
            walk = [0, False]
            walks.append(walk)
            for xy in multiples(curve, P):
                walk[0] += 1
                yield xy
            walk[1] = True

        def counting_mirrored(half, t):
            halves.append(len(half))
            return mirrored(half, t)

        def no_orbit(*args):
            raise AssertionError("delta walked an orbit of points")

        monkeypatch.setattr(extract_module, "multiples", counting_multiples)
        monkeypatch.setattr(extract_module, "_mirrored", counting_mirrored)
        monkeypatch.setattr(curve_module, "orbit", no_orbit)
        monkeypatch.setattr(charsum_module, "_orbit_rows", no_orbit)
        rep = delta(C, G, 1579, 2, 2, 24)
        assert walks == [[789, False]]
        assert halves == [790, 790]
        assert len(rep.per_point) == 1579

    def test_subgroup_budget_refused_before_the_walk(self, monkeypatch):
        C = Curve(field(1549), 1, 3)
        G = subgroup_generator(C, 1579)

        def no_walk(*args):
            raise AssertionError("delta walked over the subgroup budget")

        monkeypatch.setattr(curve_module, "SUBGROUP_BUDGET", 1000)
        monkeypatch.setattr(extract_module, "multiples", no_walk)
        monkeypatch.setattr(extract_module, "torsion_doublings", no_walk)
        with pytest.raises(ResourceBudgetError,
                           match="^t = 1579 exceeds subgroup budget 1000$"):
            delta(C, G, 1579, 2, 2, 24)

    def test_one_subgroup_budget_for_every_reader(self, monkeypatch):
        # curve.SUBGROUP_BUDGET is read at each call: lowering it refuses
        # H, Delta and the window table alike, and sends the sampled
        # estimate (789 <= 200 * 15 multiples: the table way) to the walks
        C = Curve(field(1549), 1, 3)
        G = subgroup_generator(C, 1579)
        want = sampled_deviation(C, G, 1579, 1, 4, 16, 200, 0)
        monkeypatch.setattr(curve_module, "SUBGROUP_BUDGET", 1000)
        for refused in (lambda: subgroup_of_order(C, 1579),
                        lambda: delta(C, G, 1579, 1, 1, 1),
                        lambda: window_table(C, G, 1579, 4)):
            with pytest.raises(ResourceBudgetError,
                               match="^t = 1579 exceeds subgroup budget 1000$"):
                refused()
        tables = _Spy(extract_module.window_table)
        monkeypatch.setattr(extract_module, "window_table", tables)
        assert sampled_deviation(C, G, 1579, 1, 4, 16, 200, 0) == want
        assert tables.calls == 0

    @pytest.mark.parametrize("t", [0, -1])
    @pytest.mark.parametrize("read", [
        torsion_doublings,
        lambda C, G, t: window_table(C, G, t, 1),
        lambda C, G, t: delta(C, G, t, 1, 1, 1),
    ], ids=["torsion_doublings", "window_table", "delta"])
    def test_every_order_t_reader_refuses_t_below_1(self, micro_curve, read, t):
        G = micro_curve.enumerate_points()[1]
        with pytest.raises(ValueError, match=f"^need t >= 1, got t = {t}$"):
            read(micro_curve, G, t)


class TestPackBits:
    def test_little_endian_within_byte(self):
        assert pack_bits("10000000") == b"\x01"
        assert pack_bits("00000001") == b"\x80"
        assert pack_bits("1100000001") == bytes([0x03, 0x02])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad bit 'x'"):
            pack_bits("01x")

    @given(st.text("01", max_size=70))
    def test_matches_per_bit_loop(self, stream):
        out = bytearray((len(stream) + 7) // 8)
        for i, ch in enumerate(stream):
            out[i // 8] |= (ch == "1") << (i % 8)
        assert pack_bits(stream) == bytes(out)


class TestChiSquare:
    def test_uniform_histogram_is_zero(self):
        stream = "00011011"  # each 2-bit value once
        rep = chi_square_uniformity(stream, 2)
        assert rep.statistic == 0
        assert rep.dof == 3

    def test_all_zero_closed_form(self):
        for m in (4, 50):
            rep = chi_square_uniformity("0" * (2 * m), 1)
            assert rep.statistic == pytest.approx(2 * m)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chi_square_uniformity("000", 2)

    def test_seeded_reference_generator_below_quantile(self):
        rng = random.Random(12345)
        stream = "".join(str(rng.randrange(2)) for _ in range(10_000))
        rep = chi_square_uniformity(stream, 4)
        from scipy.stats import chi2

        assert rep.statistic < chi2.ppf(0.999, rep.dof)

    @pytest.mark.slow
    def test_curve_stream_below_quantile_large_p(self):
        # strong-generator check on a near-million prime
        p = 1_000_003
        F = field(p)
        C = Curve(F, 1, 1)
        R = C.points_by_x(1)[0] if C.points_by_x(1) else None
        u = 1
        while R is None:
            u += 1
            row = C.points_by_x(u)
            R = row[0] if row else None
        stream = bitstream(C, R, 1, 4, 2500)
        assert len(stream) == 10_000
        rep = chi_square_uniformity(stream, 4)
        from scipy.stats import chi2

        assert rep.statistic < chi2.ppf(0.999, rep.dof)
