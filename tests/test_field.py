import cmath
import importlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import geometric_sum_cap, incomplete_geometric_sum, orthogonality_indicator

from ecbits.curve import Curve
from ecbits.field import (
    Fp2,
    PreconditionError,
    PrimeField,
    ResourceBudgetError,
    field,
    is_prime,
    primes_upto,
)

SMALL_PRIMES = [5, 7, 11, 13, 101]
# the module: the package's name ecbits.field is the field() cache
field_module = importlib.import_module("ecbits.field")


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert primes_upto(31) == sorted(primes)
    assert primes_upto(1) == [] and primes_upto(2) == [2]


def test_field_rejects_composites_and_large_moduli():
    with pytest.raises(ValueError):
        field(9)
    with pytest.raises(ValueError):
        field(1 << 32)


class TestInverse:
    def test_inverse_of_4_mod_7_matches_search(self):
        # independent oracle: exhaustive search for 4*y = 1 mod 7
        oracle = [y for y in range(7) if 4 * y % 7 == 1]
        assert oracle == [2]
        assert field(7).inv(4) == 2

    def test_identity(self):
        assert field(7).inv(1) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            field(7).inv(0)

    @given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=10**6))
    def test_inverse_property(self, p, x):
        F = field(p)
        if x % p == 0:
            x += 1
        assert F.inv(x) * x % p == 1


class TestQuadraticCharacter:
    def test_against_square_enumeration_mod_7(self):
        squares = {y * y % 7 for y in range(1, 7)}
        assert squares == {1, 2, 4}
        F = field(7)
        for u in range(7):
            if u == 0:
                assert F.chi(u) == 0
            else:
                assert F.chi(u) == (1 if u in squares else -1)

    def test_chi_zero_is_zero(self):
        for p in SMALL_PRIMES:
            assert field(p).chi(0) == 0

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_multiplicative_exhaustive(self, p):
        F = field(p)
        chi = F.chi_table()
        for u in range(p):
            for v in range(p):
                assert chi[u * v % p] == chi[u] * chi[v]

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_square_count(self, p):
        chi = field(p).chi_table()
        assert chi.count(1) == (p - 1) // 2
        assert chi.count(-1) == (p - 1) // 2

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_table_agrees_with_euler_criterion(self, p):
        F = field(p)
        assert F.chi_table() == [F.chi(u) for u in range(p)]


class TestChiTableBudget:
    def test_refused_before_the_table_is_built(self, monkeypatch):
        monkeypatch.setattr(field_module, "CHI_TABLE_BUDGET", 1000)
        F = field(1009)
        message = "^p = 1009 exceeds the point-counting budget 1000$"
        with pytest.raises(ResourceBudgetError, match=message):
            F.chi_table()
        with pytest.raises(ResourceBudgetError, match=message):
            Curve(F, 1, 1).order()
        assert F._chi_table is None
        assert field(997).chi_table() == [field(997).chi(u) for u in range(997)]


class TestAdditiveCharacter:
    def test_at_zero(self):
        assert field(7).psi(0) == 1

    def test_conjugate_symmetry(self):
        F = field(7)
        for u in range(1, 7):
            assert abs(F.psi(u) * F.psi(7 - u) - 1) < 1e-12

    def test_complete_sum_vanishes(self):
        total = sum(field(7).psi(u) for u in range(7))
        assert abs(total) < 1e-9

    @given(
        st.sampled_from(SMALL_PRIMES),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_homomorphism(self, p, u, w):
        F = field(p)
        assert abs(F.psi(u) * F.psi(w) - F.psi(u + w)) < 1e-12


class TestPsiMemo:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_memo_reads_are_psi(self, p):
        F = field(p)
        assert [F.psi_memo[u] for u in range(p)] == [F.psi(u) for u in range(p)]

    def test_one_psi_call_per_residue(self, monkeypatch):
        F = field(101)
        calls = []
        psi = PrimeField.psi

        def counting_psi(self, u):
            calls.append(u)
            return psi(self, u)

        monkeypatch.setattr(PrimeField, "psi", counting_psi)
        for _ in range(3):
            for u in (5, 0, 100, 5):
                assert F.psi_memo[u] == psi(F, u)
        assert calls == [5, 0, 100]
        assert len(F.psi_memo) == 3  # no length-p table

    def test_memo_kept_with_the_shared_field(self):
        field(13).psi_memo[4]
        assert 4 in field(13).psi_memo
        assert 4 not in field(17).psi_memo


class TestOrthogonality:
    def test_indicator_at_zero(self):
        assert abs(orthogonality_indicator(field(7), 0) - 1) < 1e-12

    @pytest.mark.parametrize("p,v", [(7, 3), (11, 10)])
    def test_indicator_vanishes(self, p, v):
        assert abs(orthogonality_indicator(field(p), v)) < 1e-9

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_indicator_exhaustive(self, p):
        F = field(p)
        for v in range(p):
            want = 1 if v == 0 else 0
            assert abs(orthogonality_indicator(F, v) - want) < 1e-9 * p


class TestGeometricSum:
    def test_c_zero_counts_terms(self):
        assert abs(incomplete_geometric_sum(field(7), 0, 4) - 5) < 1e-12

    def test_complete_sum_vanishes(self):
        assert abs(incomplete_geometric_sum(field(7), 1, 6)) < 1e-9

    def test_direct_evaluation_oracle_p101(self):
        # independent 51-term loop, then the bound p / (2 min(c, p-c))
        F = field(101)
        direct = sum(cmath.exp(-2j * math.pi * 1 * y / 101) for y in range(51))
        got = incomplete_geometric_sum(F, 1, 50)
        assert abs(got - direct) < 1e-12
        assert abs(got) <= 101 / 2

    def test_range_precondition(self):
        with pytest.raises(PreconditionError):
            incomplete_geometric_sum(field(7), 1, 7)

    def test_cap_needs_nonzero_c(self):
        with pytest.raises(PreconditionError):
            geometric_sum_cap(field(7), 0)


class TestFp2:
    def test_nonresidue_is_smallest(self):
        F = field(7)
        assert F.chi_table()[:4] == [0, 1, 1, -1]
        assert F.nonresidue() == 3

    def test_arithmetic_and_inverse(self):
        F = field(7)
        x = Fp2(F, 2, 3)
        y = Fp2(F, 5, 1)
        assert (x + y) - y == x
        assert x * y == y * x
        assert (x * y) * y.inv() == x
        assert x * x.inv() == 1

    def test_int_mixing(self):
        F = field(7)
        x = Fp2(F, 4)
        assert x == 4
        assert x + 3 == 0
        assert 2 * Fp2(F, 3, 1) == Fp2(F, 6, 2)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_sqrt_roundtrip_exhaustive(self, p):
        F = field(p)
        squares = set()
        for re in range(p):
            for im in range(p):
                w = Fp2(F, re, im)
                sq = w * w
                squares.add((sq.re, sq.im))
                r = sq.sqrt()
                assert r is not None
                assert r * r == sq
        # nonzero squares are half of the multiplicative group, plus zero
        assert len(squares) == (p * p - 1) // 2 + 1

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_nonsquares_have_no_root(self, p):
        F = field(p)
        squares = {(w := Fp2(F, re, im) * Fp2(F, re, im)).re * p + w.im
                   for re in range(p) for im in range(p)}
        for re in range(p):
            for im in range(p):
                if re * p + im not in squares:
                    assert Fp2(F, re, im).sqrt() is None

    def test_base_field_roots_stay_in_base(self):
        F = field(7)
        r = Fp2(F, 2).sqrt()
        assert r.im == 0 and r.re == 3  # 3^2 = 2 mod 7, canonical min

    def test_nonresidue_root_is_proportional_to_sqrt_d(self):
        F = field(7)
        r = Fp2(F, 3).sqrt()
        assert r.re == 0 and r * r == 3
