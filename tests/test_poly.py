import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import horner_fp2

from ecbits.field import Fp2, field, primes_upto
from ecbits.poly import (
    Poly,
    poly_gcd,
    pth_power_root,
    rational_square_test,
    squarefree_part,
)


def P(p, *coeffs):
    return Poly(field(p), coeffs)


def peel_square_test(f: Poly) -> bool:
    """Oracle for rational_square_test: peel the squared radical off.

    With f = c*prod q_i^(e_i), rad(f)^2 divides f iff all e_i >= 2, and
    the quotient drops every multiplicity by two, so the loop decides
    the parity of all of them without factoring.
    """
    f = f.monic()
    while f.degree() > 0:
        if f.degree() % 2:
            return False
        rad = squarefree_part(f)
        q, rem = divmod(f, rad * rad)
        if not rem.is_zero():
            return False
        f = q.monic()
    return True


@st.composite
def small_polys(draw, min_degree=0, max_degree=5):
    p = draw(st.sampled_from([7, 11, 13]))
    deg = draw(st.integers(min_value=min_degree, max_value=max_degree))
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=p - 1),
                           min_size=deg + 1, max_size=deg + 1))
    coeffs[-1] = draw(st.integers(min_value=1, max_value=p - 1))
    return Poly(field(p), coeffs)


class TestBasics:
    def test_trailing_zeros_trimmed(self):
        assert P(7, 1, 2, 0, 0).coeffs == [1, 2]
        assert P(7, 0).is_zero()

    def test_divmod_roundtrip(self):
        f = P(7, 3, 0, 5, 1)
        g = P(7, 2, 1)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree() < g.degree()

    def test_eval_horner(self):
        f = P(7, 1, 0, 1)  # 1 + X^2
        assert [f(u) for u in range(7)] == [(1 + u * u) % 7 for u in range(7)]

    @given(small_polys(), small_polys())
    def test_degree_of_product(self, f, g):
        if f.field.p != g.field.p:
            g = Poly(f.field, g.coeffs)
            if g.is_zero():
                return
        assert (f * g).degree() == f.degree() + g.degree()


@st.composite
def polys_and_fp2_points(draw):
    """A polynomial of degree < 12 over F_p, 5 <= p <= 101 (the zero one
    included), and a point of F_p^2."""
    p = draw(st.sampled_from([q for q in primes_upto(101) if q >= 5]))
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=12))
    return Poly(field(p), coeffs), Fp2(field(p), draw(st.integers(0, p - 1)),
                                       draw(st.integers(0, p - 1)))


class TestEvalOverFp2:
    @settings(max_examples=200, deadline=None)
    @given(polys_and_fp2_points())
    def test_horner_matches_fp2_object_oracle(self, drawn):
        f, u = drawn
        value = f(u)
        assert isinstance(value, Fp2)
        assert value == horner_fp2(f, u)
        if u.im == 0:
            assert value == f(u.re)


def schoolbook(a, b, p):
    """Oracle product of coefficient lists: every pair a_i*b_j, one at a time."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    out = [v % p for v in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def long_divmod(a, b, p):
    """Oracle division of coefficient lists: one coefficient update at a
    time, each reduced mod p."""
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return [], rem
    quo = [0] * (dq + 1)
    inv_lead = pow(b[-1], -1, p)
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] * inv_lead % p
        quo[k] = c
        for j, v in enumerate(b):
            rem[k + j] = (rem[k + j] - c * v) % p
    while quo and quo[-1] == 0:
        quo.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def euclid_gcd(f, g):
    """Oracle gcd: the Euclidean algorithm on Poly, through long_divmod."""
    p = f.field.p
    while not g.is_zero():
        f, g = g, Poly(f.field, long_divmod(f.coeffs, g.coeffs, p)[1])
    return f.monic()


# 2^31 - 1 is the largest supported modulus: with length ~700 a product
# coefficient needs 72 bits, so a slot sized from (p - 1)^2 alone overflows
PRIMES = [5, 7, 13, 43, 197, 1009, 65521, 2_147_483_647]


@st.composite
def coefficient_lists(draw, p, max_len=700):
    """Coefficient lists up to max_len long: random residues, all p - 1
    (the widest product slots), or mostly zeros."""
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, max_len),
                       st.just(max_len)))
    mode = draw(st.sampled_from(["random", "max", "sparse"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if mode == "max":
        return [p - 1] * n
    if mode == "sparse":
        return [rng.randrange(p) if rng.random() < 0.1 else 0 for _ in range(n)]
    return [rng.randrange(p) for _ in range(n)]


@st.composite
def poly_pairs(draw, max_len=700):
    p = draw(st.sampled_from(PRIMES))
    F = field(p)
    return (Poly(F, draw(coefficient_lists(p, max_len))),
            Poly(F, draw(coefficient_lists(p, max_len))))


MAX_PAIR = (Poly(field(PRIMES[-1]), [PRIMES[-1] - 1] * 700),) * 2


class TestKernelsAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(poly_pairs())
    @example(MAX_PAIR)
    def test_product_is_schoolbook(self, pair):
        f, g = pair
        assert (f * g).coeffs == schoolbook(f.coeffs, g.coeffs, f.field.p)

    @settings(max_examples=40, deadline=None)
    @given(poly_pairs())
    @example(MAX_PAIR)
    def test_divmod_is_long_division(self, pair):
        f, g = pair
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(f, g)
            return
        p = f.field.p
        q, r = divmod(f, g)
        assert (q.coeffs, r.coeffs) == long_divmod(f.coeffs, g.coeffs, p)
        assert r.degree() < g.degree()
        qg = schoolbook(q.coeffs, g.coeffs, p)
        assert Poly(f.field, qg) + r == f

    @settings(max_examples=40, deadline=None)
    @given(poly_pairs(max_len=250), st.integers(0, 2**32))
    def test_gcd_is_euclid(self, pair, seed):
        f, g = pair
        p = f.field.p
        rng = random.Random(seed)
        common = Poly(f.field, [rng.randrange(p) for _ in range(rng.randrange(6))] + [1])
        f = Poly(f.field, schoolbook(f.coeffs, common.coeffs, p))
        g = Poly(f.field, schoolbook(g.coeffs, common.coeffs, p))
        if f.is_zero() and g.is_zero():
            with pytest.raises(ValueError):
                poly_gcd(f, g)
            return
        h = poly_gcd(f, g)
        assert h == euclid_gcd(f, g)
        assert h.lead() == 1
        assert long_divmod(h.coeffs, common.coeffs, p)[1] == []  # common | f, g


class TestGcd:
    def test_shared_root(self):
        f = P(7, -1, 0, 1)  # X^2 - 1
        g = P(7, -1, 1)  # X - 1
        assert poly_gcd(f, g) == P(7, 6, 1)

    def test_coprime(self):
        assert poly_gcd(P(7, 0, 1), P(7, 1)) == P(7, 1)

    def test_hand_expanded_euclid(self):
        # (X+1)^2 and (X+1)(X+2), built by multiplication
        a = P(7, 1, 1) * P(7, 1, 1)
        b = P(7, 1, 1) * P(7, 2, 1)
        assert poly_gcd(a, b) == P(7, 1, 1)

    def test_gcd_of_two_zeros_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(P(7), P(7))

    def test_result_is_monic(self):
        g = poly_gcd(P(7, 0, 3), P(7, 0, 0, 5))
        assert g.lead() == 1


class TestSquarefreePart:
    def test_obvious_square(self):
        f = P(7, 1, 1) * P(7, 1, 1)
        assert squarefree_part(f) == P(7, 1, 1)

    def test_pth_power_with_zero_derivative(self):
        f = Poly(field(7), [0] * 7 + [1])  # X^7
        assert f.derivative().is_zero()
        assert squarefree_part(f) == P(7, 0, 1)

    def test_squarefree_fixed_point(self):
        f = P(7, 3, 1, 2)
        assert poly_gcd(f, f.derivative()).degree() == 0
        assert squarefree_part(f) == f.monic()

    def test_mixed_multiplicities(self):
        # (X+1)^2 (X+2)^7 (X+3) over F_7: radical is (X+1)(X+2)(X+3)
        F = field(7)
        f = P(7, 1, 1) ** 2 * P(7, 2, 1) ** 7 * P(7, 3, 1)
        want = (P(7, 1, 1) * P(7, 2, 1) * P(7, 3, 1)).monic()
        assert squarefree_part(f) == want

    @given(small_polys(min_degree=1, max_degree=3),
           small_polys(min_degree=1, max_degree=3))
    @settings(max_examples=60)
    def test_square_collapses(self, f, g):
        if f.field.p != g.field.p:
            g = Poly(f.field, g.coeffs)
            if g.is_zero():
                return
        assert squarefree_part(f * f * g) == squarefree_part(f * g)


class TestPthPowerRoot:
    def test_r_zero_is_identity(self):
        f = P(7, 1, 2, 3)
        assert pth_power_root(f, 0) == f

    def test_freshman_dream(self):
        f = Poly(field(7), [1] + [0] * 6 + [1])  # X^7 + 1
        assert pth_power_root(f, 1) == P(7, 1, 1)

    def test_quadratic_root_against_frobenius_expansion(self):
        g = P(7, 1, 2, 1)  # X^2 + 2X + 1
        f = g**7
        assert f.coeffs == Poly(field(7), [1, 0, 0, 0, 0, 0, 0, 2,
                                           0, 0, 0, 0, 0, 0, 1]).coeffs
        assert pth_power_root(f, 1) == g

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            pth_power_root(P(7, 0, 1), 1)  # X is not a 7th power

    @given(small_polys(max_degree=2), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40)
    def test_roundtrip(self, g, r):
        f = g ** (g.field.p**r)
        assert pth_power_root(f, r) == g
        assert pth_power_root(f, r) ** (g.field.p**r) == f


@st.composite
def factored_products(draw):
    """c * prod q_i^(e_i) over F_p with e_i in {1, 2, 3, p, 2p}; the
    exponents p and 2p only where p is small enough to expand them."""
    p = draw(st.sampled_from([3, 5, 7, 11, 2**31 - 1]))
    F = field(p)
    exponents = [1, 2, 3] + ([p, 2 * p] if p < 12 else [])
    f = Poly.const(F, draw(st.integers(1, p - 1)))
    for _ in range(draw(st.integers(0, 3))):
        deg = draw(st.integers(1, 3))
        coeffs = [draw(st.integers(0, p - 1)) for _ in range(deg)]
        q = Poly(F, coeffs + [draw(st.integers(1, p - 1))])
        f = f * q ** draw(st.sampled_from(exponents))
    return f


class TestRationalSquareTest:
    @given(factored_products())
    @settings(max_examples=300, deadline=None)
    @example(Poly.const(field(5), 3))  # a constant: a square over the closure
    @example(Poly(field(3), [1, 2, 0, 1]) ** 3)  # odd degree
    @example(Poly(field(7), [0, 1]) ** 14 * Poly(field(7), [1, 0, 1]) ** 7)
    @example(Poly(field(11), [2, 1]) ** 22 * 5)  # multiplicity 2p
    def test_matches_peel_oracle(self, f):
        assert rational_square_test(f) == peel_square_test(f)

    def test_perfect_square(self):
        sq = P(7, 1, 1) * P(7, 1, 1)
        assert rational_square_test(sq)
        assert rational_square_test(sq * 3)  # 3 is no square mod 7

    def test_odd_multiplicity(self):
        assert not rational_square_test(P(7, 0, 1))

    def test_square_over_square(self):
        num = P(7, 1, 2, 1)  # (X+1)^2
        den = P(7, 2, 1) * P(7, 2, 1)  # (X+2)^2
        root = P(7, 1, 1) * P(7, 2, 1)
        assert num * den == root * root  # oracle: the product is a square
        assert rational_square_test(num * den)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rational_square_test(P(7))

    @given(small_polys(min_degree=1, max_degree=3),
           small_polys(min_degree=0, max_degree=2),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_squares_detected_and_odd_factor_breaks(self, num, den, c):
        if num.field.p != den.field.p:
            den = Poly(num.field, den.coeffs)
        if den.is_zero():
            den = Poly.const(num.field, 1)
        f = num * den  # the square class of the fraction num/den
        assert rational_square_test(f * f * c)
        assert not rational_square_test(f * f * Poly.x(num.field))
