import pytest
from conftest import small_curves
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_poly import peel_square_test

from ecbits.curve import Curve, CurvePoint
from ecbits.divpoly import DivisionPolynomials
from ecbits.field import PreconditionError, field
from ecbits.poly import Poly, poly_gcd, rational_square_test, squarefree_part

CURVES = [(7, 1, 1), (11, 1, 1), (13, 1, 6)]


@pytest.fixture(scope="module")
def micro_dp(micro_curve):
    return DivisionPolynomials(micro_curve)


def test_base_cases(micro_dp):
    F = field(7)
    assert micro_dp.psi(0).is_zero()
    assert micro_dp.psi(1) == Poly.const(F, 1)
    assert micro_dp.psi(2) == Poly.const(F, 2)  # psi_2 = 2Y
    assert micro_dp.psi(-1) == Poly.const(F, -1)


def test_psi3_reduced_mod_7(micro_dp):
    # 3X^4 + 6aX^2 + 12bX - a^2 with a = b = 1 reduces to 3X^4+6X^2+5X+6
    assert micro_dp.psi(3) == Poly(field(7), [6, 5, 6, 0, 3])


def test_even_recurrence_consistency(micro_dp):
    # w_2 and w_4 from the doubling recurrence on w_n (using w_-1 = -1),
    # w_2m = w_m * (w_(m+2) w_(m-1)^2 - w_(m-2) w_(m+1)^2) / 2, agree
    # with the stored base cases
    w = micro_dp.psi
    for m in (1, 2):
        inner = w(m + 2) * w(m - 1) * w(m - 1) - w(m - 2) * w(m + 1) * w(m + 1)
        assert w(m) * inner == w(2 * m) * 2


@given(small_curves())
@settings(max_examples=30, deadline=None)
def test_w_degree_and_lead(C):
    # for p not dividing n: deg w_n = (n^2 - 1)/2 (n odd) or (n^2 - 4)/2
    # (n even), with leading coefficient n
    dp = DivisionPolynomials(C)
    for n in range(1, 13):
        if n % C.p:
            w = dp.psi(n)
            assert w.degree() == ((n * n - 1) // 2 if n % 2 else (n * n - 4) // 2)
            assert w.lead() == n % C.p


class TestFGH:
    def test_n1(self, micro_dp):
        f, g, h = micro_dp.f_g_h(1)
        F = field(7)
        assert f == Poly.x(F)
        assert g == Poly.const(F, 1)
        assert h == Poly.const(F, 1)

    def test_n2_hand_values(self, micro_dp):
        # f_2 = X^4 - 2aX^2 - 8bX + a^2, g_2 = 4(X^3 + aX + b), h_2 = 2
        f, g, h = micro_dp.f_g_h(2)
        assert f == Poly(field(7), [1, 6, 5, 0, 1])
        assert g == Poly(field(7), [4, 4, 0, 4])
        assert h == Poly.const(field(7), 2)

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_degrees_up_to_20(self, p, a, b):
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for n in range(1, 21):
            f, g, _ = dp.f_g_h(n)
            assert f.degree() == n * n
            assert g.degree() <= n * n - 1

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_g_shape_reconstruction(self, p, a, b):
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for n in range(1, 21):
            _, g, h = dp.f_g_h(n)
            if n % 2:
                assert g == h * h
            else:
                assert g == dp.curve_poly * h * h

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_f_and_g_coprime(self, p, a, b):
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for n in range(1, 13):
            f, g, _ = dp.f_g_h(n)
            assert poly_gcd(f, g).degree() == 0

    def test_f_monic(self, micro_dp):
        # the leading coefficients n^2 and n^2 - 1 always differ by one,
        # so f_n stays monic even when p divides n
        for n in range(1, 16):
            assert micro_dp.f(n).lead() == 1


class TestFTilde:
    def test_no_p_part_is_identity(self, micro_dp):
        for n in (1, 2, 3, 4, 5, 6):
            assert micro_dp.f_tilde(n) == micro_dp.f(n)

    def test_ordinary_p_extraction(self, micro_dp):
        # f_7 over F_7 is a polynomial in X^7 with deg ft_7 = #E[7] = 7
        ft = micro_dp.f_tilde(7)
        assert ft.degree() == 7
        assert ft ** 7 == micro_dp.f(7)

    def test_ordinary_2p_extraction(self, micro_dp):
        ft = micro_dp.f_tilde(14)
        assert ft.degree() == 28  # #E[14] = 14 * 2 for an ordinary curve
        assert ft ** 7 == micro_dp.f(14)

    def test_f2_degree_is_torsion_size(self, micro_dp):
        assert micro_dp.f_tilde(2).degree() == 4
        assert micro_dp.torsion_size(2) == 4

    def test_supersingular_extraction(self):
        # p = 5, a = 1, b = 1: order 9 != 6... search a supersingular curve
        F = field(5)
        C = None
        for a in range(5):
            for b in range(1, 5):
                if (4 * a**3 + 27 * b * b) % 5 == 0:
                    continue
                cand = Curve(F, a, b)
                if not cand.is_ordinary():
                    C = cand
                    break
            if C:
                break
        assert C is not None
        dp = DivisionPolynomials(C)
        ft = dp.f_tilde(5)
        assert ft.degree() == 1  # #E[5] = 1 for supersingular p = 5
        assert ft ** 25 == dp.f(5)


PAIRS = [(m, n) for m in range(1, 7) for n in range(m + 1, 7)]


class TestPhiPsi:
    def test_m_n_one(self, micro_dp):
        w_phi, w_psi = micro_dp.phi_psi(1, 1)
        x_sq = Poly(field(7), [0, 0, 1])
        assert w_phi == x_sq
        assert w_psi == micro_dp.curve_poly * x_sq

    def test_assembly_m1_n2(self, micro_dp):
        x_f2 = Poly.x(field(7)) * micro_dp.f(2)
        w_phi, w_psi = micro_dp.phi_psi(1, 2)
        assert w_phi == x_f2 * micro_dp.curve_poly  # e = [2 even] = 1
        assert w_psi == x_f2

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_square_class_identity(self, p, a, b):
        # w_Phi times a square is the unreduced product f_m*f_n*g_m*g_n
        dp = DivisionPolynomials(Curve(field(p), a, b))
        E = dp.curve_poly
        for m in range(1, 7):
            for n in range(m, 7):
                (f_m, g_m, h_m), (f_n, g_n, h_n) = dp.f_g_h(m), dp.f_g_h(n)
                w_phi, w_psi = dp.phi_psi(m, n)
                s = h_m * h_n * (E if m % 2 == 0 and n % 2 == 0 else 1)
                assert w_phi * s * s == f_m * f_n * g_m * g_n
                assert w_phi * w_psi == E * (f_m * f_n) ** 2

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_never_squares_small_range(self, p, a, b):
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for m in range(1, 6):
            for n in range(m + 1, 6):
                w_phi, w_psi = dp.phi_psi(m, n)
                assert not rational_square_test(w_phi)
                assert not rational_square_test(w_psi)

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_psi_degree_difference_odd(self, p, a, b):
        # deg w_Psi has the parity of deg num - deg den of the reduced Psi
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for m, n in PAIRS:
            _, w_psi = dp.phi_psi(m, n)
            assert w_psi.degree() % 2 == 1

    @given(small_curves(), st.sampled_from(PAIRS))
    @settings(max_examples=30, deadline=None)
    def test_square_class_matches_unreduced_product(self, C, mn):
        m, n = mn
        dp = DivisionPolynomials(C)
        w_phi, w_psi = dp.phi_psi(m, n)
        prod = dp.f(m) * dp.f(n) * dp.g(m) * dp.g(n)
        assert rational_square_test(w_phi) == peel_square_test(prod)
        assert rational_square_test(w_psi) == peel_square_test(dp.curve_poly * prod)


class TestVerifyXfg:
    def test_n1_always(self, micro_dp):
        assert micro_dp.verify_xfg(1)

    def test_hand_case_n2(self, micro_dp, micro_curve):
        f, g, _ = micro_dp.f_g_h(2)
        assert f(0) == 1 and g(0) == 4
        # 1/4 = 2 mod 7 is x(2P) for P = (0, 1)
        assert micro_curve.mul(2, CurvePoint(0, 1)).x == 2
        assert micro_dp.verify_xfg(2)

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_small_range(self, p, a, b):
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for n in range(1, 7):
            assert dp.verify_xfg(n)


class TestVerifyTorsionRoots:
    def test_two_torsion_is_cubic_roots(self):
        C = Curve(field(7), 0, 6)  # full rational 2-torsion
        dp = DivisionPolynomials(C)
        g2 = dp.g(2)
        rational_xs = {P.x for P in C.enumerate_points()
                       if not P.is_infinity and C.mul(2, P).is_infinity}
        assert set(g2.roots()) == rational_xs == {1, 2, 4}
        assert dp.verify_torsion_roots(2)

    def test_whole_group_is_5_torsion(self, micro_dp, micro_curve):
        g5 = micro_dp.g(5)
        for P in micro_curve.enumerate_points():
            if not P.is_infinity:
                assert g5(P.x) == 0
        assert micro_dp.verify_torsion_roots(5)

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_small_range(self, p, a, b):
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for n in range(2, 7):
            assert dp.verify_torsion_roots(n)


class TestVerifyDivisionPointRoots:
    def test_hand_case_n2(self, micro_dp, micro_curve):
        f2 = micro_dp.f(2)
        assert f2.roots() == [2]  # unique F_7 root
        assert micro_curve.mul(2, CurvePoint(2, 2)) == CurvePoint(0, 1)
        assert micro_curve.mul(2, CurvePoint(2, 5)) == CurvePoint(0, 6)
        assert micro_dp.verify_division_point_roots(2)

    def test_n1_root_is_zero(self, micro_dp):
        assert micro_dp.f(1).roots() == [0]
        assert micro_dp.verify_division_point_roots(1)

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_small_range(self, p, a, b):
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for n in range(1, 7):
            assert dp.verify_division_point_roots(n)

    def test_b_zero_rejected(self):
        dp = DivisionPolynomials(Curve(field(7), 1, 0))
        with pytest.raises(PreconditionError):
            dp.verify_division_point_roots(2)


class _Perturbed(DivisionPolynomials):
    """f_n (which = "f") or g_n (which = "g") of one index n replaced by
    edit(poly)."""

    def __init__(self, curve, n, which, edit):
        super().__init__(curve)
        self.target, self.which, self.edit = n, which, edit

    def f_g_h(self, n):
        f, g, h = super().f_g_h(n)
        if n != self.target:
            return f, g, h
        return (self.edit(f), g, h) if self.which == "f" else (f, self.edit(g), h)


class TestPerturbedChecks:
    # on y^2 = x^3 + x + 1 over F_7 every point is 5-torsion, g_5(1) != 0,
    # and the only 2-division point of P0 over F_49 is (2, 2)
    @pytest.mark.parametrize("edit", [
        lambda g: g + Poly.const(g.field, 1),  # rational points stop being roots
        lambda g: g * Poly(g.field, [-1, 1]),  # the root 1 lifts off E[5]
    ], ids=["rational", "lifted"])
    def test_torsion_roots_catch_g(self, micro_curve, edit):
        assert not _Perturbed(micro_curve, 5, "g", edit).verify_torsion_roots(5)

    @pytest.mark.parametrize("edit,roots", [
        (lambda f: f * Poly(f.field, [-1, 1]), [1, 2]),  # 1 is no member's x
        (lambda f: f + Poly.const(f.field, 4), []),  # (2, 2) stops being a root
    ], ids=["roots", "members"])
    def test_division_point_roots_catch_f(self, micro_curve, edit, roots):
        dp = _Perturbed(micro_curve, 2, "f", edit)
        f, g, _ = dp.f_g_h(2)
        assert f.roots() == roots and poly_gcd(f, g).degree() == 0
        assert not dp.verify_division_point_roots(2)


@settings(max_examples=25, deadline=None)
@given(small_curves().filter(lambda C: C.b != 0))
@example(Curve(field(7), 0, 6))  # E(F_7) = Z/2 x Z/2
@example(Curve(field(7), 3, 1))  # E(F_7) = Z/12
def test_group_law_checks_hold(C):
    dp = DivisionPolynomials(C)
    for n in range(1, 7):
        assert dp.verify_xfg(n)
        assert dp.verify_division_point_roots(n)
        if n > 1:
            assert dp.verify_torsion_roots(n)


class TestSquarefreeFtilde:
    def test_micro_curve(self, micro_dp):
        assert micro_dp.verify_squarefree_ftilde(8)

    @pytest.mark.parametrize("p,a,b", CURVES)
    def test_independent_gcd_oracle(self, p, a, b):
        # square-freeness oracle: gcd(ft, ft') = 1 whenever ft' != 0
        dp = DivisionPolynomials(Curve(field(p), a, b))
        for n in range(1, 9):
            ft = dp.f_tilde(n)
            d = ft.derivative()
            assert not d.is_zero()
            assert poly_gcd(ft, d).degree() == 0

    def test_b_zero_breaks_squarefreeness(self):
        # with b = 0 the point (0,0) is 2-torsion and f_2 collapses to a
        # perfect square, documenting why the lemma needs b != 0
        dp = DivisionPolynomials(Curve(field(7), 1, 0))
        f2 = dp.f(2)
        assert squarefree_part(f2).degree() < f2.degree()
        root = squarefree_part(f2)
        assert root * root == f2  # f_2 = (X^2 - a... )^2 exactly


def test_torsion_size_values(micro_dp):
    assert micro_dp.torsion_size(2) == 4
    assert micro_dp.torsion_size(7) == 7   # ordinary: p-torsion is Z/p
    assert micro_dp.torsion_size(14) == 28
    assert micro_dp.torsion_size(6) == 36
