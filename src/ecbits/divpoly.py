"""Division polynomials and the derived objects used by the pair-sum
bound: f_n, g_n, h_n, the p-power root ft_n, and the square classes of
the rational functions whose non-squareness feeds the Weil-bound step.

Everything is kept univariate: an even-index division polynomial is
stored as w(X) times one formal factor Y, and every product is reduced
through Y^2 = X^3 + a*X + b at combination time.  The executable
verify_* checks replay the torsion/division-point statements directly
against the group law.
"""

from __future__ import annotations

from .curve import INFINITY, Curve, CurvePoint, index_table, rational_division_points
from .curve import sqrt_in_base_or_ext
from .field import Fp2, PreconditionError, ResourceBudgetError
from .poly import Poly, poly_gcd, pth_power_root, squarefree_part

RATIONAL_BUDGET = 1_000_000  # the most points of E(F_p) the rational checks read


class ReducedPoly:
    """w(X) * Y^e with e in {0, 1}, in the coordinate ring of the curve.

    Y^2 is eliminated against X^3 + a*X + b whenever a product would
    carry two Y factors, so stored data stays univariate.
    """

    __slots__ = ("w", "has_y", "_e")

    def __init__(self, w: Poly, has_y: bool, curve_poly: Poly):
        self.w = w
        self.has_y = has_y
        self._e = curve_poly

    def __mul__(self, other: "ReducedPoly") -> "ReducedPoly":
        w = self.w * other.w
        if self.has_y and other.has_y:
            return ReducedPoly(w * self._e, False, self._e)
        return ReducedPoly(w, self.has_y or other.has_y, self._e)

    def __sub__(self, other: "ReducedPoly") -> "ReducedPoly":
        if self.has_y != other.has_y:
            raise RuntimeError("subtracting mixed Y-parities")
        return ReducedPoly(self.w - other.w, self.has_y, self._e)

    def cube(self) -> "ReducedPoly":
        return self * self * self

    def square_w(self) -> Poly:
        """The univariate reduction of the square of this object."""
        w = self.w * self.w
        return w * self._e if self.has_y else w

    def div_by_2y(self) -> "ReducedPoly":
        """Exact division by 2Y of a pure object known to be E(X)-divisible.

        The even-index recurrence always lands here with numerator
        E(X) * (2 * result); failure means the recurrence is broken.
        """
        if self.has_y:
            raise RuntimeError("2Y-division expects a reduced pure object")
        q, r = divmod(self.w, self._e)
        if not r.is_zero():
            raise RuntimeError("2Y-division left a remainder")
        return ReducedPoly(q * self.w.field.inv(2), True, self._e)


class DivisionPolynomials:
    """Memoized division polynomials and derived data for one curve."""

    def __init__(self, curve: Curve):
        self.curve = curve
        F = curve.field
        self.curve_poly = Poly(F, [curve.b, curve.a, 0, 1])  # X^3 + aX + b
        a, b = curve.a, curve.b
        E = self.curve_poly
        self._psi: dict[int, ReducedPoly] = {
            -1: ReducedPoly(Poly.const(F, -1), False, E),
            0: ReducedPoly(Poly(F), True, E),
            1: ReducedPoly(Poly.const(F, 1), False, E),
            2: ReducedPoly(Poly.const(F, 2), True, E),
            3: ReducedPoly(Poly(F, [-a * a, 12 * b, 6 * a, 0, 3]), False, E),
            4: ReducedPoly(
                Poly(
                    F,
                    [
                        4 * (-8 * b * b - a**3),
                        4 * (-4 * a * b),
                        4 * (-5 * a * a),
                        4 * (20 * b),
                        4 * (5 * a),
                        0,
                        4,
                    ],
                ),
                True,
                E,
            ),
        }
        self._fgh: dict[int, tuple[Poly, Poly, Poly]] = {}
        self._ftilde: dict[int, Poly] = {}

    def psi(self, n: int) -> ReducedPoly:
        """The nth division polynomial, reduced; n >= -1."""
        if n < -1:
            raise ValueError("psi defined for n >= -1")
        got = self._psi.get(n)
        if got is not None:
            return got
        m = n // 2
        if n & 1:
            value = self.psi(m + 2) * self.psi(m).cube() - self.psi(m - 1) * self.psi(
                m + 1
            ).cube()
        else:
            inner = self.psi(m + 2) * (self.psi(m - 1) * self.psi(m - 1)) - self.psi(
                m - 2
            ) * (self.psi(m + 1) * self.psi(m + 1))
            value = (self.psi(m) * inner).div_by_2y()
        if value.has_y != (n % 2 == 0):
            raise RuntimeError(f"psi_{n} has the wrong Y-parity")
        self._psi[n] = value
        return value

    def f_g_h(self, n: int) -> tuple[Poly, Poly, Poly]:
        """f_n = X*psi_n^2 - psi_(n-1)*psi_(n+1), g_n = psi_n^2, and the
        h_n with g_n = h_n^2 (n odd) or (X^3+aX+b)*h_n^2 (n even)."""
        if n < 1:
            raise ValueError("f_g_h defined for n >= 1")
        got = self._fgh.get(n)
        if got is not None:
            return got
        F = self.curve.field
        g = self.psi(n).square_w()
        cross = self.psi(n - 1) * self.psi(n + 1)
        if cross.has_y:
            raise RuntimeError("psi_(n-1)*psi_(n+1) must reduce to a pure polynomial")
        f = Poly.x(F) * g - cross.w
        h = self.psi(n).w
        expected = h * h if n % 2 else self.curve_poly * h * h
        if expected != g:
            raise RuntimeError(f"g_{n} does not have the required square shape")
        self._fgh[n] = (f, g, h)
        return self._fgh[n]

    def f(self, n: int) -> Poly:
        return self.f_g_h(n)[0]

    def g(self, n: int) -> Poly:
        return self.f_g_h(n)[1]

    def torsion_size(self, n: int) -> int:
        """#E[n] over the closure: n*n_star if ordinary, n_star^2 if not."""
        p = self.curve.p
        n_star = n
        while n_star % p == 0:
            n_star //= p
        return n * n_star if self.curve.is_ordinary() else n_star * n_star

    def f_tilde(self, n: int) -> Poly:
        """The root ft_n with f_n = ft_n^(p^r) (ordinary) or ft_n^(p^2r).

        Root extraction failing, or the degree disagreeing with #E[n],
        means the ordinary/supersingular classification went wrong.
        """
        got = self._ftilde.get(n)
        if got is not None:
            return got
        p = self.curve.p
        r = 0
        n_star = n
        while n_star % p == 0:
            n_star //= p
            r += 1
        exponent = r if self.curve.is_ordinary() else 2 * r
        try:
            ft = pth_power_root(self.f(n), exponent)
        except ValueError as exc:
            raise RuntimeError(
                f"f_{n} is not a p^{exponent} power; classification is inconsistent"
            ) from exc
        if ft.degree() != self.torsion_size(n):
            raise RuntimeError(
                f"deg ft_{n} = {ft.degree()} != #E[{n}] = {self.torsion_size(n)}"
            )
        self._ftilde[n] = ft
        return ft

    def phi_psi(self, m: int, n: int) -> tuple[Poly, Poly]:
        """Square-class polynomials w_Phi, w_Psi of the pair-sum fractions
        Phi = f_m*f_n/(g_m*g_n) and Psi = E*Phi, with E = X^3+aX+b.

        f_g_h certifies g_k = h_k^2 * E^[k even] and raises otherwise, so
        num*den of Phi is f_m*f_n*E^e times a square, e = [m even] +
        [n even].  Hence w_Phi = f_m*f_n*E^(e mod 2) and w_Psi =
        f_m*f_n*E^((e+1) mod 2) give every closure root the same
        multiplicity mod 2 as num*den of Phi and of Psi, reduced or not:
        each is a constant times a square exactly when its fraction is a
        square.
        """
        fmn = self.f(m) * self.f(n)
        E = self.curve_poly
        if (m + n) % 2:  # e mod 2 = (m + n) mod 2
            return fmn * E, fmn
        return fmn, fmn * E

    # -- executable checks ------------------------------------------------

    def verify_xfg(self, n: int) -> bool:
        """x(nP) = f_n(x)/g_n(x) against the group law, at every affine
        rational point; g_n(x) = 0 must mean nP = O.  nP is read from
        index_table(C, 1): P = i*G1 + j*G2 gives nP at (n*i, n*j)."""
        f, g, _ = self.f_g_h(n)
        C = self.curve
        p = C.p
        if C.order() > RATIONAL_BUDGET:
            raise ResourceBudgetError(f"#E = {C.order()} exceeds budget {RATIONAL_BUDGET}")
        T = index_table(C, 1)
        for P, (i, j) in T.index.items():
            if P.is_infinity:
                continue
            gu = g(P.x)
            R = T.rows[n * i % T.d1][n * j % T.d2]
            if R.is_infinity != (gu == 0) or (gu and (R.x * gu - f(P.x)) % p):
                return False
        return True

    def verify_torsion_roots(self, n: int) -> bool:
        """Roots of g_n in F_p are exactly the x-coordinates of n-torsion
        points, with non-rational lifts checked over F_p^2."""
        if n < 2:
            raise ValueError("torsion-root check needs n >= 2")
        C = self.curve
        g = self.g(n)
        for P in rational_division_points(C, n, INFINITY, budget=RATIONAL_BUDGET):
            if not P.is_infinity and g(P.x) != 0:
                return False
        for u in g.roots():
            y = sqrt_in_base_or_ext(C.field, C.rhs(u))
            P = CurvePoint(Fp2(C.field, u), y)
            if not C.mul(n, P).is_infinity:
                return False
        return True

    def verify_division_point_roots(self, n: int) -> bool:
        """Lemma-1 behaviour of f_n: its F_p-roots are x-coordinates of
        n-division points of P0 = (0, sqrt(b)), and conversely every
        F_p^2-rational member of that coset kills f_n.  A root u lifts to
        (u, y) with n*(u, y) = +-P0 exactly when u is a member's x."""
        C = self.curve
        if C.b == 0:
            raise PreconditionError("division-point check requires b != 0")
        f, g, _ = self.f_g_h(n)
        if poly_gcd(f, g).degree() != 0:
            return False  # f_n, g_n must be coprime
        F = C.field
        P0 = CurvePoint(Fp2(F, 0), sqrt_in_base_or_ext(F, C.b))
        xs = {P.x for P in rational_division_points(C, n, P0, ext=2)}
        if any(Fp2(F, u) not in xs for u in f.roots()):
            return False
        return all(f(x).is_zero() for x in xs)

    def verify_squarefree_ftilde(self, n_max: int) -> bool:
        """ft_n is square-free for all n <= n_max (needs b != 0)."""
        if self.curve.b == 0:
            raise PreconditionError("square-freeness requires b != 0")
        for n in range(1, n_max + 1):
            ft = self.f_tilde(n)
            if squarefree_part(ft).degree() != ft.degree():
                return False
        return True
