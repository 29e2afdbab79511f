"""Division polynomials and the derived objects used by the pair-sum
bound: f_n, g_n, h_n, the p-power root ft_n, and the square classes of
the rational functions whose non-squareness feeds the Weil-bound step.

Everything is kept univariate: psi_n = w_n(X) * Y^[n even], and only
w_n is stored.  The recurrences carry the Y factors by the parity of
the indices, each Y^2 becoming E = X^3 + a*X + b, so nothing is ever
divided by E.  The executable verify_* checks replay the
torsion/division-point statements directly against the group law.
"""

from __future__ import annotations

from .curve import INFINITY, Curve, CurvePoint, index_table, rational_division_points
from .field import Fp2, PreconditionError
from .poly import Poly, poly_gcd, pth_power_root, squarefree_part


class DivisionPolynomials:
    """Memoized division polynomials and derived data for one curve."""

    def __init__(self, curve: Curve):
        self.curve = curve
        F = curve.field
        self.curve_poly = Poly(F, [curve.b, curve.a, 0, 1])  # X^3 + aX + b
        a, b = curve.a, curve.b
        self._psi: dict[int, Poly] = {
            -1: Poly.const(F, -1),
            0: Poly(F),
            1: Poly.const(F, 1),
            2: Poly.const(F, 2),
            3: Poly(F, [-a * a, 12 * b, 6 * a, 0, 3]),
            4: Poly(F, [4 * (-8 * b * b - a**3), 4 * (-4 * a * b), 4 * (-5 * a * a),
                        4 * (20 * b), 4 * (5 * a), 0, 4]),
        }
        self._fgh: dict[int, tuple[Poly, Poly, Poly]] = {}
        self._ftilde: dict[int, Poly] = {}

    def psi(self, n: int) -> Poly:
        """w_n with psi_n = w_n * Y^[n even]; n >= -1."""
        if n < -1:
            raise ValueError("psi defined for n >= -1")
        got = self._psi.get(n)
        if got is not None:
            return got
        m, E = n // 2, self.curve_poly
        lo, mid, hi, top = self.psi(m - 1), self.psi(m), self.psi(m + 1), self.psi(m + 2)
        if n & 1:  # the term whose indices are even carries Y^4 = E^2
            up, down = top * mid * mid * mid, lo * hi * hi * hi
            value = up * (E * E) - down if m % 2 == 0 else up - down * (E * E)
        else:  # psi_m times the bracket carries Y^2 * Y^[m even]: 2Y divides out
            inner = top * lo * lo - self.psi(m - 2) * hi * hi
            value = mid * inner * self.curve.field.inv(2)
        self._psi[n] = value
        return value

    def f_g_h(self, n: int) -> tuple[Poly, Poly, Poly]:
        """f_n = X*psi_n^2 - psi_(n-1)*psi_(n+1), g_n = psi_n^2, and
        h_n = w_n, so g_n = h_n^2 * (X^3+aX+b)^[n even]."""
        if n < 1:
            raise ValueError("f_g_h defined for n >= 1")
        got = self._fgh.get(n)
        if got is not None:
            return got
        E = self.curve_poly
        h = self.psi(n)
        g = h * h * E if n % 2 == 0 else h * h
        cross = self.psi(n - 1) * self.psi(n + 1)
        f = Poly.x(self.curve.field) * g - (cross * E if n % 2 else cross)
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

        g_k = h_k^2 * E^[k even] holds by construction (h_k = w_k), so
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
        for P in rational_division_points(C, n, INFINITY):
            if not P.is_infinity and g(P.x) != 0:
                return False
        for u in g.roots():
            P = CurvePoint(Fp2(C.field, u), Fp2(C.field, C.rhs(u)).sqrt())
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
        P0 = CurvePoint(Fp2(F, 0), Fp2(F, C.b).sqrt())
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
