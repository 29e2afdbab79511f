"""Dense univariate polynomials over F_p.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial has an empty coefficient list.  Every operation is exact.
Products go through Kronecker substitution: each operand is packed into
one integer, CPython multiplies the two, and the coefficients are read
back from the product's bytes.  Division and the Euclidean remainder
sequence cancel one row per quotient coefficient with a single list
comprehension, and reduce mod p once per division.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import mul
from sys import byteorder

from .field import Fp2, PrimeField

# array typecode of each item size in bytes (1, 2, 4, 8 on common platforms)
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


class Poly:
    """Polynomial over F_p as a trimmed list of canonical residues."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=()):
        p = field.p
        c = [v % p for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = c

    @classmethod
    def const(cls, field: PrimeField, v: int) -> "Poly":
        return cls(field, [v])

    @classmethod
    def x(cls, field: PrimeField) -> "Poly":
        return cls(field, [0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field.p == self.field.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, tuple(self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"X^{i}" if c == 1 else f"{c}*X^{i}"))
        return "Poly(" + " + ".join(reversed(terms)) + ")"

    def _wrap(self, coeffs) -> "Poly":
        return Poly(self.field, coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return self._wrap(out)

    def __sub__(self, other):
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, v in enumerate(other.coeffs):
            out[i] -= v
        return self._wrap(out)

    def __neg__(self):
        return self._wrap([-v for v in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap([other * v for v in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._wrap([])
        p = self.field.p
        # a product coefficient is a sum of at most min(len) terms below p^2
        bits = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
        width = 1
        while 8 * width < bits:
            width *= 2
        n = len(a) + len(b) - 1
        data = (_pack(a, width) * _pack(b, width)).to_bytes(width * n, byteorder)
        return self._wrap(_unpack(data, width))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        result = Poly.const(self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        inv_lead = self.field.inv(other.lead())
        quo, rem = _divide_monic(self.coeffs, [v * inv_lead % p for v in other.coeffs], p)
        return self._wrap([v * inv_lead for v in quo]), self._wrap(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.lead() == 1:
            return self
        return self * self.field.inv(self.lead())

    def derivative(self) -> "Poly":
        return self._wrap([i * v for i, v in enumerate(self.coeffs)][1:])

    def __call__(self, u):
        """Evaluate by Horner at an int (F_p) or Fp2 point; at an Fp2
        point the accumulator is an int pair (re, im), and only the
        value is built as an Fp2."""
        p = self.field.p
        if isinstance(u, Fp2):
            d, ur, ui = self.field.nonresidue(), u.re, u.im
            re = im = 0
            for c in reversed(self.coeffs):
                re, im = (re * ur + d * im * ui + c) % p, (re * ui + im * ur) % p
            return Fp2(self.field, re, im)
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * u + c) % p
        return acc

    def roots(self) -> list[int]:
        """All roots in F_p, by scanning the field (desk-scale)."""
        return [u for u in range(self.field.p) if self(u) == 0]


def _pack(coeffs: list, width: int) -> int:
    """The int whose width-byte slots hold coeffs, in native byte order.

    Little-endian, slot i has weight 2^(8*width*i).  Big-endian, the
    slots come in reverse order, which a product preserves: unpacking it
    in the same order reads its coefficients lowest degree first.
    """
    if width <= 8:
        data = array(_TYPECODES[width], coeffs)
    else:
        data = b"".join(map(int.to_bytes, coeffs, repeat(width), repeat(byteorder)))
    return int.from_bytes(data, byteorder)


def _unpack(data: bytes, width: int):
    """The width-byte native-order slots of data, as a sequence of ints."""
    if width <= 8:
        return array(_TYPECODES[width], data)
    return [int.from_bytes(data[i : i + width], byteorder)
            for i in range(0, len(data), width)]


def _divide_monic(num: list, den: list, p: int) -> tuple[list, list]:
    """Quotient and remainder coefficient lists of num by the monic den.

    Each quotient coefficient cancels one row of den's length with one
    comprehension.  Rows are not reduced: an entry lies in at most
    deg den rows, so it stays below deg(den)*p^2 + p; the quotient
    coefficient is reduced as it is read and the remainder once, at the
    end.
    """
    dd = len(den) - 1
    if not dd:  # den = 1
        return [v % p for v in num], []
    rem = list(num)
    low = den[:-1]
    quo = []
    for top in range(len(rem) - 1, dd - 1, -1):
        c = rem[top] % p
        quo.append(c)
        if c:
            k = top - dd
            rem[k:top] = [r - c * v for r, v in zip(rem[k:top], low)]
    quo.reverse()
    return quo, [v % p for v in rem[:dd]]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm, run on
    coefficient lists: each step makes the divisor monic and takes the
    remainder by _divide_monic."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    p = f.field.p
    a, b = f.coeffs, g.coeffs
    while b:
        inv = pow(b[-1], -1, p)
        b = [v * inv % p for v in b]
        rem = _divide_monic(a, b, p)[1]
        while rem and rem[-1] == 0:
            rem.pop()
        a, b = b, rem
    return Poly(f.field, a).monic()


def pth_root(f: Poly) -> Poly:
    """Inverse of the Frobenius on polynomials with zero derivative.

    Over F_p every coefficient is its own p-th root, so f(X) = g(X^p)
    maps to g(X).
    """
    p = f.field.p
    if any(v and i % p for i, v in enumerate(f.coeffs)):
        raise ValueError("not a polynomial in X^p")
    return Poly(f.field, f.coeffs[::p])


def pth_power_root(f: Poly, r: int) -> Poly:
    """Extract g with g^(p^r) = f, assuming f is a polynomial in X^(p^r).

    Valid over F_p because Frobenius fixes the coefficients.  Raises
    ValueError when some exponent is not divisible by p^r, which signals
    that the caller's ordinary/supersingular classification was wrong.
    """
    if r < 0:
        raise ValueError("negative root exponent")
    for _ in range(r):
        f = pth_root(f)
    return f


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f.

    Characteristic-p aware: factors whose multiplicity is divisible by p
    hide inside gcd(f, f') with derivative zero, so the p-th root is
    taken and processed recursively.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    f = f.monic()
    if f.degree() <= 0:
        return Poly.const(f.field, 1)
    d = f.derivative()
    if d.is_zero():
        return squarefree_part(pth_root(f))
    g = poly_gcd(f, d)
    w = f // g  # distinct factors with multiplicity not divisible by p
    while True:
        c = poly_gcd(g, w)
        if c.degree() == 0:
            break
        g = g // c
    # g is now a p-th power holding the multiplicity-divisible-by-p factors
    if g.degree() == 0:
        return w.monic()
    return (w * squarefree_part(pth_root(g))).monic()


def rational_square_test(f: Poly) -> bool:
    """True iff f is a constant times a square over the closure of F_p.

    A rational function num/den is a square over the closure exactly
    when num*den is, so this decides it for any fraction whose num*den
    differs from f by a square.  Constants are squares over the closure,
    so f may be made monic; then its square roots there are +-g with g
    monic.  Frobenius fixes f, so it fixes g as well: g has coefficients
    in F_p.  Matching the top half of g*g with f's fixes g one
    coefficient at a time (p is odd, so 2 is invertible), and f is a
    square exactly when that candidate squares back to f.
    """
    if f.is_zero():
        raise ValueError("square test undefined for the zero polynomial")
    f = f.monic()
    if f.degree() % 2:
        return False
    p, half = f.field.p, f.field.inv(2)
    top = f.coeffs[::-1]  # f's coefficients from the leading one down
    root = [1]  # g's coefficients from the leading one down
    for k in range(1, f.degree() // 2 + 1):
        cross = sum(map(mul, root[1:k], root[k - 1:0:-1]))
        root.append((top[k] - cross) * half % p)
    g = Poly(f.field, root[::-1])
    return g * g == f
