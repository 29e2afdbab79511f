"""Dense univariate polynomials over F_p.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial has an empty coefficient list.  Every operation is exact.
Products go through Kronecker substitution: each operand is packed into
one integer, CPython multiplies the two, and the coefficients are read
back from the product's bytes.  Division and the Euclidean remainder
sequence run on packed rows too (_divide): each quotient coefficient
costs a constant number of interpreter steps (a few big-int operations,
whatever the degree), and the slots are reduced mod p only when a
tracked bound says the next division could overflow one.
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

    def _modulus(self, other: "Poly") -> int:
        """The p of both operands; polynomials over different fields do
        not combine."""
        p = self.field.p
        if other.field.p != p:
            raise ValueError("mixed fields")
        return p

    def __add__(self, other):
        self._modulus(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return self._wrap(out)

    def __sub__(self, other):
        self._modulus(other)
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, v in enumerate(other.coeffs):
            out[i] -= v
        return self._wrap(out)

    def __neg__(self):
        return self._wrap([-v for v in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap([other * v for v in self.coeffs])
        p = self._modulus(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._wrap([])
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
        """Quotient and remainder by _divide on packed rows: a constant
        number of interpreter steps per quotient coefficient.  Both
        operands start reduced, and the slot width holds a whole
        division, so no slot is reduced before the result is read.  A
        constant divisor only scales."""
        p = self._modulus(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        inv = self.field.inv(b[-1])
        if len(b) == 1:
            return self._wrap([v * inv for v in a]), self._wrap([])
        width = _row_width(p, max(len(a), len(b)))
        quo = []
        rem = _divide(_row(a, width, p), _row(b, width, p), inv, p, width, quo)[0]
        quo.reverse()
        return self._wrap(quo), self._wrap(_row_coeffs(rem, width))

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


# A row is a polynomial packed leading coefficient first: a triple
# (value, n, bound) whose int value holds the coefficient of X^(n-1-i)
# in its width-byte slot i, as an integer of at most bound congruent to
# it mod p.  The leading slot is nonzero mod p; the zero row has n = 0.
_LITTLE = byteorder == "little"


def _row_width(p: int, length: int) -> int:
    """Slot bytes (a power of two, at least 8) for rows of up to length
    coefficients mod p: a slot holds p + length*(p - 1)*p, so a division
    of reduced rows never has to reduce."""
    bits = (p + length * (p - 1) * p).bit_length()
    width = 8
    while 8 * width < bits:
        width *= 2
    return width


def _row(coeffs: list, width: int, p: int) -> tuple:
    """The row of a trimmed list of residues."""
    # _pack puts the first entry in the lowest slot little-endian, and in
    # the highest big-endian
    return _pack(coeffs[::-1] if _LITTLE else coeffs, width), len(coeffs), p - 1


def _row_coeffs(row: tuple, width: int) -> list:
    """The row's coefficients lowest degree first, not reduced mod p."""
    value, n, _ = row
    slots = _unpack(value.to_bytes(width * n, byteorder), width)
    return slots[::-1] if _LITTLE else list(slots)


def _reduce(row: tuple, width: int, p: int) -> tuple:
    """The row with every slot reduced mod p."""
    return _row([v % p for v in _row_coeffs(row, width)], width, p)


def _divide(num: tuple, den: tuple, inv: int, p: int, width: int,
            quo=None) -> tuple:
    """The rows (num mod den, den) for den != 0 with leading coefficient
    1/inv mod p, den reduced if need be.

    Each quotient step reads the leading slot of num with one mask,
    takes c = slot*inv mod p, drops that slot (c*lead(den) cancels
    it mod p) with one shift, and adds (p - c) times den's lower slots
    with one product and one sum.  Slots only grow, so no borrow crosses
    a slot.  A slot takes at most min(steps, deg den) such sums; when
    they could overflow it, num is reduced first and, if that is not
    enough, den too, after which the width holds the whole division.
    The remainder's leading slots are dropped while they are 0 mod p.
    The quotient coefficients, leading one first, are appended to quo.
    """
    value, n, bound = num
    d_value, d_n, d_bound = den
    bits = 8 * width
    mask = (1 << bits) - 1
    steps = n - d_n + 1
    if steps > 0:
        adds = min(steps, d_n - 1) * (p - 1)
        if bound + adds * d_bound > mask:
            value, n, bound = _reduce(num, width, p)
            if bound + adds * d_bound > mask:
                den = _reduce(den, width, p)
                d_value, d_n, d_bound = den
        lower = d_value >> bits
        for _ in range(steps):
            c = (value & mask) * inv % p
            value >>= bits
            if c:
                value += (p - c) * lower
            if quo is not None:
                quo.append(c)
        bound += adds * d_bound
        n = d_n - 1
    while n and not (value & mask) % p:
        value >>= bits
        n -= 1
    return (value, n, bound), den


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm on
    packed rows.  Both rows stay packed for the whole remainder sequence:
    each remainder costs _divide's constant number of interpreter steps
    per quotient coefficient, no divisor is made monic (its lead's
    inverse goes into each quotient coefficient), and slots are reduced
    mod p only when a division could overflow one.  The last divisor is
    unpacked and made monic once."""
    p = f._modulus(g)
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    width = _row_width(p, max(len(f.coeffs), len(g.coeffs)))
    a, b = _row(f.coeffs, width, p), _row(g.coeffs, width, p)
    lead = (1 << 8 * width) - 1  # the mask of a row's leading slot
    while b[1]:
        rem, b = _divide(a, b, pow(b[0] & lead, -1, p), p, width)
        a, b = b, rem
    coeffs = _row_coeffs(a, width)
    inv = pow(coeffs[-1], -1, p)
    return Poly(f.field, [v * inv for v in coeffs])


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
