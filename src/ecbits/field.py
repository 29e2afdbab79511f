"""Arithmetic in F_p and F_p^2, the quadratic character chi and the
additive character psi.

Field elements are plain ints held as canonical residues in [0, p).
Quadratic-extension elements are Fp2 instances over F_p(sqrt(d)) with d
the smallest non-residue mod p.  Moduli are capped below 2**31 so every
product fits comfortably in machine integers; the chi table, which
counts points and sums U, is built only for p up to CHI_TABLE_BUDGET.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

MAX_MODULUS = 1 << 31

# the largest p whose chi table (one list entry per residue) is built:
# every #E count reads it, and at p = 10^7 a count takes seconds and
# ~90 MB, where near MAX_MODULUS it would take hours and ~17 GB
CHI_TABLE_BUDGET = 10_000_000


class PreconditionError(ValueError):
    """A documented hypothesis of an operation does not hold."""


class ResourceBudgetError(RuntimeError):
    """An exhaustive computation would exceed its configured budget."""


_MR_BASES = (2, 3, 5, 7)  # deterministic for n < 3_215_031_751


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes q <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [i for i, v in enumerate(sieve) if v]


class PsiMemo(dict):
    """psi(u) by residue u in [0, p), each filled on first use through
    PrimeField.psi and kept with the field: memory grows with the
    residues met, never to a length-p table."""

    __slots__ = ("field",)

    def __init__(self, field: "PrimeField"):
        super().__init__()
        self.field = field

    def __missing__(self, u: int) -> complex:
        value = self[u] = self.field.psi(u)
        return value


class PrimeField:
    """The prime field F_p for an odd prime p < 2**31."""

    __slots__ = ("p", "_chi_table", "_nonresidue", "psi_memo")

    def __init__(self, p: int):
        if not 2 < p < MAX_MODULUS:
            raise ValueError(f"modulus {p} out of supported range (odd, < 2**31)")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self._chi_table: list[int] | None = None
        self._nonresidue: int | None = None
        self.psi_memo = PsiMemo(self)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(x, -1, self.p)

    def chi(self, u: int) -> int:
        """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0.

        Euler's criterion, u^((p-1)/2) mod p; branch-free and exact.
        """
        r = pow(u % self.p, (self.p - 1) // 2, self.p)
        return -1 if r == self.p - 1 else r

    def chi_table(self) -> list[int]:
        """chi(u) for every residue u, built once from the squares; a p
        above the point-counting budget is refused before any of it."""
        if self._chi_table is None:
            p = self.p
            if p > CHI_TABLE_BUDGET:
                raise ResourceBudgetError(f"p = {p} exceeds the point-counting "
                                          f"budget {CHI_TABLE_BUDGET}")
            t = [-1] * p
            t[0] = 0
            for y in range(1, (p - 1) // 2 + 1):
                t[y * y % p] = 1
            self._chi_table = t
        return self._chi_table

    def psi(self, u: int) -> complex:
        """Additive character exp(2*pi*i*u/p)."""
        return cmath.exp(2j * math.pi * (u % self.p) / self.p)

    def sqrt(self, u: int) -> int | None:
        """Canonical square root of u in F_p (Tonelli-Shanks), or None.

        Canonical means the smaller of the two representatives.
        """
        p = self.p
        u %= p
        if u == 0:
            return 0
        if self.chi(u) != 1:
            return None
        if p % 4 == 3:
            r = pow(u, (p + 1) // 4, p)
            return min(r, p - r)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = self.nonresidue()
        m, c, t, r = s, pow(z, q, p), pow(u, q, p), pow(u, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)

    def nonresidue(self) -> int:
        """Smallest quadratic non-residue mod p."""
        if self._nonresidue is None:
            d = 2
            while self.chi(d) != -1:
                d += 1
            self._nonresidue = d
        return self._nonresidue


class Fp2:
    """Element re + im*sqrt(d) of F_p(sqrt(d)), d the smallest non-residue."""

    __slots__ = ("field", "re", "im")

    def __init__(self, field: PrimeField, re: int, im: int = 0):
        self.field = field
        self.re = re % field.p
        self.im = im % field.p

    @property
    def d(self) -> int:
        return self.field.nonresidue()

    def _coerce(self, other) -> "Fp2":
        if isinstance(other, Fp2):
            if other.field.p != self.field.p:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return Fp2(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp2(self.field, self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp2(self.field, self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return Fp2(
            self.field,
            (self.re * o.re + self.im * o.im % p * self.d) % p,
            (self.re * o.im + self.im * o.re) % p,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Fp2(self.field, -self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.im == 0 and self.re == other % self.field.p
        return (
            isinstance(other, Fp2)
            and other.field.p == self.field.p
            and other.re == self.re
            and other.im == self.im
        )

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"Fp2({self.re})"
        return f"Fp2({self.re}+{self.im}*sqrt({self.d}))"

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def norm(self) -> int:
        """Norm to F_p: (re + im*sqrt(d))(re - im*sqrt(d)) = re^2 - d*im^2."""
        p = self.field.p
        return (self.re * self.re - self.d * self.im % p * self.im) % p

    def inv(self) -> "Fp2":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        ni = self.field.inv(n)
        return Fp2(self.field, self.re * ni, -self.im * ni)

    def sqrt(self) -> "Fp2 | None":
        """Canonical square root in F_p^2, or None when no root exists.

        An element is a square in F_p^2 iff its norm is a square in F_p.
        For w = w0 + w1*sqrt(d) with w1 != 0, write s = sqrt(norm); then
        exactly one of (w0 +/- s)/2 is a nonzero square y0^2, and
        y1 = w1 / (2 y0).  Canonical root: lexicographically smaller of
        the pair (re, im) vs its negation.
        """
        F = self.field
        p = F.p
        if self.is_zero():
            return Fp2(F, 0)
        if self.im == 0:
            r = F.sqrt(self.re)
            if r is not None:
                return Fp2(F, r)
            # re is a non-residue: root is im-proportional, (e*sqrt(d))^2 = e^2 d
            e = F.sqrt(self.re * F.inv(self.d) % p)
            return self._canonical(Fp2(F, 0, e))
        s = F.sqrt(self.norm())
        if s is None:
            return None
        half = F.inv(2)
        y0sq = (self.re + s) * half % p
        if F.chi(y0sq) != 1:
            y0sq = (self.re - s) * half % p
        y0 = F.sqrt(y0sq)
        y1 = self.im * F.inv(2 * y0) % p
        return self._canonical(Fp2(F, y0, y1))

    def _canonical(self, r: "Fp2") -> "Fp2":
        neg = -r
        return r if (r.re, r.im) <= (neg.re, neg.im) else neg


@lru_cache(maxsize=None)
def field(p: int) -> PrimeField:
    """Shared PrimeField instances, so chi tables and psi memos are built
    once per modulus."""
    return PrimeField(p)
