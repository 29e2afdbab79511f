"""Short Weierstrass curves y^2 = x^3 + a*x + b over F_p, with point
arithmetic optionally in F_p^2, point counting through the quadratic
character weight, desk-scale group-structure utilities (an index table
of E(F_p) or E(F_p^2) from which the group structure, torsion kernels and
division points are read), and the search for curves with a large
subgroup of order coprime to N!.

The point at infinity is the neutral element; everywhere a sum needs an
x-coordinate for it, the formal convention x(O) = 0 applies.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .field import (
    MAX_MODULUS,
    Fp2,
    PreconditionError,
    PrimeField,
    ResourceBudgetError,
    field,
    is_prime,
    primes_upto,
)


class CurvePoint(NamedTuple):
    """Affine point with int (F_p) or Fp2 coordinates, or infinity
    (x = y = None).  An immutable (x, y) value: an F_p point equals, and
    hashes like, its F_p^2 image, as an Fp2 with im = 0 does its int."""

    x: int | Fp2 | None
    y: int | Fp2 | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


INFINITY = CurvePoint(None, None)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for n < 2**40)."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    q = 5
    while q * q <= n:
        for step in (q, q + 2):
            while n % step == 0:
                out[step] = out.get(step, 0) + 1
                n //= step
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


ENUMERATION_BUDGET = 1_000_000


class Curve:
    """y^2 = x^3 + a*x + b over F_p, p > 3 prime, 4a^3 + 27b^2 != 0."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: PrimeField, a: int, b: int):
        p = field.p
        if p <= 3:
            raise ValueError("curve fields need p > 3 (gcd(p, 6) = 1)")
        a %= p
        b %= p
        if (4 * a * a % p * a + 27 * b * b) % p == 0:
            raise ValueError(f"singular curve: 4a^3 + 27b^2 = 0 for a={a}, b={b}")
        self.field = field
        self.a = a
        self.b = b

    @property
    def p(self) -> int:
        return self.field.p

    def __repr__(self):
        return f"Curve(p={self.p}, a={self.a}, b={self.b})"

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and other.p == self.p
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def rhs(self, x):
        """x^3 + a*x + b in the coordinate field of x."""
        if isinstance(x, Fp2):
            return x * x * x + self.a * x + self.b
        p = self.p
        return (x * x % p * x + self.a * x + self.b) % p

    def contains(self, P: CurvePoint) -> bool:
        if P.is_infinity:
            return True
        d = P.y * P.y - self.rhs(P.x)
        return d % self.p == 0 if isinstance(d, int) else d.is_zero()

    def neg(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return INFINITY
        if isinstance(P.y, Fp2):
            return CurvePoint(P.x, -P.y)
        return CurvePoint(P.x, (-P.y) % self.p)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """Group law with on-curve validation of both inputs."""
        for R in (P, Q):
            if not self.contains(R):
                raise ValueError(f"point {R} is not on {self}")
        return self._add(P, Q)

    def _add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        if isinstance(P.x, Fp2) or isinstance(Q.x, Fp2):
            return self._add_ext(P, Q)
        p = self.p
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return INFINITY
            s = (3 * x1 * x1 + self.a) * self.field.inv(2 * y1) % p
        else:
            s = (y2 - y1) * self.field.inv(x2 - x1) % p
        x3 = (s * s - x1 - x2) % p
        return CurvePoint(x3, (s * (x1 - x3) - y1) % p)

    def _add_ext(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """The group law over F_p^2, for P and Q not O with at least one
        Fp2 x-coordinate (the other point may have int coordinates).

        Runs on the int pairs (re, im) of the coordinates, w = re + im*sqrt(d),
        with one inversion of the slope denominator's norm in F_p; Fp2
        objects are built for the result only.
        """
        F = self.field
        p, d = F.p, F.nonresidue()
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y  # an int v stands for (v mod p, 0)
        x1r, x1i = (x1.re, x1.im) if isinstance(x1, Fp2) else (x1 % p, 0)
        y1r, y1i = (y1.re, y1.im) if isinstance(y1, Fp2) else (y1 % p, 0)
        x2r, x2i = (x2.re, x2.im) if isinstance(x2, Fp2) else (x2 % p, 0)
        y2r, y2i = (y2.re, y2.im) if isinstance(y2, Fp2) else (y2 % p, 0)
        if x1r == x2r and x1i == x2i:
            nr, ni = (y1r + y2r) % p, (y1i + y2i) % p
            if nr == 0 and ni == 0:
                return INFINITY
            # x1 = x2 and y1 = y2 here, so the slope is (3*x1^2 + a) / (y1 + y2)
            ur, ui = 3 * (x1r * x1r + d * x1i * x1i) + self.a, 6 * x1r * x1i
        else:
            ur, ui, nr, ni = y2r - y1r, y2i - y1i, x2r - x1r, x2i - x1i
        # s = u / n = u * conj(n) / norm(n), conj(n) = nr - ni*sqrt(d)
        inv = F.inv(nr * nr - d * ni * ni)
        sr, si = (ur * nr - d * ui * ni) * inv % p, (ui * nr - ur * ni) * inv % p
        x3r, x3i = (sr * sr + d * si * si - x1r - x2r) % p, (2 * sr * si - x1i - x2i) % p
        dr, di = x1r - x3r, x1i - x3i
        return CurvePoint(Fp2(F, x3r, x3i),
                          Fp2(F, sr * dr + d * si * di - y1r, sr * di + si * dr - y1i))

    def mul(self, n: int, P: CurvePoint) -> CurvePoint:
        """Scalar multiple nP by double-and-add; mul(0, P) = O."""
        if not self.contains(P):
            raise ValueError(f"point {P} is not on {self}")
        if n < 0:
            n, P = -n, self.neg(P)
        result = INFINITY
        addend = P
        while n:
            if n & 1:
                result = self._add(result, addend)
            addend = self._add(addend, addend)
            n >>= 1
        return result

    @functools.lru_cache(maxsize=8)
    def order(self) -> int:
        """#E(F_p) = p + 1 + sum_u chi(u^3 + a*u + b).

        Each u occurs as an x-coordinate exactly 1 + chi(rhs(u)) times,
        so the complete character sum counts the affine points.  The
        count is kept for the process by curve value (a Curve equals and
        hashes as its (p, a, b)), so a curve search, the cells of a sweep
        and a report replay count each curve once.
        """
        p, a, b = self.p, self.a, self.b
        chi = self.field.chi_table()
        total = 0
        for u in range(p):
            total += chi[(u * u % p * u + a * u + b) % p]
        return p + 1 + total

    def is_ordinary(self) -> bool:
        """For p >= 5 a curve over F_p is supersingular iff #E = p + 1."""
        return self.order() != self.p + 1

    def points_by_x(self, u: int) -> list[CurvePoint]:
        """The 0, 1, or 2 rational points with x-coordinate u, y ascending."""
        w = self.rhs(u)
        c = self.field.chi(w)
        if c == -1:
            return []
        if c == 0:
            return [CurvePoint(u, 0)]
        y = self.field.sqrt(w)
        return [CurvePoint(u, y), CurvePoint(u, self.p - y)]

    def enumerate_points(self) -> list[CurvePoint]:
        """All rational points, O first, then affine sorted by (x, y): a
        fresh list of the points _points keeps per curve value."""
        return list(self._points())

    @functools.lru_cache(maxsize=8)
    def _points(self) -> tuple[CurvePoint, ...]:
        """Cost: one pass over the squares y^2, y <= (p - 1) / 2, fills a
        transient table of the smaller root, and one pass over u reads
        it at u^3 + a*u + b: no square root or chi evaluated."""
        if self.order() > ENUMERATION_BUDGET:
            raise ResourceBudgetError(
                f"#E = {self.order()} exceeds enumeration budget {ENUMERATION_BUDGET}"
            )
        p, a, b = self.p, self.a, self.b
        # root[w] = the smaller square root of w for a nonzero square w,
        # else 0: y <= (p - 1) / 2 is the smaller of y and p - y
        root = [0] * p
        for y in range(1, (p + 1) // 2):
            root[y * y % p] = y
        pts = [INFINITY]
        for u in range(p):
            w = (u * u % p * u + a * u + b) % p
            if not w:
                pts.append(CurvePoint(u, 0))
            elif y := root[w]:
                pts += (CurvePoint(u, y), CurvePoint(u, p - y))
        return tuple(pts)

    def point_order(self, P: CurvePoint, _factors=None, order: int | None = None) -> int:
        """Order of P, dividing order (default #E(F_p); pass #E(F_p^2) for a
        point with F_p^2 coordinates) whose factorization is _factors."""
        n = self.order() if order is None else order
        factors = _factors if _factors is not None else factorize(n)
        o = n
        for q in factors:
            while o % q == 0 and self.mul(o // q, P).is_infinity:
                o //= q
        return o


class GroupStructure(NamedTuple):
    """E(F_p) as Z/d1 x Z/d2 with d1 | d2, witnessed by two generators."""

    order: int
    d1: int
    d2: int
    gen1: CurvePoint
    gen2: CurvePoint


def group_structure(curve: Curve) -> GroupStructure:
    """Invariant factors and generators, read from index_table(curve, 1):
    gen1 = rows[1][0] (O when d1 = 1) and gen2 = rows[0][1].  The table
    holds exactly #E distinct points i*gen1 + j*gen2, which certifies
    them; it costs #E additions and a few sampled point orders."""
    T = index_table(curve, 1)
    gen1 = T.rows[1][0] if T.d1 > 1 else INFINITY
    return GroupStructure(curve.order(), T.d1, T.d2, gen1, T.rows[0][1])


def _rows(curve: Curve, G1: CurvePoint, d1: int, row: list) -> list[list]:
    """[[i*G1 + P for P in row] for i < d1]: d1 - 1 shifts of one walked row."""
    rows = [row]
    for _ in range(d1 - 1):
        rows.append([curve._add(P, G1) for P in rows[-1]])
    return rows


def multiples(curve: Curve, P: CurvePoint) -> Iterator[tuple[int, int]]:
    """The int pairs (x, y) of P, 2P, ..., (o-1)P for o = ord(P), P an
    F_p point (nothing for P = O): one inversion mod p per step, with no
    CurvePoint built.  Only the first step meets x = x(P), at P itself,
    so it doubles; the walk ends at -P, whose successor is O."""
    if P.is_infinity:
        return
    p, a = curve.p, curve.a
    x1, y1 = P.x, P.y
    ny1 = -y1 % p
    x, y = x1, y1
    while True:
        yield x, y
        if x == x1:
            if y == ny1:
                return
            s = (3 * x * x + a) * pow(2 * y, -1, p) % p
        else:
            s = (y - y1) * pow(x - x1, -1, p) % p
        x3 = (s * s - x - x1) % p
        y = (s * (x - x3) - y) % p
        x = x3


def _add_pairs(p: int, a: int, P1, P2):
    """P1 + P2 on int pairs (x, y), None for O: the rules of multiples
    (x1 = x2 doubles, unless y2 = -y1, which gives O) with one inversion
    mod p."""
    if P1 is None:
        return P2
    if P2 is None:
        return P1
    (x1, y1), (x2, y2) = P1, P2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        s = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    return x3, (s * (x1 - x3) - y1) % p


def _doublings(p: int, a: int, P, bits: int) -> list:
    """[P, 2P, 4P, ..., 2^(bits-1) P] on int pairs (None for O), cut
    after the first O: every later doubling is O too."""
    table = [P]
    while len(table) < bits and table[-1] is not None:
        table.append(_add_pairs(p, a, table[-1], table[-1]))
    return table


def _bit_sum(p: int, a: int, table: list, n: int):
    """nP from table = _doublings(P): the sum of 2^i P over the set bits
    i of n, low bits first, with the bits past the table adding O."""
    result = None
    for i, D in enumerate(table):
        if n >> i & 1:
            result = _add_pairs(p, a, result, D)
    return result


def mul_int(curve: Curve, n: int, P: CurvePoint) -> CurvePoint:
    """nP for an F_p point P, by double-and-add on int pairs (_add_pairs)
    with one inversion mod p per step and no CurvePoint built until the
    result.  P is checked to lie on the curve once, as Curve.mul does."""
    if not curve.contains(P):
        raise ValueError(f"point {P} is not on {curve}")
    if n < 0:
        n, P = -n, curve.neg(P)
    if not n or P.is_infinity:
        return INFINITY
    p, a = curve.p, curve.a
    result = _bit_sum(p, a, _doublings(p, a, (P.x, P.y), n.bit_length()), n)
    return INFINITY if result is None else CurvePoint._make(result)


def torsion_doublings(curve: Curve, G: CurvePoint, t: int) -> list:
    """The doublings 2^i G, i < t.bit_length(), of an F_p point G, after
    the one check that every reader of <G> as an order-t table makes: t < 1
    or G off the curve is a ValueError, and tG != O a PreconditionError."""
    if t < 1:
        raise ValueError(f"need t >= 1, got t = {t}")
    if not curve.contains(G):
        raise ValueError(f"point {G} is not on {curve}")
    p, a = curve.p, curve.a
    table = _doublings(p, a, None if G.is_infinity else (G.x, G.y),
                       t.bit_length())
    if _bit_sum(p, a, table, t) is not None:
        raise PreconditionError(f"tG != O for t = {t} and G = {G}")
    return table


def orbit(curve: Curve, G: CurvePoint) -> list[CurvePoint]:
    """[O, G, 2G, ..., (o-1)G] for o = ord(G): the walk of multiples for
    an F_p point, repeated addition for an F_p^2 one, each addition on
    int pairs with one norm inversion (Curve._add_ext)."""
    if not curve.contains(G):
        raise ValueError(f"point {G} is not on {curve}")
    if isinstance(G.x, Fp2) or isinstance(G.y, Fp2):
        pts = [INFINITY]
        Q = G
        while not Q.is_infinity:
            pts.append(Q)
            Q = curve._add(Q, G)
        return pts
    return [INFINITY, *map(CurvePoint._make, multiples(curve, G))]


def _torsion_cyclic(curve: Curve, t: int) -> bool:
    """Whether E[t] is cyclic of order t, for t | n = #E, shown without
    enumerating E: E = Z/d1 x Z/d2 with d1 | d2 and, by the Weil pairing,
    d1 | p - 1, so when no prime ell | t has both ell^2 | n and
    ell | p - 1, gcd(t, d1) = 1 and t | d2."""
    n = curve.order()
    return not any(n % (ell * ell) == 0 and (curve.p - 1) % ell == 0
                   for ell in factorize(t))


SUBGROUP_BUDGET = 1_000_000


def check_subgroup_budget(t: int) -> None:
    """t <= SUBGROUP_BUDGET, read at each call: the one check of every
    reader that walks or tabulates all of an order-t subgroup."""
    if t > SUBGROUP_BUDGET:
        raise ResourceBudgetError(f"t = {t} exceeds subgroup budget {SUBGROUP_BUDGET}")


@functools.lru_cache(maxsize=8)
def subgroup_of_order(curve: Curve, t: int) -> tuple[CurvePoint, ...]:
    """The unique order-t subgroup, O first, then affine points by (x, y).

    When E[t] is provably cyclic of order t (see _torsion_cyclic) it is
    the orbit of a point of order t: t <= SUBGROUP_BUDGET additions.
    Otherwise it is E[t](F_p), read from the index table by
    rational_division_points (#E <= 10^6, index_table's budget), and t
    is accepted only when that kernel has exactly t elements.  Kept per
    (curve, t): the uniqueness check and a sweep's cells share one H.
    """
    if t < 1:
        raise ValueError("subgroup order must be positive")
    n = curve.order()
    if n % t:
        raise ValueError(f"t = {t} does not divide #E = {n}")
    if t == 1:
        return (INFINITY,)
    if _torsion_cyclic(curve, t):
        check_subgroup_budget(t)
        return tuple(sorted(orbit(curve, subgroup_generator(curve, t)), key=_point_key))
    H = rational_division_points(curve, t, INFINITY)
    if len(H) != t:
        raise PreconditionError(
            f"no unique subgroup of order {t}: kernel of [t] has {len(H)} points"
        )
    return tuple(H)


def check_unique_subgroup(curve: Curve, t: int) -> None:
    """Raise what subgroup_of_order raises unless E has exactly one
    subgroup of order t: the one that the bounds average over.  Shown by
    _torsion_cyclic when it can, else by counting the kernel of [t]."""
    if not _torsion_cyclic(curve, t):
        subgroup_of_order(curve, t)


def order_over(curve: Curve, ext: int) -> int:
    """#E(F_p^ext) for ext in (1, 2); with a_p = p + 1 - #E(F_p),
    #E(F_p^2) = p^2 + 1 - (a_p^2 - 2p)."""
    if ext == 1:
        return curve.order()
    if ext != 2:
        raise ValueError("ext must be 1 or 2")
    p = curve.p
    a_p = p + 1 - curve.order()
    return p * p + 1 - (a_p * a_p - 2 * p)


class IndexTable(NamedTuple):
    """E(F_p^ext) as Z/d1 x Z/d2 with d1 | d2: rows[i][j] = i*G1 + j*G2,
    and index maps every point back to its (i, j)."""

    d1: int
    d2: int
    rows: list
    index: dict


TABLE_SAMPLES = 1000
TABLE_BUDGET = {1: 1_000_000, 2: 100_000}  # the most points of E(F_p^ext), by ext


@functools.lru_cache(maxsize=8)
def index_table(curve: Curve, ext: int = 1) -> IndexTable:
    """Every point of E(F_p^ext) indexed as i*G1 + j*G2, with generators
    G1, G2 of orders d1 | d2 found by sampling random points.

    G2 is grown by merging sampled orders until it can be the exponent.
    A sampled R whose multiples first meet <G2> at d1*R = j*G2 then gives
    G1 = R - (j/d1)*G2.  The table costs one walk of <G2> and d1 - 1
    shifted rows: #E(F_p^ext) additions.  Over F_p^2 each addition runs
    on the int pairs (re, im) of the coordinates, with one inversion of
    a norm in F_p, and builds Fp2 objects for its result only; the
    sampled square roots and Curve.mul's on-curve checks stay on Fp2.
    The table is certified by holding exactly #E(F_p^ext) distinct
    points, and raises RuntimeError when TABLE_SAMPLES samples run out
    first.  #E(F_p^ext) above TABLE_BUDGET[ext] is refused before any
    point is sampled.
    """
    n = order_over(curve, ext)
    if n > TABLE_BUDGET[ext]:
        raise ResourceBudgetError(f"#E(F_p^{ext}) = {n} exceeds budget {TABLE_BUDGET[ext]}")
    q = curve.p**ext
    factors = factorize(n)
    rng = random.Random(f"{curve.p},{curve.a},{curve.b},{ext}")
    G2, d2, row = INFINITY, 1, None
    for _ in range(TABLE_SAMPLES):
        d1 = n // d2
        if d1 == 1:
            G1 = INFINITY
            break
        R = _random_point(curve, ext, rng)
        if R is None:
            continue
        # d1 | d2 and d1 | q - 1 hold once d2 is the exponent (Weil pairing)
        if d2 % d1 or (q - 1) % d1:
            G2, d2 = _merge(curve, G2, d2, R, curve.point_order(R, factors, n))
            continue
        if row is None:
            row = orbit(curve, G2)
            pos = {P: j for j, P in enumerate(row)}
        S, k = R, 1
        while S not in pos:  # stops at some k | d1, the order of E/<G2>
            S, k = curve._add(S, R), k + 1
        j = pos[S]
        r = k * (d2 // math.gcd(j, d2))  # ord(R)
        if d2 % r:
            G2, d2 = _merge(curve, G2, d2, R, r)
            row = None
        elif k == d1:  # R generates E/<G2>; ord(R) | d2 forces d1 | j
            G1 = curve._add(R, curve.neg(row[j // d1]))
            break
    else:
        raise RuntimeError(f"no generators of E(F_p^{ext}) on {curve} "
                           f"within {TABLE_SAMPLES} samples")
    rows = _rows(curve, G1, d1, row or orbit(curve, G2))
    index = {P: (i, j) for i, shifted in enumerate(rows) for j, P in enumerate(shifted)}
    if len(index) != n:
        raise RuntimeError(f"index table of E(F_p^{ext}) on {curve} holds "
                           f"{len(index)} distinct points, not {n}")
    return IndexTable(d1, d2, rows, index)


def _random_point(curve: Curve, ext: int, rng: random.Random) -> CurvePoint | None:
    """A point over F_p^ext with a uniform random x-coordinate and sign of y,
    or None when that x has no point."""
    p = curve.p
    if ext == 1:
        row = curve.points_by_x(rng.randrange(p))
    else:
        x = Fp2(curve.field, rng.randrange(p), rng.randrange(p))
        y = curve.rhs(x).sqrt()
        row = [] if y is None else [CurvePoint(x, y), CurvePoint(x, -y)]
    return rng.choice(row) if row else None


def _merge(curve: Curve, G: CurvePoint, m: int, R: CurvePoint, r: int):
    """A point of order lcm(m, r) and that order, from G of order m and R
    of order r: the sum of a multiple of each carrying the larger power
    of every prime."""
    fm, fr = factorize(m), factorize(r)
    u = v = 1
    for ell in fm.keys() | fr.keys():
        if fm.get(ell, 0) >= fr.get(ell, 0):
            u *= ell ** fm[ell]
        else:
            v *= ell ** fr[ell]
    return curve._add(curve.mul(m // u, G), curve.mul(r // v, R)), u * v


def _congruence(n: int, c: int, d: int) -> range:
    """All x in [0, d) with n*x = c (mod d)."""
    g = math.gcd(n, d)
    if c % g:
        return range(0)
    step = d // g
    return range(c // g * pow(n // g, -1, step) % step, d, step)


def _point_key(P: CurvePoint) -> tuple:
    """O first, then affine points by x, then y ((re, im) over F_p^2)."""
    if P.is_infinity:
        return ()
    if isinstance(P.x, Fp2):
        return (P.x.re, P.x.im, P.y.re, P.y.im)
    return (P.x, P.y)


def rational_division_points(
    curve: Curve, n: int, Q: CurvePoint, ext: int = 1
) -> list[CurvePoint]:
    """All P with nP = Q and coordinates in F_p (ext=1) or F_p^2 (ext=2),
    O first, then affine points by x, then y.

    Read from index_table(curve, ext): with Q = i0*G1 + j0*G2, they are
    the points i*G1 + j*G2 with n*i = i0 (mod d1) and n*j = j0 (mod d2),
    so no point is multiplied.  The table is built once per curve and
    ext, at #E(F_p^ext) additions (on int pairs over F_p^2, one norm
    inversion each), within index_table's budget.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not curve.contains(Q):
        raise ValueError(f"point {Q} is not on {curve}")
    T = index_table(curve, ext)
    at = T.index.get(Q)
    if at is None:  # Q is not F_p-rational
        return []
    rows = T.rows
    found = [rows[i][j] for i in _congruence(n, at[0], T.d1)
             for j in _congruence(n, at[1], T.d2)]
    return sorted(found, key=_point_key)


# -- curve search ------------------------------------------------------------


class ExhaustionError(RuntimeError):
    """A curve search ran out of candidates."""


def coprime_part(n: int, N: int) -> int:
    """Largest divisor of n with no prime factor <= N."""
    t = n
    for q in primes_upto(N):
        while t % q == 0:
            t //= q
    return t


def subgroup_order_for_policy(n: int, N: int, policy: str) -> int:
    """Order of the subgroup chosen by the search policy.

    "largest": the full part of n coprime to N! (always a unique
    subgroup).  "prime": the largest prime factor of n exceeding N.
    """
    if policy == "largest":
        return coprime_part(n, N)
    if policy == "prime":
        cands = [q for q in factorize(n) if q > N]
        return max(cands) if cands else 1
    raise PreconditionError(f"unknown t-policy {policy!r}")


class FoundCurve(NamedTuple):
    curve: Curve
    order: int
    factors: dict
    t: int
    structure: GroupStructure | None
    rejected: dict


def find_curve(
    p_values: Iterable[int],
    big_n: int,
    t_policy: str = "largest",
    structure_budget: int = 50_000,
) -> FoundCurve:
    """First admissible curve in deterministic scan order: ascending p
    over the primes 3 < p < 2**31 among p_values, then a, then b, both
    coefficients starting at 1.

    Admissible: nonsingular, ordinary, b != 0 (and a != 0 by scan
    policy), with a unique subgroup of order t >= sqrt(p) whose order is
    coprime to big_n factorial, for big_n >= 1.
    """
    if big_n < 1:
        raise PreconditionError(f"need N >= 1, got N = {big_n}")
    primes = [p for p in p_values if 3 < p < MAX_MODULUS and is_prime(p)]
    rejected = {"singular": 0, "supersingular": 0, "subgroup_small": 0,
                "subgroup_ambiguous": 0}
    for p in primes:
        F = field(p)
        for a in range(1, p):
            for b in range(1, p):
                if (4 * a * a * a + 27 * b * b) % p == 0:
                    rejected["singular"] += 1
                    continue
                C = Curve(F, a, b)
                if not C.is_ordinary():
                    rejected["supersingular"] += 1
                    continue
                n = C.order()
                t =subgroup_order_for_policy(n, big_n, t_policy)
                if t * t < p:
                    rejected["subgroup_small"] += 1
                    continue
                if t_policy == "prime":
                    try:
                        check_unique_subgroup(C, t)
                    except (PreconditionError, ResourceBudgetError):
                        rejected["subgroup_ambiguous"] += 1
                        continue
                structure = None
                if n <= structure_budget:
                    structure = group_structure(C)
                return FoundCurve(C, n, factorize(n), t, structure, rejected)
    raise ExhaustionError(
        f"no admissible curve for p in {primes}, N = {big_n}; rejected: {rejected}"
    )


GENERATOR_TRIES = 500


def subgroup_generator(C: Curve, t: int) -> CurvePoint:
    """A point of exact order t from the first GENERATOR_TRIES scanned
    points P: (#E/t)P when that has order t, else (ord(P)/t)P when
    t | ord(P).  The second candidate finds order t where the first
    cannot, on E = Z/d1 x Z/d2 with gcd(t, d1) > 1."""
    n = C.order()
    if n % t:
        raise PreconditionError(f"t = {t} does not divide #E = {n}")
    m = n // t
    factors = factorize(n)
    tries = 0
    for u in range(C.p):
        for P in C.points_by_x(u):
            G = C.mul(m, P)
            if not G.is_infinity and C.point_order(G, factors) == t:
                return G
            o = C.point_order(P, factors)
            if o % t == 0:
                G = C.mul(o // t, P)  # of order t, or O when t = 1
                if not G.is_infinity:
                    return G
            tries += 1
            if tries >= GENERATOR_TRIES:
                raise PreconditionError(
                    f"no point of order {t} within {GENERATOR_TRIES} candidates"
                )
    raise PreconditionError(f"no point of order {t} on {C}")


def sample_scalars(t: int, count: int, seed: int) -> Iterator[int]:
    """count seeded random scalars k, 1 <= k < t, drawn one at a time:
    the k of every sampled multiple kG, whatever reads kG."""
    rng = random.Random(seed)
    for _ in range(count):
        yield rng.randrange(1, t)
