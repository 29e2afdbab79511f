import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ecbits import charsum
from ecbits.curve import INFINITY, Curve, index_table, subgroup_of_order
from ecbits.field import field, primes_upto

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with the per-process caches empty, so a test that
    counts walks, searches or psi evaluations does not see an earlier
    test's work.  Clearing field() drops the shared PrimeField instances,
    and with them their chi tables and psi memos."""
    for cache in (charsum.x_columns, index_table, subgroup_of_order,
                  Curve.order, Curve._points, field):
        cache.cache_clear()


@pytest.fixture(scope="session")
def micro_curve():
    """The fully hand-verified curve y^2 = x^3 + x + 1 over F_7 (order 5)."""
    return Curve(field(7), 1, 1)


@pytest.fixture(scope="session")
def micro_points(micro_curve):
    return micro_curve.enumerate_points()


@st.composite
def small_curves(draw, b=None, p_max=59):
    """Nonsingular curves y^2 = x^3 + a*x + b over F_p, 3 < p <= p_max,
    with the given b, or any."""
    p = draw(st.sampled_from([q for q in primes_upto(p_max) if q > 3]))
    if b is None:
        a = draw(st.integers(0, p - 1))
        b = draw(st.integers(0, p - 1).filter(lambda b: (4 * a**3 + 27 * b * b) % p))
    else:  # a = 0 is singular with b = 0 only
        a = draw(st.integers(0 if b % p else 1, p - 1))
    return Curve(field(p), a, b)


def x_formal(P):
    """x(P) with the formal convention x(O) = 0."""
    return 0 if P.is_infinity else P.x


def add_walk_x_multiples(C, P, count):
    """[x(P), ..., x(count*P)] (x(O) = 0) by repeated Curve._add: the
    group-law walk that the multiples kernel replaced, kept as its oracle."""
    xs, Q = [], P
    for _ in range(count):
        xs.append(x_formal(Q))
        Q = C._add(Q, P)
    return xs


def add_walk_orbit(C, G):
    """[O, G, ..., (o-1)G] by repeated Curve._add, the oracle of orbit."""
    pts, Q = [INFINITY], G
    while not Q.is_infinity:
        pts.append(Q)
        Q = C._add(Q, G)
    return pts
