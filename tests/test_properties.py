"""Property tests: the three exact counters on drawn cells, and the shape of Psi.

hypothesis draws the cells with a fixed seed (derandomize=True) and keeps no
example database, so every run checks the same cells.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from friabilis import psi_exact
from friabilis.errors import ResourceError
from friabilis.prime_tables import sieve_primes
from friabilis.psi_exact import psi_buchstab, psi_enumerate, psi_sieve

_SETTINGS = dict(derandomize=True, database=None, deadline=None)


def log_uniform(lo, hi):
    """Reals spread evenly in log between lo and hi, so every size is drawn."""
    return st.floats(math.log(lo), math.log(hi)).map(lambda t: min(max(math.exp(t), lo), hi))


xs = log_uniform(1, 10**6).map(int)
ys = log_uniform(2, 1e6)


@pytest.fixture(scope="module")
def table():
    # y runs up to x = 1e6, past psi_buchstab's own y cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(psi_exact, "_BUCHSTAB_MAX_Y", 10**6)
        yield sieve_primes(10**6)


@settings(max_examples=40, **_SETTINGS)
@given(x=xs, y=ys)
def test_three_counters_agree(table, x, y):
    e = psi_enumerate(None, table, y, x_exact=x).count
    s = psi_sieve(x, y).count
    b = psi_buchstab(x, table, y).count
    assert e == s == b, (x, y, e, s, b)


@settings(max_examples=60, **_SETTINGS)
@given(x=log_uniform(1, 1e10).map(int), dx=st.integers(min_value=0, max_value=10**4),
       y=log_uniform(2, 1e5))
def test_buchstab_monotone_in_x(table, x, dx, y):
    # each integer in (x, x + dx] adds at most one friable number
    a = psi_buchstab(x, table, y).count
    b = psi_buchstab(x + dx, table, y).count
    assert 0 <= b - a <= dx, (x, dx, y, a, b)


@settings(max_examples=60, **_SETTINGS)
@given(x=log_uniform(1, 1e10).map(int), y=log_uniform(2, 1e5), z=log_uniform(2, 1e5))
def test_buchstab_monotone_in_y(table, x, y, z):
    lo, hi = sorted((y, z))
    a = psi_buchstab(x, table, lo).count
    b = psi_buchstab(x, table, hi).count
    assert a <= b <= x, (x, lo, hi, a, b)


_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@settings(max_examples=40, **_SETTINGS)
@given(x=log_uniform(1e12, 1e30).map(int), i=st.integers(0, len(_SMALL_PRIMES) - 1))
def test_buchstab_split_past_the_int64_counters(table, x, i):
    # Psi(x, p) = Psi(x, p-) + Psi(x // p, p), p- the prime below p: the
    # friable n <= x with no factor p, and p times those <= x // p
    p, below = _SMALL_PRIMES[i], ([2] + _SMALL_PRIMES)[i]
    try:
        whole = psi_enumerate(None, table, p, x_exact=x).count
        parts = (psi_enumerate(None, table, below, x_exact=x).count
                 + psi_enumerate(None, table, p, x_exact=x // p).count)
    except ResourceError:
        assume(False)  # a cell the count cap refuses
    assert whole == parts, (x, p, whole, parts)
