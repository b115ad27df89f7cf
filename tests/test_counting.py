"""Exact Psi counts: three methods against a brute-force oracle and each other."""

import math
import tracemalloc

import pytest

from friabilis.errors import DomainError, ResourceError
from friabilis.prime_tables import sieve_primes
from friabilis.psi_exact import _Friables, psi_buchstab, psi_enumerate, psi_sieve
from friabilis.saddle import psi_saddle


@pytest.fixture(scope="module")
def table():
    return sieve_primes(10**6)


def brute(x, y, primes):
    cnt = 0
    for n in range(1, x + 1):
        m = n
        for p in primes:
            if p > y or m == 1:
                break
            while m % p == 0:
                m //= p
        cnt += m == 1
    return cnt


# --- frozen small values -----------------------------------------------------------


def test_frozen_examples(table):
    assert psi_enumerate(None, table, 5.0, x_exact=100).count == 34
    assert psi_sieve(100, 5.0).count == 34
    assert psi_buchstab(100, table, 5.0).count == 34
    assert psi_enumerate(None, table, 2.0, x_exact=10).count == 4
    assert psi_buchstab(2, table, 2.0).count == 2
    assert psi_sieve(1, 2.0).count == 1


def test_floor_when_y_covers_x(table):
    # every integer <= x qualifies; fractional x floors
    assert psi_enumerate(math.log(50.7), table, 60.0).count == 50
    assert psi_sieve(1000, 1000.0).count == 1000
    assert psi_buchstab(999, table, 1000.0).count == 999


def test_powers_of_two_base(table):
    for x in (1, 2, 3, 4, 1023, 1024):
        expect = int(math.floor(math.log2(x))) + 1 if x > 1 else 1
        assert psi_buchstab(x, table, 2.0).count == expect
        assert psi_enumerate(None, table, 2.0, x_exact=x).count == expect


# --- oracle and cross-method agreement ---------------------------------------------


def test_brute_force_matrix(table):
    for x in (720, 1000, 5040):
        for y in (3.0, 7.0, 20.0, 50.0):
            want = brute(x, y, table.primes)
            assert psi_enumerate(None, table, y, x_exact=x).count == want
            assert psi_sieve(x, y).count == want
            assert psi_buchstab(x, table, y).count == want


def test_three_way_grid(table):
    for x in (10**3, 10**4):
        for y in (3.0, 7.0, 20.0, 50.0, 100.0, float(x)):
            e = psi_enumerate(None, table, y, x_exact=x).count
            s = psi_sieve(x, y).count
            b = psi_buchstab(x, table, y).count
            assert e == s == b, (x, y, e, s, b)


def test_three_way_at_1e7(table):
    e = psi_enumerate(None, table, 1000.0, x_exact=10**7).count
    s = psi_sieve(10**7, 1000.0).count
    b = psi_buchstab(10**7, table, 1000.0).count
    assert e == s == b


def test_large_y_small_u(table):
    # 1229 primes at u = 2: the large-y, small-u shape that a badly split
    # meet-in-the-middle build cannot hold in memory
    e = psi_enumerate(None, table, 1e4, x_exact=10**8).count
    b = psi_buchstab(10**8, table, 1e4).count
    assert e == b == 33268090


def test_huge_x_tiny_y_memory(table):
    # at y = 2 one set holds all 43,001 powers of two up to x; their values
    # total 110 MiB, so the sets must keep logs and links, not the values
    tracemalloc.start()
    try:
        r = psi_enumerate(None, table, 2.0, x_exact=2**43000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.count == 43001 and r.boundary_ambiguous == 1
    assert peak < 32 * 2**20


def test_member_numbers_stay_int32():
    # a set numbers its members in int32, so it refuses to pass 2^31 of them
    # rather than wrap; preset the count instead of building 2^31 members
    members = _Friables(14.5 * math.log(2.0))  # takes 2^1 .. 2^14
    members.size = 2**31 - 14
    with pytest.raises(ResourceError):
        members.add(2, math.log(2.0))
    members.size = 2**31 - 15
    members.add(2, math.log(2.0))
    assert members.size == 2**31 - 1


def test_monotonicity(table):
    xs = (100, 500, 2500, 12500)
    ys = (3.0, 10.0, 40.0, 160.0)
    grid = [[psi_sieve(x, y).count for y in ys] for x in xs]
    for row in grid:
        assert all(a <= b for a, b in zip(row, row[1:]))
    for col in zip(*grid):
        assert all(a <= b for a, b in zip(col, col[1:]))


# --- guard band --------------------------------------------------------------------


def test_guard_band_exact_resolution(table):
    # 100 = 2^2 * 5^2 sits exactly on the boundary: one band hit, resolved in
    r = psi_enumerate(None, table, 5.0, x_exact=100)
    assert r.count == 34
    assert r.boundary_ambiguous == 1
    # doubling the guard band must not change the exact count
    wide = psi_enumerate(math.log(100.0), table, 5.0, x_exact=100,
                         eps_guard=2e-9 * (1.0 + math.log(100.0)))
    assert wide.count == 34
    assert wide.boundary_ambiguous >= 1


def test_guard_band_without_exact_x(table):
    # generic boundary: no lattice point falls in the band
    r = psi_enumerate(math.log(123.456), table, 7.0)
    assert r.boundary_ambiguous == 0
    assert r.count == brute(123, 7.0, table.primes)
    # boundary on a lattice point with only log_x available: hit is tallied,
    # count settled by the float rule so it stays within one of the true value
    amb = psi_enumerate(math.log(100.0), table, 5.0)
    assert amb.boundary_ambiguous == 1
    assert amb.count in (33, 34)


def test_guard_band_big_integer_path(table):
    # x beyond 1e18 exercises big-int resolution; log-only run must agree
    x = 10**40
    a = psi_enumerate(None, table, 7.0, x_exact=x)
    b = psi_enumerate(math.log(x), table, 7.0)
    # 10^40 = 2^40 * 5^40 is itself a lattice point: resolved in exactly
    assert a.boundary_ambiguous == 1
    assert a.count - b.count in (0, 1)
    wide = psi_enumerate(None, table, 7.0, x_exact=x,
                         eps_guard=2e-9 * (1.0 + math.log(x)))
    assert wide.count == a.count


def seven_smooth_count(x):
    # every 2^a 3^b 5^c 7^d <= x, by nested loops in Python ints
    cnt = 0
    q7 = 1
    while q7 <= x:
        q5 = q7
        while q5 <= x:
            q3 = q5
            while q3 <= x:
                q2 = q3
                while q2 <= x:
                    cnt += 1
                    q2 *= 2
                q3 *= 3
            q5 *= 5
        q7 *= 7
    return cnt


def test_big_integer_boundary_pin(table):
    # 10^30 = 2^30 5^30 lies on the boundary; at 10^30 - 1 it must drop out.
    # The guard band settles it with the product of the path's prime powers,
    # which wraps if the primes reach it as int64 instead of Python ints.
    below = psi_enumerate(None, table, 7.0, x_exact=10**30 - 1).count
    at = psi_enumerate(None, table, 7.0, x_exact=10**30).count
    assert below == seven_smooth_count(10**30 - 1) == 462691
    assert at == seven_smooth_count(10**30) == 462692


# --- saddle estimate against exact counts ------------------------------------------


def test_psi_saddle_tracks_exact(table):
    lx6 = math.log(1e6)
    exact6 = psi_enumerate(None, table, 79.0, x_exact=10**6).count
    assert abs(psi_saddle(lx6, table, 79.0) - math.log(exact6)) <= 0.25
    lx8 = math.log(1e8)
    exact8 = psi_enumerate(None, table, 79.0, x_exact=10**8).count
    ratio = math.exp(psi_saddle(lx8, table, 79.0)) / exact8
    assert abs(ratio - 1.0) <= 0.25


# --- resource and domain handling --------------------------------------------------


def test_enumerate_preflight(table):
    with pytest.raises(ResourceError) as exc:
        psi_enumerate(math.log(1e10), table, 1e4)
    assert exc.value.estimate is not None and exc.value.estimate > 1e8
    # u < 2 branch: the count is bounded by x itself
    with pytest.raises(ResourceError):
        psi_enumerate(math.log(1e9), table, 1e6)
    # the cap is a knob: lowering it trips the same preflight on a tame case
    with pytest.raises(ResourceError):
        psi_enumerate(math.log(1e6), table, 100.0, max_count=1000)


def test_enumerate_domain_errors(table):
    with pytest.raises(DomainError):
        psi_enumerate(3.0, table, 1.5)
    with pytest.raises(DomainError):
        psi_enumerate(-0.1, table, 5.0)
    with pytest.raises(DomainError):
        psi_enumerate(None, table, 5.0)
    with pytest.raises(DomainError):
        psi_enumerate(3.0, table, 5.0, eps_guard=0.0)
    small = sieve_primes(100)
    with pytest.raises(DomainError):
        psi_enumerate(5.0, small, 500.0)


def test_sieve_caps_and_segments(table):
    with pytest.raises(ResourceError):
        psi_sieve(2 * 10**8, 100.0)
    ref = psi_sieve(10**6, 100.0).count
    assert ref == 72271
    assert psi_sieve(10**6, 100.0, segment=1000).count == ref


def test_buchstab_caps(table):
    with pytest.raises(ResourceError):
        psi_buchstab(2 * 10**12, table, 100.0)
    with pytest.raises(ResourceError):
        psi_buchstab(10**6, table, 2e5)
    assert psi_buchstab(10**6, table, 2e5, max_y=1e6).count == psi_sieve(10**6, 2e5).count
    with pytest.raises(ResourceError):
        psi_buchstab(10**9, table, 1000.0, memo_cap=10)


def test_result_fields(table):
    r = psi_sieve(1000, 7.0)
    assert r.method == "sieve" and r.y == 7.0 and r.boundary_ambiguous == 0
    assert r.log_x == math.log(1000.0)
    assert 1 <= r.count <= 1000
    e = psi_enumerate(None, table, 7.0, x_exact=1000)
    assert e.method == "enumerate"
    b = psi_buchstab(1000, table, 7.0)
    assert b.method == "buchstab"
