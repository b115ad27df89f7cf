"""Exact Psi counts: three methods against a brute-force oracle and each other."""

import math
import tracemalloc

import numpy as np
import pytest
from buchstab_recursion import buchstab_recursion

from friabilis import psi_exact
from friabilis.errors import DomainError, ResourceError
from friabilis.prime_tables import sieve_primes
from friabilis.psi_exact import _Friables, psi_buchstab, psi_enumerate, psi_sieve
from friabilis.saddle import psi_saddle, solve_alpha


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


def test_buchstab_sweep_against_recursion(table):
    # the sweep against the per-state recursion it replaced, on a seeded
    # log-uniform grid and on the edges of its level loop: x = 1 and 2,
    # y = 2 (no level at all), y >= x, y at a prime and just below it, and
    # x a prime power
    rng = np.random.default_rng(8)
    cells = [(int(math.exp(a)), float(math.exp(b)))
             for a, b in zip(rng.uniform(0, math.log(1e7), 40),
                             rng.uniform(math.log(2), math.log(1e3), 40))]
    cells += [(x, y) for x in (1, 2) for y in (2.0, 2.5, 3.0, 100.0)]
    cells += [(x, 2.0) for x in (3, 1000, 2**20 - 1, 2**20, 10**7)]
    cells += [(x, float(x + d)) for x in (5, 97, 1000) for d in (-1, 0, 5)]
    cells += [(10**6, y) for y in (97.0, 96.999, 96.0, 101.0, 100.9999)]
    cells += [(x, y) for x in (3**13, 2**20, 7**7, 997**2) for y in (3.0, 7.0, 997.0)]
    for x, y in cells:
        assert psi_buchstab(x, table, y).count == buchstab_recursion(x, table.primes, y), (x, y)


def test_buchstab_int64_edges(table, monkeypatch):
    # float64 rounds 2^60 - 1 up to 2^60, so bit_length must not come from
    # the frexp exponent alone; past 2^63 the int64 quotients refuse
    monkeypatch.setattr(psi_exact, "_BUCHSTAB_MAX_X", 2**70)
    assert psi_buchstab(2**53 - 1, table, 2.0).count == 53
    assert psi_buchstab(2**60 - 1, table, 2.0).count == 60
    assert psi_buchstab(2**60 - 1, table, 5.0).count == 11023
    top = 2**63 - 1  # float64 rounds it to 2^63, one bit past int64
    assert psi_buchstab(top, table, 3.0).count == buchstab_recursion(top, table.primes, 3.0)
    with pytest.raises(ResourceError):
        psi_buchstab(2**64 + 1, table, 3.0)


def test_enumerate_and_buchstab_at_1e10(table):
    e = psi_enumerate(None, table, 300.0, x_exact=10**10).count
    b = psi_buchstab(10**10, table, 300.0).count
    assert e == b == 69_217_415


def test_buchstab_pin_1e12(table):
    # pinned from the memoized recursion
    assert psi_buchstab(10**12, table, 1000.0).count == 6_471_274_933


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


def test_guard_band_exact_resolution(table, monkeypatch):
    # 100 = 2^2 * 5^2 sits exactly on the boundary: one band hit, resolved in
    r = psi_enumerate(None, table, 5.0, x_exact=100)
    assert r.count == 34
    assert r.boundary_ambiguous == 1
    # doubling the guard band must not change the exact count
    monkeypatch.setattr(psi_exact, "_GUARD", 2e-9)
    wide = psi_enumerate(math.log(100.0), table, 5.0, x_exact=100)
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


def test_guard_band_big_integer_path(table, monkeypatch):
    # x beyond 1e18 exercises big-int resolution; log-only run must agree
    x = 10**40
    a = psi_enumerate(None, table, 7.0, x_exact=x)
    b = psi_enumerate(math.log(x), table, 7.0)
    # 10^40 = 2^40 * 5^40 is itself a lattice point: resolved in exactly
    assert a.boundary_ambiguous == 1
    assert a.count - b.count in (0, 1)
    monkeypatch.setattr(psi_exact, "_GUARD", 2e-9)  # the band doubled
    wide = psi_enumerate(None, table, 7.0, x_exact=x)
    assert wide.count == a.count


def test_log_x_beside_x_exact_must_agree(table):
    # gates at log 2e6 with hits settled against 1e6 would count 108,490,
    # neither Psi(1e6, 100) = 72,271 nor Psi(2e6, 100) = 108,491
    small = sieve_primes(10**4)
    with pytest.raises(DomainError, match="x_exact"):
        psi_enumerate(math.log(2e6), small, 100, x_exact=10**6)
    # within half the guard band of log x_exact the two name one x
    lx = math.log(10**6)
    band = psi_exact._GUARD * (1.0 + lx)
    assert psi_enumerate(lx + 0.4 * band, small, 100, x_exact=10**6).count == 72271
    with pytest.raises(DomainError, match="x_exact"):
        psi_enumerate(lx + 0.6 * band, small, 100, x_exact=10**6)
    r = psi_enumerate(64 * math.log(2), small, 13, x_exact=2**64)
    assert r.count == psi_enumerate(None, small, 13, x_exact=2**64).count
    assert r.log_x == math.log(2**64)


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
    with pytest.raises(ResourceError, match="estimated count"):
        psi_enumerate(math.log(1e10), table, 1e4)
    # u < 2 branch: the count is bounded by x itself
    with pytest.raises(ResourceError):
        psi_enumerate(math.log(1e9), table, 1e6)
    # the cap is a knob: lowering it trips the same preflight on a tame case
    with pytest.raises(ResourceError):
        psi_enumerate(math.log(1e6), table, 100.0, max_count=1000)


def test_preflight_exact_at_y_2():
    # the powers of two up to e^1e6: floor(1e6 / log 2) + 1 = 1,442,696. The
    # prime-power bound that caps the estimate is exact at y = 2, so a cap of
    # that count admits the cell and one less refuses it (the saddle estimate
    # alone is exp(21.35))
    small = sieve_primes(10)
    count = math.floor(1e6 / math.log(2)) + 1
    assert count == 1_442_696
    assert psi_enumerate(1e6, small, 2.0, max_count=count).count == count
    with pytest.raises(ResourceError):
        psi_enumerate(1e6, small, 2.0, max_count=count - 1)


def test_enumerate_domain_errors(table):
    with pytest.raises(DomainError):
        psi_enumerate(3.0, table, 1.5)
    for log_x in (-0.1, math.nan):
        with pytest.raises(DomainError):
            psi_enumerate(log_x, table, 5.0)
    with pytest.raises(DomainError):
        psi_enumerate(None, table, 5.0)
    for cap in (0, -5, math.nan):
        with pytest.raises(DomainError):
            psi_enumerate(3.0, table, 5.0, max_count=cap)
    small = sieve_primes(100)
    with pytest.raises(DomainError):
        psi_enumerate(5.0, small, 500.0)
    for y in (math.nan, math.inf, -math.inf):
        for f in (lambda: psi_enumerate(3.0, table, y), lambda: psi_buchstab(100, table, y)):
            with pytest.raises(DomainError):
                f()
    with pytest.raises(DomainError):
        psi_sieve(100, math.nan)


def test_y_just_past_the_table():
    # y in (limit, limit + 1) holds the same primes as y = limit
    small = sieve_primes(100)
    lx = math.log(1e8)
    assert solve_alpha(lx, small, 100.5).alpha == solve_alpha(lx, small, 100.0).alpha
    assert (psi_enumerate(None, small, 100.5, x_exact=10**8).count
            == psi_enumerate(None, small, 100.0, x_exact=10**8).count)


def test_sieve_caps_and_segments(table, monkeypatch):
    with pytest.raises(ResourceError):
        psi_sieve(2 * 10**8, 100.0)
    # y >= x makes every n <= x friable, so no x cap applies
    assert psi_sieve(10**9, 2e9).count == 10**9
    ref = psi_sieve(10**6, 100.0).count
    assert ref == 72271
    monkeypatch.setattr(psi_exact, "_SEGMENT", 1000)
    assert psi_sieve(10**6, 100.0).count == ref


def test_sieve_wheel_and_large_primes(table, monkeypatch):
    # psi_sieve sieves the m = 6 i + r prime to 6 in segments of seg indices
    # per class (6 seg numbers), pre-fills the powers of the primes >= 5
    # dividing _SEGMENT once per call (the wheel) and, for y above isqrt(x),
    # sieves only the primes up to isqrt(x) and keeps m whose cofactor is at
    # most y. The cells x = seg // 2 + 1 and 2 seg + (-1, 0, 1) end inside
    # the first segment of a class; x = 6 k seg + d, k = 1 and 2, d in
    # -5..5, put the last m of each class just before, on and just after
    # the end of the first and the second segment, with the wheel cut short
    # (y = 2, 2.5, 7, 11.9). Then y passes isqrt(x), so the cofactor primes
    # fall below the segment length (y = 2 isqrt(x)) and, past 2 seg at the
    # three patched lengths, above it (y = 0.75 x); at seg = 1000 and 1009
    # also at the class-space segment ends. Every cell runs at every
    # segment length
    segments = (1000, 1009, 30030, psi_exact._SEGMENT)
    cells = set()
    for seg in segments:
        edges = [seg // 2 + 1, 2 * seg - 1, 2 * seg, 2 * seg + 1]
        edges += [6 * k * seg + d for k in (1, 2) for d in range(-5, 6)]
        for x in edges:
            cells.update((x, y) for y in (2.0, 2.5, 7.0, 11.9))
            if seg < 2000:
                cells.update(((x, 2.0 * math.isqrt(x)), (x, 0.75 * x)))
    for x in (501, 2001, 2019, 60061, psi_exact._SEGMENT // 2 + 1):
        cells.update(((x, 2.0 * math.isqrt(x)), (x, 0.75 * x)))
    want = {}
    for x, y in sorted(cells):
        want[x, y] = psi_enumerate(None, table, y, x_exact=x).count
        if y <= 1e5:
            assert psi_buchstab(x, table, y).count == want[x, y], (x, y)
    for seg in segments:
        monkeypatch.setattr(psi_exact, "_SEGMENT", seg)
        for x, y in sorted(cells):
            assert psi_sieve(x, y).count == want[x, y], (seg, x, y)


def test_sieve_closed_forms_below_5(monkeypatch):
    # below y = 5 psi_sieve sieves no prime and counts only m = 1 under
    # each 3-smooth s, so its count is the number of those s: for y < 3 the
    # powers of 2 (x.bit_length()), for 3 <= y < 5 the 2^a 3^b, taken here
    # in Python ints. The x run over small values, powers of 2 and both
    # sides of the class-space segment ends 6 k _SEGMENT. It needs none of
    # psi_buchstab's helpers, so a fault there cannot reach it
    for name in ("_bit_length", "_psi_3", "_sorted"):
        monkeypatch.setattr(psi_exact, name, None)
    span = 6 * psi_exact._SEGMENT
    xs = set(range(1, 201))
    xs.update(v for k in range(1, 27) for v in (2**k - 1, 2**k))
    xs.update(k * span + d for k in (1, 2, 5, 10**8 // span) for d in (-1, 0, 1))
    xs.add(10**8)
    for x in sorted(xs):
        powers_of_2 = x.bit_length()
        three_smooth, t = 0, 1
        while t <= x:
            three_smooth += (x // t).bit_length()
            t *= 3
        for y in (2.0, 2.5, 2.99):
            assert psi_sieve(x, y).count == powers_of_2, (x, y)
        for y in (3.0, 4.5):
            assert psi_sieve(x, y).count == three_smooth, (x, y)


def test_sieve_every_small_x(table):
    # with x = 25, 49, 121, 125, ... the last m of a class is the prime power
    # a stride must still reach
    primes = table.primes[:10].tolist()
    for x in range(1, 300):
        for y in (5.0, 7.0, 13.0):
            assert psi_sieve(x, y).count == brute(x, y, primes), (x, y)


def test_buchstab_caps(table):
    with pytest.raises(ResourceError):
        psi_buchstab(2 * 10**12, table, 100.0)
    with pytest.raises(ResourceError):
        psi_buchstab(10**12, table, 2e5)
    assert psi_buchstab(10**6, table, 2e5).count == psi_sieve(10**6, 2e5).count


def test_buchstab_levels_hold_at_most_2_sqrt_x(table, monkeypatch):
    # every quotient is floor(x/m) for some m, and x has at most 2 isqrt(x)
    # of those, so no level needs a cap of its own
    levels = []
    real = psi_exact._sorted
    monkeypatch.setattr(psi_exact, "_sorted",
                        lambda n, w: levels.append(np.unique(n).size) or real(n, w))
    for x, y in ((10**10, 300.0), (10**12, 30.0), (10**8, 1e4), (10**11, 100.0)):
        levels.clear()
        psi_buchstab(x, table, y)
        assert levels and max(levels) <= 2 * math.isqrt(x), (x, y, max(levels))


def _exact(x, table, y):
    # independent counters: the recursion up to 1e6, then the sieve, then
    # the enumerator
    if x <= 10**6:
        return buchstab_recursion(x, table.primes, y)
    if x <= 10**8:
        return psi_sieve(x, y).count
    return psi_enumerate(None, table, y, x_exact=x, max_count=1e12).count


def test_buchstab_cube_edges(table):
    # the primes p with p^3 > x are counted in one pass; x = p^3 - 1 puts p
    # in that pass and x = p^3 keeps it in the level loop. For p >= 997 the
    # enumerator takes 2-18 s a cell at y >= 1e4, so only y near p is checked
    cells = [(x, y) for p in (2, 3, 5, 7, 97, 101)
             for x in (p**3 - 1, p**3, p**3 + 1, 2 * p**3)
             for y in (p - 0.5, p, p + 0.5, 2 * p, 1e3, 1e4, 1e5) if y >= 2]
    cells += [(x, y) for p in (997, 1009)
              for x, y in ((p**3 - 1, p), (p**3, p), (p**3 + 1, p + 0.5), (2 * p**3, p - 0.5))]
    for x, y in cells:
        assert psi_buchstab(x, table, float(y)).count == _exact(x, table, y), (x, y)


def test_buchstab_jumped_terms_at_the_bottom(table):
    # a prime P[i] with P[i]^2 <= x < P[i]^3 puts m = x // P[i] beside x at
    # the level below the first prime whose cube passes x, and the level loop
    # adds m // p at each level with p^2 > m. x < 8 puts every prime above 2
    # in identity 1, and x below a few hundred gives m whose largest P[r]^2
    # <= m is at r = 1 (the prime 3), r = 0 (the prime 2) and, at m = 3, none
    P = table.primes[:30].tolist()
    levels = set()
    for x in range(1, 400):
        for y in (2.0, 3.0, 5.0, 7.0, 13.0, 50.0, 1e3):
            assert psi_buchstab(x, table, y).count == buchstab_recursion(x, table.primes, y), (x, y)
        for p in P[1:]:  # the pass starts at the prime 3
            if p * p <= x < p**3:
                levels.add(sum(q * q <= x // p for q in P) - 1)
    assert {-1, 0, 1} <= levels


def test_buchstab_above_sqrt_x(table):
    # y > sqrt(x): each prime above sqrt(x) is worth x // p alone
    for x, y in ((10**6, 1001.0), (10**6, 5e5), (10**6, 1e6), (999_983, 1e6), (2 * 10**6, 1e6),
                 (10**7, 3163.0), (10**7, 1e6)):
        assert psi_buchstab(x, table, y).count == psi_sieve(x, y).count, (x, y)


def test_buchstab_sorts_only_what_it_cannot_close(table, monkeypatch):
    # the primes above cbrt(x) make no level (their quotients x // p join
    # x's), quotients below p are counted where they are made, and the prime
    # 3 closes without a sort: at most pi(464) = 90 sorts at Psi(1e8, 1e4) (a
    # sort per prime made 1,228), and under 250,000 entries in the largest
    # at Psi(1e10, 300) (396,013)
    sizes = []
    real = psi_exact._sorted
    monkeypatch.setattr(psi_exact, "_sorted", lambda n, w: sizes.append(n.size) or real(n, w))
    assert psi_buchstab(10**8, table, 1e4).count == 33268090
    assert 0 < len(sizes) <= 90
    sizes.clear()
    assert psi_buchstab(10**10, table, 300.0).count == 69_217_415
    assert 0 < max(sizes) < 250_000


def test_buchstab_cube_root_index_past_int64_cubes(monkeypatch):
    # p^3 wraps int64 from p = 2,097,169 on, inside y = 5e6; an index read
    # off such cubes starts the level loop at a wrong prime and sorts once
    # per prime (270,709 sorts), where the exact cube root sorts at most
    # once per prime up to cbrt(1e7), pi(215) = 47 of them
    calls = []
    real = psi_exact._sorted
    monkeypatch.setattr(psi_exact, "_sorted", lambda n, w: calls.append(n.size) or real(n, w))
    got = psi_buchstab(10**7, sieve_primes(5 * 10**6), 5e6).count
    assert got == psi_sieve(10**7, 5e6).count == 9_683_934
    assert 0 < len(calls) <= 47


def _split(count, x, table, y):
    # Buchstab's identity at the largest prime p <= y, p- the prime below:
    # Psi(x, p) = Psi(x, p-) + Psi(x // p, p)
    k = table.pi(y)
    p, below = int(table.primes[k - 1]), int(table.primes[k - 2])
    return count(x, p), count(x, below), count(x // p, p)


def test_enumerate_split_past_the_other_counters(table):
    # past x = 1e12 no second counter reaches, so the split checks
    # psi_enumerate by two enumerations over other sets: the criterion-07
    # cell Psi(1e18, 41.4) and the three exact cells of the count_huge
    # benchmark
    def count(x, y):
        return psi_enumerate(None, table, y, x_exact=x, max_count=10**9).count
    for x, y, want in ((10**18, 41.4, (192_550_658, 113_173_522, 79_377_136)),
                       (2**64 + 13, 13.0, (1_381_207, 378_555, 1_002_652)),
                       (10**19, 11.0, (355_082, 80_988, 274_094)),
                       (10**30, 7.0, (462_692, 48_207, 414_485))):
        got = _split(count, x, table, y)
        assert got == want and got[0] == got[1] + got[2], (x, y, got)


def test_buchstab_split_over_many_large_primes(table):
    # Psi(1e10, 9973) and Psi(1e11, 19997) take 903 and 1,636 primes above
    # cbrt(x) through psi_buchstab's identity 1
    def count(x, y):
        return psi_buchstab(x, table, y).count
    assert _split(count, 10**10, table, 1e4) == (1_445_842_183, 1_445_211_938, 630_245)
    assert _split(count, 10**11, table, 2e4) == (12_887_037_963, 12_884_102_451, 2_935_512)


def test_result_fields(table):
    r = psi_sieve(1000, 7.0)
    assert r.method == "sieve" and r.y == 7.0 and r.boundary_ambiguous == 0
    assert r.log_x == math.log(1000.0)
    assert 1 <= r.count <= 1000
    e = psi_enumerate(None, table, 7.0, x_exact=1000)
    assert e.method == "enumerate"
    b = psi_buchstab(1000, table, 7.0)
    assert b.method == "buchstab"
