import math
import random
from fractions import Fraction

import numpy as np
import pytest

from friabilis.errors import DomainError, RangeError, ResourceError
from friabilis.prime_tables import (
    _BLOCK,
    _FSUM_BELOW,
    _SEGMENT,
    _exact_parts,
    _iroot,
    big_pi,
    chebyshev_psi,
    exact_sum,
    sieve_primes,
)


# --- oracles ---------------------------------------------------------------


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def mr_is_prime(n):
    # deterministic Miller-Rabin, independent reimplementation for the oracle
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def lambda_table(limit):
    """Von Mangoldt values Lambda(n) for n <= limit, by direct prime powers."""
    lam = np.zeros(limit + 1)
    for p in trial_division_primes(limit):
        pk = p
        while pk <= limit:
            lam[pk] = math.log(p)
            pk *= p
    return lam


# --- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def table_1e6():
    return sieve_primes(10**6)


# --- sieve ------------------------------------------------------------------


def test_sieve_20():
    primes = sieve_primes(20).primes
    assert primes.dtype == np.int64
    assert primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19]


def test_sieve_2():
    assert sieve_primes(2).primes.tolist() == [2]


def test_sieve_matches_trial_division():
    assert sieve_primes(10**4).primes.tolist() == trial_division_primes(10**4)


def test_sieve_small_limits_by_trial_division():
    # the sieving primes come from the sieve one level down; every limit up
    # to 300 runs the recursion's base cases (no sieving primes below 4)
    primes = trial_division_primes(300)
    for limit in range(2, 301):
        got = sieve_primes(limit).primes
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in primes if p <= limit], limit


def test_pi_1e6(table_1e6):
    assert table_1e6.pi(10**6) == 78498


def test_sieve_segment_edges_by_miller_rabin():
    # the 1e6 table is one segment; 1e7 spans ten, so every join is checked
    limit = 10**7
    table = sieve_primes(limit)
    assert table.pi(limit) == 664579
    primes = set(table.primes.tolist())
    for edge in range(_SEGMENT, limit, _SEGMENT):
        for n in range(edge - 2000, edge + 2001):
            assert (n in primes) == mr_is_prime(n), n


def test_sieve_tail_by_miller_rabin(table_1e6):
    # every integer in the last block is classified identically by MR
    tail = [p for p in range(999000, 10**6 + 1) if mr_is_prime(p)]
    got = [p for p in table_1e6.primes if p >= 999000]
    assert got == tail


def test_log_primes_exact(table_1e6):
    rnd = random.Random(7)
    idx = [rnd.randrange(len(table_1e6.primes)) for _ in range(500)]
    for i in idx:
        assert table_1e6.log_primes[i] == pytest.approx(math.log(table_1e6.primes[i]), abs=0, rel=1e-15)


def test_table_equality_is_identity():
    a, b = sieve_primes(100), sieve_primes(100)
    assert a == a
    assert (a == b) is False
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_sieve_domain_errors():
    with pytest.raises(DomainError):
        sieve_primes(1)
    with pytest.raises(ResourceError, match="sieve limit 100000001 exceeds cap 100000000"):
        sieve_primes(10**8 + 1)
    # a limit past any float is named by its leading digits, in one short line
    with pytest.raises(ResourceError, match=r"sieve limit 1\.000e\+400 exceeds"):
        sieve_primes(10**400)


# --- chebyshev psi -----------------------------------------------------------


def test_psi_10(table_1e6):
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert chebyshev_psi(10, table_1e6) == pytest.approx(expected, abs=1e-12)


def test_psi_100(table_1e6):
    assert chebyshev_psi(100, table_1e6) == pytest.approx(94.0453112293, abs=1e-8)


def test_psi_against_lambda_sums(table_1e6):
    limit = 10**5
    lam = lambda_table(limit)
    # running Kahan cumulative as the oracle, checked at every integer t
    s = 0.0
    c = 0.0
    for t in range(2, limit + 1):
        y = lam[t] - c
        tt = s + y
        c = (tt - s) - y
        s = tt
        if t % 977 == 0 or t < 50:
            assert chebyshev_psi(t, table_1e6) == pytest.approx(s, abs=1e-8)
    # and spot-check the endpoint with exact fsum
    assert chebyshev_psi(limit, table_1e6) == pytest.approx(math.fsum(lam), abs=1e-8)


def test_psi_real_argument(table_1e6):
    # psi is a step function; a real t lands on the previous step
    assert chebyshev_psi(10.9, table_1e6) == chebyshev_psi(10, table_1e6)


def test_psi_range_error(table_1e6):
    with pytest.raises(RangeError):
        chebyshev_psi(10**7, table_1e6)
    # a t that is not finite or lies past the table is refused before flooring
    for t in (math.nan, math.inf, -math.inf, 10**6 + 1, 10**400):
        with pytest.raises(RangeError):
            table_1e6.pi(t)
        for f in (chebyshev_psi, big_pi):
            with pytest.raises(DomainError):
                f(t, table_1e6)
    # floor(t) <= limit is all the table needs
    assert table_1e6.pi(10**6 + 0.5) == table_1e6.pi(10**6) == 78498


# --- big_pi --------------------------------------------------------------------


def test_iroot_exact():
    for n in (0, 1, 7, 8, 9, 1023, 1024, 1025, 10**12):
        for k in (1, 2, 3, 5, 10):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k


def test_big_pi_values(table_1e6):
    assert big_pi(3, table_1e6) == 2.0
    assert big_pi(4, table_1e6) == 2.5
    assert big_pi(10, table_1e6) == pytest.approx(16 / 3, abs=1e-14)
    # 64 = 2^6: every root of it that is >= 2 is counted, the 6th exactly
    assert table_1e6.root_counts(64) == [18, 4, 2, 1, 1, 1]


def test_big_pi_via_prime_powers(table_1e6):
    # independent route: direct sum of 1/k over prime powers
    for t in (10, 100, 5000):
        acc = []
        for p in trial_division_primes(t):
            pk, k = p, 1
            while pk <= t:
                acc.append(1.0 / k)
                pk *= p
                k += 1
        assert big_pi(t, table_1e6) == pytest.approx(math.fsum(acc), abs=1e-12)


def test_big_pi_sandwich(table_1e6):
    # 0 <= Pi(t) - pi(t) <= 2 sqrt(t)/log 2 for t in range
    for t in (4, 10, 1000, 10**6):
        gap = big_pi(t, table_1e6) - table_1e6.pi(t)
        assert 0.0 <= gap <= 2 * math.sqrt(t) / math.log(2)


def test_root_counts(table_1e6):
    # the counts are step functions; a real t lands on the step below it
    assert table_1e6.root_counts(64.9) == table_1e6.root_counts(64)
    assert table_1e6.root_counts(63.9) == table_1e6.root_counts(63) == [18, 4, 2, 1, 1]
    assert table_1e6.root_counts(10.9) == table_1e6.root_counts(10) == [4, 2, 1]


# --- exact_sum ---------------------------------------------------------------


def _same_as_fsum(v):
    # value bit for bit, or the same exception type, as math.fsum of the list
    try:
        want = math.fsum(v.tolist())
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            exact_sum(v)
        return
    got = exact_sum(v)
    assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (got, want)


def _fuzz_arrays():
    rng = np.random.default_rng(2015)
    subnormal = math.ulp(0.0)
    for n in (0, 1, 2, 3, 17, 1000, 5000):
        for _ in range(20):
            # mixed signs, exponents from 1e-300 to 1e300, subnormals, and
            # exact opposites so that the large terms cancel
            v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
            tiny = rng.integers(-(2**52), 2**52, n // 3 + 1) * subnormal
            v = np.concatenate([v, tiny, -v[: n // 2], rng.uniform(-1.0, 1.0, n // 4)])
            rng.shuffle(v)
            yield v
    yield np.array([])
    for x in (0.0, -0.0, 1.0, -math.pi, subnormal, -3 * subnormal, 1.5e300, -2.0**-1074):
        yield np.array([x])
    # log-prime style sums: one sign, a narrow band of exponents, and a
    # half-way case that must round to even
    table = sieve_primes(10**5)
    yield table.log_primes
    yield np.exp(-0.37 * table.log_primes)
    yield np.array([1.0, 2.0**-53, 2.0**-106])
    yield np.array([1.0, 2.0**-53])


def test_exact_sum_matches_fsum_bitwise():
    for v in _fuzz_arrays():
        _same_as_fsum(v)


def test_exact_sum_vector_path_rounds_as_fsum():
    # the half-way cases above again, spread over zeros so that they take
    # the extraction path, within one block and across blocks
    cases = ([1.0, 2.0**-53], [1.0, 2.0**-53, 2.0**-106], [1.0, -(2.0**-53)],
             [1.0 + 2.0**-52, 2.0**-53],  # a tie that rounds up, to even
             [2.0**60, 1e-300, -(2.0**60)], [-(2.0**60), 1e-300, 2.0**60, -1e-300, 3e-300])
    for terms in cases:
        for n in (_FSUM_BELOW, 2000, 3 * _BLOCK):
            for spread in (False, True):
                v = np.zeros(n)
                step = n // len(terms) if spread else 1
                v[::step][: len(terms)] = terms
                _same_as_fsum(v)
                _same_as_fsum(v[::-1].copy())
    _same_as_fsum(np.full(2000, -0.0))
    _same_as_fsum(np.concatenate([np.full(2000, -0.0), [-(2.0**-1074)]]))


def test_exact_sum_overflow_guard(monkeypatch):
    # at n = 2000 terms (M = 11) the extraction takes terms below 2^1011;
    # from there on math.fsum of the list decides, whether or not it overflows
    n = 2000
    limit = 2.0 ** (1022 - (n + 2).bit_length())
    calls = []
    frexp = math.frexp

    def counting(x):
        calls.append(1)
        return frexp(x)

    monkeypatch.setattr(math, "frexp", counting)
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    for top, extracted in ((np.nextafter(limit, 0.0), True), (limit, False),
                           (np.nextafter(limit, math.inf), False), (4.0 * limit, False)):
        for v in (np.full(n, top), top * signs, np.concatenate([[top] * (n - 2), [-top, 1.0]]),
                  np.linspace(-top, top, n), np.linspace(0.0, top, n)):
            calls.clear()
            _same_as_fsum(v)
            _same_as_fsum(-v)
            assert bool(calls) == extracted, (top, v[:3])


def test_exact_sum_over_2_20_terms():
    rng = np.random.default_rng(20)
    v = rng.standard_normal((1 << 20) + 3) * 10.0 ** rng.uniform(-8.0, 8.0, (1 << 20) + 3)
    _same_as_fsum(v)
    _same_as_fsum(np.abs(v))


def test_exact_sum_non_finite_as_fsum():
    inf, nan = math.inf, math.nan
    filler = np.linspace(-1.0, 3.0, 3000)  # long enough for the extraction path
    for v in ([1.0, nan], [inf, 1.0, 2.0], [-inf, 5.0], [inf, -inf], [nan, inf, -inf],
              [inf, inf], [nan], [1e308, 1e308, -1e308], [1.7e308, 1.7e308]):
        _same_as_fsum(np.array(v))
        _same_as_fsum(np.concatenate([v, filler]))
        _same_as_fsum(np.concatenate([filler, v]))
    with pytest.raises(ValueError):
        exact_sum(np.array([inf, 1.0, -inf]))


def _parts_are_exact(v):
    # the exact sum of the parts is the exact sum of v, and math.fsum of the
    # parts is math.fsum of v's terms bit for bit, or raises as it does
    parts = _exact_parts(v)
    assert all(type(p) is float for p in parts)
    terms = v.tolist()
    if all(map(math.isfinite, terms)):
        assert sum(map(Fraction, parts), Fraction(0)) == sum(map(Fraction, terms), Fraction(0))
    else:
        assert np.array_equal(parts, terms, equal_nan=True)  # the terms themselves
    try:
        want = math.fsum(terms)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            math.fsum(parts)
        return
    got = math.fsum(parts)
    assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (got, want)


def test_exact_parts_sum_exactly():
    for v in _fuzz_arrays():
        _parts_are_exact(v)
    # the extraction path gives few parts, the short path the terms themselves
    lp = sieve_primes(10**5).log_primes
    assert len(_exact_parts(lp)) <= 3 * -(-len(lp) // _BLOCK)
    assert _exact_parts(lp[:_FSUM_BELOW - 1]) == lp[:_FSUM_BELOW - 1].tolist()
    # overflow guard at n = 2000 (terms of 2^1011 and up go to the list)
    n = 2000
    limit = 2.0 ** (1022 - (n + 2).bit_length())
    signs = np.where(np.arange(n) % 2, -1.0, 1.0)
    for top in (np.nextafter(limit, 0.0), limit, 4.0 * limit):
        for v in (np.full(n, top), top * signs, np.linspace(-top, top, n)):
            _parts_are_exact(v)
    inf, nan = math.inf, math.nan
    filler = np.linspace(-1.0, 3.0, 3000)
    for v in ([1.0, nan], [inf, 1.0, 2.0], [-inf, 5.0], [inf, -inf], [1e308, 1e308, -1e308]):
        _parts_are_exact(np.array(v))
        _parts_are_exact(np.concatenate([filler, v]))


def _one_block(rng, n, top, bottom):
    # n terms with max exactly top and min exactly bottom, log-uniform between
    v = 2.0 ** rng.uniform(math.log2(bottom), math.log2(top), n)
    v[:2] = top, bottom
    rng.shuffle(v)
    return v


def test_exact_sum_one_sign_blocks(table_1e6):
    # a block of one sign and no zero stops when ulp(sigma) reaches the
    # granule of its smallest term; at n = 2000 (M = 11) two passes hold
    # exponents 51 - 2M = 29 apart, and one more makes a third
    rng = np.random.default_rng(26)
    n = 2000
    odd = 1.0 + 2.0**-52  # a last mantissa bit that a pass too few would drop
    third = []
    for bottom, passes in ((odd * 2.0**-29, 2), (odd * 2.0**-30, 3)):
        for sign in (1.0, -1.0):
            for _ in range(3):
                v = sign * _one_block(rng, n, 1.5, bottom)
                parts = _exact_parts(v)
                assert len(parts) == passes, (bottom, sign)
                if passes == 3:
                    third.append(parts[-1])
                _same_as_fsum(v)
                _parts_are_exact(v)
    assert any(third)  # the third pass is not empty (its sum cancels now and then)
    # all of one sign, across three blocks and a short tail
    for sign in (1.0, -1.0):
        v = sign * _one_block(rng, 3 * _BLOCK + 7, 1e3, 1e-3)
        _same_as_fsum(v)
        _parts_are_exact(v)
    # zeros inside a positive block take the mixed loop, which checks r for 0
    v = _one_block(rng, n, 1.5, 1e-5)
    v[::7] = 0.0
    v[3] = -0.0
    _same_as_fsum(v)
    _parts_are_exact(v)
    # a subnormal smallest term: the granule is 2^-1074
    for tiny in (3 * math.ulp(0.0), 2.0**-1030 + math.ulp(0.0)):
        v = _one_block(rng, n, 1.5, 1e-3)
        v[5] = tiny
        _same_as_fsum(v)
        _same_as_fsum(-v)
        _parts_are_exact(v)
    # prime sums: two passes per block
    lp = table_1e6.log_primes
    blocks = -(-len(lp) // _BLOCK)
    for terms in (np.exp(-0.7 * lp), -np.log1p(-np.exp(-0.7 * lp)), lp / np.expm1(0.7 * lp)):
        assert len(_exact_parts(terms)) == 2 * blocks
        _same_as_fsum(terms)


def test_exact_sum_closing_pass(monkeypatch):
    # a one-signed block closes with r.sum() instead of the pass that would
    # return r: after one extraction when its terms sit exactly 51 - 2M
    # binades apart (the next pass's ulp 2^(e'+M-52) is the granule 2^g),
    # after two at one binade more; bit for bit math.fsum's value either way
    rng = np.random.default_rng(28)
    odd = 1.0 + 2.0**-52
    adds = []
    add = np.add

    def counting(*args, **kwargs):
        adds.append(1)
        return add(*args, **kwargs)

    monkeypatch.setattr(np, "add", counting)
    for n in (2000, _BLOCK):
        span = 51 - 2 * (n + 2).bit_length()
        for past, extractions in ((0, 1), (1, 2)):
            # frexp exponents 1 of the top term and 1 - span - past of the bottom one
            bottom = odd * 2.0 ** -(span + past)
            for sign in (1.0, -1.0):
                v = sign * _one_block(rng, n, 1.5, bottom)
                adds.clear()
                parts = _exact_parts(v)
                assert (len(adds), len(parts)) == (extractions, extractions + 1), (n, past)
                _same_as_fsum(v)
                _parts_are_exact(v)


def test_chebyshev_psi_against_one_array_sum(table_1e6):
    # the slices' parts joined in one math.fsum round as one exact_sum over
    # the concatenated slices does, bit for bit
    rng = np.random.default_rng(13)
    lp = table_1e6.log_primes
    for t in [2, 3, 4, 1000, 4096, 10**6] + rng.uniform(2.0, 1e6, 40).tolist():
        want = exact_sum(np.concatenate([lp[:c] for c in table_1e6.root_counts(t)]))
        assert chebyshev_psi(t, table_1e6).hex() == want.hex(), t
