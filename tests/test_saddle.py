"""Saddle solver, partial zeta, S/T sums, w, f, and the beta identities.

The alpha oracles are a bisection-only solver over an explicit prime list
and a Newton refinement whose value is a math.fsum over the explicit prime
terms, both independent of the module's Newton path, and the plain
full-table Newton of alpha_newton.py, which the compressed solve must not
move by more than rounding.
"""

import gc
import math
import weakref

import mpmath
import numpy as np
import pytest
from alpha_newton import alpha_newton

from friabilis import prime_tables, saddle
from friabilis.dickman import int_exp, xi
from friabilis.errors import DomainError, RangeError
from friabilis.prime_tables import _BLOCK, exact_sum, sieve_primes
from friabilis.saddle import (
    alpha_approx,
    f_at_beta_identity,
    f_sigma,
    prime_power_sums,
    psi_saddle,
    solve_alpha,
    w_sigma,
    zeta_partial,
)
from friabilis.theorem import oscillation_record


@pytest.fixture(scope="module")
def table():
    return sieve_primes(10**6)


def bisect_alpha(log_x, primes, y):
    ps = [p for p in primes if p <= y]

    def g(a):
        return math.fsum(math.log(p) / (p**a - 1.0) for p in ps) - log_x

    lo, hi = 1e-9, 1.0
    while g(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _count_expm1(monkeypatch):
    # one np.expm1 call per pass of solve_alpha over the log-primes,
    # recorded by the length of the pass
    calls = []
    expm1 = np.expm1

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return expm1(x, *args, **kwargs)

    monkeypatch.setattr(np, "expm1", counting)
    return calls


def _count_log1p(monkeypatch):
    # the length of every np.log1p call: log zeta's terms above log 2
    lengths = []
    log1p = np.log1p

    def counting(x, *args, **kwargs):
        lengths.append(len(x))
        return log1p(x, *args, **kwargs)

    monkeypatch.setattr(np, "log1p", counting)
    return lengths


def zeta_terms(s, lp):
    # -log(1 - p^-s), split at s log p = log 2 as zeta_partial splits it:
    # z/2 - log(2 sinh(z/2)) at and below, -log1p(-e^(-z)) above
    z = s * lp
    return np.where(lp <= math.log(2.0) / s, 0.5 * z - np.log(2.0 * np.sinh(0.5 * z)),
                    -np.log1p(-np.exp(-z)))


@mpmath.workdps(40)
def mp_zeta_terms(s, primes):
    return [float(-mpmath.log(-mpmath.expm1(-mpmath.mpf(s) * mpmath.log(int(p)))))
            for p in primes]


# --- solve_alpha -------------------------------------------------------------------


def test_alpha_single_prime_closed_forms(table):
    st = solve_alpha(math.log(2.0), table, 2.0)
    assert st.alpha == pytest.approx(1.0, abs=1e-12)
    assert abs(st.solver_residual) <= 1e-9 * math.log(2.0)
    # log_x = 3 log 2 over the single prime 2: 2^a - 1 = 1/3
    st = solve_alpha(3.0 * math.log(2.0), table, 2.0)
    assert st.alpha == pytest.approx(math.log(4.0 / 3.0) / math.log(2.0), rel=1e-12)


def test_alpha_against_bisection_oracle(table):
    log_x = math.log(1e6)
    st = solve_alpha(log_x, table, 100.0)
    assert st.alpha == pytest.approx(bisect_alpha(log_x, table.primes, 100.0), rel=1e-10)
    assert abs(st.solver_residual) <= 1e-9 * log_x
    assert abs(st.u * math.log(100.0) - log_x) <= 2.0 * math.ulp(log_x)
    assert st.beta == 1.0 - xi(st.u).xi / math.log(100.0)
    assert st.c == pytest.approx(math.log(100.0) / math.log(log_x), rel=1e-15)


def test_alpha_seeded_oracle_sweep(table):
    rng = np.random.default_rng(11)
    for _ in range(12):
        log_x = rng.uniform(3.0, 80.0)
        y = rng.uniform(5.0, 500.0)
        st = solve_alpha(log_x, table, y)
        assert st.alpha == pytest.approx(bisect_alpha(log_x, table.primes, y), rel=1e-9)
        assert abs(st.solver_residual) <= 1e-9 * log_x


def test_alpha_side_condition_is_reported_not_assumed(table):
    # alpha < 1/2 for c in (1,2) is asymptotic; at x = 1e8, c = 1.5 it fails
    lx8 = math.log(1e8)
    st8 = solve_alpha(lx8, table, lx8**1.5)
    assert st8.alpha == pytest.approx(0.5035326679378539, rel=1e-9)
    # by x = 1e12 at the same c the condition holds
    lx12 = math.log(1e12)
    st12 = solve_alpha(lx12, table, lx12**1.5)
    assert 0.0 < st12.alpha < 0.5


def test_alpha_extreme_log_x(table):
    # x = 10^300 over primes {2, 3}: sum behaves like 2/a, so a ~ 0.003
    st = solve_alpha(math.log(10.0) * 300.0, table, 3.0)
    assert 0.001 < st.alpha < 0.01
    assert abs(st.solver_residual) <= 1e-9 * st.log_x


def test_alpha_monotonicity_grid(table):
    log_xs = [math.log(10.0) * k for k in (4, 6, 8, 10, 12)]
    ys = [10.0, 50.0, 200.0, 1000.0, 5000.0]
    grid = [[solve_alpha(lx, table, y).alpha for y in ys] for lx in log_xs]
    for row in grid:  # increasing in y at fixed x
        assert all(a < b for a, b in zip(row, row[1:]))
    for col in zip(*grid):  # decreasing in log x at fixed y
        assert all(a > b for a, b in zip(col, col[1:]))


def test_alpha_domain_errors(table, monkeypatch):
    with pytest.raises(DomainError):
        solve_alpha(5.0, table, 1.5)
    with pytest.raises(DomainError):
        solve_alpha(0.5 * math.log(2.0), table, 10.0)
    # a NaN log_x is refused before any Newton pass (it ran all 100)
    calls = _count_expm1(monkeypatch)
    for y in (10.0, 1e6):
        with pytest.raises(DomainError, match="log_x >= log 2"):
            solve_alpha(math.nan, table, y)
    assert calls == []
    small = sieve_primes(100)
    with pytest.raises(DomainError):
        solve_alpha(5.0, small, 1000.0)
    for y in (math.nan, math.inf, -math.inf):
        for f in (lambda: solve_alpha(5.0, table, y), lambda: zeta_partial(1.0, table, y),
                  lambda: prime_power_sums(1.0, table, y)):
            with pytest.raises(DomainError):
                f()


def fsum_refined_alpha(log_x, primes, y, a):
    # two Newton steps from a whose value is a math.fsum over the prime terms
    logp = np.log(primes[primes <= y].astype(np.float64))
    for _ in range(2):
        terms = logp / np.expm1(a * logp)
        val = math.fsum(terms.tolist()) - log_x
        a -= val / -math.fsum((terms * (logp + terms)).tolist())
    return a


def test_alpha_against_fsum_refined_root(table):
    # seeded cells over the 1e6 table, u from 0.3 (alpha > 1, where the
    # start lies right of the root) to 1000
    rng = np.random.default_rng(1986)
    cells = [(10.0 ** rng.uniform(0.31, 6.0), 10.0 ** rng.uniform(-0.5, 3.0)) for _ in range(30)]
    cells += [(2.0, 1.0), (2.0, 1000.0), (1e6, 0.3), (1e6, 1000.0), (3.0, 0.64)]
    worst = 0.0
    for y, u in cells:
        log_x = u * math.log(y)
        if log_x < math.log(2.0):
            continue
        a = solve_alpha(log_x, table, y).alpha
        ref = fsum_refined_alpha(log_x, table.primes, y, a)
        worst = max(worst, abs(a - ref) / ref)
    assert worst <= 2e-15


def test_alpha_below_floor_is_range_error(table):
    # the closed-form start lies near alpha = 2e-299 here; the floor is
    # checked on the result, not only on the bracket.  From 1.7e308 on, u
    # lies beyond xi's range (2.53e305) and beta fails before any pass; the
    # root lies below pi(y)/log_x there, so it is the same floor RangeError
    for log_x, y in ((1e300, 100.0), (1e300, 3.0), (1e40, 1e6),
                     (1.7e308, 2.0), (1.7e308, 1e6), (1e306, 3.0), (math.inf, 100.0)):
        with pytest.raises(RangeError, match="below 1e-18"):
            solve_alpha(log_x, table, y)


def test_alpha_passes_per_solve(table, monkeypatch):
    # each pass over the log-primes makes one np.expm1 call, the residual
    # included; this grid takes 5 to 9 (bracketing and bisecting from 1
    # took 16 to 56)
    calls = []
    expm1 = np.expm1

    def counting(*args, **kwargs):
        calls.append(1)
        return expm1(*args, **kwargs)

    monkeypatch.setattr(np, "expm1", counting)
    for y in (2.0, 3.0, 10.0, 1e3, 1e5, 1e6):
        for u in (0.3, 0.7, 1.0, 2.0, 10.0, 100.0, 1000.0):
            log_x = u * math.log(y)
            if log_x < math.log(2.0):
                continue
            calls.clear()
            solve_alpha(log_x, table, y)
            assert 2 <= len(calls) <= 12, (y, u, len(calls))


def test_alpha_passes_from_beta(table, monkeypatch):
    # where beta = 1 - xi(u)/log y starts Newton a solve makes at most 4
    # np.expm1 calls over its pi(y) log-primes and at most 4 over the
    # compressed ones (y = 1e5 compresses nothing); from the closed form
    # the full log-primes took 7 or 8
    lengths = _count_expm1(monkeypatch)
    for y in (1e5, 1e6):
        k = table.pi(y)
        for u in (2.0, 10.0, 100.0):
            lengths.clear()
            solve_alpha(u * math.log(y), table, y)
            full = lengths.count(k)
            assert full <= 4, (y, u, lengths)
            assert len(lengths) - full <= 4, (y, u, lengths)


def test_exact_sum_passes_per_block(table, monkeypatch):
    # every block reads two exponents with math.frexp, its largest |term|'s
    # and its smallest nonzero one's, and none in its extraction passes,
    # whatever the signs; an all-zero block reads none
    calls = []
    frexp = math.frexp

    def counting(x):
        calls.append(1)
        return frexp(x)

    lp = table.log_primes
    blocks = -(-len(lp) // _BLOCK)
    monkeypatch.setattr(math, "frexp", counting)
    for s in (0.2, 1.0, 2.5):
        for terms in (np.exp(-s * lp), -np.log1p(-np.exp(-s * lp)), np.exp(-2.0 * s * lp)):
            calls.clear()
            exact_sum(terms)
            assert blocks <= len(calls) <= 3 * blocks, (s, len(calls))
    for u in (2.0, 0.5):
        # the residual, on its first read, is the one exact_sum of a solve
        st = solve_alpha(u * math.log(1e6), table, 1e6)
        calls.clear()
        st.solver_residual
        assert blocks <= len(calls) <= 3 * blocks, (u, len(calls))
    # mixed signs, zeros and an all-zero block, over 200 decades
    rng = np.random.default_rng(29)
    n = 4 * _BLOCK
    mixed = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-100.0, 100.0, n)
    zeros = mixed * (rng.random(n) < 0.7)
    zeros[_BLOCK:2 * _BLOCK] = 0.0
    for terms in (mixed, zeros):
        calls.clear()
        got = exact_sum(terms)
        assert len(calls) <= 3 * 4, len(calls)
        assert got == math.fsum(terms.tolist())


def test_alpha_stops_at_rounding_noise(table, monkeypatch):
    # with 1e-12 relative noise in every p^a - 1 no step gets below
    # 1e-15 alpha; the noise stops must still end each solve within a few
    # passes (without them this grid runs into the pass cap)
    cells = [(y, u) for y in (2.0, 10.0, 1e3, 1e6) for u in (0.5, 2.0, 30.0, 1000.0)
             if u * math.log(y) >= math.log(2.0)]
    clean = [solve_alpha(u * math.log(y), table, y).alpha for y, u in cells]
    rng = np.random.default_rng(12)
    calls = []
    expm1 = np.expm1

    def noisy(x, out=None):
        calls.append(1)
        r = expm1(x, out=out)
        r *= 1.0 + 1e-12 * rng.standard_normal(np.shape(r))
        return r

    monkeypatch.setattr(np, "expm1", noisy)
    for (y, u), want in zip(cells, clean):
        calls.clear()
        got = solve_alpha(u * math.log(y), table, y).alpha
        assert len(calls) <= 10, (y, u, len(calls))
        assert got == pytest.approx(want, rel=1e-11)


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_alpha_against_plain_newton(table):
    # the compressed start moves alpha by at most 2 ulps from plain Newton
    # over every log-prime and leaves the residual within rounding; where
    # nothing is compressed (pi(y) below the head and one group) both are
    # the same bits
    cells = [(y, u * math.log(y)) for y in (3e4, 1e5, 3.16e5, 1e6)
             for u in (0.5, 1.0, 2.0, 5.0, 30.0, 1000.0)]
    cells += [(y, y ** (1.0 / c)) for y in (3e4, 1e5, 3.16e5, 1e6) for c in (1.2, 1.5, 1.8)]
    for y, log_x in cells:
        k = table.pi(y)
        want, want_res, _ = alpha_newton(log_x, table.log_primes[:k], y)
        st = solve_alpha(log_x, table, y)
        assert _ulps(st.alpha, want) <= 2.0, (y, log_x)
        assert abs(st.solver_residual) <= max(2.0 * abs(want_res), 1e-15 * log_x), (y, log_x)
        if k < prime_tables._HEAD + prime_tables._GROUP:
            assert (st.alpha.hex(), st.solver_residual) == (want.hex(), want_res), (y, log_x)


def test_alpha_full_passes_and_group_cache(monkeypatch):
    # a compressed solve makes no pass over the full log-primes; the
    # residual is summed over them only when read (plain Newton makes 5
    # passes from beta, 9 from the closed form below u = 1, each counting
    # its residual);
    # the Gauss rules are built on the first solve that needs them, not by
    # the sieve, kept on the table, and reused by every later solve
    lengths, eighs = [], []
    expm1, eigh = np.expm1, np.linalg.eigh

    def counting_expm1(x, *args, **kwargs):
        lengths.append(len(x))
        return expm1(x, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        eighs.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    fresh = sieve_primes(10**6)
    assert eighs == []
    y = 1e6
    k = fresh.pi(y)
    cold = {}
    # u -> passes of plain Newton; below u = 1 it starts from the closed form
    plain = {0.5: 9, 0.7: 9, 2.0: 5, 10.0: 5, 100.0: 5, 1000.0: 5}
    for u, passes in plain.items():
        monkeypatch.setattr(np, "expm1", counting_expm1)
        lengths.clear()
        st = solve_alpha(u * math.log(y), fresh, y)
        monkeypatch.setattr(np, "expm1", expm1)
        assert lengths.count(k) == 0, (u, lengths)
        assert alpha_newton(u * math.log(y), fresh.log_primes[:k], y)[2] == passes, u
        cold[u] = (st.alpha.hex(), st.solver_residual)
    groups = (k - prime_tables._HEAD) // prime_tables._GROUP
    assert sum(eighs) == groups > 0
    for u, bits in cold.items():
        st = solve_alpha(u * math.log(y), fresh, y)
        assert (st.alpha.hex(), st.solver_residual) == bits, u
    assert sum(eighs) == groups
    # the rules live on the table alone and go with it
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


@pytest.fixture(scope="module")
def table_1e7():
    return sieve_primes(10**7)


def _cells_1e7():
    y = 1e7
    return [u * math.log(y) for u in (2.0, 13.0, 89.0)] + [y ** (1.0 / c) for c in (1.2, 1.5, 1.8)]


def _count_extractions(monkeypatch):
    # one call per exact_sum, under whichever name it was imported
    calls = []
    parts = prime_tables._exact_parts

    def counting(arr):
        calls.append(len(arr))
        return parts(arr)

    monkeypatch.setattr(prime_tables, "_exact_parts", counting)
    return calls


def test_solve_sums_no_residual(table, table_1e7, monkeypatch):
    # a compressed solve sums nothing exactly and makes no pass over its
    # pi(y) log-primes: Newton runs on the compressed ones alone
    sums = _count_extractions(monkeypatch)
    lengths = _count_expm1(monkeypatch)
    cells = [(table, 1e6, u * math.log(1e6)) for u in (0.5, 2.0, 13.0, 89.0)]
    cells += [(table_1e7, 1e7, log_x) for log_x in _cells_1e7()]
    for tab, y, log_x in cells:
        lengths.clear()
        solve_alpha(log_x, tab, y)
        assert sums == [], (y, log_x)
        assert lengths.count(tab.pi(y)) == 0, (y, log_x, lengths)


def test_compressed_alpha_solves_the_full_equation(table_1e7):
    # alpha from Newton on the compressed log-primes alone leaves the
    # correctly rounded residual over every log-prime within rounding
    # (measured at most 7.9e-16 log x on this grid)
    cells = [(y, u * math.log(y)) for y in (1.1e5, 2e5, 1e6, 3e6, 1e7)
             for u in (0.5, 2.0, 13.0, 89.0, 1e3, 1e6)]
    cells += [(y, y ** (1.0 / c)) for y in (1.1e5, 2e5, 1e6, 3e6, 1e7) for c in (1.2, 1.5, 1.8)]
    for y, log_x in cells:
        assert table_1e7.gauss_prefix(table_1e7.pi(y)) is not None
        st = solve_alpha(log_x, table_1e7, y)
        assert abs(st.solver_residual) <= 1e-15 * log_x, (y, log_x, st.solver_residual)


def test_residual_summed_on_first_read_only(table, monkeypatch):
    sums = _count_extractions(monkeypatch)
    for y, u in ((100.0, 2.0), (1e6, 13.0), (1e6, 0.5)):
        st = solve_alpha(u * math.log(y), table, y)
        first = st.solver_residual
        assert sums == [table.pi(y)], (y, u)
        assert st.solver_residual is first
        assert sums == [table.pi(y)], (y, u)
        sums.clear()


def test_log_zeta_compressed_against_zeta_partial(table_1e7):
    # psi_saddle's log zeta over the compressed points against the
    # correctly rounded full sum, at the solved alpha (measured 2.0e-16)
    for y in (2e5, 1e6, 1e7):
        assert table_1e7.gauss_prefix(table_1e7.pi(y)) is not None
        for u in (2.0, 13.0, 89.0, 1e3, 1e6):
            st = solve_alpha(u * math.log(y), table_1e7, y)
            want = zeta_partial(st.alpha, table_1e7, y)
            assert abs(st.log_zeta - want) <= 4.4e-16 * want, (y, u)


def test_psi_saddle_sums_no_full_zeta(table_1e7, monkeypatch):
    # right after solve_alpha at y = 1e7 psi_saddle takes log zeta from the
    # compressed points: its np.log1p calls together cover no more than
    # those, where the full sum's one call covers the primes above
    # 2^(1/alpha), nearly all pi(y)
    lengths = _count_log1p(monkeypatch)
    y = 1e7
    points = len(table_1e7.gauss_prefix(table_1e7.pi(y))[0])
    for log_x in _cells_1e7():
        solve_alpha(log_x, table_1e7, y)
        lengths.clear()
        psi_saddle(log_x, table_1e7, y)
        assert 0 < sum(lengths) <= points, (log_x, lengths)


def test_solve_then_psi_saddle_choose_the_points_once(table_1e7, monkeypatch):
    # solve_alpha picks the compressed points and psi_saddle sums log zeta
    # over the state's own, so the pair asks gauss_prefix once; a second
    # psi_saddle at the point reads the kept log zeta and sums nothing
    prefixes = []
    gauss_prefix = prime_tables.PrimeTable.gauss_prefix

    def counting(self, k):
        prefixes.append(k)
        return gauss_prefix(self, k)

    monkeypatch.setattr(prime_tables.PrimeTable, "gauss_prefix", counting)
    y = 1e7
    log_x = 13.0 * math.log(y)
    solve_alpha(log_x, table_1e7, y)
    first = psi_saddle(log_x, table_1e7, y)
    assert prefixes == [table_1e7.pi(y)]
    lengths = _count_log1p(monkeypatch)
    assert psi_saddle(log_x, table_1e7, y).hex() == first.hex()
    assert lengths == []
    assert prefixes == [table_1e7.pi(y)]


def test_residual_is_fsum_at_1e7(table_1e7):
    # the residual read on demand is math.fsum of the allocating term list
    # minus log_x, bit for bit, on the 664,579 primes up to 1e7
    lp = table_1e7.log_primes[:table_1e7.pi(1e7)]
    for log_x in _cells_1e7():
        st = solve_alpha(log_x, table_1e7, 1e7)
        want = math.fsum((lp / np.expm1(st.alpha * lp)).tolist()) - st.log_x
        assert st.solver_residual.hex() == want.hex(), log_x
        assert abs(st.solver_residual) <= 1e-14 * log_x, log_x


# --- alpha_approx ------------------------------------------------------------------


def test_alpha_approx_values():
    lx = math.log(1e6)
    assert alpha_approx(lx, lx) == math.log(2.0) / math.log(lx)
    assert alpha_approx(lx, 50.0) == pytest.approx(0.39115423309073283, rel=1e-12)
    assert alpha_approx(lx, 50.0) == pytest.approx(0.39124, abs=2e-4)
    with pytest.raises(DomainError):
        alpha_approx(lx, lx * lx * 1.01)
    with pytest.raises(DomainError):
        alpha_approx(lx, 1.2)


@pytest.mark.parametrize("log_x,y", [
    (math.nan, 10.0), (math.inf, 10.0), (-math.inf, 10.0), (-10.0, 10.0),
    (10.0, math.nan), (1e200, math.inf), (10.0, -math.inf), (10.0, math.nextafter(2.0, 0.0)),
])
def test_alpha_approx_bad_input_is_a_domain_error(log_x, y):
    with pytest.raises(DomainError, match="^alpha_approx needs"):
        alpha_approx(log_x, y)


def test_alpha_approx_sweep_constant(table):
    worst = 0.0
    for c in (0.5, 1.0, 1.5):
        for k in (4, 6, 8, 10, 12):
            lx = math.log(10.0) * k
            y = lx**c
            if y < 2.0:
                continue
            gap = abs(solve_alpha(lx, table, y).alpha - alpha_approx(lx, y))
            worst = max(worst, gap * math.log(y))
    assert worst <= 5.0
    assert worst <= 0.7  # measured 0.556; regression guard


# --- zeta_partial and the power sums -----------------------------------------------


def test_zeta_partial_examples(table):
    # (1-1/4)(1-1/9)(1-1/25)(1-1/49) inverted = 1225/768
    assert zeta_partial(2.0, table, 10.0) == pytest.approx(math.log(1225.0 / 768.0), rel=1e-14)
    for s in (0.5, 1.0, 2.0):
        assert zeta_partial(s, table, 2.0) == zeta_terms(s, table.log_primes[:1])[0]
    for s in (0.0, math.nan):
        with pytest.raises(DomainError):
            zeta_partial(s, table, 10.0)


def test_zeta_partial_against_mpmath(table):
    # both sides of the split at s log p = log 2 are correct to rounding,
    # term by term, down to s = 1e-15, where p^-s rounds next to 1; the old
    # -log1p(-p^-s) was 7.7e-10 off at s = 1e-10
    primes = table.primes[:table.pi(1e4)]
    lp = table.log_primes[:len(primes)]
    for s in (1e-15, 1e-10, 1e-4, 0.5, 2.0):
        want = np.array(mp_zeta_terms(s, primes))
        got = saddle._zeta_terms(lp, s)
        assert np.max(np.abs(got - want) / want) <= 1e-14, s
        assert zeta_partial(s, table, 1e4) == pytest.approx(math.fsum(want), rel=1e-14)


def test_psi_saddle_at_tiny_alpha():
    # log x = 2.5e16 and 2.5e18 at y = 100 put alpha near 1e-15 and 1e-17;
    # there the old terms read 0.13 low and inf
    small = sieve_primes(1000)
    y = 100.0
    primes = small.primes[:small.pi(y)]
    for log_x in (2.5e16, 2.5e18):
        st = solve_alpha(log_x, small, y)
        want = (st.alpha * log_x + math.fsum(mp_zeta_terms(st.alpha, primes))
                - math.log(st.alpha) - math.log(math.log(y))
                - 0.5 * math.log(2.0 * math.pi * st.u))
        assert psi_saddle(log_x, small, y) == pytest.approx(want, rel=1e-14), log_x


def test_zeta_lower_bound_sweep(table):
    rng = np.random.default_rng(23)
    for _ in range(40):
        s = rng.uniform(0.2, 2.5)
        y = rng.uniform(10.0, 1e5)
        sv, tv = prime_power_sums(s, table, y)
        assert zeta_partial(s, table, y) > sv + tv / 2.0


def test_prime_power_sums_values(table):
    sv, tv = prime_power_sums(1.0, table, 10.0)
    assert sv == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7, rel=1e-15)
    assert sv == pytest.approx(1.17619, abs=1e-5)
    assert tv == pytest.approx(1.0 / 4 + 1.0 / 9 + 1.0 / 25 + 1.0 / 49, rel=1e-15)
    sv2, tv2 = prime_power_sums(0.8, table, 2.0)
    assert sv2 == pytest.approx(2.0**-0.8, rel=1e-15)
    assert tv2 == pytest.approx(2.0**-1.6, rel=1e-15)
    for s in (-0.1, 0.0, math.nan):
        with pytest.raises(DomainError):
            prime_power_sums(s, table, 10.0)


def test_prime_sums_are_fsum_of_their_terms(table):
    # exact_sum gives math.fsum's value: bit for bit the sums of the list;
    # the sums computed in place are those of these allocating expressions
    rng = np.random.default_rng(15)
    grid = [(y, s) for y in (2.0, 97.0, 1e4 + 0.5, 1e6) for s in (0.2, 1.0, 2.5)]
    grid += [(10.0 ** rng.uniform(0.31, 6.0), rng.uniform(0.05, 3.0)) for _ in range(12)]
    for y, s in grid:
        lp = table.log_primes[:table.pi(y)]
        assert zeta_partial(s, table, y) == math.fsum(zeta_terms(s, lp).tolist())
        assert prime_power_sums(s, table, y) == (math.fsum(np.exp(-s * lp).tolist()),
                                                 math.fsum(np.exp(-2.0 * s * lp).tolist()))
        # s as u: the residual over every log-prime p <= y
        st = solve_alpha(max(s * math.log(y), math.log(2.0)), table, y)
        want = math.fsum((lp / np.expm1(st.alpha * lp)).tolist()) - st.log_x
        assert st.solver_residual.hex() == want.hex(), (y, s)


def test_t_tracks_w_with_second_order_drift(table):
    # T(s,y)/w_{2s} -> 1 like 1/((1-2s) log y); at y = 1e5 the drift is ~0.39
    _, tv = prime_power_sums(0.3, table, 1e5)
    ratio = tv / w_sigma(0.6, 1e5)
    assert ratio == pytest.approx(1.3858, abs=0.01)
    _, tv6 = prime_power_sums(0.3, table, 1e6)
    ratio6 = tv6 / w_sigma(0.6, 1e6)
    assert abs(ratio6 - 1.0) < abs(ratio - 1.0)


# --- w_sigma -----------------------------------------------------------------------


def test_w_sigma_values():
    assert w_sigma(0.0, 100.0) == pytest.approx(99.0 / math.log(100.0), rel=1e-15)
    assert w_sigma(1.0, 1e4) == 1.0
    assert w_sigma(0.5, 1e4) == pytest.approx((100.0 - 1.0) / (0.5 * math.log(1e4)), rel=1e-14)
    assert w_sigma(0.5, 1e4) == pytest.approx(21.497, abs=1e-3)
    with pytest.raises(DomainError):
        w_sigma(0.5, 1.0)


@pytest.mark.parametrize("sigma,y", [
    (math.nan, 10.0), (math.inf, 10.0), (-math.inf, 10.0),
    (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf), (0.5, 1.0),
])
def test_w_sigma_bad_input_is_a_domain_error(sigma, y):
    with pytest.raises(DomainError, match="^w_sigma needs"):
        w_sigma(sigma, y)


def test_w_sigma_overflow_is_a_range_error():
    # y^(1 - sigma) past the largest double
    with pytest.raises(RangeError, match="^w_sigma overflows"):
        w_sigma(-1000.0, 1e300)


def test_w_sigma_seam_continuity():
    ly = math.log(1e4)
    for sign in (1.0, -1.0):
        below = w_sigma(1.0 - sign * 0.99e-6 / ly, 1e4)
        above = w_sigma(1.0 - sign * 1.01e-6 / ly, 1e4)
        assert below == pytest.approx(above, abs=2e-8)


# --- f and beta --------------------------------------------------------------------


def test_f_sigma_endpoints(table):
    lx = math.log(1e8)
    assert f_sigma(1.0, lx, 79.0) == lx
    assert f_sigma(0.0, lx, 79.0) == int_exp(math.log(79.0))
    with pytest.raises(DomainError):
        f_sigma(1.2, lx, 79.0)
    with pytest.raises(DomainError):
        f_sigma(-0.1, lx, 79.0)


@pytest.mark.parametrize("sigma,log_x,y", [
    (math.nan, 10.0, 10.0),
    (0.5, math.nan, 10.0), (0.5, math.inf, 10.0), (0.5, -math.inf, 10.0),
    (0.5, 10.0, math.nan), (0.5, 10.0, math.inf), (0.5, 10.0, -math.inf), (0.5, 10.0, 1.0),
])
def test_f_sigma_bad_input_is_a_domain_error(sigma, log_x, y):
    with pytest.raises(DomainError, match="^f_sigma needs"):
        f_sigma(sigma, log_x, y)


def test_f_convex_argmin_at_beta(table):
    lx = math.log(1e8)
    y = lx**1.5
    u = lx / math.log(y)
    beta = 1.0 - xi(u).xi / math.log(y)
    sig = np.linspace(0.0, 1.0, 401)
    vals = np.array([f_sigma(s, lx, y) for s in sig])
    assert np.all(np.diff(vals, 2) >= -1e-9 * lx)
    argmin = sig[int(np.argmin(vals))]
    assert abs(argmin - beta) <= 1.0 / 400 + 1e-12
    d = 1e-5
    fprime = (f_sigma(beta + d, lx, y) - f_sigma(beta - d, lx, y)) / (2.0 * d)
    assert abs(fprime) <= 1e-6 * lx


def test_f_beta_grid_c_in_1_2(table):
    # ten-point grid across c in (1,2): stationarity, the closed form, f(alpha) >= f(beta)
    lx = math.log(1e8)
    for c in np.linspace(1.05, 1.95, 10):
        y = lx**c
        st = solve_alpha(lx, table, y)
        lhs, rhs = f_at_beta_identity(lx, y)
        assert abs(lhs - rhs) <= 1e-6 * lx
        d = 1e-5
        beta = st.beta
        fprime = (f_sigma(min(beta + d, 1.0), lx, y) - f_sigma(beta - d, lx, y)) / (
            min(beta + d, 1.0) - (beta - d)
        )
        assert abs(fprime) <= 1e-6 * lx
        assert f_sigma(st.alpha, lx, y) >= f_sigma(beta, lx, y) - 1e-12 * lx


def test_f_at_beta_identity_cases(table):
    lx = math.log(1e4)
    lhs, rhs = f_at_beta_identity(lx, 1e4)  # u = 1
    assert lhs == lx and rhs == lx
    for x, cexp in ((1e8, 1.5), (1e12, 1.2)):
        lx = math.log(x)
        lhs, rhs = f_at_beta_identity(lx, lx**cexp)
        assert abs(lhs - rhs) <= 1e-6 * lx
    with pytest.raises(DomainError):
        f_at_beta_identity(math.log(100.0), 1e4)


_E_E = math.exp(math.e)


@pytest.mark.parametrize("name,args", [
    ("f_at_beta_identity", (10.0, 1.0)), ("f_at_beta_identity", (10.0, 0.0)),
    ("f_at_beta_identity", (10.0, math.nextafter(2.0, 0.0))),
    ("f_at_beta_identity", (10.0, math.nan)), ("f_at_beta_identity", (10.0, math.inf)),
    ("f_at_beta_identity", (10.0, -math.inf)),
    ("f_at_beta_identity", (math.nan, 10.0)), ("f_at_beta_identity", (math.inf, 10.0)),
    ("f_at_beta_identity", (-math.inf, 10.0)),
    ("psi_saddle", (20.0, math.nan)), ("psi_saddle", (20.0, math.inf)),
    ("psi_saddle", (20.0, -math.inf)), ("psi_saddle", (20.0, math.nextafter(2.0, 0.0))),
    ("psi_saddle", (math.nan, 10.0)), ("psi_saddle", (math.inf, 10.0)),
    ("psi_saddle", (-math.inf, 10.0)),
    ("oscillation_record", (math.nan, 1.5)), ("oscillation_record", (math.inf, 1.5)),
    ("oscillation_record", (-math.inf, 1.5)), ("oscillation_record", (_E_E, 1.5)),
    # log log log y rounds to 0 an ulp above e^e, and the normalizer with it
    ("oscillation_record", (math.nextafter(_E_E, math.inf), 1.5)),
], ids=lambda v: repr(v) if isinstance(v, tuple) else v)
def test_saddle_layer_bad_input_is_a_domain_error(name, args, table):
    # refused by the function itself, before log y or a solve is taken
    calls = {
        "f_at_beta_identity": lambda: f_at_beta_identity(*args),
        "psi_saddle": lambda: psi_saddle(args[0], table, args[1]),
        "oscillation_record": lambda: oscillation_record(*args, table),
    }
    with pytest.raises(DomainError, match=f"^{name} needs"):
        calls[name]()


def test_saddle_layer_boundary_values_pass(table):
    lhs, rhs = f_at_beta_identity(10.0, 2.0)
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
    assert psi_saddle(20.0, table, 2.0) > 0.0
    assert oscillation_record(_E_E * (1.0 + 1e-15), 1.5, table).normalizer > 0.0


def test_exponent_identity(table):
    # alpha log x + log zeta - f(alpha) = log zeta - I((1-alpha) log y)
    lx = math.log(1e6)
    y = 100.0
    st = solve_alpha(lx, table, y)
    z = zeta_partial(st.alpha, table, y)
    lhs = st.alpha * lx + z - f_sigma(st.alpha, lx, y)
    rhs = z - int_exp((1.0 - st.alpha) * math.log(y))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --- psi_saddle --------------------------------------------------------------------


def test_psi_saddle_composition(table):
    lx = math.log(1e6)
    y = 79.0
    st = solve_alpha(lx, table, y)
    expected = (
        st.alpha * lx
        + zeta_partial(st.alpha, table, y)
        - math.log(st.alpha)
        - math.log(math.log(y))
        - 0.5 * math.log(2.0 * math.pi * st.u)
    )
    got = psi_saddle(lx, table, y)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(10.902585293373814, rel=1e-9)


def test_psi_saddle_domain(table):
    with pytest.raises(DomainError):
        psi_saddle(math.log(100.0), table, 50.0)  # u < 2
    with pytest.raises(DomainError):
        psi_saddle(math.log(1e6), table, 1.5)


def test_psi_saddle_reuses_the_last_solve(table, monkeypatch):
    # right after solve_alpha at its point psi_saddle makes no Newton pass,
    # and its value is bit for bit that of a call that solves afresh
    calls = _count_expm1(monkeypatch)
    for y, u in ((100.0, 2.0), (1e4, 13.0), (1e6, 89.0)):
        log_x = u * math.log(y)
        solve_alpha(log_x + 1.0, table, y)
        cold = psi_saddle(log_x, table, y)
        solve_alpha(log_x, table, y)
        calls.clear()
        warm = psi_saddle(log_x, table, y)
        assert calls == [], (y, u)
        assert warm.hex() == cold.hex(), (y, u)


def test_psi_saddle_memo_misses(table, monkeypatch):
    # only the same table object at equal floats log_x and y is a hit
    small = sieve_primes(10**4)
    twin = sieve_primes(10**4)
    log_x, y = 10.0 * math.log(1e3), 1e3
    misses = [
        (twin, log_x, y),
        (small, log_x, math.nextafter(y, math.inf)),
        (small, math.nextafter(log_x, 0.0), y),
    ]
    calls = _count_expm1(monkeypatch)
    for other, lx, yy in misses:
        solve_alpha(log_x, small, y)
        calls.clear()
        psi_saddle(lx, other, yy)
        assert len(calls) >= 2, (lx, yy)
    # a solve at another point in between replaces the memo
    solve_alpha(log_x, small, y)
    solve_alpha(log_x, small, 100.0)
    calls.clear()
    got = psi_saddle(log_x, small, y)
    assert len(calls) >= 2
    assert got.hex() == psi_saddle(log_x, twin, y).hex()


def test_memo_holds_its_table_weakly():
    small = sieve_primes(1000)
    solve_alpha(30.0, small, 100.0)
    ref = weakref.ref(small)
    assert ref() is small
    del small
    gc.collect()
    assert ref() is None
    # a dead memo never matches, so the point is solved again
    assert psi_saddle(30.0, sieve_primes(1000), 100.0) > 0.0
