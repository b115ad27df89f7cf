"""Regime comparison, oscillation scan, and the Q/pi integrals."""

import io
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from friabilis.dickman import EULER_GAMMA, int_exp
from friabilis.errors import DomainError, RangeError, ResourceError
from friabilis.prime_tables import exact_sum, sieve_primes
from friabilis.saddle import prime_power_sums, solve_alpha, zeta_partial
from friabilis import psi_exact, saddle
from friabilis import theorem as th


@pytest.fixture(scope="module")
def table():
    return sieve_primes(10**6)


def test_classify_regime():
    assert th.classify_regime(0.5) == "c_lt_1"
    assert th.classify_regime(1.0) == "c_eq_1"
    assert th.classify_regime(1.5) == "c_in_1_2"
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(DomainError):
            th.classify_regime(bad)


def test_predicted_gap_closed_forms(table):
    # c=1 at log_x = e^4: (log 4 - 1) e^4 / 4
    lx = math.exp(4.0)
    assert th.predicted_gap(lx, 1.0, None) == pytest.approx(5.272739, abs=1e-5)
    # c<1 coefficient is 1/c - 1; at c=0.5 that is exactly 1
    assert th.predicted_gap(100.0, 0.5, None) == pytest.approx(100.0, rel=1e-15)
    assert th.predicted_gap(50.0, 0.7, None) == pytest.approx((1 / 0.7 - 1) * 50.0, rel=1e-14)


@pytest.mark.parametrize("log_x", [math.nan, math.inf, -math.inf, 1.0])
def test_predicted_gap_bad_input_is_a_domain_error(log_x):
    for c in (0.5, 1.0, 1.5):
        with pytest.raises(DomainError, match="^predicted_gap needs"):
            th.predicted_gap(log_x, c, None)


def test_predicted_gap_saddle_regime(table):
    lx = math.log(1e10)
    y = lx ** 1.5
    st = solve_alpha(lx, table, y)
    pg = th.predicted_gap(lx, 1.5, st)
    a = st.alpha
    assert pg == pytest.approx(0.5 * y ** (1 - 2 * a) / ((1 - 2 * a) * math.log(y)), rel=1e-15)
    assert 5.0 < pg < 9.0


def test_log_x_rho_c1_form():
    lx = math.log(1e12)
    l2 = math.log(lx)
    _, expn = th.log_x_rho(lx, 1.0)
    assert expn == pytest.approx(lx / l2 + lx / l2 ** 2, rel=1e-15)


def test_log_x_rho_frozen(table):
    exact, expn = th.log_x_rho(math.log(1e12), 0.7)
    assert exact == pytest.approx(-3.838859228362221, rel=1e-12)
    assert expn == pytest.approx(0.67090844689878, rel=1e-12)
    exact, expn = th.log_x_rho(math.log(1e20), 0.5)
    assert abs(exact - expn) == pytest.approx(10.643546431959379, rel=1e-9)


def test_log_x_rho_error_scale():
    # |exact - expansion| stays within the next-order shape
    # log_x (log_3 x)^2 / (log_2 x)^3, fitted constant below 8 at desk scale
    worst = 0.0
    for c, x in ((0.7, 1e12), (0.5, 1e20), (1.0, 1e12), (1.0, 1e16), (0.9, 1e14), (0.6, 1e18)):
        lx = math.log(x)
        l2, l3 = math.log(lx), math.log(math.log(lx))
        exact, expn = th.log_x_rho(lx, c)
        worst = max(worst, abs(exact - expn) / (lx * l3 ** 2 / l2 ** 3))
    assert worst <= 8.0


def test_log_x_rho_domain():
    with pytest.raises(DomainError):
        th.log_x_rho(30.0, 1.2)
    with pytest.raises(DomainError):
        th.log_x_rho(30.0, 0.0)
    # c=0.1 at x=1e30 pushes u past the default grid
    with pytest.raises(RangeError):
        th.log_x_rho(math.log(1e30), 0.1)


def test_regime_record_refuses_a_disagreeing_x_exact(table):
    # would record Psi(1e8, 7.69) = 3,427 as the count beside x = 1e10
    with pytest.raises(DomainError, match="x_exact"):
        th.regime_record(math.log(1e8), 0.7, table, x_exact=10**10)


def test_regime_record_c_lt_1(table):
    lx = math.log(1e12)
    r = th.regime_record(lx, 0.7, table, x_exact=10**12)
    assert r.regime == "c_lt_1" and r.flag == ""
    assert r.y == lx ** 0.7
    assert r.u == lx / math.log(r.y)
    assert r.log_psi_exact == pytest.approx(9.593696194496246, rel=1e-12)
    assert r.measured_gap == pytest.approx(13.43255542285846, rel=1e-12)
    assert r.predicted_gap == pytest.approx(11.841866192540806, rel=1e-12)
    # the regime exponent lands near 1/c - 1
    assert abs(r.measured_gap / lx - (1 / 0.7 - 1)) <= 0.12


def test_regime_record_c_eq_1(table):
    r = th.regime_record(math.log(1e9), 1.0, table, x_exact=10**9)
    assert r.regime == "c_eq_1" and r.flag == ""
    assert r.measured_gap == pytest.approx(4.059310156997251, rel=1e-12)
    assert r.measured_gap / r.predicted_gap == pytest.approx(1.5370869335886064, rel=1e-12)


def test_regime_record_side_condition_flag(table):
    # at x=1e8, c=1.5 the saddle alpha sits just above 1/2: the record is
    # flagged, not rejected, and the case-1 formula goes negative there
    r = th.regime_record(math.log(1e8), 1.5, table, x_exact=10**8)
    assert r.flag == "alpha_ge_half"
    assert r.alpha == pytest.approx(0.5035326679378539, rel=1e-9)
    assert r.predicted_gap < 0.0
    assert math.isfinite(r.measured_gap)


def test_regime_record_solves_once(table, monkeypatch):
    # the record's own solve is the one that psi_enumerate's preflight
    # estimate reuses: as many Newton passes as one solve at the point
    calls = []
    expm1 = np.expm1

    def counting(*args, **kwargs):
        calls.append(1)
        return expm1(*args, **kwargs)

    monkeypatch.setattr(np, "expm1", counting)
    for lx, c in ((39.02542542948119, 0.7), (27.175944945121046, 1.0)):
        calls.clear()
        solve_alpha(lx, table, th.regime_y(lx, c))
        one = len(calls)
        calls.clear()
        th.regime_record(lx, c, table)
        assert len(calls) == one > 0, (c, one, len(calls))


def test_regime_purity_under_guard_band(table, monkeypatch):
    lx = math.log(1e9)
    a = th.regime_record(lx, 1.0, table, x_exact=10**9)
    monkeypatch.setattr(psi_exact, "_GUARD", 2e-9)  # the band doubled
    b = th.regime_record(lx, 1.0, table, x_exact=10**9)
    assert b.predicted_gap == a.predicted_gap
    assert b.measured_gap == a.measured_gap


@pytest.mark.parametrize("c", [0.7, 1.0, 1.2, 1.5])
def test_feasible_limit_is_the_enumerator_rule(c, table):
    # the auto-mode limit is the last log x that psi_enumerate's own
    # admission rule accepts: one ulp further it refuses
    lx = th.largest_feasible_log_x(c, table, max_count=1e5)
    assert psi_exact._preflight(lx, table, lx ** c, 1e5) > 0
    nxt = math.nextafter(lx, math.inf)
    with pytest.raises(ResourceError):
        psi_exact._preflight(nxt, table, nxt ** c, 1e5)


def test_feasible_limit_probes_each_point_once(table, monkeypatch):
    # the bisection stops once its midpoint rounds to an end, so no alpha
    # solve repeats a (log x, y) already tried
    calls = []
    real = saddle.solve_alpha

    def counted(log_x, table, y):
        calls.append((log_x, y))
        return real(log_x, table, y)

    monkeypatch.setattr(saddle, "solve_alpha", counted)
    th.largest_feasible_log_x(1.2, table, max_count=1e6)
    assert len(set(calls)) == len(calls)
    assert len(calls) <= 60


def test_feasible_limit_bound_by_the_table():
    # at log x = 9, y = 9^1.2 = 13.97 already passes a table of the primes up to 10
    with pytest.raises(ResourceError, match="exceeds the prime table limit 10"):
        th.largest_feasible_log_x(1.2, sieve_primes(10))


def test_eq6_lower_bound_shape(table):
    # Psi/(x rho) >= {c e^-gamma/(c-1)} e^{log zeta - I} holds only up to the
    # slowly-decaying prefactor correction log(alpha log y * c/(c-1)); at desk
    # scale that deficit sits near 1.8-1.9, so assert the band, not the limit
    for c, x, want in ((1.2, 1e8, 1.801789868818533),
                       (1.35, 1e8, 1.8662319215718624),
                       (1.5, 1e10, 1.9372333818209362)):
        r = th.regime_record(math.log(x), c, table, x_exact=int(x))
        assert r.alpha < 0.5
        zi = zeta_partial(r.alpha, table, r.y) - int_exp((1 - r.alpha) * math.log(r.y))
        pref = math.log(c * math.exp(-EULER_GAMMA) / (c - 1))
        deficit = zi + pref - r.measured_gap
        assert deficit == pytest.approx(want, abs=1e-6)
        assert r.measured_gap >= zi + pref - 2.5


def test_oscillation_record_frozen(table):
    r = th.oscillation_record(1e4, 1.5, table)
    assert r.alpha == pytest.approx(0.3926813560918998, rel=1e-9)
    assert r.s_sum == pytest.approx(60.814703517650436, rel=1e-12)
    assert r.i_term == pytest.approx(60.495246133764255, rel=1e-12)
    assert r.diff == r.s_sum - r.i_term
    assert r.normalized_diff == pytest.approx(1.3727747191496593, rel=1e-6)


def test_oscillation_sign_change(table):
    # the difference S - I actually crosses zero between y=1e4 and 1e5 at
    # c=1.5, a desk-scale glimpse of the oscillation
    hi = th.oscillation_record(1e4, 1.5, table)
    lo = th.oscillation_record(1e5, 1.5, table)
    assert hi.normalized_diff > 0 > lo.normalized_diff
    assert lo.normalized_diff == pytest.approx(-0.23382623377734363, rel=1e-6)
    for r in (hi, lo):
        assert r.normalizer > 0
        assert abs(r.normalized_diff) <= 20.0


def test_oscillation_domain(table):
    with pytest.raises(DomainError):
        th.oscillation_record(15.0, 1.5, table)   # y <= e^e
    with pytest.raises(DomainError):
        th.oscillation_record(1e4, 1.0, table)
    with pytest.raises(DomainError):
        th.oscillation_record(1e4, 2.0, table)


def test_oscillation_s_is_prime_power_sums_s(table):
    # S is summed alone, bit for bit the S of prime_power_sums
    for y in (16.0, 1e3, 12345.6, 1e5, 1e6):
        r = th.oscillation_record(y, 1.5, table)
        assert r.s_sum.hex() == prime_power_sums(r.alpha, table, y)[0].hex(), y


def test_oscillation_scan_deterministic(table):
    serial = th.oscillation_scan(1.5, [1e4, 1e2, 1e3], table)
    assert [r.y for r in serial] == [1e2, 1e3, 1e4]
    assert th.oscillation_scan(1.5, [1e2, 1e3, 1e4], table) == serial


def test_oscillation_csv_roundtrip(table):
    recs = th.oscillation_scan(1.5, [1e3, 1e4, 1e5], table)
    buf = io.StringIO()
    th.write_oscillation_csv(recs, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == th.OSCILLATION_HEADER
    buf.seek(0)
    assert th.read_oscillation_csv(buf) == recs


def test_regime_csv_roundtrip(table):
    recs = [th.regime_record(math.log(1e9), 1.0, table, x_exact=10**9),
            th.regime_record(math.log(1e8), 1.5, table, x_exact=10**8)]
    buf = io.StringIO()
    th.write_regime_csv(recs, buf)
    assert buf.getvalue().splitlines()[0] == th.REGIME_HEADER
    buf.seek(0)
    back = th.read_regime_csv(buf)
    assert back == recs          # flag is derivable, so equality is full
    assert back[1].flag == "alpha_ge_half"


def _regime_text(table):
    buf = io.StringIO()
    th.write_regime_csv([th.regime_record(math.log(1e9), 1.0, table, x_exact=10**9)], buf)
    return buf.getvalue()


def test_regime_csv_short_row_names_line(table):
    header, row = _regime_text(table).splitlines()
    short = row.rsplit(",", 1)[0]
    with pytest.raises(DomainError, match="line 3"):
        th.read_regime_csv(io.StringIO(f"{header}\n{row}\n{short}\n"))


def test_regime_csv_non_number_names_line(table):
    header, row = _regime_text(table).splitlines()
    bad = "abc" + row[row.index(","):]
    with pytest.raises(DomainError, match="line 2"):
        th.read_regime_csv(io.StringIO(f"{header}\n{bad}\n"))


def test_oscillation_csv_short_row_names_line(table):
    buf = io.StringIO()
    th.write_oscillation_csv(th.oscillation_scan(1.5, [1e3], table), buf)
    header, row = buf.getvalue().splitlines()
    short = row.rsplit(",", 2)[0]
    with pytest.raises(DomainError, match="line 4"):
        th.read_oscillation_csv(io.StringIO(f"{header}\n{row}\n\n{short}\n"))


def test_q_integral_hand_values(table):
    # y=3: no prime power above first order fits, so both parts coincide
    q, pi = th.q_integral(3.0, 0.4, table)
    assert q == pi
    smooth, err = scipy.integrate.quad(lambda t: t ** -0.4 / math.log(t), 2.0, 3.0)
    assert err < 1e-12
    assert q == pytest.approx(2 ** -0.4 + 3 ** -0.4 - smooth, rel=1e-12)


def test_q_integral_power_tail(table):
    # the q-pi difference is exactly the k>=2 prime-power sum
    q, pi = th.q_integral(100.0, 0.3, table)
    hand = math.fsum([4 ** -0.3 / 2, 8 ** -0.3 / 3, 16 ** -0.3 / 4, 32 ** -0.3 / 5,
                      64 ** -0.3 / 6, 9 ** -0.3 / 2, 27 ** -0.3 / 3, 81 ** -0.3 / 4,
                      25 ** -0.3 / 2, 49 ** -0.3 / 2])
    assert q - pi == pytest.approx(hand, rel=1e-12)


def test_q_integral_counts_p_from_p_on(table):
    # no prime lies in (p - 1, p), so one ulp below p pi_part has only fallen
    # with the smooth part since p - 1; it jumps by p^-a at p itself
    a = 0.3
    for p in (997, 7919, 104729, 999983):
        below = th.q_integral(math.nextafter(p, 0), a, table)[1]
        assert below < th.q_integral(p - 1, a, table)[1]
        assert th.q_integral(p, a, table)[1] - below == pytest.approx(p ** -a, rel=1e-9)


def test_q_integral_smooth_part_against_mpmath(table):
    # pi_part = sum_{p <= y} p^-a - smooth: rebuild the prime sum as q_integral
    # sums it, recover the smooth part, and check it against a 30-digit
    # quadrature of int_{log 2}^{log y} e^((1-a) v)/v dv (t = e^v)
    with mpmath.workdps(30):
        for y in (3.0, 1e3, 1e6):
            lp = table.log_primes[:table.pi(y)]
            for a in (0.2, 0.5, 0.9, 1.0):
                q, pi = th.q_integral(y, a, table)
                smooth = math.fsum(np.exp(-a * lp)) - pi
                want = mpmath.quad(lambda v: mpmath.exp((1 - mpmath.mpf(a)) * v) / v,
                                   [mpmath.log(2), mpmath.log(y)])
                assert smooth == pytest.approx(float(want), rel=1e-13), (y, a)


def test_q_integral_parts_round_once():
    # at y = 4,529,019.46, a = 0.2 q_part cancels to -0.270 from sums near
    # 1e5; each part is the correctly rounded sum of its own float terms
    y, a = 4529019.46, 0.2
    big = sieve_primes(4529020)
    lp = big.log_primes
    k_end, *roots = big.root_counts(y)
    primes = np.exp(-a * lp[:k_end]).tolist()
    tail = [v for k, c in enumerate(roots, start=2) for v in (np.exp(-a * k * lp[:c]) / k).tolist()]
    b = 1.0 - a
    smooth = [-math.log(math.log(y) / math.log(2.0)), -int_exp(b * math.log(y)),
              int_exp(b * math.log(2.0))]
    q, pi = th.q_integral(y, a, big)
    assert q == math.fsum(primes + tail + smooth)
    assert pi == math.fsum(primes + smooth)
    assert q == pytest.approx(-0.270, abs=5e-4)


def q_integral_one_array(y, alpha, table):
    # q_integral as one exact_sum per part over the concatenated terms
    lp = table.log_primes
    k_end, *roots = table.root_counts(y)
    primes = np.exp(-alpha * lp[:k_end])
    tail = [np.exp(-alpha * k * lp[:c]) / k for k, c in enumerate(roots, start=2)]
    log_y, log_2, b = math.log(y), math.log(2.0), 1.0 - alpha
    smooth = np.array([-math.log(log_y / log_2), -int_exp(b * log_y), int_exp(b * log_2)])
    return (exact_sum(np.concatenate([primes, *tail, smooth])),
            exact_sum(np.concatenate([primes, smooth])))


def test_q_integral_against_one_array_sums(table):
    # the prime terms' parts, extracted once and joined with the tail and
    # smooth terms in one math.fsum, round as the concatenated arrays do
    for y in (2.0, 3.0, 3.99, 4.0, 100.0, 1e3, 4096.0, 1e5, 999983.0, 1e6):
        for a in (0.05, 0.2, 0.4, 0.5, 0.75, 1.0):
            got = th.q_integral(y, a, table)
            want = q_integral_one_array(y, a, table)
            assert [v.hex() for v in got] == [v.hex() for v in want], (y, a)


def test_q_integral_gap_profile(table):
    # frozen gap values at the corners of the (y, alpha) grid; the k>=2 tail
    # grows like y^(1/2-a)/((1-2a) log y), which outruns the stated budget
    # 3 y^(1/2-a)/log y on all of the criterion-10a grid but y=1e6, a=0.2
    # (already by 2-6% at a=0.2, y<=1e5); the last line pins that miss
    q, pi = th.q_integral(1e3, 0.2, table)
    assert q - pi == pytest.approx(3.62886089320736, rel=1e-10)
    q, pi = th.q_integral(1e6, 0.4, table)
    assert q - pi == pytest.approx(2.7823712734931405, rel=1e-10)
    assert q - pi > 3.0 * 1e6 ** 0.1 / math.log(1e6)


def test_q_integral_domain(table):
    with pytest.raises(DomainError):
        th.q_integral(1.5, 0.3, table)
    with pytest.raises(RangeError):
        th.q_integral(2e6, 0.3, table)
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            th.q_integral(y, 0.3, table)
    with pytest.raises(DomainError):
        th.q_integral(100.0, 0.0, table)
    with pytest.raises(DomainError):
        th.q_integral(100.0, 1.5, table)
