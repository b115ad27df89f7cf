"""Regime comparison, Z expansions, oscillation scan, and the Q/pi integrals."""

import io
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from friabilis.dickman import EULER_GAMMA, int_exp
from friabilis.errors import DomainError, RangeError
from friabilis.prime_tables import sieve_primes
from friabilis.saddle import solve_alpha, zeta_partial
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
    assert exact == pytest.approx(-3.838859227412314, rel=1e-12)
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


def test_z_bruijn_collapse():
    lx = math.log(1e12)
    assert th.z_bruijn(lx, lx) == pytest.approx(th.z_cases(lx, 1.0), rel=1e-14)
    with pytest.raises(DomainError):
        th.z_bruijn(10.0, 2.5)
    with pytest.raises(DomainError):
        th.z_bruijn(1.0, 4.0)


def test_z_cases_match_z_bruijn():
    # discrepancy stays within the scale of the first omitted term
    for c in (0.5, 0.7, 1.0, 1.3, 1.5, 1.8):
        for x in (1e10, 1e14, 1e20):
            lx = math.log(x)
            l2 = math.log(lx)
            d = abs(th.z_bruijn(lx, lx ** c) - th.z_cases(lx, c))
            if c > 1:
                omit = lx ** (3 - 2 * c) / l2
            elif c == 1:
                omit = lx / l2 ** 2
            else:
                omit = lx ** (2 * c - 1) / l2
            assert d <= 1.5 * omit, (c, x, d, omit)
    with pytest.raises(DomainError):
        th.z_cases(30.0, 2.0)


def test_regime_record_c_lt_1(table):
    lx = math.log(1e12)
    r = th.regime_record(lx, 0.7, table, x_exact=10**12)
    assert r.regime == "c_lt_1" and r.flag == ""
    assert r.y == lx ** 0.7
    assert r.u == lx / math.log(r.y)
    assert r.log_psi_exact == pytest.approx(9.593696194496246, rel=1e-12)
    assert r.measured_gap == pytest.approx(13.432555421908546, rel=1e-12)
    assert r.predicted_gap == pytest.approx(11.841866192540806, rel=1e-12)
    # the regime exponent lands near 1/c - 1
    assert abs(r.measured_gap / lx - (1 / 0.7 - 1)) <= 0.12


def test_regime_record_c_eq_1(table):
    r = th.regime_record(math.log(1e9), 1.0, table, x_exact=10**9)
    assert r.regime == "c_eq_1" and r.flag == ""
    assert r.measured_gap == pytest.approx(4.059310156007204, rel=1e-12)
    assert r.measured_gap / r.predicted_gap == pytest.approx(1.537086933213718, rel=1e-12)


def test_regime_record_side_condition_flag(table):
    # at x=1e8, c=1.5 the saddle alpha sits just above 1/2: the record is
    # flagged, not rejected, and the case-1 formula goes negative there
    r = th.regime_record(math.log(1e8), 1.5, table, x_exact=10**8)
    assert r.flag == "alpha_ge_half"
    assert r.alpha == pytest.approx(0.5035326679378539, rel=1e-9)
    assert r.predicted_gap < 0.0
    assert math.isfinite(r.measured_gap)


def test_regime_purity_under_guard_band(table):
    lx = math.log(1e9)
    a = th.regime_record(lx, 1.0, table, x_exact=10**9)
    b = th.regime_record(lx, 1.0, table, x_exact=10**9,
                         eps_guard=2e-9 * (1.0 + lx))
    assert b.predicted_gap == a.predicted_gap
    assert b.measured_gap == a.measured_gap


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


def test_oscillation_synthetic_alpha(table):
    y = 1e4
    r = th.oscillation_record(y, 1.5, table, alpha=0.5)
    ly = math.log(y)
    assert r.normalizer == pytest.approx(math.log(math.log(ly)) / ly, rel=1e-15)
    assert math.isfinite(r.diff)


def test_oscillation_domain(table):
    with pytest.raises(DomainError):
        th.oscillation_record(15.0, 1.5, table)   # y <= e^e
    with pytest.raises(DomainError):
        th.oscillation_record(1e4, 1.0, table)
    with pytest.raises(DomainError):
        th.oscillation_record(1e4, 2.0, table)


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
    with pytest.raises(DomainError):
        th.q_integral(100.0, 0.0, table)
    with pytest.raises(DomainError):
        th.q_integral(100.0, 1.5, table)
