"""Dickman rho series and grid, xi solver, and the saddle-side integrals.

Oracles: bisection for xi (independent of the Newton path), a compensated
series for I(s), scipy quadrature for the Stieltjes form of xi_integral,
and for rho the dilogarithm closed form on [2, 3] (mpmath), quadrature of
the integral identity, and a fixed-point grid march (rho_march.py).
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from friabilis.cli import main
from friabilis.dickman import (
    RHO_U_MAX,
    build_rho_grid,
    default_grid,
    int_exp,
    log_rho_array,
    rho,
    rho_asymptotic,
    xi,
    xi_integral,
)
from friabilis.errors import DomainError, RangeError
from rho_march import march_grid, march_rho


def bisect_xi(u):
    # pure bisection on g(x) = expm1(x) - u*x; g < 0 on (0, xi), g > 0 beyond.
    # hi stops at log(DBL_MAX), where g > 0 for every u that xi accepts
    lo, hi = 1e-12, 1.0
    while math.expm1(hi) - u * hi <= 0.0:
        hi = min(2.0 * hi, math.log(sys.float_info.max))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.expm1(mid) - u * mid <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@mpmath.workdps(50)
def mpmath_xi_root(u):
    # the 50-digit root of e^x = 1 + u x at the double u > 1:
    # (e^x - 1 - x)/x = u - 1 below u = 2, x = log(1 + u x) above
    mu = mpmath.mpf(u)
    if u < 2.0:
        d = mu - 1
        return mpmath.findroot(lambda x: (mpmath.expm1(x) - x) / x - d, 2 * d)
    return mpmath.findroot(lambda x: x - mpmath.log(1 + mu * x),
                           mpmath.log(mu) + mpmath.log(mpmath.log(mu)) + 1)


def mpmath_xi_rel_err(u):
    # |xi(u) - root| / root against the 50-digit root
    with mpmath.workdps(50):
        root = mpmath_xi_root(u)
        return float(abs(xi(u).xi - root) / root)


def series_int_exp(s):
    # sum_{k>=1} s^k / (k * k!), summed with fsum; valid for moderate s
    terms, pw = [], 1.0
    for k in range(1, 250):
        pw *= s / k
        terms.append(pw / k)
    return math.fsum(terms)


def stieltjes_xi_integral(u):
    # direct quadrature of t * xi'(t); independent of the by-parts route
    def integrand(t):
        x = xi(t).xi
        return t * x / (1.0 + t * x - t)

    val, _ = quad(integrand, 1.0, u, epsabs=0, epsrel=1e-11, limit=300)
    return val


@pytest.fixture(scope="module")
def grid():
    return default_grid()


@pytest.fixture(scope="module")
def march():
    return march_grid()


@pytest.fixture(scope="module")
def fine():
    return march_grid(64.0, 1.0 / 400, quadrature_order=8)


# --- closed forms and grid invariants ---------------------------------------------


def test_rho_is_one_below_u_equals_one():
    for u in (0.0, 0.25, 0.5, 0.999, 1.0):
        assert rho(u) == 0.0


def test_rho_closed_form_on_1_2():
    for u in (1.0 + 1e-9, 1.25, 1.5, 1.999, 2.0):
        assert rho(u) == pytest.approx(math.log1p(-math.log(u)), abs=1e-12)
    assert math.exp(rho(1.5)) == pytest.approx(0.594535, abs=1e-6)


def test_rho_dilogarithm_on_2_3():
    # rho(u) = 1 - (1 - log(u-1)) log u + Li2(1-u) + pi^2/12 on [2, 3], at 40 digits
    @mpmath.workdps(40)
    def exact(u):
        u = mpmath.mpf(u)
        return (1 - (1 - mpmath.log(u - 1)) * mpmath.log(u)
                + mpmath.polylog(2, 1 - u) + mpmath.pi ** 2 / 12)

    us = [2.0 + 1e-9, 2.003, 2.5, 3.0] + list(np.linspace(2.0, 3.0, 201)[1:])
    want = [float(exact(u)) for u in us]
    for u, w in zip(us, want):
        assert math.exp(rho(u)) == pytest.approx(w, rel=1e-14, abs=0)
    assert np.exp(log_rho_array(np.array(us))) == pytest.approx(want, rel=1e-14, abs=0)
    assert math.exp(rho(2.003)) == pytest.approx(0.30535619, abs=5e-9)


def test_grid_node_invariants(grid):
    m = round(1.0 / grid.h)
    lr = grid.log_rho
    assert lr[0] == 0.0
    assert np.all(lr[: m + 1] == 0.0)
    # the closed form on (1, 2], to the bit: numpy's log1p and log differ by an ulp
    for i in range(m + 1, 2 * m + 1):
        assert lr[i] == math.log1p(-math.log(i * grid.h))
    # nonincreasing from u = 1 on
    assert np.all(np.diff(lr[m:]) <= 0.0)


def test_log_concave_ratio_decay(grid):
    m = round(1.0 / grid.h)
    lr = grid.log_rho
    for u in range(3, 100):
        i = u * m
        assert lr[i + m] - lr[i] < lr[i] - lr[i - m]


# --- marching accuracy -------------------------------------------------------------


def test_rho3_dual_marching_schemes():
    ga = march_grid(4.0, 1.0 / 192, quadrature_order=6)
    gb = march_grid(4.0, 1.0 / 400, quadrature_order=8)
    ra, rb = math.exp(march_rho(3.0, ga)), math.exp(march_rho(3.0, gb))
    assert ra == pytest.approx(rb, rel=1e-9)
    assert rb == pytest.approx(0.0486084, abs=5e-8)
    assert rb == pytest.approx(0.04860838829246, rel=1e-10)


def test_rho10_against_fine_grid(march, fine):
    v = math.exp(march_rho(10.0, march))
    assert v == pytest.approx(2.7701718377541e-11, rel=3e-9)
    assert v == pytest.approx(math.exp(march_rho(10.0, fine)), rel=3e-9)
    assert math.exp(rho(10.0)) == pytest.approx(math.exp(march_rho(10.0, fine)), rel=3e-9)


def test_series_against_march_at_nodes(grid, march):
    # the march's own error at the nodes, measured: 3.3e-8 in log rho just
    # past u = 3, where its stencil straddles the jump in the third
    # derivative, and 9.6e-10 from u = 10 on; off the nodes its cubic
    # interpolation adds up to 3.2e-6 just past u = 2
    d = np.abs(grid.log_rho - march.log_rho)
    m = round(1.0 / grid.h)
    assert len(d) == 128 * m + 1
    assert d.max() <= 5e-8
    assert d[10 * m :].max() <= 1.5e-9


def test_rho_scalar_matches_grid_nodes(grid):
    for i, v in enumerate(grid.log_rho.tolist()):
        assert rho(i * grid.h) == v, i


def test_log_rho_array_shapes_and_errors():
    rng = np.random.default_rng(1616)
    for u in (np.array(0.5), np.array(1.5), np.array(37.25), rng.uniform(0.0, 128.0, 50),
              rng.uniform(0.0, 6.0, (7, 9)), np.array([]), np.zeros((0, 3))):
        got = log_rho_array(u)
        assert got.shape == u.shape
        assert got.ravel().tolist() == [rho(v) for v in u.ravel().tolist()]
    assert log_rho_array([1.0, 2.0, 3.0]).tolist() == [rho(1.0), rho(2.0), rho(3.0)]
    # past rho's range of 128, up to the grid's 500
    assert log_rho_array(500.0) == build_rho_grid(500.0).log_rho[-1]
    # one bad entry refuses the whole call, with the typed error
    for bad in ([3.0, -0.1], [[2.5, math.nan]], -math.inf):
        with pytest.raises(DomainError):
            log_rho_array(bad)
    for bad in ([3.0, 500.0 + 1e-9], [[2.5], [math.inf]], 1e308):
        with pytest.raises(RangeError):
            log_rho_array(bad)


def test_rho_deep_values_stay_finite():
    # rho(128) ~ 1e-310 in linear space; log rho holds it cleanly
    lr = rho(128.0)
    assert lr == pytest.approx(-712.94389, abs=1e-3)
    assert math.isfinite(lr)


def test_dde_residual_h_refinement():
    # centered difference u*rho'(u) + rho(u-1) scales like h^2, constant ~1.8
    def fitted_c(g, us):
        m = round(1.0 / g.h)
        lr = g.log_rho
        out = []
        for u in us:
            i = round(u * m)
            rp = (math.exp(lr[i + 1]) - math.exp(lr[i - 1])) / (2.0 * g.h)
            res = u * rp + math.exp(lr[i - m])
            out.append(abs(res) / (g.h ** 2 * math.exp(lr[i - m])))
        return np.array(out)

    us = [k / 8 for k in range(20, 65)]
    c64 = fitted_c(march_grid(10.0, 1.0 / 64, quadrature_order=4), us)
    c128 = fitted_c(march_grid(10.0, 1.0 / 128, quadrature_order=4), us)
    assert c64.max() < 2.5
    assert c128.max() < 2.5
    # raw residuals shrink 4x per h halving; the fitted constants stay put
    raw = np.median((c64 / 64.0 ** 2) / (c128 / 128.0 ** 2))
    assert 3.5 < raw < 4.5


def test_integral_identity_seeded():
    # u*rho(u) = int_{u-1}^{u} rho(t) dt; integrate in scaled space, split at
    # the integer inside the window, where a derivative of rho jumps
    rng = np.random.default_rng(20260817)
    for u in rng.uniform(2.2, 128.0, 200):
        base = rho(u)
        val, _ = quad(
            lambda t: math.exp(rho(t) - base),
            u - 1.0,
            u,
            points=[math.floor(u)],
            epsabs=0,
            epsrel=1e-13,
            limit=200,
        )
        assert abs(val / u - 1.0) <= 1e-12


def test_integral_identity_across_kink():
    # interval straddles u = 1 where rho' jumps; split the quadrature there
    for u in (1.3, 1.7, 1.95):
        val, _ = quad(
            lambda t: math.exp(rho(t)),
            u - 1.0,
            u,
            points=[1.0],
            epsabs=0,
            epsrel=1e-13,
            limit=200,
        )
        assert val == pytest.approx(u * math.exp(rho(u)), rel=1e-12)


# --- domain handling ---------------------------------------------------------------


def test_rho_domain_and_range_errors():
    with pytest.raises(DomainError):
        rho(-0.1)
    with pytest.raises(DomainError):
        rho(math.nan)
    with pytest.raises(RangeError):
        rho(RHO_U_MAX * 1.01)
    assert math.isfinite(rho(RHO_U_MAX))


def test_build_grid_validation():
    with pytest.raises(DomainError):
        build_rho_grid(501.0)
    with pytest.raises(DomainError):
        build_rho_grid(1.5)
    with pytest.raises(DomainError):
        march_grid(10.0, 0.2)
    with pytest.raises(DomainError):
        march_grid(10.0, 5e-5)
    with pytest.raises(DomainError):
        march_grid(10.0, 1.0 / 128, quadrature_order=1)


def test_default_grid_is_cached():
    assert default_grid() is default_grid()
    g = default_grid()
    assert g.u_max == 128.0 and g.h == 1.0 / 128


def test_grid_equality_is_identity():
    a, b = build_rho_grid(10), build_rho_grid(10)
    assert a == a
    assert (a == b) is False
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# --- xi ----------------------------------------------------------------------------


def test_xi_at_one_is_zero():
    v = xi(1.0)
    assert v.xi == 0.0 and v.residual == 0.0


def test_xi_examples_against_bisection():
    v2 = xi(2.0)
    assert v2.xi == pytest.approx(1.25643, abs=1e-5)
    assert v2.xi == pytest.approx(bisect_xi(2.0), abs=1e-13)
    assert math.exp(v2.xi) == pytest.approx(1.0 + 2.0 * v2.xi, rel=1e-14)
    v1000 = xi(1000.0)
    assert v1000.xi == pytest.approx(bisect_xi(1000.0), rel=1e-13)


def test_xi_residual_invariant_sweep():
    for u in np.geomspace(1.0 + 1e-9, 1e8, 300):
        v = xi(u)
        assert v.residual <= 1e-12 * (1.0 + u * v.xi)
        assert v.xi > 0.0


def test_xi_matches_bisection_seeded():
    rng = np.random.default_rng(7)
    for lu in rng.uniform(math.log(1.001), math.log(1e6), 100):
        u = math.exp(lu)
        assert xi(u).xi == pytest.approx(bisect_xi(u), rel=1e-12, abs=1e-13)


def test_xi_monotone_and_edge_cases():
    us = np.geomspace(1.0001, 1e4, 200)
    vals = [xi(u).xi for u in us]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # u = e sits exactly where the naive Newton derivative vanishes
    assert xi(math.e).xi == pytest.approx(bisect_xi(math.e), rel=1e-12)
    with pytest.raises(DomainError):
        xi(0.999)


def test_xi_overflow_edge():
    # e^xi = 1 + u*xi stays a double up to u = expm1(S)/S ~ 2.533e305, S = log DBL_MAX
    assert xi(2e305).xi == pytest.approx(bisect_xi(2e305), rel=1e-14)
    assert 709.0 < xi(2.5e305).xi < 709.79
    with pytest.raises(RangeError):
        xi(2.6e305)
    with pytest.raises(RangeError):
        xi(1e308)


def test_xi_near_one_against_mpmath():
    # the series band: Newton on h would lose digits like eps/(u-1) here
    for d in (1e-15, 1e-12, 1e-9, 1e-6, 9e-5):
        assert mpmath_xi_rel_err(1.0 + d) <= 1e-15, d


def test_xi_newton_against_mpmath():
    for d in (2e-4, 1e-3, 0.1):
        assert mpmath_xi_rel_err(1.0 + d) <= 1e-11, d
    for u in (math.e, 2.5e305):
        assert mpmath_xi_rel_err(u) <= 1e-15, u


def test_xi_nan_is_a_domain_error():
    for f in (xi, xi_integral, rho_asymptotic):
        with pytest.raises(DomainError):
            f(math.nan)


def test_xi_prime_matches_finite_differences():
    assert xi(1.0).slope == 2.0
    for u in (1.5, 2.0, 10.0, 100.0):
        d = 1e-6 * u
        fd = (xi(u + d).xi - xi(u - d).xi) / (2.0 * d)
        assert xi(u).slope == pytest.approx(fd, rel=1e-6)
    # u*xi'(u) decreases toward 1 from above
    vals = [u * xi(u).slope for u in (2.0, 5.0, 20.0, 100.0, 1000.0)]
    assert all(a > b > 1.0 for a, b in zip(vals, vals[1:]))


def test_xi_prime_against_mpmath():
    # xi' = x / (u x - (u - 1)) at the 50-digit root x; u - 1 is exact, so
    # next to u = 1 the slope keeps full precision, where the denominator
    # rounded as 1 + u x - u lost 7e-13 relative at u - 1 = 1e-12 and 7e-10
    # at 1e-9.  Further out the error is no worse than that form gives.
    def rel_err(got, u):
        with mpmath.workdps(50):
            x = mpmath_xi_root(u)
            mu = mpmath.mpf(u)
            want = x / (mu * x - (mu - 1))
            return float(abs(got - want) / want)

    for d in (1e-12, 1e-9, 1e-6, 1e-4):
        assert rel_err(xi(1.0 + d).slope, 1.0 + d) <= 1e-15, d
    for d in (1e-3, 0.1, 1.0, 10.0, 1e3):
        u = 1.0 + d
        x = xi(u).xi
        rounded_first = x / (1.0 + u * x - u)
        assert rel_err(xi(u).slope, u) <= rel_err(rounded_first, u), d


# --- I(s) and xi_integral ----------------------------------------------------------


def test_int_exp_basics():
    assert int_exp(0.0) == 0.0
    assert int_exp(1.0) == pytest.approx(1.31790, abs=1e-5)
    assert int_exp(1.0) == pytest.approx(series_int_exp(1.0), rel=1e-13)
    with pytest.raises(DomainError):
        int_exp(-0.5)
    with pytest.raises(DomainError):
        int_exp(math.nan)
    # e^s overflows a double past log(DBL_MAX) = 709.78; a typed error, not inf
    with pytest.raises(RangeError):
        int_exp(710.0)


def test_int_exp_dual_method_and_seam():
    # one series over the whole range, across the old series/quadrature seam at 30
    for s in (10.0, 29.9, 30.0, 30.1, 30.5, 40.0, 50.0, 100.0, 300.0, 700.0):
        qv, _ = quad(lambda v: math.expm1(v) / v, 0.0, s, epsabs=0, epsrel=1e-13, limit=500)
        assert int_exp(s) == pytest.approx(qv, rel=1e-12)


def test_int_exp_increasing_and_convex():
    s = np.linspace(0.0, 40.0, 81)
    v = np.array([int_exp(x) for x in s])
    d1 = np.diff(v)
    assert np.all(d1 > 0.0)
    assert np.all(np.diff(d1) > 0.0)


def test_xi_integral_values():
    assert xi_integral(1.0) == 0.0
    assert xi_integral(2.0) == pytest.approx(stieltjes_xi_integral(2.0), rel=1e-9)
    assert xi_integral(10.0) == pytest.approx(stieltjes_xi_integral(10.0), rel=1e-9)
    with pytest.raises(DomainError):
        xi_integral(0.5)


def test_xi_integral_equals_int_exp_of_xi():
    # substitution v = xi(t) maps int_1^u t xi'(t) dt onto I(xi(u)) exactly
    for u in (1.5, 2.0, 5.0, 10.0, 50.0, 100.0, 300.0):
        assert xi_integral(u) == pytest.approx(int_exp(xi(u).xi), rel=1e-12)


# --- the asymptotic ----------------------------------------------------------------


def test_rho_asymptotic_bands():
    r10 = math.exp(rho_asymptotic(10.0) - rho(10.0))
    r50 = math.exp(rho_asymptotic(50.0) - rho(50.0))
    assert 0.9 < r10 < 1.1
    assert 0.97 < r50 < 1.03
    assert r10 == pytest.approx(1.0069562, abs=2e-4)
    assert r50 == pytest.approx(1.0014402, abs=2e-4)
    with pytest.raises(DomainError):
        rho_asymptotic(1.5)


def test_rho_asymptotic_trend():
    gaps = [abs(math.exp(rho_asymptotic(u) - rho(u)) - 1.0) for u in (10.0, 20.0, 40.0, 80.0)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# --- export ------------------------------------------------------------------------


def test_export_grid_csv_roundtrip(grid, capsys):
    # rho --export-grid evaluates the nodes itself; its rows read back to
    # the default grid, node for node
    assert main(["rho", "--export-grid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "u,log_rho"
    assert len(lines) == len(grid.log_rho) + 1
    us, log_rhos = zip(*(map(float, line.split(",")) for line in lines[1:]))
    assert list(us) == [i * grid.h for i in range(len(grid.log_rho))]
    assert list(log_rhos) == grid.log_rho.tolist()
