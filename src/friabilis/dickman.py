"""Dickman's rho and the xi apparatus.

rho solves the delay equation u rho'(u) + rho(u-1) = 0 with rho = 1 on
[0,1].  The grid marches the equivalent integral identity

    u rho(u) = integral of rho over [u-1, u]

using fixed-order Gauss-Legendre panels and cubic interpolation of stored
values.  Everything is kept as log rho: rho itself underflows a double
near u ~ 130 while the regimes of interest reach u ~ 300, so the window
sum is evaluated relative to the previous node's log value.

xi(u) is the nonzero root of e^xi = 1 + u*xi, int_exp is
I(s) = integral of (e^v - 1)/v over [0, s], summed as its everywhere
convergent series, and xi_integral is integral of t xi'(t) over [1, u],
which the substitution v = xi(t) turns into I(xi(u)).  No quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NumericError, RangeError

EULER_GAMMA = 0.57721566490153286060651209008

_MAX_U = 500.0
# I(s) ~ e^s / s; e^s itself overflows a double beyond this
_MAX_S = math.log(sys.float_info.max)


# --- xi ----------------------------------------------------------------------


@dataclass
class XiValue:
    u: float
    xi: float
    residual: float  # |e^xi - 1 - u*xi| at the returned root


def xi(u) -> XiValue:
    """Nonzero root of e^xi = 1 + u*xi for u >= 1 (xi(1) = 0).

    Safeguarded Newton.  Seeds: log u + log log u for u >= e, else 2(u-1);
    the bracket (log u, 2(u-1)) always contains the root, so a Newton step
    that leaves it falls back to bisection.
    """
    u = float(u)
    if u < 1.0:
        raise DomainError(f"xi defined for u >= 1, got {u}")
    if u == 1.0:
        return XiValue(1.0, 0.0, 0.0)
    lo = math.log(u)  # g < 0 here
    hi = 2.0 * (u - 1.0)  # g > 0 here
    if u >= math.e:
        x = math.log(u) + math.log(math.log(u))
    else:
        x = hi
    x = min(max(x, lo * 1.0000001 + 1e-12), hi)
    for _ in range(200):
        g = math.expm1(x) - u * x
        dg = math.expm1(x) + 1.0 - u
        if g > 0:
            hi = x
        else:
            lo = x
        if dg > 0:
            step = g / dg
            nx = x - step
        else:
            nx = lo  # force the bisection branch below
        if not (lo < nx < hi):
            nx = 0.5 * (lo + hi)
        if abs(nx - x) <= 1e-15 * abs(x):
            x = nx
            break
        x = nx
    else:
        raise NumericError(f"xi({u}) did not converge")
    return XiValue(u, x, abs(math.expm1(x) - u * x))


def xi_expansion(u) -> float:
    """Leading expansion log u + log_2 u + log_2 u / log u; needs u >= 10."""
    if u < 10:
        raise DomainError(f"xi_expansion needs u >= 10, got {u}")
    lu = math.log(u)
    llu = math.log(lu)
    return lu + llu + llu / lu


# --- I(s) ----------------------------------------------------------------------


def int_exp(s) -> float:
    """I(s) = integral of (e^v - 1)/v over [0, s], for 0 <= s <= log(DBL_MAX).

    Summed as the series I(s) = sum_{k>=1} s^k / (k k!), whose terms are
    all positive, so nothing cancels at any s.  The terms peak near k = s
    and fall below 1e-20 of the sum by k = s + 10 sqrt(s) + 50, inside the
    2s + 100 the loop allows.
    """
    s = float(s)
    if not s >= 0.0:
        raise DomainError(f"int_exp needs s >= 0, got {s}")
    if s > _MAX_S:
        raise RangeError(f"int_exp needs s <= {_MAX_S:.2f} (e^s overflows), got {s}")
    pw = 1.0
    run = 0.0
    terms = []
    for k in range(1, int(2.0 * s) + 100):
        pw *= s / k
        term = pw / k
        terms.append(term)
        run += term
        if term < 1e-20 * (1.0 + run):
            break
    return math.fsum(terms)


def xi_integral(u) -> float:
    """integral of t xi'(t) dt over [1, u].

    Exactly I(xi(u)): with v = xi(t), t = (e^v - 1)/v and t xi'(t) dt = t dv.
    """
    u = float(u)
    if u < 1.0:
        raise DomainError(f"xi_integral needs u >= 1, got {u}")
    return int_exp(xi(u).xi)


def xi_prime(u) -> float:
    """xi'(u), from differentiating e^xi = 1 + u xi:  xi' = xi / (1 + u xi - u).

    The denominator is e^xi - u > 0 for all u > 1.
    """
    u = float(u)
    xv = xi(u)
    if u == 1.0:
        # limit: xi ~ 2(u-1) near 1, so xi' -> 2
        return 2.0
    return xv.xi / (1.0 + u * xv.xi - u)


def rho_asymptotic(u) -> float:
    """Saddle asymptotic for log rho(u):

        log rho(u) ~ gamma - u xi(u) + integral_1^u t xi'(t) dt + log sqrt(xi'(u) / (2 pi))

    The prefactor sqrt(xi'(u)/(2 pi)) matters: u xi'(u) -> 1, so replacing it
    with 1/sqrt(2 pi u) is asymptotically harmless but the ratio then drifts
    like 1/log u and is still 9% off at u = 50.  With xi' kept, the relative
    error decays like 1/u (about 0.7/u measured on the grid).
    """
    u = float(u)
    if u < 2.0:
        raise DomainError(f"rho_asymptotic intended for u >= 2, got {u}")
    xv = xi(u)
    xp = xv.xi / (1.0 + u * xv.xi - u)
    return EULER_GAMMA - u * xv.xi + xi_integral(u) + 0.5 * math.log(xp / (2.0 * math.pi))


# --- the rho grid ----------------------------------------------------------------


@dataclass
class RhoGrid:
    u_max: float
    h: float
    log_rho: np.ndarray  # node i holds log rho(i*h)
    quadrature_order: int


def _lagrange_row(tau: float) -> tuple:
    """Cubic Lagrange weights at local coordinate tau over nodes {0,1,2,3}."""
    t0 = tau
    t1 = tau - 1.0
    t2 = tau - 2.0
    t3 = tau - 3.0
    return (
        -t1 * t2 * t3 / 6.0,
        t0 * t2 * t3 / 2.0,
        -t0 * t1 * t3 / 2.0,
        t0 * t1 * t2 / 6.0,
    )


def _closed_log_rho(u: float) -> float:
    # exact on [0, 2]
    if u <= 1.0:
        return 0.0
    return math.log1p(-math.log(u))


def _panel_closed(a: float, b: float) -> float:
    """Exact integral of rho over [a, b] when b <= 2 (closed-form region)."""
    def F(t):
        if t <= 1.0:
            return t
        # antiderivative of 1 - log t, shifted to match F(1) = 1
        return 2.0 * t - t * math.log(t) - 1.0
    return F(b) - F(a)


def build_rho_grid(u_max: float = 128.0, h: float = 1.0 / 128.0, quadrature_order: int = 4) -> RhoGrid:
    """March the Dickman delay identity on a uniform grid, storing log rho.

    h is snapped to 1/round(1/h) so the one-unit delay window is a whole
    number of panels.  At each new node the last panel's integrand involves
    the unknown value through the interpolation stencil, so the node is
    solved by a short fixed-point iteration (contraction factor ~ h/u).
    """
    if not (2.0 <= u_max <= _MAX_U):
        raise DomainError(f"u_max must lie in [2, {_MAX_U}], got {u_max}")
    if not (1e-4 <= h <= 0.1):
        raise DomainError(f"h must lie in [1e-4, 0.1], got {h}")
    if not (2 <= quadrature_order <= 16):
        raise DomainError(f"quadrature_order must lie in [2, 16], got {quadrature_order}")
    m = int(round(1.0 / h))
    h = 1.0 / m
    n = int(math.ceil(u_max * m - 1e-9))
    u_max = n * h

    lr = np.zeros(n + 1)
    for i in range(m + 1, min(2 * m, n) + 1):
        lr[i] = _closed_log_rho(i * h)

    # panel integrals (as logs); panel j covers [(j-1)h, jh]
    p_log = np.full(n + 1, -np.inf)
    for j in range(1, min(2 * m, n) + 1):
        p_log[j] = math.log(_panel_closed((j - 1) * h, j * h))

    if n <= 2 * m:
        return RhoGrid(u_max=u_max, h=h, log_rho=lr, quadrature_order=quadrature_order)

    gx, gw = leggauss(quadrature_order)
    # last-panel Gauss nodes sit at local coordinate 2..3 of the stencil
    # (i-3, i-2, i-1, i); Lagrange weights are constant across nodes.
    taus = 2.0 + 0.5 * (gx + 1.0)
    wrows = [_lagrange_row(t) for t in taus]
    gw_h = [0.5 * h * w for w in gw]

    for i in range(2 * m + 1, n + 1):
        u_i = i * h
        ref = float(lr[i - 1])
        s_known = float(np.exp(p_log[i - m + 1 : i] - ref).sum())
        a0 = float(lr[i - 3])
        a1 = float(lr[i - 2])
        a2 = ref
        guess = 2.0 * a2 - a1  # linear extrapolation in log space
        p_rel = 0.0
        for _ in range(80):
            p_rel = 0.0
            for (w0, w1, w2, w3), gwk in zip(wrows, gw_h):
                val = w0 * a0 + w1 * a1 + w2 * a2 + w3 * guess
                p_rel += gwk * math.exp(val - ref)
            new = ref + math.log((s_known + p_rel) / u_i)
            if abs(new - guess) <= 1e-14 * max(1.0, abs(new)):
                guess = new
                break
            guess = new
        else:
            raise NumericError(f"rho marching stalled at u = {u_i}")
        lr[i] = guess
        p_log[i] = ref + math.log(p_rel)

    return RhoGrid(u_max=u_max, h=h, log_rho=lr, quadrature_order=quadrature_order)


_DEFAULT_GRID = None


def default_grid() -> RhoGrid:
    """Shared module-level grid (u_max 128, h 1/128), built on first use."""
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        _DEFAULT_GRID = build_rho_grid()
    return _DEFAULT_GRID


def rho(u, grid: RhoGrid | None = None) -> float:
    """log rho(u).  Exact branches on [0, 2], cubic grid interpolation beyond."""
    u = float(u)
    if u < 0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u <= 2.0:
        return _closed_log_rho(u)
    if grid is None:
        grid = default_grid()
    if u > grid.u_max * (1.0 + 1e-12):
        raise RangeError(f"u={u} beyond grid u_max {grid.u_max}")
    n = len(grid.log_rho) - 1
    pos = u / grid.h
    j0 = int(pos) - 1
    j0 = min(max(j0, 0), n - 3)
    tau = pos - j0
    w = _lagrange_row(tau)
    lrv = grid.log_rho
    return float(w[0] * lrv[j0] + w[1] * lrv[j0 + 1] + w[2] * lrv[j0 + 2] + w[3] * lrv[j0 + 3])


def export_grid_csv(grid: RhoGrid, fh) -> None:
    """Write u,log_rho rows at every grid node, 17 significant digits."""
    fh.write("u,log_rho\n")
    for i, v in enumerate(grid.log_rho.tolist()):
        fh.write(f"{i * grid.h:.17g},{v:.17g}\n")
