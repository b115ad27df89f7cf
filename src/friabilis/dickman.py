"""Dickman's rho and the xi apparatus.

rho solves the delay equation u rho'(u) + rho(u-1) = 0 with rho = 1 on
[0,1] and rho = 1 - log u on [1,2].  On each later unit interval [k-1, k]
it is a power series in k - u whose coefficients follow from the previous
interval's by a recurrence of positive terms (Marsaglia, Zaman &
Marsaglia 1989; Bach & Peralta 1996).  Everything is kept as log rho, with
one log scale per interval: rho itself underflows a double near u ~ 130
while build_rho_grid tabulates up to u = 500.

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

from .errors import DomainError, NumericError, RangeError

EULER_GAMMA = 0.57721566490153286060651209008

# I(s) ~ e^s / s; e^s itself overflows a double beyond this
_MAX_S = math.log(sys.float_info.max)
# beyond this u the root of e^xi = 1 + u*xi passes log(DBL_MAX)
_MAX_XI_U = math.expm1(_MAX_S) / _MAX_S


# --- xi ----------------------------------------------------------------------


@dataclass
class XiValue:
    u: float
    xi: float
    residual: float  # |e^xi - 1 - u*xi| at the returned root

    @property
    def slope(self) -> float:
        """xi'(u), from differentiating e^xi = 1 + u xi:  xi' = xi / (1 + u xi - u).

        The denominator is e^xi - u > 0 for all u > 1; at u = 1 the limit is
        2, since xi ~ 2(u-1) there.
        """
        if self.u == 1.0:
            return 2.0
        return self.xi / (1.0 + self.u * self.xi - self.u)


def xi(u) -> XiValue:
    """Nonzero root of e^xi = 1 + u*xi for u >= 1 (xi(1) = 0).

    Safeguarded Newton.  Seeds: log u + log log u for u >= e, else 2(u-1);
    the bracket (log u, min(2(u-1), log DBL_MAX)) always contains the root,
    so a Newton step that leaves it falls back to bisection.  Past
    u ~ 2.53e305 the root lies beyond log DBL_MAX, and that is a RangeError.
    """
    u = float(u)
    if u < 1.0:
        raise DomainError(f"xi defined for u >= 1, got {u}")
    if u == 1.0:
        return XiValue(1.0, 0.0, 0.0)
    if u > _MAX_XI_U:
        raise RangeError(f"xi needs u <= {_MAX_XI_U:.4g} (e^xi overflows), got u={u}")
    lo = math.log(u)  # g < 0 here
    hi = min(2.0 * (u - 1.0), _MAX_S)  # g > 0 here
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
    """xi'(u) for u >= 1; see XiValue.slope."""
    return xi(u).slope


def rho_asymptotic(u) -> float:
    """Saddle asymptotic for log rho(u):

        log rho(u) ~ gamma - u xi(u) + integral_1^u t xi'(t) dt + log sqrt(xi'(u) / (2 pi))

    The prefactor sqrt(xi'(u)/(2 pi)) matters: u xi'(u) -> 1, so replacing it
    with 1/sqrt(2 pi u) is asymptotically harmless but the ratio then drifts
    like 1/log u and is still 9% off at u = 50.  With xi' kept, the relative
    error decays like 1/u (about 0.7/u measured against the series).
    """
    u = float(u)
    if u < 2.0:
        raise DomainError(f"rho_asymptotic intended for u >= 2, got {u}")
    xv = xi(u)
    return EULER_GAMMA - u * xv.xi + int_exp(xv.xi) + 0.5 * math.log(xv.slope / (2.0 * math.pi))


# --- rho ---------------------------------------------------------------------------


RHO_U_MAX = 128.0  # rho(u) answers up to here; rho(128) ~ 1e-310, near the double floor
_MAX_U = 500.0  # build_rho_grid tabulates up to here
_TERMS = 60  # per unit interval; the tail falls like 2^-i (singularity at z = 2)

# interval k covers [k-1, k]: rho(u) = exp(_log_scale[k-2]) * sum_i _coef[k-2][i] (k-u)^i,
# with _coef[k-2][0] = 1, so _log_scale[k-2] = log rho(k); extended on demand
_coef: list = []
_log_scale: list = []


def _extend_series(k_max: int) -> None:
    """Build the series of every interval up to [k_max-1, k_max].

    On [1, 2], 1 - log u = 1 - log 2 + sum_{i>=1} (z/2)^i / i with z = 2 - u.
    From coefficients c on [k-1, k], u rho'(u) = -rho(u-1) gives those on
    [k, k+1]: d_1 = c_0/(k+1), d_{j+1} = (c_j + j d_j)/((k+1)(j+1)), and
    (k+1) rho(k+1) = integral of rho over [k, k+1] gives
    d_0 = sum_{i>=1} d_i/((i+1) k).  Every term is positive, so nothing
    cancels (Marsaglia, Zaman & Marsaglia 1989).
    """
    if not _coef:
        c = [1.0 - math.log(2.0)] + [1.0 / (i * 2.0 ** i) for i in range(1, _TERMS)]
        _log_scale.append(math.log(c[0]))
        _coef.append([v / c[0] for v in c])
    for k in range(len(_coef) + 1, k_max):
        c = _coef[-1]
        d = [0.0, c[0] / (k + 1)]
        for j in range(1, _TERMS - 1):
            d.append((c[j] + j * d[j]) / ((k + 1) * (j + 1)))
        d0 = math.fsum(d[i] / ((i + 1) * k) for i in range(1, _TERMS))
        _log_scale.append(_log_scale[-1] + math.log(d0))
        _coef.append([1.0] + [v / d0 for v in d[1:]])


def _closed_log_rho(u: float) -> float:
    # exact on [0, 2]
    if u <= 1.0:
        return 0.0
    return math.log1p(-math.log(u))


def rho(u) -> float:
    """log rho(u).  Closed form on [0, 2], the unit interval's series beyond."""
    u = float(u)
    if not u >= 0.0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u <= 2.0:
        return _closed_log_rho(u)
    if u > RHO_U_MAX * (1.0 + 1e-12):
        raise RangeError(f"rho covers u <= {RHO_U_MAX:g}, got u={u}")
    k = math.ceil(u)
    _extend_series(k)
    z = k - u
    acc = 0.0
    for c in reversed(_coef[k - 2]):
        acc = acc * z + c
    return _log_scale[k - 2] + math.log(acc)


@dataclass
class RhoGrid:
    u_max: float
    h: float
    log_rho: np.ndarray  # node i holds log rho(i*h)


def build_rho_grid(u_max: float = 128.0) -> RhoGrid:
    """Tabulate log rho at the nodes i/128 up to u_max (at most 500).

    Past u = 2 every unit interval holds its nodes at the same offsets
    z = k - u, so one Horner pass over an intervals x nodes-per-interval
    array evaluates them all.
    """
    if not (2.0 <= u_max <= _MAX_U):
        raise DomainError(f"u_max must lie in [2, {_MAX_U}], got {u_max}")
    m = 128
    n = int(math.ceil(u_max * m - 1e-9))
    lr = np.zeros(n + 1)
    lr[m + 1 : 2 * m + 1] = [_closed_log_rho(i / m) for i in range(m + 1, 2 * m + 1)]
    k_max = -(-n // m)
    if k_max > 2:
        _extend_series(k_max)
        coef = np.array(_coef[1 : k_max - 1])  # intervals 3 .. k_max
        z = (m - np.arange(1, m + 1)) / m  # nodes (k-1) + j/m, j = 1 .. m
        acc = np.repeat(coef[:, -1:], m, axis=1)
        for i in range(_TERMS - 2, -1, -1):
            acc = acc * z + coef[:, i : i + 1]
        acc = np.log(acc) + np.array(_log_scale[1 : k_max - 1])[:, None]
        lr[2 * m + 1 :] = acc.ravel()[: n - 2 * m]
    return RhoGrid(u_max=n / m, h=1.0 / m, log_rho=lr)


_DEFAULT_GRID = None


def default_grid() -> RhoGrid:
    """Shared module-level grid (u_max 128, h 1/128), built on first use."""
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        _DEFAULT_GRID = build_rho_grid()
    return _DEFAULT_GRID


def export_grid_csv(grid: RhoGrid, fh) -> None:
    """Write u,log_rho rows at every grid node, 17 significant digits."""
    fh.write("u,log_rho\n")
    for i, v in enumerate(grid.log_rho.tolist()):
        fh.write(f"{i * grid.h:.17g},{v:.17g}\n")
