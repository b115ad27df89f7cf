"""Dickman's rho and the xi apparatus.

rho solves the delay equation u rho'(u) + rho(u-1) = 0 with rho = 1 on
[0,1] and rho = 1 - log u on [1,2].  On each later unit interval [k-1, k]
it is a power series in k - u whose coefficients follow from the previous
interval's by a recurrence of positive terms (Marsaglia, Zaman &
Marsaglia 1989; Bach & Peralta 1996).  log_rho_array evaluates it over
arrays of u up to 500 as log rho, one log scale per interval, since rho
underflows a double near u ~ 130; rho(u) is its scalar form up to 128.

xi(u) is the nonzero root of e^xi = 1 + u*xi, found by Newton on its
log form xi = log1p(u*xi), which is convex and cannot overflow, and by a
series in u - 1 next to u = 1.  int_exp is
I(s) = integral of (e^v - 1)/v over [0, s], summed as its everywhere
convergent series, and xi_integral is integral of t xi'(t) over [1, u],
which the substitution v = xi(t) turns into I(xi(u)).  No quadrature.
"""

from __future__ import annotations

import functools
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
        2, since xi ~ 2(u-1) there.  It is taken as u xi - (u - 1): u - 1 is
        exact near u = 1, where rounding 1 + u xi first would drop the
        (2/3)(u - 1)^2 that the denominator is made of.
        """
        if self.u == 1.0:
            return 2.0
        return self.xi / (self.u * self.xi - (self.u - 1.0))


def xi(u) -> XiValue:
    """Nonzero root of e^xi = 1 + u*xi for u >= 1 (xi(1) = 0).

    Newton on the log form h(x) = x - log1p(u x), which has the same
    positive root and cannot overflow.  h is convex with h(0) = 0 and
    increases from x = 1 - 1/u on, so Newton started right of the root falls
    toward it monotonically and needs no bracket.  The start log u + log log u
    (u >= e) lies left of the root, so the first step lands right of it; the
    start 2(u-1) (u < e) already lies right of it, as e^s > 1 + s + s^2/2.
    Right of the root, a step that is not positive is rounding noise and
    ends the loop, as does a step of at most 1e-15 x.  For u - 1 <= 1e-4,
    where h is known only to about eps/(u-1), xi is the series
    2d - 4/3 d^2 + 10/9 d^3 - 136/135 d^4 in d = u - 1, which inverts
    (e^xi - 1 - xi)/xi = d; its next term is below 1e-20.  Past
    u ~ 2.53e305 the root lies beyond log DBL_MAX, and that is a RangeError.
    """
    u = float(u)
    if not u >= 1.0:
        raise DomainError(f"xi defined for u >= 1, got {u}")
    if u == 1.0:
        return XiValue(1.0, 0.0, 0.0)
    if u > _MAX_XI_U:
        raise RangeError(f"xi needs u <= {_MAX_XI_U:.4g} (e^xi overflows), got u={u}")
    d = u - 1.0
    if d <= 1e-4:
        x = d * (2.0 + d * (-4.0 / 3.0 + d * (10.0 / 9.0 - d * 136.0 / 135.0)))
        return XiValue(u, x, abs(math.expm1(x) - u * x))
    right = u < math.e  # once x lies right of the root, every step is positive
    x = 2.0 * d if right else math.log(u) + math.log(math.log(u))
    for _ in range(100):
        ux = 1.0 + u * x
        step = (x - math.log1p(u * x)) * ux / (ux - u)
        if right and step <= 0.0:
            break
        x = min(x - step, _MAX_S)  # so that u x stays a double
        if abs(step) <= 1e-15 * x:
            break
        right = True
    else:
        raise NumericError(f"xi({u}) did not converge")
    return XiValue(u, x, abs(math.expm1(x) - u * x))


def xi_expansion(u) -> float:
    """Leading expansion log u + log_2 u + log_2 u / log u; needs finite u >= 10."""
    if not 10 <= u < math.inf:
        raise DomainError(f"xi_expansion needs finite u >= 10, got {u}")
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
    if not u >= 1.0:
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
    if not u >= 2.0:
        raise DomainError(f"rho_asymptotic intended for u >= 2, got {u}")
    xv = xi(u)
    return EULER_GAMMA - u * xv.xi + int_exp(xv.xi) + 0.5 * math.log(xv.slope / (2.0 * math.pi))


# --- rho ---------------------------------------------------------------------------


RHO_U_MAX = 128.0  # rho(u) answers up to here; rho(128) ~ 1e-310, near the double floor
_MAX_U = 500.0  # log_rho_array, and so build_rho_grid, answers up to here
_TERMS = 60  # per unit interval; the tail falls like 2^-i (singularity at z = 2)

# interval k covers [k-1, k]: rho(u) = exp(log_scale[k-2]) * sum_i coef[k-2, i] (k-u)^i,
# with coef[k-2, 0] = 1, so log_scale[k-2] = log rho(k); grown on demand, swapped as one
# tuple.  Interval 2 seeds it: 1 - log u = 1 - log 2 + sum_{i>=1} (z/2)^i / i, z = 2 - u.
_RHO_2 = 1.0 - math.log(2.0)
_series = (np.array([[1.0] + [1.0 / (i * 2.0 ** i) / _RHO_2 for i in range(1, _TERMS)]]),
           np.array([math.log(_RHO_2)]))


def _extend_series(k_max: int) -> tuple:
    """(coef, log_scale) covering every interval up to [k_max-1, k_max].

    From coefficients c on [k-1, k], u rho'(u) = -rho(u-1) gives those on
    [k, k+1]: d_1 = c_0/(k+1), d_{j+1} = (c_j + j d_j)/((k+1)(j+1)), and
    (k+1) rho(k+1) = integral of rho over [k, k+1] gives
    d_0 = sum_{i>=1} d_i/((i+1) k).  Every term is positive, so nothing
    cancels (Marsaglia, Zaman & Marsaglia 1989).
    """
    global _series
    coef, log_scale = _series
    if len(coef) + 1 >= k_max:
        return coef, log_scale
    c, scale = coef[-1].tolist(), float(log_scale[-1])
    rows, scales = [], []
    for k in range(len(coef) + 1, k_max):
        d = [0.0, c[0] / (k + 1)]
        for j in range(1, _TERMS - 1):
            d.append((c[j] + j * d[j]) / ((k + 1) * (j + 1)))
        d0 = math.fsum(d[i] / ((i + 1) * k) for i in range(1, _TERMS))
        scale += math.log(d0)
        c = [1.0] + [v / d0 for v in d[1:]]
        rows.append(c)
        scales.append(scale)
    _series = (np.vstack([coef, rows]), np.concatenate([log_scale, scales]))
    return _series


def _log_rho_closed(v: float) -> float:
    """log rho(v) for 0 <= v <= 2: 0 up to 1, then log(1 - log v)."""
    return math.log1p(-math.log(v)) if v > 1 else 0.0


def log_rho_array(u) -> np.ndarray:
    """log rho at every entry of u, in u's shape; DomainError below 0, RangeError past 500.

    0 on [0, 1], and log(1 - log u) on (1, 2] by math.log1p and math.log per
    entry (numpy's are one ulp off at 15 of the nodes i/128 there).  Past 2, one
    Horner pass in z = k - u over the series of interval k = ceil(u), plus its log scale.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0  # one entry: Python floats, several times faster than 0-d numpy
    if scalar:
        lo = float(u)
        top = max(lo, 2.0)
    else:
        lo, top = u.min(initial=math.inf), u.max(initial=2.0)
    if not lo >= 0.0:
        raise DomainError(f"log rho needs u >= 0, got {lo}")
    if top > _MAX_U:
        raise RangeError(f"log rho covers u <= {_MAX_U:g}, got u={top}")
    coef, log_scale = _extend_series(math.ceil(top))
    if scalar:
        if lo <= 2.0:
            return np.asarray(_log_rho_closed(lo))
        k = math.ceil(lo)
        i, z = k - 2, k - lo
        cols, scale = coef[i, ::-1].tolist(), float(log_scale[i])
    else:
        k = np.maximum(np.ceil(u), 2.0)  # entries up to 2 take interval 2, replaced below
        i = k.astype(np.intp) - 2
        z, cols, scale = k - u, (c.take(i) for c in coef.T[::-1]), log_scale.take(i)
    acc = 0.0
    for c in cols:
        acc *= z
        acc += c
    # numpy's log, also for one entry: math.log differs from it in the last
    # bit at about 0.2 % of arguments, and scalar and array answers must agree
    out = np.asarray(np.log(acc) + scale)
    if lo <= 2.0:
        out[u <= 2] = [_log_rho_closed(v) for v in u[u <= 2].tolist()]
    return out


def rho(u) -> float:
    """log rho(u) for 0 <= u <= RHO_U_MAX, from log_rho_array."""
    u = float(u)
    if not u >= 0.0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u > RHO_U_MAX * (1.0 + 1e-12):
        raise RangeError(f"rho covers u <= {RHO_U_MAX:g}, got u={u}")
    return float(log_rho_array(u))


@dataclass(eq=False)  # == on the array fields would raise, so an instance equals only itself
class RhoGrid:
    u_max: float
    h: float
    log_rho: np.ndarray  # node i holds log rho(i*h)


def build_rho_grid(u_max: float = 128.0) -> RhoGrid:
    """log rho at the nodes i/128 up to u_max (at most 500)."""
    if not (2.0 <= u_max <= _MAX_U):
        raise DomainError(f"u_max must lie in [2, {_MAX_U}], got {u_max}")
    n = math.ceil(u_max * 128 - 1e-9)
    return RhoGrid(u_max=n / 128, h=1.0 / 128, log_rho=log_rho_array(np.arange(n + 1) / 128))


@functools.cache
def default_grid() -> RhoGrid:
    """Shared module-level grid (u_max 128, h 1/128), built on first use."""
    return build_rho_grid()
