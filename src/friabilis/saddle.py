"""Saddle-point machinery for Psi(x, y).

The saddle alpha = alpha(x, y) solves sum_{p <= y} log p / (p^alpha - 1) = log x.
Around it live the partial zeta, the sums S and T, the weight w_sigma, the
function f(sigma) = sigma log x + I((1 - sigma) log y) with its stationary
point beta = 1 - xi(u)/log y, and the saddle approximation to Psi itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dickman import int_exp, xi, xi_integral
from .errors import DomainError, NumericError, RangeError
from .prime_tables import PrimeTable

_LOG2 = math.log(2.0)


@dataclass
class SaddleState:
    log_x: float
    y: float
    u: float          # log_x / log y
    c: float          # log y / log_2 x, reporting only; NaN when log_x <= 1
    alpha: float
    beta: float       # 1 - xi(u)/log y; NaN when u < 1
    solver_residual: float


def _alpha_terms(a: float, logp: np.ndarray) -> np.ndarray:
    # log p / (p^a - 1), written through expm1 so small a*log p stays exact
    with np.errstate(over="ignore"):
        return logp / np.expm1(a * logp)


def solve_alpha(log_x: float, table: PrimeTable, y: float) -> SaddleState:
    """Solve sum_{p<=y} log p / (p^alpha - 1) = log_x for alpha.

    The sum is strictly decreasing in alpha with range (0, inf), so a unique
    root exists for every log_x > 0. Bracket by doubling/halving from 1,
    bisect to width 1e-3, then polish with Newton kept inside the bracket.
    The bracket stops at alpha = 1e-18: a log_x so large against y that the
    root lies below it (log_x = 1e300 at y = 100) is out of the solver's
    range and raises RangeError.
    """
    log_x = float(log_x)
    y = float(y)
    if y < 2.0:
        raise DomainError(f"solve_alpha needs y >= 2, got {y}")
    if log_x < _LOG2:
        raise DomainError(f"solve_alpha needs log_x >= log 2, got {log_x}")
    if table.limit < y:
        raise DomainError(f"prime table covers {table.limit}, below y = {y}")
    k = table.pi(y)
    if k == 0:
        raise DomainError(f"no primes at or below y = {y}")
    logp = table.log_primes[:k]

    def g(a: float) -> float:
        return float(_alpha_terms(a, logp).sum()) - log_x

    lo = hi = 1.0
    if g(1.0) > 0.0:
        hi = 2.0
        while g(hi) > 0.0:
            lo, hi = hi, hi * 2.0
            if hi > 1e6:
                raise NumericError("alpha bracket ran away upward")
    else:
        lo = 0.5
        while g(lo) <= 0.0:
            hi, lo = lo, lo * 0.5
            if lo < 1e-18:
                raise RangeError(f"alpha(x, y) lies below 1e-18 at log_x={log_x}, y={y}")

    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid

    a = 0.5 * (lo + hi)
    for _ in range(200):
        with np.errstate(over="ignore"):
            e = np.expm1(a * logp)
            val = float((logp / e).sum()) - log_x
            # d/da sum = -sum (log p)^2 p^a / (p^a - 1)^2
            deriv = -float((logp * logp * (e + 1.0) / (e * e)).sum())
        if val > 0.0:
            lo = max(lo, a)
        else:
            hi = min(hi, a)
        step = val / deriv
        nxt = a - step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - a) <= 1e-15 * max(a, 1e-300):
            a = nxt
            break
        a = nxt
    else:
        raise NumericError(f"alpha Newton did not converge for log_x={log_x}, y={y}")

    residual = math.fsum(_alpha_terms(a, logp).tolist()) - log_x
    log_y = math.log(y)
    u = log_x / log_y
    c = log_y / math.log(log_x) if log_x > 1.0 else math.nan
    beta = 1.0 - xi(u).xi / log_y if u >= 1.0 else math.nan
    return SaddleState(log_x=log_x, y=y, u=u, c=c, alpha=a, beta=beta,
                       solver_residual=residual)


def alpha_approx(log_x: float, y: float) -> float:
    """First-order closed form log(1 + y/log x)/log y, valid for 2 <= y <= (log x)^2."""
    log_x = float(log_x)
    y = float(y)
    if y < 2.0:
        raise DomainError(f"alpha_approx needs y >= 2, got {y}")
    if y > log_x * log_x:
        raise DomainError(f"alpha_approx needs y <= (log x)^2 = {log_x * log_x:.6g}, got {y}")
    return math.log1p(y / log_x) / math.log(y)


def zeta_partial(s: float, table: PrimeTable, y: float) -> float:
    """log of the partial Euler product over p <= y: sum -log(1 - p^{-s})."""
    s = float(s)
    if s <= 0.0:
        raise DomainError(f"zeta_partial needs s > 0, got {s}")
    if table.limit < y:
        raise DomainError(f"prime table covers {table.limit}, below y = {y}")
    k = table.pi(y)
    terms = -np.log1p(-np.exp(-s * table.log_primes[:k]))
    return math.fsum(terms.tolist())


def prime_power_sums(s: float, table: PrimeTable, y: float) -> tuple:
    """(S, T) with S = sum_{p<=y} p^{-s} and T = sum_{p<=y} p^{-2s}."""
    s = float(s)
    if s <= 0.0:
        raise DomainError(f"prime_power_sums needs s > 0, got {s}")
    if table.limit < y:
        raise DomainError(f"prime table covers {table.limit}, below y = {y}")
    k = table.pi(y)
    logp = table.log_primes[:k]
    s_val = math.fsum(np.exp(-s * logp).tolist())
    t_val = math.fsum(np.exp(-2.0 * s * logp).tolist())
    return s_val, t_val


def w_sigma(sigma: float, y: float) -> float:
    """w_sigma = (y^{1-sigma} - 1)/((1 - sigma) log y), limit 1 at sigma = 1."""
    y = float(y)
    if y <= 1.0:
        raise DomainError(f"w_sigma needs y > 1, got {y}")
    z = (1.0 - float(sigma)) * math.log(y)
    if abs(z) < 1e-6:
        # 3-term Taylor of expm1(z)/z through the removable singularity
        return 1.0 + z / 2.0 + z * z / 6.0
    return math.expm1(z) / z


def f_sigma(sigma: float, log_x: float, y: float) -> float:
    """f(sigma) = sigma log x + I((1 - sigma) log y) on 0 <= sigma <= 1."""
    sigma = float(sigma)
    if not 0.0 <= sigma <= 1.0:
        raise DomainError(f"f_sigma needs sigma in [0, 1], got {sigma}")
    y = float(y)
    if y <= 1.0:
        raise DomainError(f"f_sigma needs y > 1, got {y}")
    return sigma * float(log_x) + int_exp((1.0 - sigma) * math.log(y))


def f_at_beta_identity(log_x: float, y: float) -> tuple:
    """Both sides of f(beta) = log x - u xi(u) + int_1^u t xi'(t) dt.

    Returned as (lhs, rhs) for the caller to compare. beta may fall below 0
    when xi(u) > log y, so the lhs is computed from the raw formula rather
    than through f_sigma's [0, 1] domain check.
    """
    log_x = float(log_x)
    y = float(y)
    log_y = math.log(y)
    u = log_x / log_y
    if u < 1.0:
        raise DomainError(f"f_at_beta_identity needs u >= 1, got u = {u}")
    beta = 1.0 - xi(u).xi / log_y
    lhs = beta * log_x + int_exp((1.0 - beta) * log_y)
    rhs = log_x - u * xi(u).xi + xi_integral(u)
    return lhs, rhs


def psi_saddle(log_x: float, table: PrimeTable, y: float) -> float:
    """log of the saddle approximation x^alpha zeta(alpha,y) / (alpha log y sqrt(2 pi u))."""
    log_x = float(log_x)
    y = float(y)
    if y < 2.0:
        raise DomainError(f"psi_saddle needs y >= 2, got {y}")
    u = log_x / math.log(y)
    if u < 2.0:
        raise DomainError(f"psi_saddle intended for u >= 2, got u = {u}")
    st = solve_alpha(log_x, table, y)
    return (st.alpha * log_x + zeta_partial(st.alpha, table, y)
            - math.log(st.alpha) - math.log(math.log(y))
            - 0.5 * math.log(2.0 * math.pi * u))
