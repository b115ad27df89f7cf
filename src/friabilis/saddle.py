"""Saddle-point machinery for Psi(x, y).

The saddle alpha = alpha(x, y) solves sum_{p <= y} log p / (p^alpha - 1) = log x,
by one Newton run over the log-primes, or over their Gauss-compressed form
where PrimeTable.gauss_prefix compresses them.  The SaddleState it returns
keeps those points, and sums over them at its alpha are cached properties
of it: log zeta now, read by the saddle approximation to Psi.  The
correctly rounded residual over every log-prime is summed only when it is
read.  Around it live the partial zeta, the sums S and T, the weight
w_sigma, and the function f(sigma) = sigma log x + I((1 - sigma) log y)
with its stationary point beta = 1 - xi(u)/log y.
"""

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .dickman import int_exp, xi
from .errors import DomainError, NumericError, RangeError
from .prime_tables import PrimeTable, exact_sum

_LOG2 = math.log(2.0)


@dataclass
class SaddleState:
    log_x: float
    y: float
    u: float          # log_x / log y
    c: float          # log y / log_2 x, reporting only; NaN when log_x <= 1
    alpha: float
    beta: float       # 1 - xi(u)/log y; NaN when u < 1

    # solve_alpha also sets _log_primes, every log-prime p <= y, which the
    # residual sums over, and _points and _weights, the measure its Newton
    # ran on (_weights None where it is _log_primes itself): views of the
    # table's array or new arrays, never the table, and not fields, so that
    # asdict, repr and == leave them out.  The cached properties are not
    # fields either: asdict leaves them out, and the alpha command appends
    # solver_residual as the last column.

    @functools.cached_property
    def solver_residual(self) -> float:
        """sum_{p<=y} log p / (p^alpha - 1) - log_x, its sum correctly rounded.

        Computed on the first read, from the terms of alpha over every
        log-prime p <= y, and kept; a solve itself never sums them, so where
        the solve ran on the compressed log-primes this is the check that
        its root solves the full equation.
        """
        t = np.empty_like(self._log_primes)
        with np.errstate(over="ignore"):
            _terms(self._log_primes, self.alpha, t)
        return exact_sum(t) - self.log_x

    @functools.cached_property
    def log_zeta(self) -> float:
        """log zeta(alpha, y), summed over the points the solve ran on.

        Over the Gauss-compressed points the weighted terms sum to
        zeta_partial's correctly rounded full sum within 2.2e-16 relative
        for 1e-17 <= alpha <= 3 (see prime_tables._HEAD); over the full
        log-primes the sum is zeta_partial's own.
        """
        t = _zeta_terms(self._points, self.alpha)
        if self._weights is not None:
            np.multiply(t, self._weights, out=t)
        return exact_sum(t)


# Newton passes allowed per solve; from the closed form or from beta a solve
# needs at most about 10
_MAX_PASSES = 100

# the last SaddleState solve_alpha returned on each live table; only
# psi_saddle reads it, so a caller that has just solved a point pays no
# second solve there.  A state holds no reference to its table.
_last_solve = weakref.WeakKeyDictionary()


def solve_alpha(log_x: float, table: PrimeTable, y: float) -> SaddleState:
    """Solve sum_{p<=y} log p / (p^alpha - 1) = log_x for alpha.

    g(a) = sum log p / (p^a - 1) - log_x is convex and strictly decreasing
    with range (-log_x, inf), so a unique root exists for every log_x > 0,
    and Newton started left of it climbs to it without crossing (one step
    from the right lands left of it).  Newton starts from the larger of the
    closed form log(1 + y/log_x)/log y and, for u >= 1, beta = 1 - xi(u)/log y,
    which is alpha + O(1/log y) (Hildebrand & Tenenbaum 1986): at y = 1e6
    and u from 2 to 100 beta lies within 3e-3 of alpha, the closed form
    0.05 to 0.15 below it.  Each pass over the log-primes gives g and g'
    together.  lo (g > 0) and hi (g <= 0) bracket the root; while no hi is
    known a step at most doubles alpha, and while no lo is known it at most
    halves it.  The solve stops when the step is at most 1e-15 alpha, or at
    rounding noise: when Newton leaves a bracket closed on both sides, or
    when a step fails to shrink quadratically.
    Newton runs once: where table.gauss_prefix(pi(y)) returns points, on
    them, the log-primes with groups replaced by their Gauss rules, where g
    is the same to rounding (see prime_tables._HEAD for the bound on the
    full residual); on a prefix too short to compress, on the full
    log-primes.  It takes 3 to 8 passes for u >= 1/2, 3 to 5 where beta
    starts it at 2 <= u <= 100, up to 10 for u far below 1.  The solve
    sums no residual: SaddleState.solver_residual takes one pass over
    every log-prime and one exact_sum on its first read, so a caller that
    needs only alpha pays for neither.  Every call solves; the result is
    also kept as the table's last solve, which psi_saddle reads.
    A root below alpha = 1e-18 (log_x = 1e300 at y = 100) is out of the
    solver's range and raises RangeError; the floor is checked on the
    result too, since the start can converge straight to such a root.  A u
    past xi's range (2.53e305) puts the root below pi(y)/log_x < 1e-290, so
    it raises the same RangeError before any pass.
    """
    log_x = float(log_x)
    y = float(y)
    if y < 2.0:
        raise DomainError(f"solve_alpha needs y >= 2, got {y}")
    if not log_x >= _LOG2:
        raise DomainError(f"solve_alpha needs log_x >= log 2, got {log_x}")
    k = table.pi(y)
    logp = table.log_primes[:k]
    log_y = math.log(y)
    u = log_x / log_y
    try:
        beta = 1.0 - xi(u).xi / log_y if u >= 1.0 else math.nan
    except RangeError:
        raise RangeError(f"alpha(x, y) lies below 1e-18 at log_x={log_x}, y={y}") from None

    a = math.log1p(y / log_x) / log_y
    if beta > a:  # NaN or non-positive beta keeps the closed form
        a = beta
    points, weights = table.gauss_prefix(k) or (logp, None)
    with np.errstate(over="ignore"):
        a = _newton(points, weights, log_x, y, a)
    if a < 1e-18:
        raise RangeError(f"alpha(x, y) lies below 1e-18 at log_x={log_x}, y={y}")
    c = log_y / math.log(log_x) if log_x > 1.0 else math.nan
    state = SaddleState(log_x=log_x, y=y, u=u, c=c, alpha=a, beta=beta)
    state._log_primes, state._points, state._weights = logp, points, weights
    _last_solve[table] = state
    return state


def _terms(logp, a, t):
    """Fill t with log p / (p^a - 1) over logp."""
    np.multiply(logp, a, out=t)
    np.expm1(t, out=t)
    np.divide(logp, t, out=t)


def _newton(logp, weights, log_x, y, a):
    """Newton on g(a) = sum w log p / (p^a - 1) - log_x from a, over logp.

    weights None means all 1.  Stops at a step of 1e-15 alpha or at rounding
    noise (see solve_alpha).  Returns alpha.
    """
    t = np.empty_like(logp)
    lo, hi = 0.0, math.inf
    prev = math.inf
    for _ in range(_MAX_PASSES):
        _terms(logp, a, t)
        wt = t if weights is None else weights * t
        val = float(wt.sum()) - log_x
        # g'(a) = -sum w (log p)^2 p^a / (p^a - 1)^2 = -sum w t (log p + t)
        slope = -(float(np.dot(wt, logp)) + float(np.dot(wt, t)))
        if val > 0.0:
            lo = a
        else:
            hi = a
        if hi < 1e-18:
            break
        nxt = a - val / slope if slope < 0.0 else math.nan
        if hi == math.inf and not nxt <= 2.0 * a:
            nxt = 2.0 * a
        elif lo == 0.0 and not nxt >= 0.5 * a:
            nxt = 0.5 * a
        elif not lo <= nxt <= hi:
            break
        step = abs(nxt - a) / a
        a = nxt
        if a > 1e6:
            raise NumericError(f"alpha ran away upward for log_x={log_x}, y={y}")
        if step <= 1e-15 or step > 100.0 * prev * prev:
            break
        prev = step
    else:
        raise NumericError(f"alpha Newton did not converge for log_x={log_x}, y={y}")
    return a


def alpha_approx(log_x: float, y: float) -> float:
    """First-order closed form log(1 + y/log x)/log y, valid for 2 <= y <= (log x)^2."""
    log_x = float(log_x)
    y = float(y)
    if not 2.0 <= y < math.inf:
        raise DomainError(f"alpha_approx needs finite y >= 2, got {y}")
    if not 0.0 < log_x < math.inf:
        raise DomainError(f"alpha_approx needs finite log_x > 0, got {log_x}")
    if not y <= log_x * log_x:
        raise DomainError(f"alpha_approx needs y <= (log x)^2 = {log_x * log_x:.6g}, got {y}")
    return math.log1p(y / log_x) / math.log(y)


def zeta_partial(s: float, table: PrimeTable, y: float) -> float:
    """log of the partial Euler product over p <= y: sum -log(1 - p^{-s}).

    Each term keeps its relative accuracy as s log p goes to 0 (see
    _zeta_terms), and the sum of the terms is correctly rounded: the tests
    check psi_saddle's compressed sum against this one.
    """
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"zeta_partial needs s > 0, got {s}")
    return exact_sum(_zeta_terms(table.log_primes[:table.pi(y)], s))


def _zeta_terms(logp, s):
    """-log(1 - e^(-z)), z = s log p, over the ascending logp as a new array.

    Split at z = log 2 (Maechler 2012, "Accurately computing log(1 -
    exp(-|a|))"): above it -log1p(-e^(-z)); at and below it e^(-z) rounds
    next to 1, and 1 - e^(-z) = 2 e^(-z/2) sinh(z/2) gives the term as
    z/2 - log(2 sinh(z/2)), two positive parts with no cancellation, finite
    for every normal z.  logp ascends, so the split is one searchsorted.
    """
    j = int(np.searchsorted(logp, _LOG2 / s, side="right"))
    t = np.multiply(logp, -s)
    lo, hi = t[:j], t[j:]
    np.exp(hi, out=hi)
    np.negative(hi, out=hi)
    np.log1p(hi, out=hi)
    np.negative(hi, out=hi)
    np.multiply(lo, -0.5, out=lo)
    lo -= np.log(2.0 * np.sinh(lo))
    return t


def prime_power_sums(s: float, table: PrimeTable, y: float) -> tuple:
    """(S, T) with S = sum_{p<=y} p^{-s} and T = sum_{p<=y} p^{-2s}."""
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"prime_power_sums needs s > 0, got {s}")
    k = table.pi(y)
    logp = table.log_primes[:k]
    t = np.multiply(logp, -s)
    s_val = exact_sum(np.exp(t, out=t))
    np.multiply(logp, -2.0 * s, out=t)
    return s_val, exact_sum(np.exp(t, out=t))


def w_sigma(sigma: float, y: float) -> float:
    """w_sigma = (y^{1-sigma} - 1)/((1 - sigma) log y), limit 1 at sigma = 1."""
    sigma = float(sigma)
    if not -math.inf < sigma < math.inf:
        raise DomainError(f"w_sigma needs a finite sigma, got {sigma}")
    y = float(y)
    if not 1.0 < y < math.inf:
        raise DomainError(f"w_sigma needs finite y > 1, got {y}")
    z = (1.0 - sigma) * math.log(y)
    if abs(z) < 1e-6:
        # 3-term Taylor of expm1(z)/z through the removable singularity
        return 1.0 + z / 2.0 + z * z / 6.0
    try:
        return math.expm1(z) / z
    except OverflowError:
        raise RangeError(f"w_sigma overflows a double at sigma={sigma}, y={y}") from None


def f_sigma(sigma: float, log_x: float, y: float) -> float:
    """f(sigma) = sigma log x + I((1 - sigma) log y) on 0 <= sigma <= 1."""
    sigma = float(sigma)
    if not 0.0 <= sigma <= 1.0:
        raise DomainError(f"f_sigma needs sigma in [0, 1], got {sigma}")
    log_x = float(log_x)
    if not -math.inf < log_x < math.inf:
        raise DomainError(f"f_sigma needs a finite log_x, got {log_x}")
    y = float(y)
    if not 1.0 < y < math.inf:
        raise DomainError(f"f_sigma needs finite y > 1, got {y}")
    return sigma * log_x + int_exp((1.0 - sigma) * math.log(y))


def f_at_beta_identity(log_x: float, y: float) -> tuple:
    """Both sides of f(beta) = log x - u xi(u) + int_1^u t xi'(t) dt.

    Returned as (lhs, rhs) for the caller to compare. beta may fall below 0
    when xi(u) > log y, so the lhs is computed from the raw formula rather
    than through f_sigma's [0, 1] domain check.
    """
    log_x = float(log_x)
    y = float(y)
    if not 2.0 <= y < math.inf:
        raise DomainError(f"f_at_beta_identity needs finite y >= 2, got {y}")
    if not -math.inf < log_x < math.inf:
        raise DomainError(f"f_at_beta_identity needs a finite log_x, got {log_x}")
    log_y = math.log(y)
    u = log_x / log_y
    if u < 1.0:
        raise DomainError(f"f_at_beta_identity needs u >= 1, got u = {u}")
    xv = xi(u)
    beta = 1.0 - xv.xi / log_y
    lhs = beta * log_x + int_exp((1.0 - beta) * log_y)
    rhs = log_x - u * xv.xi + int_exp(xv.xi)  # int_1^u t xi'(t) dt = I(xi(u))
    return lhs, rhs


def psi_saddle(log_x: float, table: PrimeTable, y: float) -> float:
    """log of the saddle approximation x^alpha zeta(alpha,y) / (alpha log y sqrt(2 pi u)).

    The state is the last one solve_alpha returned on this table when its
    log_x and y equal the query's, else a fresh solve, so the value is bit
    for bit that of a fresh solve.  Its log_zeta sums over the points the
    solve ran on (10,499 for the 664,579 primes up to 1e7).
    """
    log_x = float(log_x)
    y = float(y)
    if not 2.0 <= y < math.inf:
        raise DomainError(f"psi_saddle needs finite y >= 2, got {y}")
    if not -math.inf < log_x < math.inf:
        raise DomainError(f"psi_saddle needs a finite log_x, got {log_x}")
    u = log_x / math.log(y)
    if u < 2.0:
        raise DomainError(f"psi_saddle intended for u >= 2, got u = {u}")
    st = _last_solve.get(table)
    if st is None or st.log_x != log_x or st.y != y:
        st = solve_alpha(log_x, table, y)
    alpha = st.alpha
    return (alpha * log_x + st.log_zeta
            - math.log(alpha) - math.log(math.log(y))
            - 0.5 * math.log(2.0 * math.pi * u))
