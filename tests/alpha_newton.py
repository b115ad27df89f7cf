"""The saddle point alpha(x, y) by plain Newton over every log-prime: a test oracle.

friabilis.saddle runs Newton on the Gauss-compressed log-primes wherever
PrimeTable.gauss_prefix compresses them; this solver never does.  It has
the same start (the larger of the closed form and beta), the same
bracket, clamps, stop rules and pass cap, makes every pass over the full
prefix of log-primes, and recomputes the terms of the returned alpha for
the residual.  The module's solver must land within an ulp or two of it
on the tests' grid, and on it bit for bit where it compresses nothing.
"""

import math

import numpy as np

from friabilis.dickman import xi
from friabilis.errors import NumericError, RangeError
from friabilis.prime_tables import exact_sum


def alpha_newton(log_x: float, logp, y: float) -> tuple:
    """(alpha, residual, passes) for sum log p / (p^alpha - 1) = log_x over logp.

    logp holds log p for every prime p <= y; passes counts the passes over
    logp, the residual's included.
    """
    log_y = math.log(y)
    u = log_x / log_y
    beta = 1.0 - xi(u).xi / log_y if u >= 1.0 else math.nan
    t = np.empty_like(logp)
    lo, hi = 0.0, math.inf
    a = math.log1p(y / log_x) / log_y
    if beta > a:
        a = beta
    prev = math.inf
    passes = 0
    for _ in range(100):
        with np.errstate(over="ignore"):
            np.multiply(logp, a, out=t)
            np.expm1(t, out=t)
            np.divide(logp, t, out=t)
            val = float(t.sum()) - log_x
            slope = -(float(np.dot(t, logp)) + float(np.dot(t, t)))
        passes += 1
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
    if a < 1e-18:
        raise RangeError(f"alpha(x, y) lies below 1e-18 at log_x={log_x}, y={y}")
    with np.errstate(over="ignore"):
        np.multiply(logp, a, out=t)
        np.expm1(t, out=t)
        np.divide(logp, t, out=t)
    return a, exact_sum(t) - log_x, passes + 1
