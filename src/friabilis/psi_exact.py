"""Exact counts of y-friable integers by three mutually checking methods.

psi_enumerate walks exponent vectors in log space, so x can be astronomically
large when y is small (the regime where u = log x/log y is big). Exactness at
the x boundary is restored by big-integer resolution of guard-band hits.
psi_sieve is a segmented largest-prime-factor sieve for moderate x.
psi_buchstab is the memoized recursion on (quotient, prime-index) states.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .prime_tables import PrimeTable, sieve_primes
from .saddle import psi_saddle


@dataclass
class PsiResult:
    log_x: float
    y: float
    count: int
    method: str
    boundary_ambiguous: int = 0


def _preflight(log_x: float, table: PrimeTable, y: float, max_count: float) -> None:
    # saddle estimate where it is defined; plain x as the bound when u < 2
    u = log_x / math.log(y)
    est_log = psi_saddle(log_x, table, y) if u >= 2.0 else log_x
    if est_log > math.log(max_count):
        raise ResourceError(
            f"estimated count exp({est_log:.2f}) exceeds the cap {max_count:.3g}",
            estimate=math.exp(min(est_log, 700.0)),
        )


def psi_enumerate(log_x, table: PrimeTable, y, *, x_exact=None,
                  eps_guard=None, max_count=10**8) -> PsiResult:
    """Count y-friable n with log n <= log_x by DFS over exponent vectors.

    The DFS keeps a float partial sum of exponent * log p. Nodes landing
    within eps_guard of log_x are guard-band hits: with x_exact given they
    are settled by exact big-integer comparison; otherwise they count iff
    the float sum is <= log_x, and the tally is reported in
    boundary_ambiguous either way.

    Branch order picks the prime carrying the next nonzero exponent largest
    first, so recursion depth is the number of distinct prime factors, not
    the number of primes below y.
    """
    y = float(y)
    if y < 2.0:
        raise DomainError(f"psi_enumerate needs y >= 2, got {y}")
    if x_exact is not None:
        x_exact = int(x_exact)
        if x_exact < 1:
            raise DomainError(f"x must be >= 1, got {x_exact}")
        if log_x is None:
            log_x = math.log(x_exact)
    if log_x is None:
        raise DomainError("one of log_x or x_exact is required")
    log_x = float(log_x)
    if log_x < 0.0:
        raise DomainError(f"psi_enumerate needs log_x >= 0, got {log_x}")
    if table.limit < y:
        raise DomainError(f"prime table covers {table.limit}, below y = {y}")
    eps = 1e-9 * (1.0 + log_x) if eps_guard is None else float(eps_guard)
    if eps <= 0.0:
        raise DomainError(f"eps_guard must be positive, got {eps}")
    _preflight(log_x, table, y, float(max_count))

    k = table.pi(y)
    ps = table.primes[:k].tolist()
    lp = table.log_primes[:k].tolist()
    lo_gate = log_x - eps
    hi_gate = log_x + eps
    hits = 0
    path = []  # (prime index, exponent) along the current DFS path

    def band_in(t: float) -> bool:
        nonlocal hits
        hits += 1
        if x_exact is None:
            return t <= log_x
        prod = 1
        for j, e in path:
            prod *= ps[j] ** e
        return prod <= x_exact

    def walk(i: int, s: float) -> int:
        # counts the node at partial sum s plus every extension using prime
        # indices <= i; every call site has already admitted the node at s.
        # Indices whose single step already overshoots are skipped wholesale.
        total = 1
        # pad the cutoff so it over-covers the loop test s + lp[j] <= hi_gate
        # despite subtraction rounding; stray indices fail the while at once
        top = bisect_right(lp, hi_gate - s + 1e-12, 0, i + 1) - 1
        for j in range(top, -1, -1):
            step = lp[j]
            e = 1
            t = s + step
            while t <= hi_gate:
                path.append((j, e))
                if t < lo_gate or band_in(t):
                    total += walk(j - 1, t)
                path.pop()
                e += 1
                t = s + step * e
        return total

    count = walk(k - 1, 0.0)
    return PsiResult(log_x=log_x, y=y, count=count, method="enumerate",
                     boundary_ambiguous=hits)


def psi_sieve(x, y, *, max_x=10**8, segment=1 << 20) -> PsiResult:
    """Count by dividing every prime power p^j <= x out of an integer array.

    After all primes <= y have been divided out, the y-friable survivors
    are exactly the entries reduced to 1. Segments keep memory flat.
    """
    x = int(x)
    y = float(y)
    if x < 1:
        raise DomainError(f"psi_sieve needs x >= 1, got {x}")
    if y < 2.0:
        raise DomainError(f"psi_sieve needs y >= 2, got {y}")
    if x > max_x:
        raise ResourceError(f"x = {x} exceeds the sieve cap {max_x}", estimate=float(x))
    if y >= x:
        return PsiResult(log_x=math.log(x), y=y, count=x, method="sieve")

    plist = sieve_primes(max(int(y), 2)).primes.tolist()
    count = 0
    for lo in range(1, x + 1, segment):
        hi = min(lo + segment, x + 1)
        work = np.arange(lo, hi, dtype=np.int64)
        for p in plist:
            q = p
            while q < hi:
                start = ((lo + q - 1) // q) * q
                if start < hi:
                    work[start - lo:: q] //= p
                q *= p
        count += int((work == 1).sum())
    return PsiResult(log_x=math.log(x), y=y, count=count, method="sieve")


def psi_buchstab(x, table: PrimeTable, y, *, max_x=10**12, max_y=10**5,
                 memo_cap=4_000_000) -> PsiResult:
    """Memoized recursion over the largest prime factor.

    Psi(n, i) = bit_length(n) + sum over 2 <= j <= i of Psi(n // p_j, j):
    the bit_length term is n = 1 plus the powers of two, and the j-th term
    collects the n whose largest prime factor is exactly p_j. Recursion
    depth is log2(x) since n shrinks by at least half per level. The memo
    never evicts; hitting the capacity raises instead, keeping runs
    deterministic.
    """
    x = int(x)
    y = float(y)
    if x < 1:
        raise DomainError(f"psi_buchstab needs x >= 1, got {x}")
    if y < 2.0:
        raise DomainError(f"psi_buchstab needs y >= 2, got {y}")
    if x > max_x:
        raise ResourceError(f"x = {x} exceeds the recursion cap {max_x}", estimate=float(x))
    if y > max_y:
        raise ResourceError(f"y = {y} exceeds the recursion cap {max_y}", estimate=float(y))
    if table.limit < y:
        raise DomainError(f"prime table covers {table.limit}, below y = {y}")
    k = table.pi(y)
    if k == 0:
        raise DomainError(f"no primes at or below y = {y}")
    ps = table.primes[:k].tolist()
    memo = {}

    def rec(n: int, i: int) -> int:
        p = ps[i - 1]
        if p >= n:
            return n  # every m <= n is friable here (prime m <= n <= p)
        if i == 1:
            return n.bit_length()  # 1 and the powers of two up to n
        key = (n, i)
        v = memo.get(key)
        if v is not None:
            return v
        total = n.bit_length()
        for j in range(2, i + 1):
            pj = ps[j - 1]
            if pj > n:
                break
            total += rec(n // pj, j)
        if len(memo) >= memo_cap:
            raise ResourceError(
                f"memo reached capacity {memo_cap} at x = {x}, y = {y}",
                estimate=float(memo_cap),
            )
        memo[key] = total
        return total

    count = rec(x, k)
    return PsiResult(log_x=math.log(x), y=y, count=count, method="buchstab")
