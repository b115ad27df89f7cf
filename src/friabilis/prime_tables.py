"""Prime tables and the exact sums over them.

A PrimeTable holds every prime up to a limit, from a segmented sieve over
the odd numbers, as an int64 array together with float64 log-primes, and
counts pi(t) and pi(t^{1/k}) at the exact integer roots of t.  On those
counts: Chebyshev psi(t) and the weighted prime-power count
Pi(t) = sum pi(t^{1/k})/k.  exact_sum gives math.fsum's correctly rounded
value of a float array without a Python list, by error-free extraction in
a few numpy passes; every prime sum of the package goes through it.
gauss_prefix compresses a prefix of the log-primes by Gauss rules, for
the alpha solver's Newton run and psi_saddle's log zeta.

Code that does exact integer arithmetic on primes takes them as Python
ints, through ``table.primes[:k].tolist()``: int64 products wrap silently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ResourceError, short_int

# Odd numbers in each segment of _sieve's loop: a 1 MiB bool array that covers
# 2^21 integers, and memory stays O(this) besides the output.  Any length works,
# as the sieving primes come from a sieve of their own.  _sieve(1e7) takes
# 18.8, 18.0 and 20.2 ms at 2^19, 2^20 and 2^21, _sieve(1e8) 231, 195 and 212 ms
# (medians of 9 and 5 interleaved calls, one core of a 2-vCPU VM)
_SEGMENT = 1 << 20

# the one cap on prime tables; the CLI builds every table through sieve_primes
_MAX_LIMIT = 10**8

# exact_sum extracts one block at a time, so that the block and its two
# work buffers stay in cache: a 664,579-term prime sum takes 2.4 to 3.1 ms
# in blocks of 2^15 or 2^16 terms, 3.7 to 5.8 ms in 2^13 or 2^18, 8 to 10 ms
# in one piece (medians of 15 over four such sums, one core of a 2-vCPU VM)
_BLOCK = 1 << 15
# below this many terms math.fsum of the list is the faster of the two; on
# prime sums (microseconds, list against extraction): 21/33 at 512 terms,
# 31/33 at 768, 36/33 at 896, 41/34 at 1024, 82/37 at 2048
_FSUM_BELOW = 800

# PrimeTable.gauss_prefix keeps the first _HEAD log-primes as they are and
# stands for each later group of _GROUP by a 4-node Gauss rule.  The first
# group spans 0.25 in log p; over the 1e7 table the weighted sums of
# x/(e^(a x) - 1) and of its slope match the plain ones to 2.1e-16 relative
# for 1e-8 <= a <= 3, past the largest alpha (1.88, at log x = log 2), and
# those of -log(1 - e^(-a x)), log zeta(a, y), to 2.2e-16 relative for
# 1e-17 <= a <= 3 at y from 1.1e5 to 1e7.  The alpha that Newton solves on
# the compressed points alone leaves a full-table residual, the correctly
# rounded SaddleState.solver_residual, of at most 7.9e-16 log x on 45 cells
# (y from 1.1e5 to 1e7, u from 0.5 to 1e6 and log x = y^(1/c) for c from
# 1.2 to 1.8); the tests hold it at 1e-15 log x.
# Below _HEAD + _GROUP = 10,240 primes a full pass is cheap and the solver
# keeps to the full log-primes.  The rules are built _CHUNK groups at a
# time, so the work arrays stay near 128 KiB.
_HEAD = 1 << 13
_GROUP = 1 << 11
_NODES = 4
_CHUNK = 8


def exact_sum(arr) -> float:
    """math.fsum(arr.tolist()), correctly rounded, without the list.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008): for a block of n
    terms r take M with 2^M > n + 2, e with max|r| < 2^e and sigma =
    2^(e+M); q = (sigma + r) - sigma and r - q are exact, every q is a
    multiple of 2^(e+M-53) and |sum q| < sigma, so q.sum() is exact in any
    order.  Each pass takes about 53 - M bits off r and leaves
    |r| <= ulp(sigma)/2 < 2^(e+M-52), whatever the signs, so a block bounds
    its next pass by that, with no new max or min.  Its terms are
    multiples of 2^g, g = max(f - 53, -1074) for the frexp exponent f of
    its smallest nonzero |term| (taken from max and min when the block has
    one sign and no zero, as every prime sum, and from np.abs otherwise),
    and so is r, so once ulp(sigma) = 2^(e+M-52) <= 2^g the pass leaves
    r = 0 and the block is done; an all-zero block adds nothing.  The
    pass before that one is skipped too.  After a pass, with e' = e+M-52,
    |r| <= 2^(e'-1); if the next pass's ulp 2^(e'+M-52) is <= 2^g it would
    return q = r unchanged.  r.sum() is then exact in any order: every r is
    a multiple of 2^g, so is every partial sum, and each is at most
    n 2^(e'-1) < 2^(e'+M-1) <= 2^(g+51), which a double holds exactly.  So
    the block closes with r.sum(), the same bits as that pass, and no
    extraction; one pass and the closing sum cover a block whose terms
    span 51 - 2M binades, 19 at 2^15 terms.  The exact pass sums go to
    math.fsum, which rounds their total once.
    Short arrays, non-finite terms and terms of 2^(1022-M) or more (M taken
    from the whole array, so no partial sum can overflow) go to math.fsum
    itself, so the value or error is the one it gives.
    """
    return math.fsum(_exact_parts(arr))


def _exact_parts(arr) -> list:
    """Floats whose exact sum is the exact sum of arr, for math.fsum.

    The pass sums of exact_sum's extraction, or arr's own terms on the
    short, non-finite and overflow paths.  Parts of several arrays can be
    joined into one math.fsum, which rounds their joint total once.
    """
    v = np.asarray(arr, dtype=np.float64).ravel()
    n = len(v)
    if n < _FSUM_BELOW:
        return v.tolist()
    cap = 2.0 ** (1022 - (n + 2).bit_length())
    q, r = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    parts = []
    for start in range(0, n, _BLOCK):
        block = v[start:start + _BLOCK]
        m = (len(block) + 2).bit_length()
        qb, rb = q[:len(block)], r[:len(block)]
        hi, lo = float(block.max()), float(block.min())
        if not (-cap < lo and hi < cap):  # nan fails both
            return v.tolist()
        if lo > 0.0 or hi < 0.0:
            tiny = lo if lo > 0.0 else -hi
        else:
            np.abs(block, out=rb)
            tiny = float(rb.min(where=rb != 0.0, initial=math.inf))
            if tiny == math.inf:  # all zero
                continue
        # |r| < 2^e bounds each next pass, the pass whose ulp(sigma) reaches
        # the granule 2^g leaves r = 0, and r itself is summed exactly once
        # the next pass would return it (see exact_sum)
        g = max(math.frexp(tiny)[1] - 53, -1074)
        e = math.frexp(max(hi, -lo))[1]
        while True:
            sigma = math.ldexp(1.0, e + m)
            np.add(block, sigma, out=qb)
            qb -= sigma
            parts.append(float(qb.sum()))
            e += m - 52
            if e <= g:
                break
            np.subtract(block, qb, out=rb)
            if e + m - 52 <= g:
                parts.append(float(rb.sum()))
                break
            block = rb
    return parts


@dataclass(eq=False)  # == on the array fields would raise, so an instance equals only itself
class PrimeTable:
    """Immutable-by-convention table of all primes <= limit."""

    limit: int
    primes: np.ndarray      # int64, ascending
    log_primes: np.ndarray  # np.log of the primes as float64

    def pi(self, t) -> int:
        """Count primes <= t, for real t.

        The one place that decides which primes are <= t and whether the
        table covers t: nan, the infinities and any t with floor(t) > limit
        raise RangeError, tested before t is floored.
        """
        if not -math.inf < t < self.limit + 1:
            raise RangeError(f"pi query t={t} needs a finite t with floor(t) <= {self.limit}")
        return int(np.searchsorted(self.primes, math.floor(t), side="right"))

    def root_counts(self, t) -> list:
        """[pi(t), pi(t^(1/2)), pi(t^(1/3)), ...] while the root is >= 2.

        Entry k - 1 counts the primes p with p^k <= t.  The roots of floor(t)
        are exact integer roots, so no prime power on the boundary is
        mis-binned by float pow.
        """
        counts = [self.pi(t)]
        n = math.floor(t)
        while (r := _iroot(n, len(counts) + 1)) >= 2:
            counts.append(self.pi(r))
        return counts

    def gauss_prefix(self, k: int):
        """(points, weights) that stand for log_primes[:k] in weighted sums, or None.

        The points are the first _HEAD log-primes, the Gauss nodes of every
        full group of _GROUP log-primes above them, and the partial last
        group; the weights are 1, the Gauss weights, and 1.  For the terms
        x / (e^(a x) - 1) of the alpha equation and -log(1 - e^(-a x)) of
        log zeta, 0 < a <= 3, the weighted sum equals the plain one to
        rounding.  None when k < _HEAD + _GROUP, where
        there is nothing to compress.
        """
        m = (k - _HEAD) // _GROUP
        if m < 1:
            return None
        nodes, weights = self._gauss_rules
        end = _HEAD + m * _GROUP
        lp = self.log_primes
        return (np.concatenate((lp[:_HEAD], nodes[:m].ravel(), lp[end:k])),
                np.concatenate((np.ones(_HEAD), weights[:m].ravel(), np.ones(k - end))))

    @functools.cached_property
    def _gauss_rules(self):
        """The _NODES-node Gauss rule of each full group above the first _HEAD log-primes.

        A group of consecutive log-primes is a smooth measure, so the Gauss
        rule of its counting measure integrates smooth functions to rounding
        (Golub & Welsch 1969): Stieltjes' recurrence on the group mapped to
        [-1, 1] gives the Jacobi matrix, its eigenvalues the nodes and the
        squared first components of its eigenvectors the weights.  Built on
        the first call, _CHUNK groups at a time, and kept on the table.
        """
        lp = self.log_primes
        m = (len(lp) - _HEAD) // _GROUP
        nodes, weights = np.empty((m, _NODES)), np.empty((m, _NODES))
        for g in range(0, m, _CHUNK):
            n = min(_CHUNK, m - g)
            x = lp[_HEAD + g * _GROUP:_HEAD + (g + n) * _GROUP].reshape(n, _GROUP)
            mid = 0.5 * (x[:, -1:] + x[:, :1])
            half = 0.5 * (x[:, -1:] - x[:, :1])
            s = (x - mid) / half
            jac = np.zeros((n, _NODES, _NODES))
            p_prev, p, norm_prev = 0.0, np.ones_like(s), 1.0
            for j in range(_NODES):
                p2 = p * p
                norm = p2.sum(axis=1)
                jac[:, j, j] = (s * p2).sum(axis=1) / norm
                b = norm / norm_prev
                if j:
                    jac[:, j, j - 1] = jac[:, j - 1, j] = np.sqrt(b)
                if j + 1 < _NODES:
                    p_prev, p = p, (s - jac[:, j, j, None]) * p - b[:, None] * p_prev
                norm_prev = norm
            lam, vec = np.linalg.eigh(jac)
            nodes[g:g + n] = mid + half * lam
            weights[g:g + n] = _GROUP * vec[:, 0, :] ** 2
        return nodes, weights


def _sieve(limit: int) -> np.ndarray:
    """Segmented sieve of Eratosthenes over the odd numbers, in numpy bool segments.

    The odd sieving primes up to sqrt(limit) come from this sieve one level
    down (there are none below 9).  One loop runs over segments of _SEGMENT
    odd numbers from 1, entry i standing for lo + 2i; each sieving prime p
    crosses out its odd multiples from max(p*p, lo) on, stride p in entries
    (2p in integers).  1, which nothing crosses out, stands for 2.
    """
    base = _sieve(math.isqrt(limit))[1:].tolist() if limit >= 9 else []
    chunks = []
    for lo in range(1, limit + 1, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, limit + 1)
        flags = np.ones((hi - lo + 1) // 2, dtype=bool)
        for p in base:
            if p * p >= hi:
                break
            m = max(p, -(-lo // p)) | 1  # p's first odd multiple m*p >= max(p*p, lo)
            flags[(m * p - lo) // 2 :: p] = False
        idx = np.flatnonzero(flags)
        idx *= 2
        chunks.append(np.add(idx, lo, out=idx))
    chunks[0][0] = 2
    return np.concatenate(chunks).astype(np.int64, copy=False)


def sieve_primes(limit: int) -> PrimeTable:
    """Build a PrimeTable for all primes <= limit.

    Raises DomainError for limit < 2 and ResourceError beyond 10**8.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    limit = int(limit)
    if limit > _MAX_LIMIT:
        raise ResourceError(f"sieve limit {short_int(limit)} exceeds cap {_MAX_LIMIT}")
    primes = _sieve(limit)
    return PrimeTable(limit=limit, primes=primes, log_primes=np.log(primes.astype(np.float64)))


def chebyshev_psi(t, table: PrimeTable) -> float:
    """Chebyshev psi(t) = sum of log p over prime powers p^k <= t.

    Each p with p^k <= t adds its log once per k, so the terms are the
    log-prime slices that table.root_counts(t) delimits; one math.fsum over
    the exact parts of every slice rounds the total once.
    """
    if t < 2:
        raise DomainError(f"chebyshev_psi needs t >= 2, got {t}")
    lp = table.log_primes
    return math.fsum(part for c in table.root_counts(t) for part in _exact_parts(lp[:c]))


def _iroot(n: int, k: int) -> int:
    """Exact floor(n**(1/k)) for integers n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise DomainError(f"_iroot needs n >= 0, k >= 1, got {n}, {k}")
    if n < 2 or k == 1:
        return n
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def big_pi(t, table: PrimeTable) -> float:
    """Riemann's weighted prime-power count Pi(t) = sum_{k>=1} pi(t^{1/k}) / k.

    Equivalent to summing 1/k over prime powers p^k <= t; the counts are
    table.root_counts(t), whose roots are exact.
    """
    if t < 2:
        raise DomainError(f"big_pi needs t >= 2, got {t}")
    return math.fsum(c / k for k, c in enumerate(table.root_counts(t), start=1))
