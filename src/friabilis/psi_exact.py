"""Exact counts of y-friable integers by three mutually checking methods.

psi_enumerate meets in the middle: it splits the primes up to y between two
numpy sets of friable integers kept in log space and joins the sets with
searchsorted. x can be astronomically large when y is small (the regime
where u = log x/log y is big). Exactness at the x boundary is restored by
big-integer resolution of guard-band hits, whose exact values are rebuilt
from links each set member keeps to the member it extends.
psi_sieve is a segmented largest-prime-factor sieve for moderate x.
psi_buchstab is the memoized recursion on (quotient, prime-index) states.
"""

import math
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


def _sorted(logs, ids):
    # the stable sort is a timsort: it merges already-sorted runs in linear time
    order = np.argsort(logs, kind="stable")
    return logs[order], ids[order]


class _Friables:
    """The integers made of the primes added so far, with log <= hi_gate.

    Members are numbered as they are made: member 0 is 1, and each later
    member is an earlier one (its parent) times p^e for the prime p being
    added. So an exact value is a product of at most one power per prime,
    rebuilt only for the few guard-band hits, and a member costs a float64
    log and three int32 numbers however large it is (a value can run to
    log_x / log 2 bits). The logs and member numbers sit in log-sorted
    runs, so the members that p^e extends are a prefix of each run. New
    members become one run, and the last two runs merge while the older
    is at most twice the newer: O(log n) runs, and each member is
    re-sorted O(log n) times.
    """

    def __init__(self, hi_gate: float):
        self.hi_gate = hi_gate
        self.size = 1
        self.runs = [(np.zeros(1), np.zeros(1, dtype=np.int32))]
        self.links = []  # (parent numbers, p, powers) for each batch of members
        self._flat = None  # parent, prime and power of every member

    def add(self, p: int, lp: float) -> None:
        new_logs, new_ids = [], []
        for logs, ids in self.runs:
            if logs[0] + lp > self.hi_gate:
                continue
            # the first m[e - 1] members of the run times p^e stay within the gate
            es = np.arange(1, (self.hi_gate - logs[0]) // lp + 2, dtype=np.int64)
            m = np.searchsorted(logs, self.hi_gate - es * lp, side="right")
            n = int(m.sum())
            if not n:
                continue
            if self.size + n >= 2**31:  # member numbers and powers are int32
                raise ResourceError(f"a friable set would pass 2^31 members at p = {p}",
                                    estimate=float(self.size + n))
            power = np.repeat(es.astype(np.int32), m)
            src = np.arange(n) - np.repeat(np.cumsum(m) - m, m)
            new_logs.append(logs[src] + power * lp)
            new_ids.append(np.arange(self.size, self.size + n, dtype=np.int32))
            self.links.append((ids[src], p, power))
            self.size += n
        if not new_logs:
            return
        runs = self.runs
        runs.append(_sorted(np.concatenate(new_logs), np.concatenate(new_ids)))
        while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
            (l2, i2), (l1, i1) = runs.pop(), runs.pop()
            runs.append(_sorted(np.concatenate((l1, l2)), np.concatenate((i1, i2))))

    def joined(self):
        """All members as one (logs, member numbers) pair, the runs dropped."""
        logs, ids = map(np.concatenate, zip(*self.runs))
        self.runs = None
        return logs, ids

    def value(self, i: int) -> int:
        """The exact value of member i, as a Python int."""
        if self._flat is None:
            zero = np.zeros(1, dtype=np.int32)
            parents, ps, powers = zip((zero, 1, zero), *self.links)
            self._flat = (np.concatenate(parents),
                          np.repeat(ps, [a.size for a in parents]),
                          np.concatenate(powers))
        parent, prime, power = self._flat
        v = 1
        while i:
            v *= int(prime[i]) ** int(power[i])
            i = int(parent[i])
        return v


def psi_enumerate(log_x, table: PrimeTable, y, *, x_exact=None,
                  eps_guard=None, max_count=10**8) -> PsiResult:
    """Count y-friable n with log n <= log_x by meet in the middle.

    The primes up to y are split between two sets: A takes them from the
    bottom and B from the top, the next prime always going to whichever
    set is smaller now. Each set holds its friable integers with log at
    most hi_gate = log_x + eps_guard, so both stay below the count that
    the preflight caps. Every friable n <= x is one product a * b, and
    for each b two searchsorted gates on the sorted logs of A split A:
    below lo_gate - log b the product counts; above hi_gate - log b it
    does not; in between it is a guard-band hit. With x_exact given a hit
    is settled by a * b <= x_exact in Python ints; otherwise it counts
    iff log a + log b <= log_x. The hits are tallied in
    boundary_ambiguous either way.
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

    lo_gate = log_x - eps
    hi_gate = log_x + eps
    # a prime above x e^eps divides no member of either set
    k = min(table.pi(y), int(np.searchsorted(table.log_primes, hi_gate, side="right")))
    ps = table.primes[:k].tolist()
    lp = table.log_primes[:k].tolist()
    a, b = _Friables(hi_gate), _Friables(hi_gate)
    i, j = 0, k - 1
    while i <= j:
        if a.size <= b.size:
            a.add(ps[i], lp[i])
            i += 1
        else:
            b.add(ps[j], lp[j])
            j -= 1

    a_logs, a_ids = _sorted(*a.joined())
    b_logs, b_ids = b.joined()
    below = np.searchsorted(a_logs, lo_gate - b_logs, side="left")
    above = np.searchsorted(a_logs, hi_gate - b_logs, side="right")
    count = int(below.sum())
    hits = 0
    for jb in np.flatnonzero(above > below).tolist():
        for ia in range(int(below[jb]), int(above[jb])):
            hits += 1
            if x_exact is None:
                count += float(a_logs[ia]) + float(b_logs[jb]) <= log_x
            else:
                count += a.value(int(a_ids[ia])) * b.value(int(b_ids[jb])) <= x_exact
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
