"""Exact counts of y-friable integers by three mutually checking methods.

psi_enumerate meets in the middle: two numpy sets of friable integers kept
in log space, joined by searchsorted, with guard-band hits settled in big
integers; x can be astronomically large when y is small.  psi_sieve is a
segmented sieve of the m prime to 6, weighted by the 3-smooth s.
psi_buchstab applies Buchstab's identity one prime at a time to an
array of distinct quotients of x.  Each function's docstring states its
method and its caps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, short_int
from .prime_tables import PrimeTable, sieve_primes
from .saddle import psi_saddle


@dataclass
class PsiResult:
    log_x: float
    y: float
    count: int
    method: str
    boundary_ambiguous: int = 0


# guard-band half-width eps = _GUARD (1 + log x): millions of ulps of log x
_GUARD = 1e-9


def _preflight(log_x: float, table: PrimeTable, y: float, max_count: float) -> int:
    """The number of primes up to min(y, x e^eps), if the count is admitted.

    ResourceError names the bound when the powers of 2 up to x alone pass
    max_count, or min(saddle estimate, proven product bound) does. The one
    admission rule: psi_enumerate and theorem.largest_feasible_log_x ask it.
    """
    eps = _GUARD * (1.0 + log_x)
    k = min(table.pi(y), int(np.searchsorted(table.log_primes, log_x + eps, side="right")))
    if not max_count > 0:
        raise DomainError(f"max_count must be positive, got {max_count}")
    # proven from below and needing no saddle: the powers of 2 up to x are
    # y-friable, and there are floor(log x / log 2) + 1 of them
    low = float(np.floor(log_x / math.log(2.0) - eps)) + 1.0
    if low > max_count:
        raise ResourceError(
            f"the {low:.3g} powers of 2 up to x alone exceed the cap {max_count:.3g}")
    # saddle estimate where it is defined; plain x as the bound when u < 2
    u = log_x / math.log(y)
    est_log = psi_saddle(log_x, table, y) if u >= 2.0 else log_x
    # proven: a y-friable n <= x is prod p^e with e <= log x / log p, so the
    # count is at most prod_{p <= y} (1 + floor(log x / log p)); exact at
    # y = 2, where the saddle estimate is far off. Primes above x add log 1 = 0.
    est_log = min(est_log, float(np.log1p(np.floor(log_x / table.log_primes[:k])).sum()))
    if est_log > math.log(max_count):
        raise ResourceError(
            f"estimated count exp({est_log:.2f}) exceeds the cap {max_count:.3g}")
    return k


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
                raise ResourceError(f"a friable set would pass 2^31 members at p = {p}")
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
                  max_count=10**8) -> PsiResult:
    """Count y-friable n with log n <= log_x by meet in the middle.

    The primes up to y are split between two sets: A takes them from the
    bottom and B from the top, the next prime always going to whichever
    set is smaller now. Each set holds its friable integers with log at
    most hi_gate = log_x + eps, eps = 1e-9 (1 + log_x), so both stay below
    the count that _preflight caps. Every friable n <= x is one product
    a * b, and for each b two searchsorted gates on the sorted logs of A
    split A: below lo_gate - log b the product counts; above hi_gate -
    log b it does not; in between it is a guard-band hit. With x_exact
    given a hit is settled by a * b <= x_exact in Python ints; otherwise
    it counts iff log a + log b <= log_x. The hits are tallied in
    boundary_ambiguous either way. A log_x given beside x_exact must lie
    within half the guard band of log x_exact, which then replaces it.
    """
    y = float(y)
    if y < 2.0:
        raise DomainError(f"psi_enumerate needs y >= 2, got {y}")
    if x_exact is not None:
        x_exact = int(x_exact)
        if x_exact < 1:
            raise DomainError(f"x must be >= 1, got {x_exact}")
        exact_log = math.log(x_exact)
        half_band = _GUARD * (1.0 + exact_log) / 2
        if log_x is not None and not abs(float(log_x) - exact_log) <= half_band:
            raise DomainError(f"log_x = {float(log_x)!r} disagrees with x_exact, "
                              f"whose log is {exact_log!r}")
        log_x = exact_log
    if log_x is None:
        raise DomainError("one of log_x or x_exact is required")
    log_x = float(log_x)
    if not log_x >= 0.0:
        raise DomainError(f"psi_enumerate needs log_x >= 0, got {log_x}")
    k = _preflight(log_x, table, y, float(max_count))
    eps = _GUARD * (1.0 + log_x)
    lo_gate = log_x - eps
    hi_gate = log_x + eps
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


_SEGMENT = 360360  # indices per class in a psi_sieve segment: 2^3 3^2 5 7 11 13
_SIEVE_MAX_X = 10**8  # the largest x psi_sieve counts


def psi_sieve(x, y) -> PsiResult:
    """Count by sieving the n prime to 6 and weighting them by the 3-smooth s.

    Every n <= x is s m with s = 2^a 3^b and m prime to 6, in one way, and
    n is y-friable exactly when m is and s holds no prime above y. So
    Psi(x, y) = sum over the s <= x built from the primes 2 and 3 that are
    <= y of #{m <= x // s : gcd(m, 6) = 1, m y-friable}. The s are listed
    with Python ints, and only the m are sieved.

    The m prime to 6 are m = 6 i + r for r = 1 and 5, each class an array
    over i. A prime power q prime to 6 divides 6 i + r exactly when
    i = -r 6^-1 mod q, so it hits one stride of q in each class. Entry i
    collects p once for each such p^j dividing m, for every prime 5 <= p
    <= top = min(y, isqrt(x)) (at least 2), so it ends as the top-friable
    part a of m. The cofactor m/a has only primes above top. If top is
    floor(y), m is y-friable exactly when m = a. Otherwise top = isqrt(x)
    < y, and the cofactor is 1 or one prime above isqrt(x), since two such
    primes, or the square of one, pass x; then m is y-friable exactly when
    m <= a floor(y), a product taken in int64. So no prime above sqrt(x)
    is sieved at all, and no power of 2 or 3. a <= m <= _SIEVE_MAX_X = 1e8
    < 2^31, so int32 holds it; an x above _SIEVE_MAX_X raises
    ResourceError. The friable i of a class r are counted once for each
    limit (x // s - r) // 6 they do not pass, by one searchsorted.

    Each class is cut into segments of _SEGMENT indices, so a segment spans
    6 _SEGMENT numbers: 360360 int32 entries are 1.4 MB, and the strided
    passes over a segment stay in a 2 MiB L2 cache. A prime power q
    dividing _SEGMENT (at 360360 the powers of 5, 7, 11 and 13 in it) hits
    the same offsets in every segment, so those q are multiplied once per
    call into a base segment of each class (the wheel) that each segment
    starts as a copy of, and the loop over strides runs only for the other
    powers. Any _SEGMENT works; at a prime one such as 1009 the wheel is
    all ones unless 1009 <= top.
    """
    x = int(x)
    y = float(y)
    if x < 1:
        raise DomainError(f"psi_sieve needs x >= 1, got {x}")
    if not y >= 2.0:
        raise DomainError(f"psi_sieve needs y >= 2, got {y}")
    if x > _SIEVE_MAX_X:
        raise ResourceError(f"x = {short_int(x)} exceeds the sieve cap {_SIEVE_MAX_X}")
    if y >= x:
        return PsiResult(log_x=math.log(x), y=y, count=x, method="sieve")

    seg = _SEGMENT
    fy = int(y)
    top = max(2, min(fy, math.isqrt(x)))
    quotients = []  # x // s for the s = 2^a 3^b <= x, with b = 0 when y < 3
    t = 1
    while t <= x:
        s = t
        while s <= x:
            quotients.append(x // s)
            s *= 2
        if fy < 3:
            break
        t *= 3
    wheel, powers = [], []  # (q, p, 6^-1 mod q) for the powers q = p^j <= x, p >= 5
    for p in sieve_primes(top).primes[2:].tolist():
        q = p
        while q <= x:
            (powers if seg % q else wheel).append((q, np.int32(p), pow(6, -1, q)))
            q *= p
    powers.sort()

    count = 0
    for r in (1, 5):
        size = (x - r) // 6 + 1  # the i with 6 i + r <= x
        if size <= 0:
            continue
        limits = np.array([(v - r) // 6 for v in quotients if v >= r], dtype=np.int64)
        base = np.ones(min(seg, size), dtype=np.int32)
        for q, p, inv in wheel:
            base[-r * inv % q::q] *= p
        strides = [(q, p, -r * inv % q) for q, p, inv in powers]
        ramp = np.arange(r, 6 * base.size + r, 6, dtype=np.int32)  # 6 i + r over a segment
        for lo in range(0, size, seg):
            hi = min(lo + seg, size)
            acc = base[:hi - lo].copy()
            last = 6 * (hi - 1) + r
            for q, p, off in strides:
                if q > last:
                    break
                start = (off - lo) % q
                if start < hi - lo:
                    # an int32 p and out= (no write-back by __setitem__) take
                    # a fifth off numpy's per-call cost, most of a large q's
                    view = acc[start::q]
                    np.multiply(view, p, out=view)
            m = ramp[:hi - lo] + 6 * lo
            # the int64 test holds for every y; the int32 equality, about a third
            # of its cost per segment, suffices when top = floor(y)
            friable = m <= acc.astype(np.int64) * fy if top < fy else acc == m
            found = np.flatnonzero(friable)
            count += int(np.searchsorted(found, limits - lo, side="right").sum())
    return PsiResult(log_x=math.log(x), y=y, count=count, method="sieve")


def _bit_length(n: np.ndarray) -> np.ndarray:
    """bit_length of each 1 <= n < 2^63, exactly.

    float64 rounds n above 2^53 and can round it up to the next power of
    two, so the frexp exponent is one too high there; those entries are
    the ones where 2^(e - 1) > n.
    """
    e = np.minimum(np.frexp(n.astype(np.float64))[1], 63).astype(np.int64)
    return e - (np.left_shift(1, e - 1) > n)


_BUCHSTAB_MAX_X, _BUCHSTAB_MAX_Y = 10**12, 10**5  # the largest x and y psi_buchstab takes


def _psi_3(n: np.ndarray, w: np.ndarray) -> int:
    """sum of w * Psi(n, 3) over n >= 1, in log_3 n passes.

    The 3-friable m <= n are the 3^j 2^e, and bit_length(n // 3^j) of them
    have 3-part 3^j.
    """
    total = 0
    while n.size:
        total += int((w * _bit_length(n)).sum())
        n = n // 3
        keep = n > 0
        n, w = n[keep], w[keep]
    return total


def psi_buchstab(x, table: PrimeTable, y) -> PsiResult:
    """Buchstab's identity applied one prime at a time, top down.

    Psi(n, p) = sum over e >= 0 of Psi(n // p^e, p-), where p- is the prime
    below p (Buchstab 1949; de Bruijn 1951). Let P be the primes up to y,
    P[0] = 2, and b the first index with P[b]^3 > x. Three identities count
    most terms where they arise, so only the rest are sorted:

    1. Each prime P[i] with i >= top = max(b, 1). Put m = x // P[i]. As
       P[i]^3 > x, x // P[i]^e = 0 for e >= 3, and x // P[i]^2 = m // P[i]
       < P[i]; every n < P[i] is P[i-1]-friable, so that term is worth its
       own value. If m < P[i] (P[i]^2 > x) it is worth m too. Otherwise,
       for top <= j < i, P[j]^2 >= P[top]^2 > x / P[top] >= m, so only
       e = 1 survives and m // P[j] < P[j]:
       Psi(m, P[i-1]) = Psi(m, P[top-1]) + sum over top <= j < i of m // P[j].
       The sum is one vectorised line per i, and m joins x as a weight-1
       term at level top - 1, x's level.
    2. The level loop, from x's level down to the prime 5. A term n at
       prime p spawns n // p^e for e >= 1; a quotient q < p is worth w * q
       (every m <= q is p-friable) and is added where it is made, so a term
       n < p^2 adds n // p and makes no deeper quotient. The rest merge in
       one sort.
    3. Psi(n, 3) = sum over j of bit_length(n // 3^j): the 3-friable m <= n
       are 3^j 2^e. The terms left at level 1 (the prime 3) close so, or
       at level 0 (top = 1) as w * bit_length(n).

    An x above _BUCHSTAB_MAX_X = 1e12 or a y above _BUCHSTAB_MAX_Y = 1e5
    raises ResourceError, and so does x >= 2^63 whatever the cap: quotients
    and partial sums (at most the count, so at most x) are int64. Each
    quotient is floor(x/m) for some m, as floor(floor(x/a)/b) = floor(x/(ab)),
    so a merged level holds at most 2 sqrt(x) of them: 2e6 at the cap.
    """
    x = int(x)
    y = float(y)
    if x < 1:
        raise DomainError(f"psi_buchstab needs x >= 1, got {x}")
    if y < 2.0:
        raise DomainError(f"psi_buchstab needs y >= 2, got {y}")
    if x > _BUCHSTAB_MAX_X:
        raise ResourceError(f"x = {short_int(x)} exceeds the Buchstab cap {_BUCHSTAB_MAX_X}")
    if x >= 2**63:
        raise ResourceError(f"x = {short_int(x)} does not fit the int64 quotients (x < 2^63)")
    k = table.pi(y)  # before the y cap, so a y of nan or inf is a RangeError
    if y > _BUCHSTAB_MAX_Y:
        raise ResourceError(f"y = {y} exceeds the Buchstab cap {_BUCHSTAB_MAX_Y}")
    P = table.primes[:k]
    # exact: P <= 1e6 even with the y cap raised, so P^3 < 2^63
    top = min(max(int(np.searchsorted(P * P * P, x, side="right")), 1), k)
    # identity 1 over the primes P[top:k]: e = 2, then e = 1 where m < p
    p = P[top:k]
    m = x // p
    count = int((m // p).sum())
    s = int(np.searchsorted(m < p, True))  # m < p from here on
    count += int(m[s:].sum())
    for i, mi in enumerate(m[:s].tolist()):
        count += int((mi // P[top:top + i]).sum())
    # m falls as i rises, so the m reversed and then x are ascending
    n = np.append(m[:s][::-1], x)
    w = np.ones(n.size, dtype=np.int64)
    for level in range(top - 1, 1, -1):
        p = int(P[level])
        ns, ws = [n], [w]
        q, qw = n, w
        while q.size:
            low = int(np.searchsorted(q, p * p))  # q is ascending, as n is
            count += int((q[:low] // p) @ qw[:low])
            q, qw = q[low:] // p, qw[low:]
            ns.append(q)
            ws.append(qw)
        # each part is sorted, so _sorted merges runs; reduceat keeps the
        # int64 sums exact, where bincount would sum in float64
        n, w = np.concatenate(ns), np.concatenate(ws)
        del ns, ws  # the parts would otherwise stay alive through the sort
        n, w = _sorted(n, w)
        starts = np.flatnonzero(np.r_[True, n[1:] != n[:-1]])
        n, w = n[starts], np.add.reduceat(w, starts)
    if top == 1:
        count += int((w * _bit_length(n)).sum())
    else:
        count += _psi_3(n, w)
    return PsiResult(log_x=math.log(x), y=y, count=count, method="buchstab")
