"""Psi(x, y) by the memoized recursion over the largest prime factor: a test oracle.

Independent of the prime-by-prime sweep in friabilis.psi_exact.  It works on
Python ints, one (quotient, prime index) state at a time, so it is exact for
any x but slow; the sweep is checked against it on small and edge cells.
"""

from itertools import takewhile


def buchstab_recursion(x: int, primes, y: float) -> int:
    """Count the y-friable n <= x, given the primes in increasing order.

    Psi(n, i) = bit_length(n) + sum over 2 <= j <= i of Psi(n // p_j, j):
    the bit_length term is n = 1 plus the powers of two, and the j-th term
    collects the n whose largest prime factor is exactly p_j.
    """
    ps = list(takewhile(lambda p: p <= y, map(int, primes)))
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
        memo[key] = total
        return total

    return rec(int(x), len(ps))
