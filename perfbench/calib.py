"""Host-speed calibration, so that timings survive a noisy shared machine.

On a shared host the same cell can take 1.0x to 2.0x its quiet time for
tens of seconds at a stretch, which no amount of repetition within a run
averages away. The benchmark therefore times fixed work of its own next to
the program and scales each program timing by a reference time over the
probe time, giving quiet-machine seconds; raw seconds stay in the result
file. `probe` (a float-sum DFS, a memoised recursion and a numpy pass, the
three kinds of work friabilis does) tracks in-process cells; `cli_probe`
adds the start of a bare interpreter to it, for CLI commands, whose time
is mostly process start and imports, which `probe` alone does not follow.

Neither probe touches friabilis, so no change to the package can move them.
"""

import math
import subprocess
import sys
import time

import numpy as np

# the probes' times in the quiet phases of a 2-vCPU Xeon host (Python 3.11.7,
# numpy 2.4.6), so scaled times read as seconds on that host when idle
REF_S = 0.015
CLI_REF_S = 0.062

_LOGS = [math.log(p) for p in (2, 3, 5, 7, 11)]
_ARR = np.linspace(1.0, 2.0, 500_000)


def _dfs(i, s, limit):
    n = 1
    for j in range(i, -1, -1):
        t = s + _LOGS[j]
        while t <= limit:
            n += _dfs(j - 1, t, limit)
            t += _LOGS[j]
    return n


def _memo(n, i, memo):
    if i == 0 or n < 2:
        return n.bit_length()
    key = (n, i)
    v = memo.get(key)
    if v is None:
        v = _memo(n, i - 1, memo) + _memo(n // (i + 2), i, memo)
        memo[key] = v
    return v


def _once():
    t0 = time.perf_counter()
    _dfs(len(_LOGS) - 1, 0.0, 23.0)
    _memo(10 ** 5, 50, {})
    float(np.log1p(np.exp(-_ARR)).sum())
    return time.perf_counter() - t0


def probe():
    """Seconds taken by the fixed probe work: the faster of two tries, since
    a stall of a few milliseconds would otherwise skew a 20 ms reading."""
    return min(_once(), _once())


def _start():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def cli_probe():
    """`probe` plus the seconds to start and stop a bare interpreter (the
    faster of two tries)."""
    return probe() + min(_start(), _start())
