"""The four workloads: their set-up, their cells, and how outputs are checked.

A cell is one timed operation. An in-process cell is a function of the
friabilis package and the workload's prime table that returns a JSON value;
a cli cell is one argument list for `python -m friabilis`, and its value is
the command's stdout. Every value is compared with the one pinned in
reference.json (written by pin.py at the seed commit).

Only names and default caps that the ROADMAP keeps are used: no prime
cache, no `--jobs`/`jobs=`, no `segment_size`, `eps_guard`, `max_x` or
`memo_cap` overrides. Log x values that auto mode would pick are pinned as
numbers, so a better estimator cannot change how much work a cell does.
"""

import io
import math
import re
from numbers import Integral, Real

REL_TOL = 1e-9
# largest_feasible_log_x is a cap decision driven by the saddle estimate,
# which ROADMAP item 3 replaces on purpose; its pin only catches gross errors.
FEASIBLE_REL_TOL = 0.1


class Mismatch(Exception):
    """Counters that disagree, or a broken invariant, inside one cell."""


# --- count_int64 / count_huge -------------------------------------------------------


def _agree(results):
    counts = {r.count for r in results}
    if len(counts) != 1:
        raise Mismatch("counters disagree: "
                       + ", ".join(f"{r.method}={r.count}" for r in results))
    return results[0].count


def _int64(x, y, methods):
    def cell(F, table):
        results = []
        for m in methods:
            if m == "enum":
                results.append(F.psi_enumerate(None, table, y, x_exact=x))
            elif m == "sieve":
                results.append(F.psi_sieve(x, y))
            else:
                results.append(F.psi_buchstab(x, table, y))
        return {"count": _agree(results)}
    return cell


def _huge(y, x_exact=None, log_x=None):
    def cell(F, table):
        r = F.psi_enumerate(log_x, table, y, x_exact=x_exact)
        return {"count": r.count, "boundary_ambiguous": r.boundary_ambiguous}
    return cell


# --- analytic -----------------------------------------------------------------------

# a saddle point at y = 1e7 costs about 0.4 s (two alpha solves over 664,579
# primes), so that row keeps only its two ends
SADDLE_U = (2, 3, 5, 8, 13, 21, 34, 55, 89)
SADDLE_POINTS = ([(10 ** k, u) for k in range(1, 7) for u in SADDLE_U]
                 + [(10 ** 7, 2), (10 ** 7, 89)])
OSC_C = (1.2, 1.5, 1.8)
OSC_Y = tuple(10 ** (3 + i / 2) for i in range(9))
Q_Y = (1e3, 1e4, 1e5, 1e6, 1e7)
Q_ALPHA = (0.3, 0.45, 0.6, 0.75, 0.9)
FEASIBLE_C = (0.7, 1.0, 1.2, 1.5)
# largest_feasible_log_x(c, sieve_primes(10**6), max_count=1e6) at the seed,
# i.e. what `compare --c c --max-count 1e6` picks in auto mode. Each record
# counts about 1e6 integers by DFS; c = 1.2 and 1.5 are left out so that
# psi_exact stays a minor share of this workload.
REGIME_LOG_X = {0.7: 39.02542542948119, 1.0: 27.175944945121046}


def _saddle(y, u):
    def cell(F, table):
        log_x = u * math.log(y)
        st = F.solve_alpha(log_x, table, y)
        return {"alpha": st.alpha, "beta": st.beta,
                "psi_saddle": F.psi_saddle(log_x, table, y),
                "rho": F.rho(u), "rho_asymptotic": F.rho_asymptotic(u)}
    return cell


def _oscillation(c):
    def cell(F, table):
        buf = io.StringIO()
        F.write_oscillation_csv(F.oscillation_scan(c, OSC_Y, table), buf)
        return buf.getvalue()
    return cell


def _q_grid(F, table):
    return [list(F.q_integral(y, a, table)) for y in Q_Y for a in Q_ALPHA]


def _feasible(c):
    def cell(F, table):
        lx = F.largest_feasible_log_x(c, table)
        y = lx ** c
        if not (y <= table.limit and lx / math.log(y) <= F.default_grid().u_max):
            raise Mismatch(f"log x {lx} at c={c} is outside the table or grid")
        return {"log_x": lx}
    return cell


def _rho_grid_300(F, table):
    g = F.build_rho_grid(300)
    m = round(1 / g.h)
    return {"u_max": g.u_max, "nodes": len(g.log_rho),
            "log_rho": [float(g.log_rho[u * m]) for u in (50, 100, 200, 300)]}


def _regime(c):
    def cell(F, table):
        buf = io.StringIO()
        F.write_regime_csv([F.regime_record(REGIME_LOG_X[c], c, table)], buf)
        return buf.getvalue()
    return cell


# --- the workloads ------------------------------------------------------------------

# name -> {"table": prime-table limit built in set-up, "cells": [(name, fn, smoke)]}
IN_PROCESS = {
    "count_int64": {
        "table": 10 ** 4,
        "cells": [
            ("enum+buchstab Psi(1e12,30)", _int64(10 ** 12, 30, ("enum", "buchstab")), False),
            ("enum+sieve+buchstab Psi(1e7,1000)",
             _int64(10 ** 7, 1000, ("enum", "sieve", "buchstab")), False),
            ("sieve+buchstab Psi(3e7,100)", _int64(3 * 10 ** 7, 100, ("sieve", "buchstab")), True),
            ("buchstab Psi(1e10,300)", _int64(10 ** 10, 300, ("buchstab",)), True),
            ("buchstab Psi(1e8,1e4)", _int64(10 ** 8, 10 ** 4, ("buchstab",)), False),
        ],
    },
    "count_huge": {
        "table": 100,
        "cells": [
            ("enum x=2^64+13 y=13", _huge(13, x_exact=2 ** 64 + 13), False),
            ("enum x=1e19 y=11", _huge(11, x_exact=10 ** 19), False),
            ("enum x=1e30 y=7", _huge(7, x_exact=10 ** 30), True),
            ("enum log_x=100 y=10", _huge(10, log_x=100.0), False),
            ("enum log_x=150 y=5", _huge(5, log_x=150.0), True),
        ],
    },
    "analytic": {
        "table": 10 ** 7,
        "cells": (
            [(f"saddle y={y:g} u={u}", _saddle(y, u), y <= 10 ** 4) for y, u in SADDLE_POINTS]
            + [(f"oscillation_scan c={c}", _oscillation(c), False) for c in OSC_C]
            + [("q_integral 5x5", _q_grid, True)]
            + [(f"largest_feasible_log_x c={c}", _feasible(c), True) for c in FEASIBLE_C]
            + [("build_rho_grid(300)", _rho_grid_300, False)]
            + [(f"regime_record c={c}", _regime(c), c == 0.7) for c in REGIME_LOG_X]
        ),
    },
}

CLI = [
    ("rho --u 0.5", True),
    ("rho --u 20", False),
    ("xi --u 3", True),
    ("alpha --x 1e10 --y 1000", False),
    ("psi --x 1e6 --y 100 --method all", False),
    ("psi --x 1e12 --y 30", False),
    ("psi --x 1e10 --y 300 --method buchstab", False),
    ("primes --limit 10000000", False),
    ("oscillate --c 1.5 --y-min 1e3 --y-max 1e6 --y-steps 13", False),
    ("compare --c 0.7 --x 1e8 --x 1e10 --x 1e12", False),
]

WORKLOADS = tuple(IN_PROCESS) + ("cli",)


def cells(workload, smoke=False):
    """[(name, fn or argv)] of a workload, in their pinned order."""
    if workload == "cli":
        return [(cmd, cmd.split()) for cmd, s in CLI if s or not smoke]
    return [(name, fn) for name, fn, s in IN_PROCESS[workload]["cells"] if s or not smoke]


def setup(workload):
    """Import the package and build the prime table and default rho grid."""
    import friabilis as F

    table = F.sieve_primes(IN_PROCESS[workload]["table"])
    F.default_grid()
    return F, table


# --- checking -----------------------------------------------------------------------

_INT = re.compile(r"-?\d+\Z")
# a difference field is compared on the scale of the terms it subtracts
_DIFF_OF = {"diff": ("S", "I"), "measured_gap": ("log_psi_exact", "log_x_rho")}


def _token(s):
    if _INT.match(s):
        return int(s)
    try:
        return float(s)
    except ValueError:
        return s


def _close(got, want, rel=REL_TOL, scale=0.0):
    return abs(got - want) <= rel * max(abs(want), scale)


def _compare_text(got, want, where):
    # plain scalars and CSV alike: line by line, comma-separated tokens,
    # the first line naming the fields when it is a header
    gl, wl = got.splitlines(), want.splitlines()
    if len(gl) != len(wl):
        return [f"{where}: {len(gl)} lines, want {len(wl)}"]
    wrows = [[_token(t) for t in line.split(",")] for line in wl]
    header = wl[0].split(",") if all(isinstance(t, str) for t in wrows[0]) else None
    errors = []
    for i, (gline, wrow) in enumerate(zip(gl, wrows)):
        grow = [_token(t) for t in gline.split(",")]
        if len(grow) != len(wrow):
            errors.append(f"{where} line {i}: {gline!r}, want {wl[i]!r}")
            continue
        fields = dict(zip(header, wrow)) if header else {}
        for j, (g, w) in enumerate(zip(grow, wrow)):
            name = header[j] if header else str(j)
            scale = 0.0
            if isinstance(w, float) and name in _DIFF_OF:
                scale = max(abs(fields[k]) for k in _DIFF_OF[name])
            elif isinstance(w, float) and name == "normalized_diff":
                scale = max(abs(fields["S"]), abs(fields["I"])) / abs(fields["normalizer"])
            errors += _compare(g, w, f"{where} line {i} {name}", scale=scale)
    return errors


def _compare(got, want, where, rel=REL_TOL, scale=0.0):
    if isinstance(want, bool) or isinstance(want, str) and "\n" not in want:
        ok = got == want
    elif isinstance(want, str):
        return (_compare_text(got, want, where) if isinstance(got, str)
                else [f"{where}: got {got!r}, want text"])
    elif isinstance(want, int) and isinstance(got, Integral) and not isinstance(got, bool):
        ok = got == want
    elif isinstance(want, (int, float)) and isinstance(got, Real) and not isinstance(got, bool):
        ok = _close(float(got), float(want), rel, scale)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in _compare(g, w, f"{where}[{i}]", rel, scale)]
    elif isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [e for k in want for e in _compare(got[k], want[k], f"{where}.{k}", rel, scale)]
    else:
        ok = False
    return [] if ok else [f"{where}: got {got!r}, want {want!r}"]


def check(name, got, want):
    """Mismatch messages (empty when the value matches its pin)."""
    if want is None:
        return [f"{name}: no pinned value"]
    rel = FEASIBLE_REL_TOL if name.startswith("largest_feasible_log_x") else REL_TOL
    return _compare(got, want, name, rel)
