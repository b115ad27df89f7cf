"""Command-line front end.

Subcommands: primes, rho, xi, alpha, psi, compare, oscillate.  Scalar
queries print a single value; every command also emits its rows as CSV
(the default of compare and oscillate) or JSON.  JSON output is one
object {"meta": {...}, "rows": [...]} where meta echoes the resolved
configuration.  Identical invocations produce
byte-identical output: no randomness, no timestamps, repr-stable floats.

Exit codes: 0 success, 2 usage (including a float option given as nan
or inf), 3 domain/range error (including an --output path that cannot be
opened for writing), 4 resource cap, 5 exact methods disagree.  --output
is written to a temporary file in the same directory and renamed over
PATH only on success.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from decimal import Decimal, InvalidOperation

from . import __version__
from .dickman import default_grid, rho, xi
from .errors import DisagreementError, DomainError, ResourceError, short_int
from .prime_tables import sieve_primes
from .psi_exact import psi_buchstab, psi_enumerate, psi_sieve
from .saddle import solve_alpha
from .theorem import (
    largest_feasible_log_x,
    oscillation_scan,
    regime_record,
    regime_y,
    write_oscillation_csv,
    write_regime_csv,
)


# most digits of an x written out; 10^(10^5) builds in milliseconds, while
# int(Decimal) took about 57 s at 10^(10^6)
_MAX_X_DIGITS = 100_000
# most points of an oscillate grid: each point solves alpha and sums over the
# primes up to y, 53 ms a point near y = 1e7 at c = 1.5 (one core of a 2-vCPU VM)
_MAX_Y_STEPS = 1_000


def _parse_x(text: str) -> tuple:
    """(x, form): x from a decimal integer or scientific literal (1e18),
    exactly, and the form it was written in, "decimal" or "scientific".

    Integrality and size are read off the Decimal itself, and the int is
    built from its digits times a power of 10, so no huge exponent is
    expanded before it is refused.
    """
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not d.is_finite() or d != d.to_integral_value() or d < 1:
        raise argparse.ArgumentTypeError(f"x must be a positive integer, got {text!r}")
    if d.adjusted() >= _MAX_X_DIGITS:
        raise argparse.ArgumentTypeError(
            f"x has more than {_MAX_X_DIGITS} digits; give its logarithm as --log-x")
    _, digits, exp = d.as_tuple()
    if exp < 0:  # integral: the digits past the point are zeros
        digits, exp = digits[:exp], 0
    form = "scientific" if "e" in text.lower() else "decimal"
    return int(Decimal((0, digits, 0))) * 10**exp, form


def _finite(text: str) -> float:
    """A float option; nan and infinities are usage errors."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _open_for_write(path: str, shown: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise DomainError(f"cannot write {shown}: {exc.strerror or exc}") from exc


def _clean(v):
    # JSON has no NaN/inf; emit null and let readers treat it as absent
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _emit_json(meta: dict, rows: list, fh) -> None:
    doc = {"meta": {"version": __version__, "config": meta},
           "rows": [{k: _clean(v) for k, v in row.items()} for row in rows]}
    json.dump(doc, fh, indent=2)
    fh.write("\n")


def _csv_cell(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _emit(args, meta: dict, rows, fh, *, scalar=None, write_csv=None) -> None:
    """Write a result in --format.  plain prints scalar if the command has
    one and is CSV otherwise; CSV is write_csv if given, else the row dicts
    under a header of their keys, floats .17g and the rest with str.  rows
    may be a generator, so plain output never builds them."""
    if args.format == "plain" and scalar is not None:
        fh.write(f"{scalar!r}\n")
    elif args.format == "json":
        _emit_json(meta, rows, fh)
    elif write_csv is not None:
        write_csv(fh)
    else:
        rows = iter(rows)
        first = next(rows)
        fh.write(",".join(first) + "\n")
        for row in (first, *rows):
            fh.write(",".join(map(_csv_cell, row.values())) + "\n")


# --- subcommand bodies --------------------------------------------------------------


def _run_primes(args, fh) -> None:
    table = sieve_primes(args.limit)
    meta = {"subcommand": "primes", "limit": args.limit, "format": args.format}

    def rows():
        for p, lp in zip(table.primes.tolist(), table.log_primes.tolist()):
            yield {"p": p, "log_p": lp}

    _emit(args, meta, rows(), fh, scalar=len(table.primes))


def _write_rho_grid(fh) -> None:
    # u,log_rho at default_grid's nodes i/128 up to u = 128, 17 significant digits
    grid = default_grid()
    fh.write("u,log_rho\n")
    fh.writelines(f"{i * grid.h:.17g},{v:.17g}\n" for i, v in enumerate(grid.log_rho.tolist()))


def _run_rho(args, fh) -> None:
    if args.export_grid:
        if args.u is not None:
            raise DomainError("rho takes --u or --export-grid, not both")
        if args.format == "json":
            raise DomainError("rho --export-grid writes CSV only, not --format json")
        _write_rho_grid(fh)
        return
    if args.u is None:
        raise DomainError("rho needs --u or --export-grid")
    lr = rho(args.u)
    meta = {"subcommand": "rho", "u": args.u, "log": args.log, "format": args.format}
    rows = [{"u": args.u, "log_rho": lr, "rho": math.exp(lr)}]
    _emit(args, meta, rows, fh, scalar=lr if args.log else math.exp(lr))


def _run_xi(args, fh) -> None:
    xv = xi(args.u)
    meta = {"subcommand": "xi", "u": args.u, "format": args.format}
    _emit(args, meta, [asdict(xv)], fh, scalar=xv.xi)


def _resolve_x(args) -> tuple:
    # returns (log_x, x_exact or None, form)
    if args.log_x is not None and args.x is not None:
        raise DomainError("give either --x or --log-x, not both")
    if args.log_x is not None:
        return args.log_x, None, "log"
    if args.x is None:
        raise DomainError("an x is required: --x or --log-x")
    x, form = args.x
    return math.log(x), x, form


def _run_alpha(args, fh) -> None:
    log_x, _, form = _resolve_x(args)
    table = sieve_primes(math.ceil(args.y))
    state = solve_alpha(log_x, table, args.y)
    meta = {"subcommand": "alpha", "x_form": form, "log_x": log_x,
            "y": args.y, "format": args.format}
    # the residual is a property, read after the fields, so it stays the last column
    row = {**asdict(state), "solver_residual": state.solver_residual}
    _emit(args, meta, [row], fh, scalar=state.alpha)


def _run_psi(args, fh) -> None:
    log_x, x_exact, form = _resolve_x(args)
    if x_exact is None and args.method != "enum":
        raise DomainError(f"method {args.method} needs an exact --x, not --log-x")
    if args.y < 2.0:
        raise DomainError(f"psi needs y >= 2, got y={args.y}")
    # primes above x never enter a factorization of n <= x, so the table
    # (and the y handed to the methods) can stop at x; exp(log_x) is only
    # taken below log y, where it cannot overflow
    y_eff = args.y
    if log_x < math.log(args.y):
        y_eff = min(args.y, math.floor(math.exp(log_x)) + 1.0)
    table = None
    if args.method in ("enum", "buchstab", "all"):
        table = sieve_primes(math.ceil(y_eff))

    results = []
    if args.method in ("enum", "all"):
        results.append(psi_enumerate(log_x, table, y_eff, x_exact=x_exact,
                                     max_count=args.max_count))
    if args.method in ("sieve", "all"):
        results.append(psi_sieve(x_exact, y_eff))
    if args.method in ("buchstab", "all"):
        results.append(psi_buchstab(x_exact, table, y_eff))
    counts = {r.count for r in results}
    if len(counts) != 1:
        raise DisagreementError(
            "methods disagree: " + ", ".join(f"{r.method}={r.count}" for r in results))

    meta = {"subcommand": "psi", "x_form": form, "log_x": log_x, "y": args.y,
            "method": args.method, "max_count": args.max_count, "format": args.format}
    _emit(args, meta, [asdict(r) for r in results], fh, scalar=counts.pop())


def _run_compare(args, fh) -> None:
    log_xs = [(math.log(n), n, form) for n, form in (args.x or [])]
    log_xs += [(lx, None, "log") for lx in (args.log_x or [])]
    if not log_xs:
        # no x given: take the largest one the caps admit at this c
        probe = sieve_primes(10**6)
        lx = largest_feasible_log_x(args.c, probe, max_count=args.max_count)
        log_xs = [(lx, None, "auto")]
    max_y = max(regime_y(lx, args.c) for lx, _, _ in log_xs)
    table = sieve_primes(math.ceil(max(max_y, 3.0)))
    records = [regime_record(lx, args.c, table, x_exact=n, max_count=args.max_count)
               for lx, n, _ in log_xs]
    meta = {"subcommand": "compare", "c": args.c,
            "x_forms": [form for _, _, form in log_xs],
            "log_x": [lx for lx, _, _ in log_xs],
            "max_count": args.max_count, "format": args.format}
    _emit(args, meta, [asdict(r) for r in records], fh,
          write_csv=lambda out: write_regime_csv(records, out))


def _run_oscillate(args, fh) -> None:
    if args.y_steps < 1:
        raise DomainError(f"need at least one step, got {args.y_steps}")
    if args.y_steps > _MAX_Y_STEPS:
        raise ResourceError(f"--y-steps {short_int(args.y_steps)} exceeds cap {_MAX_Y_STEPS}")
    if not args.y_min > 0.0:
        raise DomainError(f"need y-min > 0, got {args.y_min}")
    if args.y_max < args.y_min:
        raise DomainError(f"y-max {args.y_max} below y-min {args.y_min}")
    if args.y_steps == 1:
        ys = [args.y_min]
    else:
        # geometric grid; endpoint pinned so float drift cannot push past y_max
        ratio = (args.y_max / args.y_min) ** (1.0 / (args.y_steps - 1))
        ys = [min(args.y_min * ratio ** i, args.y_max)
              for i in range(args.y_steps - 1)]
        ys.append(args.y_max)
    table = sieve_primes(math.ceil(args.y_max))
    records = oscillation_scan(args.c, ys, table)
    meta = {"subcommand": "oscillate", "c": args.c, "y_min": args.y_min,
            "y_max": args.y_max, "y_steps": args.y_steps, "format": args.format}
    _emit(args, meta, [asdict(r) for r in records], fh,
          write_csv=lambda out: write_oscillation_csv(records, out))


# --- parser and dispatch ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="friabilis",
                                description="Friable-integer counts and their asymptotics.")
    p.add_argument("--version", action="version", version=f"friabilis {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, default_format="plain"):
        sp.add_argument("--format", choices=("plain", "csv", "json"),
                        default=default_format)
        sp.add_argument("--output", default=None, metavar="PATH")

    def x_args(sp):
        sp.add_argument("--x", type=_parse_x, default=None,
                        help="x as decimal or scientific (1e18)")
        sp.add_argument("--log-x", type=_finite, default=None,
                        help="log x, for x too large to write out")

    sp = sub.add_parser("primes", help="prime table up to a limit")
    sp.add_argument("--limit", type=int, required=True)
    common(sp)

    sp = sub.add_parser("rho", help="Dickman rho at u")
    sp.add_argument("--u", type=_finite, default=None)
    sp.add_argument("--log", action="store_true", help="print log rho instead")
    sp.add_argument("--export-grid", action="store_true",
                    help="write the rho grid as CSV instead of rho at --u")
    common(sp)

    sp = sub.add_parser("xi", help="xi(u): the nonzero root of e^xi = 1 + u xi")
    sp.add_argument("--u", type=_finite, required=True)
    common(sp)

    sp = sub.add_parser("alpha", help="saddle point alpha(x, y)")
    x_args(sp)
    sp.add_argument("--y", type=_finite, required=True)
    common(sp)

    sp = sub.add_parser("psi", help="exact count of y-friable n <= x")
    x_args(sp)
    sp.add_argument("--y", type=_finite, required=True)
    sp.add_argument("--method", choices=("enum", "sieve", "buchstab", "all"),
                    default="enum")
    sp.add_argument("--max-count", type=_finite, default=1e8)
    common(sp)

    sp = sub.add_parser("compare", help="regime records: measured vs predicted gap")
    sp.add_argument("--c", type=_finite, required=True)
    sp.add_argument("--x", type=_parse_x, action="append",
                    help="x value, repeatable; omit to auto-select the largest feasible")
    sp.add_argument("--log-x", type=_finite, action="append")
    sp.add_argument("--max-count", type=_finite, default=1e8)
    common(sp, default_format="csv")

    sp = sub.add_parser("oscillate", help="oscillation scan over a y grid")
    sp.add_argument("--c", type=_finite, required=True)
    sp.add_argument("--y-min", type=_finite, required=True)
    sp.add_argument("--y-max", type=_finite, required=True)
    sp.add_argument("--y-steps", type=int, required=True)
    common(sp, default_format="csv")

    return p


_BODIES = {
    "primes": _run_primes,
    "rho": _run_rho,
    "xi": _run_xi,
    "alpha": _run_alpha,
    "psi": _run_psi,
    "compare": _run_compare,
    "oscillate": _run_oscillate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = None
    try:
        if args.output:
            tmp = f"{args.output}.{os.getpid()}.tmp"
            out = _open_for_write(tmp, args.output)
        _BODIES[args.subcommand](args, out or sys.stdout)
        if out is not None:
            out.close()
            os.replace(tmp, args.output)
            out = None
        return 0
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except DisagreementError as exc:
        print(f"disagreement: {exc}", file=sys.stderr)
        return 5
    except BrokenPipeError:
        # reader went away (e.g. piped into head); not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if out is not None:  # the body failed: drop the partial output
            out.close()
            os.unlink(tmp)


if __name__ == "__main__":
    sys.exit(main())
