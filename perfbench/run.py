"""friabilis benchmark: one workload, one run, every metric by name with its unit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads: count_int64, count_huge, analytic, cli (see README.md).

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
untraced and traced passes in turn and reports the per-layer metrics: self
time per public function, call and work counts, start-up probes, and what
tracing costs. Every cell's output is checked against reference.json; the
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}. A full record with provenance goes to perfbench/results/.
"""

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
DEADLINE_S = 170.0
PROBES = 3

sys.path.insert(0, HERE)
import cells  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"),
              ("cmd_p50_s", "s"), ("cmd_tail_s", "s")]

# per-layer metric -> span name; ".s" takes its self time, ".calls" its calls
_SPAN_OF = {
    "psi_exact.enumerate": "psi_exact.psi_enumerate",
    "psi_exact.sieve": "psi_exact.psi_sieve",
    "psi_exact.buchstab": "psi_exact.psi_buchstab",
    "prime_tables.sieve_primes": "prime_tables.sieve_primes",
    "dickman.grid_build": "dickman.build_rho_grid",
    "dickman.rho": "dickman.rho",
    "dickman.xi_integral": "dickman.xi_integral",
    "dickman.int_exp": "dickman.int_exp",
    "dickman.rho_asymptotic": "dickman.rho_asymptotic",
    "dickman.xi": "dickman.xi",
    "saddle.solve_alpha": "saddle.solve_alpha",
    "saddle.psi_saddle": "saddle.psi_saddle",
    "saddle.zeta_partial": "saddle.zeta_partial",
    "saddle.prime_power_sums": "saddle.prime_power_sums",
    "theorem.regime_record": "theorem.regime_record",
    "theorem.largest_feasible_log_x": "theorem.largest_feasible_log_x",
    "theorem.oscillation_scan": "theorem.oscillation_scan",
    "theorem.oscillation_record": "theorem.oscillation_record",
    "theorem.q_integral": "theorem.q_integral",
    "cli.main": "cli.main",
}
_CALLS = ("psi_exact.buchstab", "prime_tables.sieve_primes", "dickman.rho",
          "dickman.xi", "saddle.solve_alpha", "saddle.psi_saddle")
CLI_SUBCOMMANDS = ("rho", "xi", "alpha", "psi", "primes", "oscillate", "compare")

PER_LAYER = (
    [("psi_exact.enumerate.s", "s"), ("psi_exact.enumerate.points", "count"),
     ("psi_exact.enumerate.ns_per_point", "ns"), ("psi_exact.enumerate.boundary_hits", "count"),
     ("prime_tables.primes_built", "count")]
    + [(f"{m}.s", "s") for m in _SPAN_OF if m != "psi_exact.enumerate"]
    + [(f"{m}.calls", "count") for m in _CALLS]
    + [("cli.interp_start_s", "s"), ("cli.import_s", "s")]
    + [(f"cli.{sub}.s", "s") for sub in CLI_SUBCOMMANDS]
    + [("trace.overhead_s", "s")]
)


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, deadline, what):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {what}")
    # own process group, so a timeout also ends the CLI commands a worker started
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{what} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {err.decode()[-2000:]}")
    return out.decode()


def _probe(cmd, deadline, what, cli=False):
    """Median wall time of PROBES fresh processes running cmd, each scaled
    by calibration probes taken just before and after it (the cli probe
    with `cli`, else the in-process one)."""
    import calib

    probe, ref = (calib.cli_probe, calib.CLI_REF_S) if cli else (calib.probe, calib.REF_S)
    times = []
    before = probe()
    for _ in range(PROBES):
        t0 = time.perf_counter()
        _run(cmd, deadline, what)
        seconds = time.perf_counter() - t0
        after = probe()
        times.append(seconds * ref / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def _worker(args, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload]
    return json.loads(_run(cmd + list(extra), deadline, f"{args.workload} worker").splitlines()[-1])


def _provenance():
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = None
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read(os.path.join(idx, "level"))
        if level and (llc is None or int(level) >= llc[0]):
            llc = (int(level), read(os.path.join(idx, "size")))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "llc": f"L{llc[0]} {llc[1]}" if llc else None,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_commit": commit}


def _cell_medians(latencies):
    by_cell = {}
    for name, _, scaled in latencies:
        by_cell.setdefault(name, []).append(scaled)
    return {name: statistics.median(v) for name, v in by_cell.items()}


def _end_to_end(raw, setup_samples):
    # a cell's latency is its median over the run's passes; p50 and tail are
    # taken over cells, so they do not shift with the number of passes
    per_cell = sorted(_cell_medians(raw["latencies"]).values())
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(raw["walls"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "cmd_p50_s": statistics.median(per_cell),
        "cmd_tail_s": statistics.quantiles(per_cell, n=10, method="inclusive")[-1],
    }


def _per_layer(raw, interp_s, import_s):
    layers, work = raw["layers"], raw["work"]
    out = {}
    for metric, span in _SPAN_OF.items():
        out[f"{metric}.s"] = layers.get(span, [0.0, 0])[0]
    for metric in _CALLS:
        out[f"{metric}.calls"] = layers.get(_SPAN_OF[metric], [0.0, 0])[1]
    points = work.get("points", 0)
    out["psi_exact.enumerate.points"] = points
    out["psi_exact.enumerate.ns_per_point"] = (
        out["psi_exact.enumerate.s"] * 1e9 / points if points else 0.0)
    out["psi_exact.enumerate.boundary_hits"] = work.get("boundary_hits", 0)
    out["prime_tables.primes_built"] = work.get("primes_built", 0)
    out["cli.interp_start_s"] = interp_s
    out["cli.import_s"] = import_s
    subs = raw.get("sub_seconds", {})
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.s"] = subs.get(sub, 0.0)
    out["trace.overhead_s"] = (statistics.median(raw["traced_walls"])
                               - statistics.median(raw["walls"]))
    return out


def _last_overhead(workload):
    files = sorted(glob.glob(os.path.join(RESULTS, f"{workload}-seed*-trace1.json")),
                   key=os.path.getmtime)
    if not files:
        return None
    with open(files[-1]) as fh:
        return {"value": json.load(fh)["metrics"]["trace.overhead_s"]["value"],
                "from": os.path.basename(files[-1])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="cheap cells only (self-test)")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="pinned outputs to check against")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "friabilis", "__init__.py")):
        print(f"no friabilis sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--reference", args.reference]
    if args.smoke:
        extra.append("--smoke")

    try:
        if args.trace:
            interp_s = _probe([sys.executable, "-c", "pass"], deadline, "interpreter probe")
            import_s = _probe([sys.executable, "-c", "import friabilis.cli"], deadline,
                              "import probe")
            spans_path = os.path.join(RESULTS, f"{tag}.spans.json")
            raw = _worker(args, deadline, extra + ["--spans-out", spans_path])
            metrics = _per_layer(raw, interp_s, import_s)
            units = dict(PER_LAYER)
        else:
            # set-up samples come before and after the passes, so that they
            # do not all fall into one slow stretch of a shared host
            if args.workload == "cli":
                probe = [sys.executable, "-m", "friabilis", "--version"]
                setup = [_probe(probe, deadline, "cli start-up probe", cli=True)]
                raw = _worker(args, deadline, extra)
                setup.append(_probe(probe, deadline, "cli start-up probe", cli=True))
            else:
                probe = [sys.executable, os.path.join(HERE, "worker.py"),
                         "--workload", args.workload, "--setup-only"]
                setup = [json.loads(_run(probe, deadline, "set-up probe"))["setup_s"]
                         for _ in range(2)]
                raw = _worker(args, deadline, extra)
                setup.append(raw["setup_s"])
                setup += [json.loads(_run(probe, deadline, "set-up probe"))["setup_s"]
                          for _ in range(2)]
            metrics = _end_to_end(raw, setup)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    for err in raw["errors"]:
        print(f"FAIL {err}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")

    provenance = _provenance()
    provenance["trace_overhead_s"] = (
        {"value": metrics["trace.overhead_s"], "from": "this run"} if args.trace
        else _last_overhead(args.workload))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "errors": raw["errors"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "cell_median_s": _cell_medians(raw["latencies"]),
        "samples": {"passes": len(raw["walls"]), "cmd": len(raw["latencies"]),
                    "walls": raw["walls"], "raw_walls": raw["raw_walls"],
                    "traced_walls": raw.get("traced_walls"),
                    "latencies": raw["latencies"],
                    "spans": raw.get("spans")},
        "provenance": provenance,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
