"""Record a parent checkout and this repository, in alternating pairs, as BENCH_<n>.json.

    python3 tools/bench_record.py --n 12 --parent ../parent-checkout

For each workload that BENCHMARK.json names, runs `perfbench/run.py --trace 0`
in PAIRS pairs: one run in the parent checkout and one in this repository
(the change), with the pair's own seed on both sides and the side that runs
first alternating from pair to pair. The seeds are 100 n + 1 to 100 n +
PAIRS, so each BENCH file is measured on seeds of its own. Then one
`--trace 1` run per side and workload gives the per-layer metrics and the
self time of every span (`perfbench/spans.self_times` over the run's spans
file), and the tier-1 test command is timed once per side. Every run takes
SECONDS.

BENCH_<n>.json, at the root of this repository, holds under blocks[side]
each workload's end-to-end metrics (every run, their median and quartiles),
`correct`/`failed`/`attempted` over all its runs, the traced run's layer
metrics, span self times per traced pass and provenance, the `cli`
per-command medians, and the tier-1 wall time and summary line. Under
pairs[workload][metric] it counts the pairs in which the change reads
better and worse, in the direction BENCHMARK.json gives, and two verdicts:
`gain` when the change is better in at least WINS pairs and its median
beats the parent's by more than the parent's quartile distance, and
`beyond_bound` when its median is worse than the parent's by more than the
metric's relative bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from spans import self_times  # noqa: E402

PAIRS, SECONDS = 10, 20.0
# pairs the change must win for a claimed gain
WINS = 9
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _env(checkout):
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_bench(checkout, workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    stem = os.path.join(checkout, "perfbench", "results", f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json") as fh:
        record = json.load(fh)
    if trace:
        with open(stem + ".spans.json") as fh:
            spans = json.load(fh)["spans"]
        passes = len(record["samples"]["traced_walls"])
        # set-up spans (the prime sieve) count once in the totals
        record["span_self_s"] = {name: [s / passes, calls / passes] for name, (s, calls)
                                 in sorted(self_times(spans, 0, len(spans)).items())}
    return record


def _tier1(checkout):
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _block(runs, traced):
    """One side's figures for one workload from its untraced and traced runs."""
    entry = {"correct": all(r["correct"] for r in runs + [traced]),
             "failed": sum(r["failed"] for r in runs + [traced]),
             "attempted": sum(r["attempted"] for r in runs + [traced]),
             "end_to_end": {name: _spread([r["metrics"][name]["value"] for r in runs])
                            for name in runs[0]["metrics"]},
             "layers": {name: m["value"] for name, m in traced["metrics"].items()},
             "span_self_s": traced["span_self_s"],
             "provenance": traced["provenance"]}
    if traced["workload"] == "cli":
        entry["cmd_median_s"] = {cmd: statistics.median(r["cell_median_s"][cmd] for r in runs)
                                 for cmd in runs[0]["cell_median_s"]}
    return entry


def _verdict(parent, change, gaps, low, bound):
    """Pair counts and the gain / beyond-bound verdicts of one metric."""
    better = sum(g < 0 if low else g > 0 for g in gaps)
    worse = sum(g > 0 if low else g < 0 for g in gaps)
    sign = 1.0 if low else -1.0  # sign * (parent - change) > 0: the change is better
    lead = sign * (parent["median"] - change["median"])
    return {"change_better": better, "change_worse": worse,
            "gain": better >= WINS and lead > parent["q3"] - parent["q1"],
            "beyond_bound": -lead > bound * abs(parent["median"])}


def record(parent, n):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: (m["better"] == "lower", m["bound"]) for m in bench["end_to_end"]}
    seeds = [100 * n + i + 1 for i in range(PAIRS)]
    sides = {"parent": parent, "change": ROOT}
    blocks = {side: {"workloads": {}} for side in sides}
    pairs = {}
    for workload in workloads:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run_bench(sides[side], workload, seed, 0))
            print(f"{workload} pair {i + 1}/{PAIRS}: " + ", ".join(
                f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4g}"
                for side in sides), file=sys.stderr, flush=True)
        for side, checkout in sides.items():
            traced = _run_bench(checkout, workload, seeds[0], 1)
            blocks[side]["workloads"][workload] = _block(runs[side], traced)
        pairs[workload] = {}
        for name, (low, bound) in metrics.items():
            gaps = [c["metrics"][name]["value"] - p["metrics"][name]["value"]
                    for p, c in zip(runs["parent"], runs["change"])]
            pairs[workload][name] = _verdict(
                blocks["parent"]["workloads"][workload]["end_to_end"][name],
                blocks["change"]["workloads"][workload]["end_to_end"][name], gaps, low, bound)
    for side, checkout in sides.items():
        blocks[side]["tier1"] = _tier1(checkout)
    return {"pairs_per_workload": PAIRS, "seconds": SECONDS, "seeds": seeds,
            "blocks": blocks, "pairs": pairs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True, help="BENCH file number")
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    args = ap.parse_args()
    data = record(os.path.abspath(args.parent), args.n)
    path = os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, metrics in data["pairs"].items():
        for name, won in metrics.items():
            p = data["blocks"]["parent"]["workloads"][workload]["end_to_end"][name]
            c = data["blocks"]["change"]["workloads"][workload]["end_to_end"][name]
            print(f"{workload} {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f" change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f" change better in {won['change_better']}/{PAIRS};"
                  f" gain {'yes' if won['gain'] else 'no'},"
                  f" beyond bound {'YES' if won['beyond_bound'] else 'no'}")
    print(f"{path}: tier-1 parent {data['blocks']['parent']['tier1']['summary']!r},"
          f" change {data['blocks']['change']['tier1']['summary']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
