"""Record one checkout's benchmark numbers as a block of BENCH_<n>.json.

    python3 tools/bench_record.py --n 10 --label change
    python3 tools/bench_record.py --n 10 --label parent --checkout ../parent-clone

Runs `perfbench/run.py` of the checkout (default: this repository) for each
workload at --trace 0 and --trace 1 (seed 1, 20 s), then times the tier-1
test command there. The block holds each workload's end-to-end and
per-layer metrics, `correct`/`failed` and run.py's provenance of the traced
run, the `cli` per-command medians, and the tier-1 wall time and summary
line. It is written under blocks[label] of BENCH_<n>.json at the root of
this repository; blocks already in the file are kept, so two checkouts can
share one file.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("count_int64", "count_huge", "analytic", "cli")
SEED, SECONDS = 1, 20.0
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _env(checkout):
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_bench(checkout, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    path = os.path.join(checkout, "perfbench", "results",
                        f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def _tier1(checkout):
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def _values(metrics):
    return {name: m["value"] for name, m in metrics.items()}


def record(checkout):
    block = {"workloads": {}, "seed": SEED, "seconds": SECONDS}
    for workload in WORKLOADS:
        e2e = _run_bench(checkout, workload, 0)
        layers = _run_bench(checkout, workload, 1)
        entry = {"correct": e2e["correct"] and layers["correct"],
                 "failed": e2e["failed"] + layers["failed"],
                 "end_to_end": _values(e2e["metrics"]),
                 "layers": _values(layers["metrics"]),
                 "provenance": layers["provenance"]}
        if workload == "cli":
            entry["cmd_median_s"] = e2e["cell_median_s"]
        block["workloads"][workload] = entry
    block["tier1"] = _tier1(checkout)
    return block


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True, help="BENCH file number")
    ap.add_argument("--label", required=True, help="block name, e.g. parent or change")
    ap.add_argument("--checkout", default=ROOT, help="checkout to measure (default: this one)")
    args = ap.parse_args()
    block = record(os.path.abspath(args.checkout))
    path = os.path.join(ROOT, f"BENCH_{args.n}.json")
    data = {"blocks": {}}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["blocks"][args.label] = block
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{path}: block {args.label!r}, tier-1 {block['tier1']['summary']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
