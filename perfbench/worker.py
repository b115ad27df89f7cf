"""Run one workload in this process and print its raw figures as one JSON line.

    python perfbench/worker.py --workload W --seed N --seconds S --trace T --reference R
    python perfbench/worker.py --workload W --setup-only

run.py starts this in a fresh process per run, so that peak memory is the
workload's own, with PYTHONPATH pointing at the checkout's src/. A pass runs
every cell once, in an order drawn from the seed; passes repeat while that
brings the measured time closer to --seconds, and at least twice. With
--trace 1, untraced and traced passes alternate, and the set-up is traced.

Each cell is timed from its call to the end of its check. Between cells,
at most every INTERVAL_S, a calibration probe runs (see calib.py), and the
cells since the previous probe are scaled by the probe's reference time
over the mean of the two probes around them.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import cells
from spans import Tracer, dump, self_times

MIN_PASSES = 2
INTERVAL_S = 0.5


class Clock:
    """Scales cell times to quiet-machine seconds with probes between cells."""

    def __init__(self, probe, ref):
        self.probe, self.ref = probe, ref
        self.last = probe()
        self.t_last = time.perf_counter()
        self.pending = []

    def add(self, record):
        # record is [name, raw seconds, scaled seconds (filled in by settle)]
        self.pending.append(record)
        if time.perf_counter() - self.t_last >= INTERVAL_S:
            self.settle()

    def settle(self):
        probe = self.probe()
        factor = self.ref / (0.5 * (probe + self.last))
        for record in self.pending:
            record[2] = record[1] * factor
        self.pending.clear()
        self.last = probe
        self.t_last = time.perf_counter()


def _run_cells(order, runner, reference, stats, clock):
    """One pass; returns its (raw, scaled) time. Records latencies and failures."""
    records = []
    for name, payload in order:
        c0 = time.perf_counter()
        try:
            got = runner(name, payload)
            errors = cells.check(name, got, reference.get(name))
        except Exception as exc:  # any failure of the program under test counts
            errors = [f"{name}: {type(exc).__name__}: {exc}"]
        records.append([name, time.perf_counter() - c0, None])
        # the counters' recursive closures keep their memo tables in reference
        # cycles; collecting here makes peak memory that of the largest cell,
        # not of however many cells the collector let pile up
        gc.collect()
        clock.add(records[-1])
        stats["attempted"] += 1
        if errors:
            stats["failed"] += 1
            stats["errors"].extend(errors[:3])
    clock.settle()
    stats["latencies"].extend(records)
    return sum(r[1] for r in records), sum(r[2] for r in records)


class _Cli:
    """Runs cli cells as subprocesses; checks stdout is identical across passes."""

    def __init__(self, root):
        self.root = root
        self.first_stdout = {}
        self.span_files = []
        self.traced = False
        self.sub_seconds = {}

    def __call__(self, name, argv):
        if self.traced:
            fd, path = tempfile.mkstemp(suffix=".json", dir=os.path.join(self.root, "perfbench",
                                                                         "results"))
            os.close(fd)
            self.span_files.append(path)
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "clitrace.py"), path]
        else:
            cmd = [sys.executable, "-m", "friabilis"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + argv, cwd=self.root, capture_output=True, timeout=120)
        if not self.traced:
            sub = argv[0]
            self.sub_seconds[sub] = self.sub_seconds.get(sub, 0.0) + time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        first = self.first_stdout.setdefault(name, proc.stdout)
        if proc.stdout != first:
            raise cells.Mismatch("stdout differs from an earlier repeat in this run")
        return proc.stdout.decode()

    def collect_spans(self):
        spans, work = [], {}
        for path in self.span_files:
            with open(path) as fh:
                doc = json.load(fh)
            os.remove(path)
            base = len(spans)
            spans += [[n, t0, t1, p + base if p >= 0 else -1] for n, t0, t1, p in doc["spans"]]
            for k, v in doc["work"].items():
                work[k] = work.get(k, 0) + v
        return spans, work


def _layer_figures(spans, n_setup, setup_factor, pass_factor, work_setup, work, n_traced):
    """Self time and calls per span name, and work counts: the set-up once
    plus the mean of one traced pass, times scaled like the cells."""
    setup = self_times(spans, 0, n_setup)
    passes = self_times(spans, n_setup, len(spans))
    per = {}
    for name in set(setup) | set(passes):
        s = setup.get(name, [0.0, 0])
        p = passes.get(name, [0.0, 0])
        per[name] = [s[0] * setup_factor + p[0] * pass_factor / n_traced,
                     s[1] + p[1] / n_traced]
    counts = {k: work_setup.get(k, 0) + (work.get(k, 0) - work_setup.get(k, 0)) / n_traced
              for k in set(work) | set(work_setup)}
    return per, counts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracer = Tracer() if args.trace else None
    result = {"setup_s": None}

    if args.workload == "cli":
        import calib

        runner = _Cli(root)
        clock = Clock(calib.cli_probe, calib.CLI_REF_S)
        n_setup, work_setup, setup_factor = 0, {}, 1.0
    else:
        # set-up is timed before the probe's numpy import can shorten it
        t0 = time.perf_counter()
        import friabilis

        if tracer:
            tracer.install(friabilis)
        F, table = cells.setup(args.workload)
        raw_setup = time.perf_counter() - t0
        import calib

        clock = Clock(calib.probe, calib.REF_S)
        setup_factor = calib.REF_S / statistics.median([clock.last, calib.probe(), calib.probe()])
        result["setup_s"] = raw_setup * setup_factor
        if args.setup_only:
            print(json.dumps(result))
            return
        n_setup = len(tracer.spans) if tracer else 0
        work_setup = dict(tracer.work) if tracer else {}
        if tracer:
            tracer.uninstall()

        def runner(name, fn):
            return fn(F, table)

    with open(args.reference) as fh:
        reference = json.load(fh)[args.workload]
    ops = cells.cells(args.workload, args.smoke)
    rng = random.Random(args.seed)
    stats = {"latencies": [], "attempted": 0, "failed": 0, "errors": []}
    walls, traced_walls, raw_walls = [], [], []
    traced_raw = 0.0
    t_start = time.perf_counter()
    n, wall = 0, 0.0
    # stop where the measured time lands closest to --seconds
    while n < MIN_PASSES or time.perf_counter() - t_start + wall / 2 < args.seconds:
        order = ops[:]
        rng.shuffle(order)
        traced = bool(tracer) and n % 2 == 1
        if traced and args.workload == "cli":
            runner.traced = True
        elif traced:
            tracer.install(friabilis)
        raw, scaled = _run_cells(order, runner, reference, stats, clock)
        wall = raw
        if traced and args.workload == "cli":
            runner.traced = False
        elif traced:
            tracer.uninstall()
        if traced:
            traced_walls.append(scaled)
            traced_raw += raw
        else:
            walls.append(scaled)
            raw_walls.append(raw)
        n += 1

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(walls=walls, raw_walls=raw_walls, latencies=stats["latencies"],
                  attempted=stats["attempted"], failed=stats["failed"],
                  errors=stats["errors"][:20],
                  peak_rss_mib=resource.getrusage(usage).ru_maxrss / 1024.0)
    if tracer:
        if args.workload == "cli":
            spans, work = runner.collect_spans()
            result["sub_seconds"] = {k: v * sum(walls) / sum(raw_walls) / len(walls)
                                     for k, v in runner.sub_seconds.items()}
        else:
            spans, work = tracer.spans, tracer.work
        pass_factor = sum(traced_walls) / traced_raw
        per, counts = _layer_figures(spans, n_setup, setup_factor, pass_factor,
                                     work_setup, work, len(traced_walls))
        result.update(traced_walls=traced_walls, layers=per, work=counts, spans=len(spans))
        dump(args.spans_out, spans, work)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
