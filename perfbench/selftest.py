"""Self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

1. A smoke-sized run of every workload, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and no failure.
2. A deliberately wrong pinned value is counted as a failure, not skipped.
3. The output checks: a float off by more than the tolerance, a count off
   by one, and changed CLI text each fail; last-digit noise passes.
4. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

from run import HERE, RESULTS, ROOT
import cells


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(RESULTS, exist_ok=True)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = _last_json(_run(["--workload", w["name"], "--seed", "7", "--seconds", "0",
                                   "--trace", str(trace), "--smoke"]))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            print(f"ok   smoke {w['name']} trace={trace}: {len(got)} metrics, "
                  f"fail_frac 0/{res['attempted']}")

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref["count_huge"]["enum x=1e30 y=7"]["count"] += 1
    bad = os.path.join(RESULTS, "selftest-reference.json")
    with open(bad, "w") as fh:
        json.dump(ref, fh)
    res = _last_json(_run(["--workload", "count_huge", "--seed", "7", "--seconds", "0",
                           "--trace", "0", "--smoke", "--reference", bad]))
    os.remove(bad)
    assert not res["correct"] and res["failed"] == 2, res
    print(f"ok   wrong pin counted: {res['failed']}/{res['attempted']} failed")

    assert cells.check("x", {"v": 1.0 + 1e-7}, {"v": 1.0})
    assert not cells.check("x", {"v": 1.0 + 1e-12}, {"v": 1.0})
    assert cells.check("x", {"count": 1381208}, {"count": 1381207})
    assert cells.check("x", "a,b\n1,2.5\n", "a,b\n1,2.6\n")
    assert cells.check("x", "a,b\n2,2.5\n", "a,b\n1,2.5\n")
    assert not cells.check("x", "a,b\n1,2.5000000000001\n", "a,b\n1,2.5\n")
    print("ok   tolerances: counts exact, floats to 1e-9 relative")

    bare = os.path.join(RESULTS, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(["--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without sources: exit {proc.returncode}, nothing printed")


if __name__ == "__main__":
    main()
