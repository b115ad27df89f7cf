"""Write reference.json: every cell's output, taken once from the current code.

    python3 perfbench/pin.py [--out PATH]

Run at the commit whose outputs are the reference. Counters inside a cell
must already agree, or the cell raises and nothing is written.
"""

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, _env, _provenance
import cells


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    prov = _provenance()
    ref = {"_meta": {k: prov[k] for k in ("git_commit", "python", "numpy", "scipy")}}
    for workload in cells.WORKLOADS:
        ref[workload] = {}
        if workload == "cli":
            for name, argv in cells.cells(workload):
                proc = subprocess.run([sys.executable, "-m", "friabilis"] + argv, cwd=ROOT,
                                      env=_env(), capture_output=True, check=True)
                ref[workload][name] = proc.stdout.decode()
        else:
            F, table = cells.setup(workload)
            for name, fn in cells.cells(workload):
                ref[workload][name] = fn(F, table)
        print(f"pinned {len(ref[workload])} cells of {workload}", file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
