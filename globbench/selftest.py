"""Traced-run self-test: two traced runs with the same seed give exactly the
same counts, and the tracing overhead of each workload is reported.

    python3 globbench/selftest.py [--seed N] [WORKLOAD ...]

Compares every per-layer metric measured as a count or a ratio of counts
(``*.calls``, ``theta.hom.maps``, ``theta.filler.scanned``,
``steiner.vectors_tried``, ``cylinders.squares``, ``cache.*`` and the rest);
times (``*.self_s``, ``trace_overhead_frac``) are only printed.  Exits 1 on
any difference or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def traced(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    bad = 0
    for workload in args.workloads:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counted = sorted(k for k, m in first.items() if m["unit"] in ("count", "ratio"))
        diff = [k for k in counted if first[k]["value"] != second[k]["value"]]
        overhead = [round(m["trace_overhead_frac"]["value"], 3) for m in (first, second)]
        print(f"{workload}: {len(counted) - len(diff)}/{len(counted)} counts repeat; trace_overhead_frac {overhead}")
        for k in diff:
            print(f"  {k}: {first[k]['value']} != {second[k]['value']}")
        bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
