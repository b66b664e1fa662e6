"""Smoke test: in a fast pass, every metric named in BENCHMARK.json is
emitted with its unit, on every workload, untraced and traced.

    python3 globbench/check_smoke.py

Exits 1 on the first workload whose result is incomplete or incorrect.
"""

import json
import os
import subprocess
import sys

from run import HERE, ROOT


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in wanted.items():
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0"]
            cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = result["metrics"]
            assert set(got) == {m["name"] for m in metrics}, set(got) ^ {m["name"] for m in metrics}
            for m in metrics:
                assert got[m["name"]]["unit"] == m["unit"], (m["name"], got[m["name"]])
                assert isinstance(got[m["name"]]["value"], (int, float)), (m["name"], got[m["name"]])
            print(f"ok {workload} trace={trace}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
