"""The globwork benchmark: one run of one workload.

    python3 globbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Inputs come from ``gen.py`` (a process of
its own), and every measurement runs in a fresh worker process, one at a
time, so no two runs share a cache or a core.

--trace 0  end-to-end metrics.  Sub-runs, each a fresh process issuing the
           same first SUBRUN_QUERIES[workload] queries, follow one another
           for about S seconds (at least MIN_SUBRUNS of them).  Each
           sub-run's times are scaled to the nominal machine speed by the
           reference probes of speed.py: the machine's speed drifts by up
           to a factor of two over minutes, and the scaling takes that
           drift out (see NOTES.md).  Throughput and latency percentiles
           are over the scaled queries of all sub-runs together, set-up
           time is the median of the sub-runs, peak RSS the largest.
--trace 1  per-layer metrics.  The first TRACE_QUERIES[workload] queries run
           untraced and then traced, each in a fresh process, so counts
           repeat exactly; the difference in throughput, both scaled to the
           nominal speed, is the tracing overhead.  Spans go to globbench/out/.
--smoke    a fast pass that only shows every metric is emitted.

The last line of stdout is the result; the line before it holds the run
metadata.  Exits 1 if any query failed its check, 2 if the package sources
are missing.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "globwork")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("oracle-sweep", "theta-search", "tower-terms", "cylinder-stacks")
# queries per sub-run: at least 200, so that 10 lie beyond p95; on
# oracle-sweep, one pass over the Steiner sweep (6 of every 20 queries)
SUBRUN_QUERIES = {"oracle-sweep": 860, "theta-search": 200, "tower-terms": 400, "cylinder-stacks": 600}
MIN_SUBRUNS = 3
TRACE_QUERIES = {"oracle-sweep": 1000, "theta-search": 300, "tower-terms": 800, "cylinder-stacks": 1000}
SMOKE = {"seconds": 0.0, "queries": 20, "trace_queries": 40}
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def child(args, stdin_text=None):
    """Run a benchmark script in a fresh interpreter; return its stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable] + args,
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def worker(workload, inputs, *flags):
    return json.loads(child([os.path.join(HERE, "worker.py"), workload, *flags], inputs))


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(workload, seed, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_untraced(workload, inputs, args, smoke):
    n = SMOKE["queries"] if smoke else SUBRUN_QUERIES[workload]
    seconds = SMOKE["seconds"] if smoke else args.seconds
    runs = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        runs.append(worker(workload, inputs, "--queries", str(n)))
        now = time.perf_counter()
        # another sub-run only if, at the last one's pace, it ends less
        # than half a sub-run after the deadline
        if len(runs) >= MIN_SUBRUNS and now + (now - t) / 2 > start + seconds:
            break
    setups = [r["setup_s"] * r["speed"] for r in runs]
    # the sub-runs' queries pooled, each at its sub-run's nominal-speed scale
    scaled = sorted(dt * r["speed"] for r in runs for dt in r["latencies_s"])
    queries = len(scaled)

    values = {
        "setup_s": statistics.median(setups),
        "throughput_qps": queries / sum(r["elapsed_s"] * r["speed"] for r in runs),
        "latency_p50_ms": percentile(scaled, 0.50) * 1e3,
        "latency_p95_ms": percentile(scaled, 0.95) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    failed = sum(r["failed"] for r in runs)
    detail = {
        "queries": queries,
        "failed_frac": failed / queries,
        "setup_samples_s": setups,
        "subruns": [{k: r[k] for k in ("setup_s", "speed", "speed_samples", "queries", "beyond_p95", "elapsed_s", "throughput_qps", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb", "by_class")} for r in runs],
        "beyond_p95": queries - math.ceil(0.95 * queries),
        "errors": [e for r in runs for e in r["errors"]][:10],
    }
    return queries, failed, metrics, detail


def run_traced(workload, inputs, seed, smoke):
    n = SMOKE["trace_queries"] if smoke else TRACE_QUERIES[workload]
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    plain = worker(workload, inputs, "--queries", str(n))
    traced = worker(workload, inputs, "--queries", str(n), "--trace", spans)
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in traced["layers"].items()}
    # both at the nominal speed, so drift between the two processes cancels
    overhead = 1.0 - (traced["throughput_qps"] / traced["speed"]) / (plain["throughput_qps"] / plain["speed"])
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    detail = {
        "queries": n,
        "failed_frac": (plain["failed"] + traced["failed"]) / (2 * n),
        "spans": traced["spans"],
        "spans_file": os.path.relpath(spans, ROOT),
        "untraced_qps": plain["throughput_qps"],
        "traced_qps": traced["throughput_qps"],
        "by_class": traced["by_class"],
        "errors": plain["errors"] + traced["errors"],
    }
    return 2 * n, plain["failed"] + traced["failed"], metrics, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no globwork sources under {os.path.relpath(PACKAGE, ROOT)}", file=sys.stderr)
        return 2
    # every worker imports from compiled bytecode, as after installation,
    # whether or not the environment lets processes write it themselves
    compileall.compile_dir(PACKAGE, quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    try:
        meta = metadata(args.workload, args.seed, args)
        inputs = child([os.path.join(HERE, "gen.py"), args.workload, str(args.seed)])
        if args.trace:
            attempted, failed, metrics, detail = run_traced(args.workload, inputs, args.seed, args.smoke)
        else:
            attempted, failed, metrics, detail = run_untraced(args.workload, inputs, args, args.smoke)
    except (ChildFailed, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    meta.update(detail)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
