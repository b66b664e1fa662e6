"""One run process of the benchmark: a fresh interpreter, so every run starts
with the package's lru_cache tables empty.

    python3 worker.py WORKLOAD --queries N [--trace SPANS_PATH] < inputs

Set-up time runs from the first statement below, before globwork is
imported, until the first query is ready; it covers the import and the
workload's program set-up (such as building the tower), but not decoding the
inputs.  The timed phase is a closed loop over exactly the first N queries
of the decoded stream, so every process given the same inputs does the same
work, and traced counts repeat exactly.  Between queries, every
PROBE_EVERY_S of query time, the loop probes the machine's speed with a
reference unit of work (see ``speed.py``); probe time is left out of the
elapsed time and of every latency.  Prints one JSON object on stdout: raw
times and the speed factor that ``run.py`` applies.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import speed  # noqa: E402
import workloads  # noqa: E402  (imports globwork)

IMPORT_S = time.perf_counter() - T0

PROBE_EVERY_S = 0.1
WARMUP_PROBES = 10


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def class_summary(failed, latencies):
    ordered = sorted(latencies)
    return {
        "queries": len(ordered),
        "failed": failed,
        "mean_ms": sum(ordered) / len(ordered) * 1e3,
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
    }


def peak_rss_mb():
    """Peak resident memory of this process image.  Linux keeps ru_maxrss
    across exec, so it would also count the parent's memory at the fork;
    VmHWM starts afresh with the new image."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--queries", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS_PATH")
    args = ap.parse_args()

    package = os.path.dirname(os.path.abspath(workloads.theta.__file__))
    if package != os.path.join(SRC, "globwork"):
        sys.exit(f"globwork was imported from {package}, not from {SRC}")

    classes, functions, pools, stream = workloads.decode(args.workload, sys.stdin)
    start = time.perf_counter()
    ctx = workloads.WORKLOADS[args.workload].setup()
    setup_s = IMPORT_S + time.perf_counter() - start

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(workloads.P)

    samples = []
    for _ in range(WARMUP_PROBES):
        speed.probe(samples)

    latencies = []
    by_class = {}
    errors = []
    n_stream = len(stream) // 2
    clock = time.perf_counter
    probing = 0.0  # probe time inside the loop
    since_probe = 0.0
    start = clock()
    for i in range(args.queries):
        k = 2 * (i % n_stream)
        ci = stream[k]
        cls, fn, item = classes[ci], functions[ci], pools[ci][stream[k + 1]]
        t = clock()
        try:
            ok = tracer.run_query(i, cls, fn, ctx, item) if tracer else fn(ctx, item)
            err = None if ok else "check failed"
        except Exception as e:  # a query that raises counts as failed
            err = f"{type(e).__name__}: {e}"
        dt = clock() - t
        since_probe += dt
        if since_probe >= PROBE_EVERY_S:
            probing += speed.probe(samples)
            since_probe = 0.0
        latencies.append(dt)
        stats = by_class.setdefault(cls, [0, []])
        stats[1].append(dt)
        if err is not None:
            stats[0] += 1
            if len(errors) < 10:
                errors.append({"query": i, "class": cls, "error": err})
    n = args.queries
    elapsed = clock() - start - probing

    ordered = sorted(latencies)
    result = {
        "setup_s": setup_s,
        "queries": n,
        "failed": sum(s[0] for s in by_class.values()),
        "elapsed_s": elapsed,
        "throughput_qps": n / elapsed,
        "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
        "latency_p95_ms": percentile(ordered, 0.95) * 1e3,
        "beyond_p95": n - math.ceil(0.95 * n),
        "peak_rss_mb": peak_rss_mb(),
        "latencies_s": latencies,
        "speed": speed.factor(samples),
        "speed_samples": len(samples),
        "by_class": {c: class_summary(*s) for c, s in sorted(by_class.items())},
        "errors": errors,
    }
    if tracer:
        result["layers"] = {k: [v, unit] for k, (v, unit) in tracer.metrics().items()}
        result["spans"] = len(tracer.spans)
        tracer.write_spans(args.trace, start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
