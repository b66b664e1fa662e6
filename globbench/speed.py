"""The machine's current speed, measured by a fixed reference unit of work.

The machine the benchmark runs on may be shared: other tenants' load slows
the whole CPU, by up to a factor of two, for seconds to minutes at a time,
and the run process is not descheduled meanwhile, so process CPU time slows
just as wall time does.  The worker therefore interleaves short probes of a
reference unit with its queries.  The unit is pure Python of the same kind
as the package's work: an integer loop, which tracks the core's speed most
closely, and small objects with ``__eq__``/``__hash__``, tuples, dicts,
frozensets, recursion and sorting.  It never imports globwork and it does
the same work on every call, so its time moves with the machine and never
with the program.

``factor(samples)`` is the nominal time of one unit over the median time
measured: below 1 when the machine runs slow.  ``run.py`` multiplies times
by it and divides rates by it, which expresses them at the nominal speed,
that of a machine on which one unit takes ``NOMINAL_UNIT_S``.
"""

import statistics
import time

NOMINAL_UNIT_S = 0.0015
UNITS_PER_PROBE = 2


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))


def _walk(n, depth):
    if depth == 0:
        return (n,)
    return _walk(n, depth - 1) + _walk(n + 1, depth - 1)


def unit():
    """One reference unit of work; returns a checksum so nothing is skipped."""
    x = 0
    for i in range(10000):
        x = (x * 31 + i) & 0xFFFF
    counts = {}
    nodes = []
    for i in range(300):
        key = (i % 31, (i * 7919) % 257, i & 7)
        counts[key] = counts.get(key, 0) + 1
        nodes.append(_Node(key[0], frozenset(key)))
    return x + len(sorted(counts.items())) + len(set(nodes)) + len(_walk(0, 6))


def probe(samples):
    """Time UNITS_PER_PROBE units, one sample each; return the time spent."""
    clock = time.perf_counter
    start = clock()
    for _ in range(UNITS_PER_PROBE):
        t = clock()
        unit()
        samples.append(clock() - t)
    return clock() - start


def factor(samples):
    return NOMINAL_UNIT_S / statistics.median(samples)
