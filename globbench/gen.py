"""Seeded input generator, run in a process of its own so that the timed run
starts with cold caches:

    python3 gen.py WORKLOAD SEED > inputs.txt

The same seed gives the same inputs.  Inputs are text: a header line with
the query stream as packed (class, item) indices, then one JSON line per
pool item (tree literals, maps and globular sets).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    for line in workloads.generate(name, seed):
        sys.stdout.write(line + "\n")


if __name__ == "__main__":
    main()
