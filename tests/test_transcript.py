"""The CLI's answers locked in a committed transcript.

``tests/cli_transcript.txt`` holds one line per command line of the corpus
below: the exit code, sha256 prefixes of stdout and stderr, and the argv as
JSON.  A diff of the file names each command whose output moved.  In an
argv, the value after ``--file`` is the file's contents, not a path: the
runner writes it to a temporary file and passes that file's path.

The corpus:

- every ``tree`` action plain, with ``--json`` and with ``--dot``, and
  ``lins`` plain, with ``--json`` and with ``--dot 0``, on the 23 trees of
  at most 5 nodes; then ``lins --dot`` at every index and one past the end;
- the five ``theta`` actions on every pair of the 9 trees of at most 4
  nodes (``hom`` plain, ``homogeneous`` without ``--index``, the others at
  ``--index 0``); then ``hom --json`` and ``--count`` on every pair, and on
  the maps of each pair (every map when there are at most 6, else 6 spread
  over the set) ``factor --json``, ``homogeneous``, and ``filler`` and both
  kinds of ``admissible`` against the first and the last map;
- ``theory build|audit|cofibs|interval`` for n = 1..4, with and without
  ``--groupoidalize`` and ``--json``;
- every ``cyl`` action for k = 0..3, plain, with ``--json`` and with
  ``--dot``, on the 23 trees;
- ``theory build|audit --file`` on each text of ``FILE_TEXTS``
  (tests/test_cli.py) in four flag sets, and ``theory build --file`` on one
  operation per ``{"leaf", "chain"}`` address of ``[[[]][]]``, both kinds,
  with the malformed addresses beside them;
- the four ``theta`` map actions with each map of ``FUZZ_MAPS``
  (tests/test_cli.py) on three pairs of trees;
- the ``check`` suites at small sizes, and their size refusals.

Usage errors (exit 2) are left out: their text is argparse's, and it
changes between Python versions.  A command that raises is not recorded;
the generator fails instead.

One test reruns every line in fresh interpreters under PYTHONHASHSEED 1
and 2 and compares the bytes with the committed file.  Regenerate only for
an intended change of output, and list each changed command in CHANGES.md:
``PYTHONPATH=src python tests/test_transcript.py``.  CI runs it and then
``git diff --exit-code tests/cli_transcript.txt``.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from globwork.cli import main
from globwork.theta import hom
from globwork.trees import all_trees, leaf_paths, parse_tree
from test_cli import FILE_TEXTS, FUZZ_MAPS

TRANSCRIPT = pathlib.Path(__file__).parent / "cli_transcript.txt"
NINE_TREE = "[[[][]][]]"
ADDRESS_TREE = "[[[]][]]"


def _spread(n, most):
    """Up to ``most`` indices spread evenly over range(n), first and last
    included."""
    if n <= most:
        return list(range(n))
    return sorted({round(i * (n - 1) / (most - 1)) for i in range(most)})


def _chains(height):
    """Every chain of at most ``height`` faces, shortest first."""
    chains = [""]
    for _ in range(height):
        chains += [c + side for c in chains if len(c) == len(chains[-1]) for side in "st"]
    return chains


def _address_item(address, k):
    return {"name": "cell", "arity": ADDRESS_TREE, "k": k, "src": {"cells": [address]}, "tgt": {"cells": [address]}}


def _address_files():
    """One one-item batch per address of ADDRESS_TREE: an operation with
    the addressed cell on both sides, of one dimension more than the cell;
    then malformed addresses."""
    texts = []
    for leaf, path in enumerate(leaf_paths(parse_tree(ADDRESS_TREE))):
        for chain in _chains(len(path)):
            address = {"leaf": leaf, "chain": chain}
            texts.append(_address_item(address, len(path) - len(chain) + 1))
    for address in ({"leaf": 2}, {"leaf": -1}, {"leaf": "0"}, {"leaf": 0, "chain": "sss"},
                    {"leaf": 1, "chain": "st"}, {"leaf": 0, "chain": "x"}, {"leaf": 1}):
        texts.append(_address_item(address, 1))
    return [json.dumps({"batches": [[item]]}) for item in texts]


def corpus():
    """The command lines of the transcript, in order."""
    small = [str(t) for t in all_trees(5)]
    tiny = [str(t) for t in all_trees(4)]
    lines = []
    for t in small:
        for action in ("parse", "table", "dim", "boundary", "suspend", "decompose"):
            lines += [["tree", action, t], ["tree", action, t, "--json"], ["tree", action, t, "--dot"]]
        lines += [["lins", t], ["lins", t, "--json"], ["lins", t, "--dot", "0"]]
    for S in tiny:
        for T in tiny:
            lines += [
                ["theta", "hom", S, T],
                ["theta", "factor", S, T, "--index", "0"],
                ["theta", "homogeneous", S, T],
                ["theta", "filler", S, T, "--index", "0"],
                ["theta", "admissible", S, T, "--index", "0"],
            ]
    for action in ("build", "audit", "cofibs", "interval"):
        for n in range(1, 5):
            for flags in ([], ["--groupoidalize"], ["--json"], ["--groupoidalize", "--json"]):
                lines.append(["theory", action, "--n", str(n)] + flags)
    for action in ("present", "boundary", "sum", "stack", "modification"):
        for k in range(4):
            for t in small:
                for flags in ([], ["--json"], ["--dot"]):
                    lines.append(["cyl", action, "--k", str(k), "--tree", t] + flags)

    # beyond the first corpus: arguments that reach answers
    for t in small:
        n = 2 * parse_tree(t).n_nodes() - 1
        lines += [["lins", t, "--dot", str(i)] for i in range(1, n + 1)]
    for S in tiny:
        for T in tiny:
            lines += [["theta", "hom", S, T, "--json"], ["theta", "hom", S, T, "--count"]]
            size = len(hom(parse_tree(S), parse_tree(T)))
            seconds = [str(j) for j in _spread(size, 2)]
            for i in map(str, _spread(size, 6)):
                lines += [["theta", "factor", S, T, "--index", i, "--json"], ["theta", "homogeneous", S, T, "--index", i]]
                for j in seconds:
                    lines += [
                        ["theta", "filler", S, T, "--index", i, "--second", j],
                        ["theta", "admissible", S, T, "--index", i, "--second", j],
                        ["theta", "admissible", S, T, "--index", i, "--second", j, "--kind", "categorical"],
                    ]
    for text in FILE_TEXTS:
        for action in ("build", "audit"):
            for flags in ([], ["--json"], ["--groupoidalize", "--json"], ["--n", "2"]):
                lines.append(["theory", action, "--file", text] + flags)
    for text in _address_files():
        lines += [["theory", "build", "--file", text, "--json"],
                  ["theory", "build", "--file", text, "--json", "--groupoidalize"]]
    for m in FUZZ_MAPS:
        for action in ("factor", "homogeneous", "filler", "admissible"):
            for S, T in (("D1", "D1"), ("D1", "[[][]]"), ("D2", NINE_TREE)):
                lines.append(["theta", action, S, T, "--map", m])
    lines += [
        ["check", "trees", "--max-nodes", "4"],
        ["check", "theta", "--max-nodes", "3"],
        ["check", "factorization", "--count", "5"],
        ["check", "factorization", "--count", "5", "--seed", "1"],
        ["check", "tower"],
        ["check", "stack", "--max-nodes", "4"],
        ["check", "all", "--max-nodes", "3", "--count", "3"],
        ["check", "trees", "--max-nodes", "0"],
        ["check", "trees", "--max-nodes", "11"],
        ["check", "factorization", "--count", "-1"],
        ["check", "factorization", "--count", "10001"],
    ]
    return lines


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_line(argv, spec):
    """The exit code, stdout and stderr of one command line, run in process,
    with a ``--file`` value written to ``spec`` first."""
    line = list(argv)
    for i in range(1, len(line)):
        if line[i - 1] == "--file":
            spec.write_text(line[i])
            line[i] = str(spec)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(line)
    return code, out.getvalue(), err.getvalue()


def transcript():
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        spec = pathlib.Path(tmp) / "spec.json"
        for argv in corpus():
            code, out, err = run_line(argv, spec)
            lines.append(f"{code} {_digest(out)} {_digest(err)} {json.dumps(argv)}\n")
    return "".join(lines)


RENDER = "import test_transcript; print(test_transcript.transcript(), end='')"


def test_transcript_does_not_move_under_either_hash_seed():
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", RENDER],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        )
        for seed in ("1", "2")
    }
    outputs = {seed: proc.communicate(timeout=300)[0] for seed, proc in procs.items()}
    expected = TRANSCRIPT.read_text().splitlines()
    for seed, proc in procs.items():
        assert proc.returncode == 0, seed
        got = outputs[seed].splitlines()
        assert len(got) == len(expected), seed
        moved = [new for new, old in zip(got, expected) if new != old]
        assert moved == [], (seed, moved[:5])


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript())
