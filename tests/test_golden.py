"""Byte-for-byte regression gate on CLI output and rendered terms.

Each case renders one deterministic text; the expected bytes live in
``tests/golden/<case>.txt``.  The files pin behaviour that refactors must
keep exactly: the ``--json`` output of the main commands, the boundary
terms of every symbol of the shipped towers (``theory build`` does not
print them), the whiskering sums, the coherence-cylinder boundary pairs,
the order of ``all_trees``, and the cylinder layer: every presentation, the
division and promotion composites, and the stacks and sum cylinders over
the criterion-9 family (trees of at most 9 nodes, dimension at most 2, at
most 5 leaves).  The two families are large, so each stack and each sum
cylinder is pinned by a sha256 prefix of its full rendering; to see what
changed, print the renderings from both versions and diff them.  One
more test renders every case, and the ``chi_check`` report of
``cyclic_checklist`` (tests/test_globsets.py), in fresh interpreters under
PYTHONHASHSEED 1 and 2 and compares the bytes with the goldens and the
in-process report, so no output may follow the iteration order of a set
of strings or tuples.

The whiskering sums, the coherence-cylinder boundary pairs and the
division and promotion composites are constructions no package command
calls, so their generators live in the test modules beside their tests:
``coherence_boundary`` in tests/test_cylinders.py, and ``whisker_sum``,
``division_term`` and ``promote_inverse_term`` in tests/test_theory.py.

Regenerate only for an intended change of output:
``PYTHONPATH=src python tests/test_golden.py``.  CI runs it and then
``git diff --exit-code tests/golden``, so the regeneration path must keep
importing and write the same bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from globwork.cli import main
from globwork import cylinders as cyl
from globwork.errors import DomainError
from globwork.theory import groupoidalize, standard_library
from globwork.theta import hom, is_homogeneous
from globwork.trees import all_trees, dim, globe
from test_cylinders import coherence_boundary
from test_globsets import cyclic_checklist
from test_theory import division_term, promote_inverse_term, whisker_sum

GOLDEN = pathlib.Path(__file__).parent / "golden"
NINE_TREE = "[[[][]][]]"

CLI_CASES = {
    "theory_build_n3": ["theory", "build", "--n", "3"],
    "theory_build_n3_groupoidal": ["theory", "build", "--n", "3", "--groupoidalize"],
    "theory_build_n4": ["theory", "build", "--n", "4"],
    "theory_build_n4_groupoidal": ["theory", "build", "--n", "4", "--groupoidalize"],
    "theory_cofibs_n3": ["theory", "cofibs", "--n", "3"],
    "theory_interval": ["theory", "interval", "--groupoidalize"],
    "lins_nine_tree": ["lins", NINE_TREE],
    "theta_hom": ["theta", "hom", "D2", "[[][]]"],
    "theta_factor": ["theta", "factor", "D2", NINE_TREE, "--index", "7"],
    "cyl_present_k3": ["cyl", "present", "--k", "3"],
    "cyl_boundary_k3": ["cyl", "boundary", "--k", "3"],
    "cyl_modification_k2": ["cyl", "modification", "--k", "2"],
    "cyl_sum": ["cyl", "sum"],
    "cyl_stack": ["cyl", "stack", "--k", "2", "--tree", NINE_TREE],
}

# the coherence_boundary calls of tests/test_cylinders.py
COHERENCE_CASES = [
    ("psi", (2, 1), 1),
    ("psi", (0, 0), 1),
    ("psi", (0, 2), 1),
    ("psi", (3, 0), 1),
    ("phi", (1, 1, 1), 1),
    ("phi", (1, 1, 0), 2),
    ("theta", (1, 1, 1), 1),
    ("theta", (1, 1, 0), 2),
    ("psi", (1, 1), 3),
    ("nope", (1, 1), 1),
]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    assert code == 0, argv
    return out.getvalue()


def _towers():
    for n in (3, 4):
        th = standard_library(n)
        yield th
        yield groupoidalize(th)


def _tower_terms():
    lines = []
    for th in _towers():
        lines.append(f"# n={th.n} {th.kind}")
        for k in sorted(th.stages):
            for sym in th.stages[k]:
                lines.append(f"{sym.name}: {sym.src} | {sym.tgt}")
    return "\n".join(lines) + "\n"


def _whisker_sums():
    th = standard_library(4)
    lines = []
    for A in all_trees(5):
        for side in "rl":
            lines.append(f"{A} {side}: {whisker_sum(th, A, side)}")
    return "\n".join(lines) + "\n"


def _coherence_boundaries():
    th = groupoidalize(standard_library(3))
    lines = []
    for kind, indices, level in COHERENCE_CASES:
        head = f"{kind} {indices} {level}"
        try:
            t1, t2 = coherence_boundary(kind, indices, level, th)
        except DomainError as e:
            lines.append(f"{head}: DomainError: {e}")
            continue
        lines.append(f"{head}: {t1} | {t2}")
    return "\n".join(lines) + "\n"


def _all_trees():
    return "".join(f"{t}\n" for t in all_trees(9))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dumps(payload):
    return json.dumps(payload, indent=1, sort_keys=True)


def _stack_family():
    return [A for A in all_trees(9) if dim(A) <= 2 and A.n_leaves() <= 5]


def _stacks():
    th = groupoidalize(standard_library(3))
    lines = []
    for k in (1, 2):
        for A in _stack_family():
            for rho in hom(globe(k), A):
                if not is_homogeneous(rho):
                    continue
                squares = cyl.stack(rho, th)
                meta = json.dumps(cyl.vcompose_meta(squares), sort_keys=True)
                lines.append(f"k={k} {A} {_digest(cyl.stack_to_json(squares))} {meta}")
    return "\n".join(lines) + "\n"


def _sum_cylinders():
    th = groupoidalize(standard_library(3))
    lines = []
    for A in _stack_family():
        S = cyl.cyl_glob_sum(A, th)
        maps = "".join(
            f"{i} {path} {gap}: {cell}\n"
            for i, incl in enumerate(S.inclusions)
            for (path, gap), cell in sorted(incl["mapping"].items())
        )
        lines.append(
            f"{A} {S.presentation.counts()} {_digest(_dumps(S.presentation.to_json()))} {_digest(maps)}"
        )
    return "\n".join(lines) + "\n"


def _cylinder_presentations():
    th = groupoidalize(standard_library(3))
    out = []
    for k in range(4):
        out.append(f"# cyl_presentation({k})\n{_dumps(cyl.cyl_presentation(k, th).to_json())}")
        try:
            P, data = cyl.boundary_cyl(k, th)
        except DomainError as e:
            out.append(f"# boundary_cyl({k})\nDomainError: {e}")
            continue
        out.append(f"# boundary_cyl({k})\n{_dumps({'presentation': P.to_json(), 'data': data})}")
    for k in (1, 2):
        for p in (None, *range(k)):
            for q in (None, *range(k)):
                P = cyl.degenerate_cyl(k, p, q, th)
                out.append(f"# degenerate_cyl({k}, {p}, {q})\n{_dumps(P.to_json())}")
    for k in range(3):
        P, xi = cyl.modification_presentation(k, th)
        out.append(f"# modification_presentation({k})\n{_dumps({'presentation': P.to_json(), 'xi': xi})}")
    return "\n".join(out) + "\n"


def _schema_terms():
    th = groupoidalize(standard_library(3))
    lines = []
    for name, (factors, out) in [
        ("division_term(1)", division_term(1, th)),
        ("division_term(2)", division_term(2, th)),
        ("promote_inverse_term", promote_inverse_term(th)),
    ]:
        lines.append(f"# {name}")
        lines += [f"factor: {f} : {f.src} => {f.tgt}" for f in factors]
        lines.append(f"out: {out} : {out.src} => {out.tgt}")
    return "\n".join(lines) + "\n"


CASES = {name: (lambda argv=argv: _cli(argv)) for name, argv in CLI_CASES.items()}
CASES.update(
    tower_terms=_tower_terms,
    whisker_sums=_whisker_sums,
    coherence_boundaries=_coherence_boundaries,
    all_trees_9=_all_trees,
    stacks=_stacks,
    sum_cylinders=_sum_cylinders,
    cylinder_presentations=_cylinder_presentations,
    schema_terms=_schema_terms,
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert CASES[name]().encode() == expected


# every golden, and the checklist whose witness order once followed the
# hash of its 2-cell boundary pairs, rendered in a fresh interpreter
RENDER_ALL = """
import json
import test_globsets, test_golden
renders = {name: render() for name, render in test_golden.CASES.items()}
renders["checklist"] = repr(test_globsets.cyclic_checklist())
print(json.dumps(renders))
"""


def test_renders_do_not_depend_on_the_hash_seed():
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", RENDER_ALL],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        )
        for seed in ("1", "2")
    }
    outputs = {seed: proc.communicate(timeout=300)[0] for seed, proc in procs.items()}
    expected = {name: (GOLDEN / f"{name}.txt").read_bytes() for name in CASES}
    expected["checklist"] = repr(cyclic_checklist()).encode()
    for seed, proc in procs.items():
        assert proc.returncode == 0, seed
        renders = json.loads(outputs[seed])
        assert sorted(renders) == sorted(expected)
        for name, text in renders.items():
            assert text.encode() == expected[name], (seed, name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, render in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_bytes(render().encode())
