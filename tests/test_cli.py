import argparse
import collections
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from globwork import cli, steiner
from globwork.cli import build_parser, main
from globwork.cylinders import MAX_STACK_NODES, MAX_SUM_NODES
from globwork.theory import groupoidalize, single, standard_library, zero_cell_pick
from globwork.theta import compose, hg_factorize, hom, map_from_json, sigma_theta, tau_theta
from globwork.trees import all_trees, globe, parse_tree

NINE_TREE = "[[[][]][]]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tree_table(capsys):
    code, out = run(capsys, "tree", "table", NINE_TREE)
    assert code == 0
    assert out.strip() == "(2,2,1;1,0)"


def test_tree_globe_shorthand(capsys):
    code, out = run(capsys, "tree", "boundary", "D3")
    assert code == 0
    assert out.strip() == "[[[]]]"


def test_tree_decompose(capsys):
    # the suspension blocks are the root's branches; the point has none
    assert run(capsys, "tree", "decompose", NINE_TREE) == (0, "[[][]] []\n")
    assert run(capsys, "tree", "decompose", "[]") == (0, "\n")
    code, out = run(capsys, "tree", "decompose", NINE_TREE, "--json")
    assert code == 0 and json.loads(out) == [[[], []], []]


def test_tree_domain_error_exit_code(capsys):
    code = main(["tree", "boundary", "[]"])
    assert code == 1


def test_usage_error_exit_code(capsys):
    for argv in (
        ["tree", "frobnicate", "[]"],
        ["cyl", "stack", "--tree", "[[]]", "--dot", "99"],
        ["lins", "[]", "--frobnicate"],
        ["cyl", "stack", "--tree", "[[][]]", "--index", "0"],
        ["theta", "hom", "D1", "D1", "--max-homs", "5"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), argv


def test_lins_json(capsys):
    code, out = run(capsys, "lins", NINE_TREE, "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 9
    assert records[0]["klass"] == "H1-Right"
    assert records[-1]["klass"] == "H1-Left"


def test_lins_json_deterministic(capsys):
    _, out1 = run(capsys, "lins", NINE_TREE, "--json")
    _, out2 = run(capsys, "lins", NINE_TREE, "--json")
    assert out1 == out2


def test_theta_hom_count(capsys):
    code, out = run(capsys, "theta", "hom", "D2", "D2", "--count")
    assert code == 0
    assert out.strip() == "5"


def test_theta_factor(capsys):
    code, out = run(capsys, "theta", "factor", "D1", "D2", "--index", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert "middle" in data


def test_theta_factor_last_of_a_wide_hom_set(capsys):
    # map 12344 is the last of the 12345 in hom(D2, T), read by its rank;
    # the expected JSON is the output of the full enumeration
    target = "[" + "[[][][]]" * 4 + "]"
    code, out = run(capsys, "theta", "factor", "D2", target, "--index", "12344", "--json")
    assert code == 0
    assert json.loads(out) == {
        "globular": {"components": [], "phi": [4]},
        "homogeneous": {"components": [[]], "phi": [0, 0]},
        "middle": "[]",
    }
    code, out = run(capsys, "theta", "factor", "D2", target, "--index", "6000", "--json")
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) == (
        '{"globular":{"components":[[{"components":[],"phi":[1]}],[{"components":[[{"components":[],"phi":[0]}]],'
        '"phi":[2,3]}],[{"components":[[{"components":[],"phi":[0]}]],"phi":[2,3]}],[{"components":[],"phi":[3]}]],'
        '"phi":[0,1,2,3,4]},"homogeneous":{"components":[[{"components":[[]],"phi":[0,0]},{"components":[[{"components":'
        '[],"phi":[0]}]],"phi":[0,1]},{"components":[[{"components":[],"phi":[0]}]],"phi":[0,1]},{"components":[[]],'
        '"phi":[0,0]}]],"phi":[0,4]},"middle":"[[][[]][[]][]]"}'
    )


WIDE = "[" + "[[][][]]" * 6 + "]"  # hom(D2, WIDE) has 1234567 maps


def test_theta_index_reads_a_hom_set_above_the_bound(capsys):
    code, out = run(capsys, "theta", "factor", "D2", WIDE, "--index", "1234566", "--json")
    assert code == 0
    fact = hg_factorize(hom(globe(2), parse_tree(WIDE))[1234566])
    assert json.loads(out) == {
        "middle": str(fact.middle),
        "homogeneous": fact.homogeneous.to_json(),
        "globular": fact.globular.to_json(),
    }


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_theta_hom_refuses_to_build_a_set_above_the_bound(flags, capsys):
    assert main(["theta", "hom", "D2", WIDE, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hom would have 1234567 elements (bound 1000000)\n"


def corolla(n):
    return "[" + "[]" * n + "]"


def test_theta_hom_counts_wide_corollas_at_once(capsys):
    # C(25, 13) maps: counted gap by gap, not phi by phi
    start = time.monotonic()
    assert run(capsys, "theta", "hom", corolla(12), corolla(12), "--count") == (0, "5200300\n")
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hom", corolla(20), corolla(20)], "hom would have 269128937220 elements (bound 1000000)"),
        (
            ["factor", corolla(40), corolla(40), "--index", "0"],
            "hom has 212392290424395860814420 elements, more than len() can hold",
        ),
    ],
)
def test_theta_refuses_the_hom_sets_of_wide_corollas(argv, message, capsys):
    assert main(["theta", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"phi": [0], "components": []}, "wreath data has the wrong shape"),
        ({"phi": [1, 0], "components": [[]]}, "phi must be monotone"),
        ({"phi": [0, 5], "components": [[{"phi": [0], "components": []}]]}, "phi out of range"),
        ({"phi": [0, 1], "components": [[]]}, "block 0 has the wrong component count"),
        ({"phi": [0, 1], "components": [[{"phi": [0, 1], "components": [[]]}]]}, "wreath data has the wrong shape"),
    ],
)
def test_theta_map_refusals(data, message, capsys):
    assert main(["theta", "factor", "D1", "D2", "--map", json.dumps(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_theory_build_and_audit(capsys):
    code, out = run(capsys, "theory", "build", "--groupoidalize")
    assert code == 0
    assert "stage 1" in out
    code, out = run(capsys, "theory", "audit", "--groupoidalize")
    assert code == 0


def test_theory_cofibs(capsys):
    code, out = run(capsys, "theory", "cofibs", "--n", "3")
    assert code == 0
    assert "|I|=5 |J|=3" in out


EXTRA_OP = {
    "name": "extra_op",
    "arity": "[[][]]",
    "k": 1,
    "src": {"cells": [{"leaf": 0, "chain": "s"}]},
    "tgt": {"cells": [{"leaf": 1, "chain": "t"}]},
}


def test_theory_from_file(tmp_path, capsys):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({"batches": [[EXTRA_OP]]}))
    code, out = run(capsys, "theory", "build", "--file", str(f))
    assert code == 0
    assert "extra_op" in out


def test_theory_build_reuses_the_tower_unchanged(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"batches": [[EXTRA_OP]]}))
    for flags in (["--json"], [], ["--groupoidalize", "--json"], ["--groupoidalize"]):
        _, first = run(capsys, "theory", "build", "--n", "3", *flags)
        _, extended = run(capsys, "theory", "build", "--n", "3", *flags, "--file", str(spec))
        assert "extra_op" in extended and "extra_op" not in first
        _, again = run(capsys, "theory", "build", "--n", "3", *flags)
        assert again == first


def test_theory_build_defaults_to_n_3_after_another_n(capsys):
    run(capsys, "theory", "build", "--n", "4")
    _, out = run(capsys, "theory", "build")
    assert out.splitlines()[0] == "categorical tower, n=3"


def test_an_adjoin_on_a_tower_copy_stays_in_that_copy(capsys):
    two = parse_tree("[[][]]")
    th = cli._tower(3, True).copy()
    th._adjoin("extra_op", two, 1, single(0, two, zero_cell_pick(two, 0)), single(0, two, zero_cell_pick(two, 2)))
    assert "extra_op" not in cli._tower(3, True).copy().symbols
    _, out = run(capsys, "theory", "build", "--groupoidalize")
    assert "extra_op" not in out


def test_cylinders_leave_the_memoised_tower_as_it_was(capsys):
    # cyl and check stack take the memo's tower itself, not a copy
    th = cli._tower(3, True)
    caches = (th.symbols, th._boundary_cache, th._eval_cache)
    before = [dict(c) for c in caches]
    stages = {k: list(v) for k, v in th.stages.items()}
    codes = collections.Counter()
    for action in ("present", "boundary", "sum", "stack", "modification"):
        for k in range(4):
            for form in ((), ("--json",), ("--dot",)):
                codes[main(["cyl", action, "--k", str(k), "--tree", "[[][[]]]", *form])] += 1
    codes[main(["check", "stack", "--max-nodes", "5"])] += 1
    capsys.readouterr()
    assert codes == {0: 32, 1: 29}
    assert cli._tower(3, True) is th
    assert [dict(c) for c in caches] == before
    assert {k: list(v) for k, v in th.stages.items()} == stages


@pytest.mark.parametrize("groupoidal", [False, True])
@pytest.mark.parametrize("n", range(1, 6))
def test_memoised_tower_reports_as_a_fresh_build(n, groupoidal, capsys):
    fresh = standard_library(n)
    if groupoidal:
        fresh = groupoidalize(fresh)
    payload = cli.tower_report(fresh)
    assert cli.tower_report(cli._tower(n, groupoidal).copy()) == payload
    for as_json in (False, True):
        cli._emit(argparse.Namespace(json=as_json), payload, cli.render_tower(payload))
        expected = capsys.readouterr().out
        argv = ["theory", "build", "--n", str(n)] + ["--groupoidalize"] * groupoidal + ["--json"] * as_json
        assert [run(capsys, *argv) for _ in range(2)] == [(0, expected)] * 2


@pytest.mark.parametrize("n", [1, 3, 4])
def test_a_groupoidal_tower_reuses_the_categorical_build(n, monkeypatch):
    builds = []

    def counted(m):
        builds.append(m)
        return standard_library(m)

    cli._tower.cache_clear()
    monkeypatch.setattr(cli.theory_mod, "standard_library", counted)
    categorical = cli._tower(n, False)
    sizes = len(categorical._boundary_cache), len(categorical._eval_cache)
    assert "inv_l_1" in cli._tower(n, True).symbols
    assert builds == [n]
    assert cli._tower(n, False) is categorical and categorical.kind == "categorical"
    assert not any(name.startswith("inv_") for name in categorical.symbols)
    assert (len(categorical._boundary_cache), len(categorical._eval_cache)) == sizes


@pytest.mark.parametrize(
    "patch, message",
    [({"src": {"cells": [ref]}}, "cell ") for ref in (
        {"leaf": -1, "chain": "s"},
        {"leaf": True},
        {"leaf": 9},
        {"leaf": 0, "chain": "x"},
        {"leaf": 0, "chain": ["s"]},
        {"leaf": 0, "chain": "ss"},
    )]
    + [({"k": True}, "operation "), ({"k": 0}, "operation "), ({"name": 5}, "operation ")],
    ids=str,
)
def test_theory_file_rejects_malformed_items(tmp_path, capsys, patch, message):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({"batches": [[dict(EXTRA_OP, **patch)]]}))
    assert main(["theory", "build", "--file", str(f)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: " + message), err


C1_CELL = {"op": "c1", "args": {"cells": [{"leaf": 0}, {"leaf": 1}]}}


def op_cell_spec(tmp_path, cell):
    """A spec adjoining a 2-operation on [[][]] with ``cell`` on both sides."""
    item = {"name": "cc", "arity": "[[][]]", "k": 2, "src": {"cells": [cell]}, "tgt": {"cells": [cell]}}
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({"batches": [[item]]}))
    return str(f)


def test_theory_file_adjoins_an_operation_cell(tmp_path, capsys):
    assert main(["theory", "build", "--file", op_cell_spec(tmp_path, C1_CELL), "--json"]) == 0
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert stages["2"][-1] == {
        "arity": "[[][]]", "dim": 2, "equation": False, "image": "(0,2)[(0,0);(0,0)]", "name": "cc"
    }


@pytest.mark.parametrize(
    "cell, message",
    [
        (dict(C1_CELL, op="nope"), "unknown operation symbol 'nope'"),
        ({"op": "c1"}, "malformed --file: batch 0, item 0: missing key 'args'"),
        (dict(C1_CELL, args={"cells": [{"leaf": 0}]}), "term needs one entry per source leaf"),
    ],
    ids=["unknown-op", "no-args", "one-argument"],
)
def test_theory_file_refuses_a_bad_operation_cell(tmp_path, capsys, cell, message):
    assert main(["theory", "build", "--file", op_cell_spec(tmp_path, cell)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["theta", "homogeneous", "D1", "[[][]]", "--index", "2"], 0, "True\n"),
        (["theta", "homogeneous", "D1", "[[][]]", "--index", "4", "--json"], 0, "false\n"),
        (["theta", "hom", "D1", "D1"], 0, "0: (0,0)\n1: (0,1)[(0)]\n2: (1,1)\n"),
        (["theta", "filler", "D1", "D2", "--index", "0", "--second", "1"], 1, "no filler\n"),
        (["theta", "admissible", "D1", "[[][]]", "--index", "0", "--second", "3", "--kind", "categorical"], 0, "False\n"),
    ],
    ids=["homogeneous", "not-homogeneous-json", "hom-listing", "no-filler", "not-admissible"],
)
def test_theta_actions_print_their_answer(argv, code, out, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["theta", "factor", "D1", "D2"], "need --index or --map"),
        (["cyl", "stack", "--k", "3"], "stacks are built for operations of dimension 1 and 2"),
        (["cyl", "stack", "--k", "1", "--tree", "[[[]]]"], "no homogeneous operations into that sum"),
    ],
    ids=["factor-without-a-map", "stack-of-dimension-3", "stack-with-no-operation"],
)
def test_domain_refusals_print_one_line(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cyl_present(capsys):
    code, out = run(capsys, "cyl", "present", "--k", "2")
    assert code == 0
    assert "(4, 6, 4, 1)" in out


def test_cyl_stack(capsys):
    code, out = run(capsys, "cyl", "stack", "--tree", NINE_TREE, "--k", "2")
    assert code == 0
    assert "H2-OverEdge" in out
    assert "composite: C_t*rho(U) ~> rho(V)*C_s" in out


def test_cyl_stack_wide_tree(capsys):
    # hom(D2, A) has 1234567 maps, above the default hom bound; the one
    # homogeneous operation is built, not searched for
    code, out = run(capsys, "cyl", "stack", "--k", "2", "--tree", "[" + "[[][][]]" * 6 + "]", "--json")
    assert code == 0
    assert len(json.loads(out)) == 49  # one square per extension of the 25-node tree


def test_cyl_stack_dot(capsys):
    code, out = run(capsys, "cyl", "stack", "--tree", NINE_TREE, "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_check_suites(capsys):
    code, out = run(capsys, "check", "trees", "--max-nodes", "5")
    assert code == 0
    assert "PASS" in out
    code, _ = run(capsys, "check", "tower")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "trees", "--max-nodes", "11"],
        ["check", "theta", "--max-nodes", "9"],
        ["check", "stack", "--max-nodes", "13"],
        ["check", "all", "--max-nodes", "9"],
        ["check", "factorization", "--count", "10001"],
        ["check", "all", "--count", str(10**30)],
    ],
)
def test_check_sizes_are_guarded(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "above the bound" in captured.err


def test_cyl_sum_size_is_guarded(capsys):
    # a root with n leaves has n + 1 nodes
    assert main(["cyl", "sum", "--tree", "[" + "[]" * MAX_SUM_NODES + "]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "above the bound" in captured.err
    code, out = run(capsys, "cyl", "sum", "--tree", "[" + "[]" * (MAX_SUM_NODES - 1) + "]", "--json")
    assert code == 0
    assert json.loads(out)["inclusions"] == 2 * MAX_SUM_NODES - 1


def test_cyl_stack_size_is_guarded(capsys):
    # a root with n leaves has n + 1 nodes, and a [[][]] branch three
    for k, tree in ((1, "[" + "[]" * MAX_STACK_NODES + "]"), (2, "[" + "[[][]]" * (MAX_STACK_NODES // 3 + 1) + "]")):
        n = parse_tree(tree).n_nodes()
        assert n > MAX_STACK_NODES
        assert main(["cyl", "stack", "--k", str(k), "--tree", tree]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tree has {n} nodes, above the bound {MAX_STACK_NODES} for stacks\n"
    code, out = run(capsys, "cyl", "stack", "--k", "1", "--tree", "[" + "[]" * (MAX_STACK_NODES - 1) + "]", "--json")
    assert code == 0
    assert len(json.loads(out)) == 2 * MAX_STACK_NODES - 1  # one square per extension


def test_check_size_bounds_are_accepted():
    for suite, bound in cli.CHECK_MAX_NODES.items():
        cli._guard_check_sizes(argparse.Namespace(suite=suite, max_nodes=bound, count=10**30))
    all_bound = min(cli.CHECK_MAX_NODES.values())
    cli._guard_check_sizes(argparse.Namespace(suite="all", max_nodes=all_bound, count=cli.CHECK_MAX_COUNT))
    # suites that do not use an option ignore it
    cli._guard_check_sizes(argparse.Namespace(suite="tower", max_nodes=10**30, count=10**30))


def cli_env():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


def cli_command(*argv):
    return [sys.executable, "-m", "globwork.cli", *argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "filler", "D1", "D1", "--index", "0", "--second", "99"],
        ["theta", "admissible", "D1", "D1", "--index", "0", "--second", "-1"],
        ["theta", "factor", "D1", "D2", "--index", "-1"],
        ["lins", "[]", "--dot", "5"],
        ["lins", "[]", "--dot", "-1"],
        ["cyl", "sum", "--tree", "[[]]", "--dot"],
        ["theory", "cofibs", "--n", "-5"],
        ["check", "trees", "--max-nodes", "-3"],
        ["check", "factorization", "--count", "-1"],
        ["cyl", "present", "--k", "-1"],
        ["cyl", "modification", "--k", "-2"],
    ],
)
def test_out_of_range_index_is_a_domain_error(argv):
    proc = subprocess.run(cli_command(*argv), capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_theta_admissible_defaults_second_to_first(capsys):
    code, out = run(capsys, "theta", "admissible", "D1", "D1", "--index", "0")
    assert code == 0
    assert out.strip() == "True"


def test_theta_filler_wide_target(capsys):
    # hom(D2, T) has 1234567 maps, above the default hom bound
    target = "[" + "[[][][]]" * 6 + "]"
    code, out = run(capsys, "theta", "filler", "D1", target, "--index", "0", "--json")
    assert code == 0
    T = parse_tree(target)
    f = hom(globe(1), T)[0]
    h = map_from_json(globe(2), T, json.loads(out))
    assert compose(sigma_theta(1), h) == f
    assert compose(tau_theta(1), h) == f


@pytest.mark.parametrize(
    "literal",
    ["D5000", "[" * 1500 + "]" * 1500],
    ids=["globe-shorthand", "nested-brackets"],
)
def test_too_deep_tree_is_a_size_guard_error(literal):
    proc = subprocess.run(cli_command("tree", "dim", literal), capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_closed_pipe_exits_quietly():
    # about 700 kB of JSON: more than the pipe holds, so the command is
    # still writing when the reader goes away
    argv = ["theta", "hom", "D2", "[" + "[[][][]]" * 3 + "]", "--json"]
    proc = subprocess.Popen(
        cli_command(*argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == ""


def test_check_theta_honours_max_nodes(capsys, monkeypatch):
    checked = []
    count_cells = steiner.count_cells
    monkeypatch.setattr(steiner, "count_cells", lambda T, k: checked.append(T) or count_cells(T, k))
    code, out = run(capsys, "check", "theta", "--max-nodes", "5")
    assert code == 0
    assert out.strip() == "PASS operation/oracle equivalence"
    assert set(checked) == set(all_trees(5))


FUZZ_TREES = [
    "[]", "[[]]", "[[][]]", "[[[]][]]", "[[[][]][]]", "D0", "D1", "D2", "D3",
    "", "[", "]", "[[]", "[]]", "][", "[x]", "[] []", "D", "D-1", "Dx", "D1.5", "D500",
]
# integer options, which pick an item, bound a search or size a check suite:
# any integer goes
FUZZ_INDICES = ["0", "1", "2", "7", "-1", "-5", "99", str(10**6), str(10**30), "x", "1e3"]
FUZZ_MAPS = [
    "{", "null", "1", "[]", "{}", '{"phi": [0, 1]}', '{"phi": "x", "components": []}',
    '{"phi": [0, 1], "components": [[]]}', '{"phi": [0, 1], "components": [[{}]]}',
    '{"phi": [0, 0], "components": [[]]}', '{"phi": [1, 0], "components": [[]]}', "[" * 5000,
]


def fuzz_files(tmp_path):
    texts = {
        "bad.json": "{",
        "deep.json": "[" * 5000,
        "list.json": "[]",
        "empty.json": "{}",
        "batches.json": '{"batches": 1}',
        "items.json": '{"batches": [[{"name": "x"}]]}',
        "typed.json": '{"batches": [[{"name": "x", "arity": "[]", "k": "1", "src": {}, "tgt": {}}]]}',
        "fraction.json": '{"batches": [[{"name": "x", "arity": "[[]]", "k": 1.5, "src": {"cells": []}, "tgt": {"cells": []}}]]}',
        "truth.json": '{"batches": [[{"name": "x", "arity": "[[]]", "k": true, "src": {"cells": []}, "tgt": {"cells": []}}]]}',
        "cells.json": '{"batches": [[{"name": "x", "arity": "[[]]", "k": 1, "src": {"cells": [{"leaf": 9}]}, "tgt": {"cells": [1]}}]]}',
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in texts] + [str(tmp_path / "missing.json")]


def fuzz_argv(rng, parser, files):
    """One command line drawn from the parser's own subcommands and options."""
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    name = rng.choice(sorted(subs.choices))
    argv = [name]
    for action in subs.choices[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            if rng.random() < 0.05:
                break  # a missing positional
            if action.choices and rng.random() < 0.9:
                argv.append(rng.choice(action.choices))
            else:
                argv.append(rng.choice(FUZZ_TREES))
            continue
        if rng.random() < 0.6:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv += [flag, rng.choice(list(action.choices) + ["nonsense"])]
        elif flag == "--map":
            argv += [flag, rng.choice(FUZZ_MAPS)]
        elif flag == "--file":
            argv += [flag, rng.choice(files)]
        elif action.type is int:
            argv += [flag, rng.choice(FUZZ_INDICES)]
        else:
            argv += [flag, rng.choice(FUZZ_TREES)]
        if rng.random() < 0.05:
            argv.pop()  # an option without its value
    return argv


def test_cli_fuzz_exits_cleanly(tmp_path, capsys):
    rng = random.Random(20240)
    parser = build_parser()
    files = fuzz_files(tmp_path)
    codes = collections.Counter()
    for _ in range(200):
        argv = fuzz_argv(rng, parser, files)
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            pytest.fail(f"{argv!r} raised {type(e).__name__}: {e}")
        assert code in (0, 1, 2), argv
        codes[code] += 1
        capsys.readouterr()
    assert all(codes[c] for c in (0, 1, 2)), codes


# Literals no option accepts, or accepts only to refuse: mixed into every
# value the strategy below draws.
BAD_LITERALS = ["x", "-1", "33", "[[", "frobnicate", ""]
# Drawn values stay small, so that every call answers in milliseconds.
SMALL_INTS = ["0", "1", "2", "3"]
SMALL_TREES = ["[]", "[[]]", "[[][]]", "[[[]][]]", "D1", "D2"]


def _batch_file(*items):
    return json.dumps({"batches": [list(items)]})


# The contents of a drawn ``--file``: valid one-batch files, malformed JSON,
# wrong field types, an unknown symbol and missing keys.
FILE_TEXTS = [
    _batch_file(EXTRA_OP),
    _batch_file({"name": "cc", "arity": "[[][]]", "k": 2, "src": {"cells": [C1_CELL]}, "tgt": {"cells": [C1_CELL]}}),
    json.dumps({"batches": []}),
    "{",
    '{"batches": [[',
    "[]",
    '{"batches": 1}',
    '{"batches": [1]}',
    _batch_file(dict(EXTRA_OP, k="1")),
    _batch_file(dict(EXTRA_OP, arity=3)),
    _batch_file(dict(EXTRA_OP, src={"cells": 1})),
    _batch_file(dict(EXTRA_OP, tgt={"cells": [{"op": "frobnicate", "args": {"cells": []}}]})),
    "{}",
    _batch_file({key: value for key, value in EXTRA_OP.items() if key != "tgt"}),
    _batch_file(dict(EXTRA_OP, src={"cells": [{"op": "c1"}]})),
]


# Python exception names that no error message may carry
EXCEPTION_NAMES = (
    "KeyError", "TypeError", "AttributeError", "IndexError", "JSONDecodeError", "RecursionError", "ValueError"
)


@pytest.mark.parametrize("text", FILE_TEXTS, ids=range(len(FILE_TEXTS)))
def test_file_errors_name_the_field_not_the_exception(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    for action in ("build", "audit"):
        code = main(["theory", action, "--file", str(spec)])
        err = capsys.readouterr().err
        assert code == 0 or err.count("\n") == 1, err
        assert not any(name in err for name in EXCEPTION_NAMES), err


# an integer past int()'s default limit on the digits it converts
HUGE_INTEGER_MAP = '{"phi": [' + "1" * 5000 + '], "components": []}'

# Malformed ``--map`` values for ``theta factor D1 D1``: FUZZ_MAPS without
# its one well-formed map, and values of the wrong JSON type at each level.
MALFORMED_MAPS = [m for m in FUZZ_MAPS if m != '{"phi": [0, 0], "components": [[]]}'] + [
    '{"phi": 1, "components": []}',
    '{"phi": [0, 1], "components": 3}',
    '{"phi": ["a", 1], "components": [[]]}',
    '{"phi": [0, 1.5], "components": [[]]}',
    '{"phi": [0, 1], "components": [3]}',
    '{"phi": [0, 5], "components": [[{}]]}',
    '{"phi": [-1, 0], "components": [[{"phi": [0], "components": []}]]}',
    '{"phi": [0, 1], "components": [[{"phi": [0], "components": [3]}]]}',
    HUGE_INTEGER_MAP,
]


@pytest.fixture
def int_digit_limit():
    """int()'s limit on the digits it converts, set to its default of 4300
    for the test and restored after it: the interpreter may run with the
    limit off (PYTHONINTMAXSTRDIGITS=0).  None on a Python without one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("text", MALFORMED_MAPS, ids=range(len(MALFORMED_MAPS)))
def test_map_errors_name_the_field_not_the_exception(capsys, int_digit_limit, text):
    assert main(["theta", "factor", "D1", "D1", "--map", text]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert not any(name in err for name in EXCEPTION_NAMES), err
    if text == HUGE_INTEGER_MAP:
        # past the limit int() refuses the integer; with no limit it is read,
        # and the map refuses its shape
        want = "--map holds an integer of 5000 digits, above the bound 4300"
        assert err == f"error: {want if int_digit_limit else 'wreath data has the wrong shape'}\n"


def test_json_errors_give_the_position_and_the_depth_bound(tmp_path, capsys):
    for text, message in [
        ("{", "malformed --map: not JSON at line 1, column 2"),
        ('{"phi": [0, 1],\n "components": [[]] x}', "malformed --map: not JSON at line 2, column 21"),
        ("[" * 5000, f"--map nests deeper than the bound {cli.MAX_JSON_DEPTH}"),
        # the brackets after a string left open are not counted
        ('"' + "[" * 400, "malformed --map: not JSON at line 1, column 1"),
        ('"' + "[" * 10, "malformed --map: not JSON at line 1, column 1"),
    ]:
        assert main(["theta", "factor", "D1", "D1", "--map", text]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    # brackets inside strings do not nest, and the bound itself is accepted
    spec = tmp_path / "spec.json"
    for text, message in [
        ("[\n", "malformed --file: not JSON at line 2, column 1"),
        ("[" * cli.MAX_JSON_DEPTH + "]" * cli.MAX_JSON_DEPTH, "malformed --file: expected an object, got a list"),
        ('["' + "[" * 5000 + '"]', "malformed --file: expected an object, got a list"),
        ("[" * (cli.MAX_JSON_DEPTH + 1), f"--file nests deeper than the bound {cli.MAX_JSON_DEPTH}"),
    ]:
        spec.write_text(text)
        assert main(["theory", "build", "--file", str(spec)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_map_shape_errors_name_their_field(capsys):
    for text, message in [
        ("[]", "expected an object, got a list"),
        ("{}", "missing key 'phi'"),
        ('{"phi": [0, 1], "components": [[{}]]}', "component (0,0): missing key 'phi'"),
        ('{"phi": 1, "components": []}', "'phi' must be a list, got an integer"),
        ('{"phi": [0, 1], "components": 3}', "'components' must be a list, got an integer"),
        ('{"phi": ["a", 1], "components": [[]]}', "'phi' must be a list of integers"),
        ('{"phi": [0, 1], "components": [3]}', "'components' must be a list of lists"),
    ]:
        assert main(["theta", "factor", "D1", "D1", "--map", text]) == 1
        assert capsys.readouterr().err == f"error: malformed --map: {message}\n"
    # well-shaped wreath data that does not type a map keeps check_map's message
    for text, message in [
        ('{"phi": [0, 1], "components": [[]]}', "block 0 has the wrong component count"),
        ('{"phi": [1, 0], "components": [[]]}', "phi must be monotone"),
        ('{"phi": [-1, 0], "components": [[{"phi": [0], "components": []}]]}', "phi out of range"),
        ('{"phi": [0, 1], "components": [[], []]}', "wreath data has the wrong shape"),
    ]:
        assert main(["theta", "factor", "D1", "D1", "--map", text]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@st.composite
def cli_argv(draw):
    """A command line drawn from build_parser()'s own subcommands, options
    and choices, with bad literals and unknown words mixed in."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    name = draw(st.sampled_from(sorted(subs.choices) + ["frobnicate"]))
    argv = [name]
    actions = subs.choices[name]._actions if name in subs.choices else []
    for action in actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.choices:
            values = list(action.choices)
        elif action.type is int:
            values = SMALL_INTS
        elif action.dest == "map":
            values = FUZZ_MAPS[:-1]
        elif action.dest == "file":
            values = FILE_TEXTS
        else:
            values = SMALL_TREES
        # one value in six is a bad literal
        value = st.integers(0, 5).flatmap(lambda i: st.sampled_from(values if i else BAD_LITERALS))
        if not action.option_strings:
            # a missing positional now and then
            if draw(st.integers(0, 9)):
                argv.append(draw(value))
        elif draw(st.booleans()):
            argv += [action.option_strings[0]] + ([] if action.nargs == 0 else [draw(value)])
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--frobnicate", "frobnicate"])))
    return argv


@st.composite
def file_argv(draw):
    """``theory build|audit --file`` with drawn contents (one in six a bad
    literal), now and then with a truncation, ``--groupoidalize`` or
    ``--json``."""
    contents = st.integers(0, 5).flatmap(lambda i: st.sampled_from(FILE_TEXTS if i else BAD_LITERALS))
    argv = ["theory", draw(st.sampled_from(["build", "audit"])), "--file", draw(contents)]
    if draw(st.booleans()):
        argv += ["--n", draw(st.sampled_from(SMALL_INTS))]
    for flag in ("--groupoidalize", "--json"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@settings(max_examples=400)
@given(st.one_of(cli_argv(), file_argv()))
def test_drawn_command_lines_exit_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # a drawn --file value is the file's contents: pass a file holding them
        spec = pathlib.Path(tmp) / "spec.json"
        line = list(argv)
        for i in range(1, len(line)):
            if line[i - 1] == "--file":
                spec.write_text(line[i])
                line[i] = str(spec)
        try:
            code = main(line)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err.getvalue() == "", argv
    elif argv[:2] == ["theta", "filler"] and out.getvalue() == "no filler\n":
        # the negative answer test_theta_actions_print_their_answer pins:
        # exit 1 with the answer on stdout
        assert code == 1 and err.getvalue() == "", argv
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
