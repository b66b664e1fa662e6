import json
import os
import pathlib
import subprocess
import sys

import pytest

from globwork.cli import main

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


def test_tree_domain_error_exit_code(capsys):
    code = main(["tree", "boundary", "[]"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["tree", "frobnicate", "[]"])
    assert e.value.code == 2


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


def test_theory_from_file(tmp_path, capsys):
    spec = {
        "batches": [
            [
                {
                    "name": "extra_op",
                    "arity": "[[][]]",
                    "k": 1,
                    "src": {"cells": [{"leaf": 0, "chain": "s"}]},
                    "tgt": {"cells": [{"leaf": 1, "chain": "t"}]},
                }
            ]
        ]
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code, out = run(capsys, "theory", "build", "--file", str(f))
    assert code == 0
    assert "extra_op" in out


def test_cyl_present(capsys):
    code, out = run(capsys, "cyl", "present", "--k", "2")
    assert code == 0
    assert "(4, 6, 4, 1)" in out


def test_cyl_stack(capsys):
    code, out = run(capsys, "cyl", "stack", "--tree", NINE_TREE, "--k", "2")
    assert code == 0
    assert "H2-OverEdge" in out
    assert "composite: C_t*rho(U) ~> rho(V)*C_s" in out


def test_cyl_stack_dot(capsys):
    code, out = run(capsys, "cyl", "stack", "--tree", NINE_TREE, "--dot", "0")
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
        ["cyl", "stack", "--tree", "[[][]]", "--index", "99"],
        ["cyl", "stack", "--tree", "[[][]]", "--index", "-99"],
        ["cyl", "stack", "--tree", "[[][]]", "--index", "-1"],
        ["theta", "filler", "D1", "D1", "--index", "0", "--second", "99"],
        ["theta", "admissible", "D1", "D1", "--index", "0", "--second", "-1"],
        ["theta", "factor", "D1", "D2", "--index", "-1"],
        ["lins", "[]", "--dot", "5"],
        ["lins", "[]", "--dot", "-1"],
    ],
)
def test_out_of_range_index_is_a_domain_error(argv):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "globwork.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_theta_admissible_defaults_second_to_first(capsys):
    code, out = run(capsys, "theta", "admissible", "D1", "D1", "--index", "0")
    assert code == 0
    assert out.strip() == "True"
