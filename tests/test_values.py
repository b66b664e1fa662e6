"""The value classes are plain slotted classes and named tuples: importing
the package loads no class-generating machinery, every constructor check
runs on every construction path, and no field can be reassigned."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from globwork import theta
from globwork.computads import FCell, fvar
from globwork.errors import InvalidTableError, TypingError
from globwork.theory import OperationSymbol, Term, TermCell, standard_library
from globwork.theta import HGFactorization, ThetaMap, hg_factorize, hom, identity
from globwork.trees import (
    DimensionTable,
    ExtendedTree,
    Sector,
    Tree,
    globe,
    linearization,
    parse_tree,
    tree_to_table,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
A = parse_tree("[[[]][]]")


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, which may import either module on their own
    script = "import sys, globwork.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def values():
    th = standard_library(2)
    f = hom(globe(1), A)[3]
    term = th.symbol("c1").src
    return [
        A,
        f,
        term.sole,
        term,
        fvar("f", 1, fvar("x", 0), fvar("y", 0)),
        Sector((0,), 1),
        linearization(A)[0],
        hg_factorize(f),
        th.symbol("c1"),
        tree_to_table(A),
    ]


def test_fields_refuse_assignment():
    for v in values():
        fields = v._fields + (("_h",) if hasattr(v, "_h") else ())
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(v, name)


def test_values_pickle_and_repr_as_before():
    for v in values():
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v) and type(back) is type(v)
    # the text a dataclass repr gave
    assert repr(parse_tree("[[]]")) == "Tree(children=(Tree(children=()),))"
    assert repr(identity(globe(0))) == "ThetaMap(source=Tree(children=()), target=Tree(children=()), phi=(0,), components=())"
    assert repr(TermCell(op="c1", args=None)) == "TermCell(glob=None, op='c1', args=None)"
    assert repr(Sector((0,), 1)) == "Sector(path=(0,), gap=1)"
    assert repr(DimensionTable((1, 1), (0,))) == "DimensionTable(tops=(1, 1), joins=(0,))"
    assert repr(FCell("var", "x")) == "FCell(kind='var', name='x', args=(), dim=0, src=None, tgt=None)"


def test_equality_keeps_to_one_class():
    f = identity(globe(0))
    for v in (A, f, TermCell(glob=f), Term(A, A, ()), tree_to_table(A)):
        assert v.__eq__(object()) is NotImplemented
        assert v == v and v != tuple(getattr(v, name) for name in v._fields)


def test_theta_map_constructor_runs_check_map(monkeypatch):
    # the refusals themselves are test_theta.test_map_refusals
    checked = []
    monkeypatch.setattr(theta, "check_map", checked.append)
    D1, leaf = globe(1), identity(globe(0))
    f = ThetaMap(D1, D1, (1, 0), ((),))
    g = ThetaMap(source=D1, target=D1, phi=(0, 1), components=((leaf,),))
    assert checked == [f, g]


def test_term_cell_is_globular_or_an_application():
    for kwargs in ({}, {"glob": identity(globe(0)), "op": "c1"}):
        with pytest.raises(TypingError, match="either globular"):
            TermCell(**kwargs)


def test_bad_table_is_refused_by_every_constructor():
    bad = ((1, 1), (1,))  # the join is not below its neighbours
    for build in (
        lambda: DimensionTable(*bad),
        lambda: DimensionTable(tops=bad[0], joins=bad[1]),
    ):
        with pytest.raises(InvalidTableError, match="not below both neighbours"):
            build()
    with pytest.raises(InvalidTableError, match="m tops"):
        DimensionTable((1,), (0,))
    with pytest.raises(InvalidTableError, match="naturals"):
        DimensionTable((-1,), ())
    # no unchecked copy path: no named-tuple helpers, and unpickling goes
    # through the constructor
    assert not hasattr(DimensionTable, "_make") and not hasattr(DimensionTable, "_replace")
    smuggled = object.__new__(DimensionTable)
    for name, value in zip(DimensionTable.__slots__, bad):
        DimensionTable.__dict__[name].__set__(smuggled, value)
    with pytest.raises(InvalidTableError):
        pickle.loads(pickle.dumps(smuggled))


def test_records_are_tuples_of_their_fields():
    # the hash, and so set and dict order, is the tuple hash of the fields
    sym = standard_library(2).symbol("c1")
    assert isinstance(sym, OperationSymbol) and hash(sym) == hash(tuple(sym))
    ext = linearization(A)[0]
    assert isinstance(ext, ExtendedTree) and ext == (ext.base, ext.sector, ext.klass)
    h = hg_factorize(hom(globe(1), A)[3])
    assert isinstance(h, HGFactorization) and h.middle == h.homogeneous.target
