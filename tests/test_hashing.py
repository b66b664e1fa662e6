"""The memoised hashes of the value classes equal the hashes of the tuples
of their compared fields, so sets and dicts keep the iteration order they
had when the hash was recomputed on every call; trees, tables and terms
are hash-consed, one object per value."""

import copy
import pickle

import pytest

from globwork.errors import InvalidTableError, SizeGuardError, TypingError
from globwork.theta import ThetaMap, hom, map_from_json
from globwork.theory import Term, TermCell, groupoidalize, standard_library
from globwork.trees import (
    LEAF, MAX_PARSE_DEPTH, DimensionTable, Tree, all_trees, globe, parse_tree, table_to_tree,
    tree_to_table,
)

# the fields each value class compares, written out here rather than read
# off the class, so that the oracle does not trust the code it checks
FIELDS = {
    Tree: ("children",),
    ThetaMap: ("source", "target", "phi", "components"),
    TermCell: ("glob", "op", "args"),
    Term: ("source", "target", "cells"),
}
VALUES = tuple(FIELDS)


class StandIn:
    """An item of a tuple with a given hash: a tuple's hash reads only the
    hashes of its items."""

    __slots__ = ("h",)

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def field_hash(v):
    """hash of v's compared fields, recomputed all the way down."""
    return hash(tuple(stand_in(getattr(v, name)) for name in FIELDS[type(v)]))


def stand_in(x):
    if isinstance(x, VALUES):
        return StandIn(field_hash(x))
    if isinstance(x, tuple):
        return tuple(stand_in(y) for y in x)
    return x


def assert_memo_matches(values):
    for v in values:
        assert hash(v) == field_hash(v)
        assert v._h == hash(v)


def test_tree_hashes():
    assert_memo_matches(list(all_trees(7)))


def test_map_hashes():
    assert_memo_matches([f for T in all_trees(5) for k in range(3) for f in hom(globe(k), T)])


def test_term_hashes():
    th = standard_library(3)
    for tower in (th, groupoidalize(th)):
        terms = [t for s in tower.symbols.values() for t in (s.src, s.tgt)]
        assert_memo_matches(terms + [c for t in terms for c in t.cells])


def test_equal_values_are_one_object():
    # rebuilding a value by any route hands back the object already made
    def assert_copies_are_itself(v):
        assert pickle.loads(pickle.dumps(v)) is v and copy.copy(v) is v

    for t in all_trees(5):
        assert parse_tree(str(t)) is t
        assert table_to_tree(tree_to_table(t)) is t
        assert_copies_are_itself(t)
        tbl = tree_to_table(t)
        assert DimensionTable(tbl.tops, tbl.joins) is tbl and hash(tbl) == hash((tbl.tops, tbl.joins))
        assert_copies_are_itself(tbl)
    th = standard_library(3)
    for tower in (th, groupoidalize(th)):
        terms = [t for s in tower.symbols.values() for t in (s.src, s.tgt)]
        for t in terms:
            assert Term(t.source, t.target, t.cells) is t
            assert_copies_are_itself(t)
            for c in t.cells:
                assert TermCell(c.glob, c.op, c.args) is c
                assert_copies_are_itself(c)
    # a cell over a map equal to its own, but another object, is that cell
    cell = next(c for t in terms for c in t.cells if c.is_glob)
    f = cell.glob
    g = map_from_json(f.source, f.target, f.to_json())
    assert g is not f and g == f
    assert TermCell(glob=g) is cell and cell.glob is f


def test_refused_values_are_not_recorded():
    top, f = globe(MAX_PARSE_DEPTH), hom(LEAF, LEAF)[0]
    before = dict(Tree._table), dict(TermCell._table), dict(DimensionTable._table)
    # refused on every call, and never entered in the tables
    for _ in range(2):
        with pytest.raises(SizeGuardError):
            Tree((top,))
        for kwargs in ({}, {"glob": f, "op": "c1"}):
            with pytest.raises(TypingError, match="either globular"):
                TermCell(**kwargs)
        with pytest.raises(InvalidTableError, match="not below both neighbours"):
            DimensionTable((1, 1), (1,))
    assert ((top,),) not in Tree._table
    assert (None, None, None) not in TermCell._table and (f, "c1", None) not in TermCell._table
    assert ((1, 1), (1,)) not in DimensionTable._table
    assert (dict(Tree._table), dict(TermCell._table), dict(DimensionTable._table)) == before
