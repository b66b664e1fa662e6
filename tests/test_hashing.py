"""The memoised hashes of the value classes equal the hashes of the tuples
of their compared fields, so sets and dicts keep the iteration order they
had when the hash was recomputed on every call."""

from globwork.theta import ThetaMap, hom
from globwork.theory import Term, TermCell, groupoidalize, standard_library
from globwork.trees import Tree, all_trees, globe, parse_tree

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


def test_equal_values_share_the_hash():
    for t in all_trees(5):
        fresh = parse_tree(str(t))
        assert fresh is not t and fresh._h is None
        assert hash(fresh) == hash(t) and fresh == t
