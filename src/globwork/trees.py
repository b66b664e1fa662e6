"""Planar rooted trees encoding globular sums.

A tree is the canonical encoding of a globular sum: leaf heights read
left-to-right give the top dimensions, junction heights of consecutive
leaves give the gluing dimensions.  The empty bracket ``[]`` is the point.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections import namedtuple
from .errors import ParseError, InvalidTableError, DomainError, SizeGuardError

# Classification tags for one-vertex extensions, keyed to the insertion
# height and the position of the new vertex in its parent's fiber.
H1_RIGHT = "H1-Right"
H1_LEFT = "H1-Left"
H1_MID = "H1-Mid"
H2_OVER_EDGE = "H2-OverEdge"
H2_MAX = "H2-Max"
H2_MIN = "H2-Min"
H2_MID = "H2-Mid"
H3 = "H3"

ALL_KLASSES = (H1_RIGHT, H1_LEFT, H1_MID, H2_OVER_EDGE, H2_MAX, H2_MIN, H2_MID, H3)

# The package recurses along the height of a tree, so no tree of dimension
# above this bound is built: the constructor refuses it, and the parser
# refuses its input on the way down, before recursing that deep.
MAX_PARSE_DEPTH = 100


def _too_deep():
    return SizeGuardError(f"tree is deeper than the bound {MAX_PARSE_DEPTH}")


class Frozen:
    """Base of the value classes: slotted, refusing assignment after
    construction, with the repr and the pickle recipe read off ``_fields``,
    the fields that equality and the hash compare."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


_new = object.__new__
_set = object.__setattr__


class Hashed(Frozen):
    """Base of the hash-consed value classes: one object per value, so
    equality is identity.  A subclass keeps its values in its own
    ``_table``, keyed by the tuple of their fields; its ``__new__`` looks
    the key up and calls ``_intern`` only on a miss.  The hash, stored when
    the object is made, is that of the tuple of its fields, the value a
    hash recomputed from the fields gives, so sets and dicts of these values
    keep their order."""

    __slots__ = ()

    def __hash__(self):
        return self._h

    def _check(self):
        """Refuse a value before it is recorded; a subclass may also set
        the slots it derives from the fields here."""

    @classmethod
    def _intern(cls, fields):
        """Make the value holding ``fields``, check it, and record it in
        the class's table: a refused value is never recorded."""
        v = _new(cls)
        for name, value in zip(cls._fields, fields):
            _set(v, name, value)
        _set(v, "_h", hash(fields))
        v._check()
        cls._table[fields] = v
        return v


class Tree(Hashed):
    # the dimension and the node count, stored so that dim() and n_nodes() do not walk the tree
    __slots__ = ("children", "_h", "_height", "_nodes")
    _fields = ("children",)
    _table: dict = {}

    def __new__(cls, children: tuple["Tree", ...] = ()):
        key = (children,)
        t = cls._table.get(key)
        return cls._intern(key) if t is None else t

    def _check(self):
        children = self.children
        height = 1 + max(c._height for c in children) if children else 0
        if height > MAX_PARSE_DEPTH:
            raise _too_deep()
        _set(self, "_height", height)
        _set(self, "_nodes", 1 + sum(c._nodes for c in children))

    def __str__(self):
        return "[" + "".join(str(c) for c in self.children) + "]"

    @property
    def arity(self):
        return len(self.children)

    @property
    def is_leaf(self):
        return not self.children

    def n_nodes(self):
        return self._nodes

    def n_leaves(self):
        if self.is_leaf:
            return 1
        return sum(c.n_leaves() for c in self.children)

    def subtree(self, path):
        t = self
        for i in path:
            t = t.children[i]
        return t

    def nodes(self, prefix=()):
        """All node paths in preorder (left-to-right)."""
        yield prefix
        for i, c in enumerate(self.children):
            yield from c.nodes(prefix + (i,))

    def to_json(self):
        return [c.to_json() for c in self.children]


LEAF = Tree()


@functools.lru_cache(maxsize=None)
def globe(k: int) -> Tree:
    """The k-globe: a chain of k+1 nodes."""
    if k < 0:
        raise DomainError(f"globe dimension must be >= 0, got {k}")
    t = LEAF
    for _ in range(k):
        t = Tree((t,))
    return t


def parse_tree(text: str) -> Tree:
    """Parse the bracket grammar ``tree := '[' tree* ']'``.

    The shorthand ``Dk`` (e.g. ``D2``) is accepted for globes.  Trees of
    dimension above ``MAX_PARSE_DEPTH`` are refused.
    """
    s = text.strip()
    if s and s[0] in "Dd" and s[1:].isdigit():
        return globe(int(s[1:]))
    t, pos = _parse_node(s, 0, 0)
    if pos != len(s):
        raise ParseError("stray characters after tree", pos)
    return t


def _parse_node(s: str, pos: int, depth: int):
    """The tree whose bracket opens at ``s[pos]``, at ``depth`` brackets
    inside the root's, and the position after its closing bracket."""
    if pos >= len(s) or s[pos] != "[":
        raise ParseError("expected '['", pos)
    if depth > MAX_PARSE_DEPTH:
        raise _too_deep()
    pos += 1
    kids = []
    while True:
        if pos >= len(s):
            raise ParseError("unbalanced brackets", pos)
        if s[pos] == "]":
            return Tree(tuple(kids)), pos + 1
        kid, pos = _parse_node(s, pos, depth + 1)
        kids.append(kid)


class DimensionTable(Hashed):
    """Tops i_1..i_m and joins i'_1..i'_{m-1} with i'_k < i_k, i'_k < i_{k+1}."""

    __slots__ = ("tops", "joins", "_h")
    _fields = __slots__[:2]
    _table: dict = {}

    def __new__(cls, tops: tuple[int, ...], joins: tuple[int, ...]):
        key = (tops, joins)
        tbl = cls._table.get(key)
        return cls._intern(key) if tbl is None else tbl

    def _check(self):
        tops, joins = self.tops, self.joins
        if len(tops) != len(joins) + 1:
            raise InvalidTableError("need exactly m tops and m-1 joins")
        if any(i < 0 for i in tops) or any(j < 0 for j in joins):
            raise InvalidTableError("table entries must be naturals")
        for k, j in enumerate(joins):
            if not (j < tops[k] and j < tops[k + 1]):
                raise InvalidTableError(
                    f"join {j} at position {k} is not below both neighbours"
                )

    def __str__(self):
        tops = ",".join(str(i) for i in self.tops)
        joins = ",".join(str(j) for j in self.joins)
        return f"({tops};{joins})"


def dim(t: Tree) -> int:
    """Dimension of the globular sum: the maximal leaf height."""
    return t._height


@functools.lru_cache(maxsize=None)
def tree_to_table(t: Tree) -> DimensionTable:
    """The leaf heights and the junction heights of consecutive leaves,
    built once per tree."""
    tops = []
    joins = []
    _read_table(t, 0, tops, joins)
    return DimensionTable(tuple(tops), tuple(joins))


def _read_table(node: Tree, height: int, tops: list, joins: list):
    """Append the leaf heights and the junction heights below ``node``,
    which sits at ``height``, to ``tops`` and ``joins``."""
    if node.is_leaf:
        tops.append(height)
        return
    for i, c in enumerate(node.children):
        if i > 0:
            # junction between the leaves flanking this gap sits here
            joins.append(height)
        _read_table(c, height + 1, tops, joins)


def table_to_tree(tbl: DimensionTable) -> Tree:
    """Inverse of tree_to_table."""
    # Maintain the rightmost root-to-leaf path as a stack of child lists.
    spine = [[] for _ in range(tbl.tops[0] + 1)]
    for k, j in enumerate(tbl.joins):
        # close the path down to height j, then grow a fresh branch to the
        # next top height
        for h in range(len(spine) - 1, j, -1):
            node = Tree(tuple(spine[h]))
            spine[h - 1].append(node)
        spine = spine[: j + 1] + [[] for _ in range(tbl.tops[k + 1] - j)]
    for h in range(len(spine) - 1, 0, -1):
        spine[h - 1].append(Tree(tuple(spine[h])))
    return Tree(tuple(spine[0]))


def boundary(t: Tree) -> Tree:
    """Delete every vertex at maximal height.

    Those vertices are leaves, so the result is again a tree; its dimension
    drops by exactly one.
    """
    d = dim(t)
    if d == 0:
        raise DomainError("the point has no boundary")
    return _strip(t, d - 1)


def _strip(node: Tree, room: int) -> Tree:
    """``node`` without its vertices more than ``room`` levels above it."""
    return Tree(tuple(_strip(c, room - 1) for c in node.children if room > 0 or not c.is_leaf))


def boundary_table_oracle(t: Tree) -> Tree:
    """Boundary via the table rule: decrement maximal tops, then merge.

    Decrementing can break the table invariants (a decremented top may land
    on an adjacent join); the merge pass deletes such top/join pairs.  Used
    only as a cross-check against height-deletion.
    """
    d = dim(t)
    if d == 0:
        raise DomainError("the point has no boundary")
    tbl = tree_to_table(t)
    tops = [i - 1 if i == d else i for i in tbl.tops]
    joins = list(tbl.joins)
    changed = True
    while changed:
        changed = False
        for k in range(len(tops)):
            left_bad = k > 0 and joins[k - 1] >= tops[k]
            right_bad = k < len(joins) and joins[k] >= tops[k]
            if left_bad:
                del tops[k], joins[k - 1]
                changed = True
                break
            if right_bad:
                del tops[k], joins[k]
                changed = True
                break
    return table_to_tree(DimensionTable(tuple(tops), tuple(joins)))


def suspend(t: Tree) -> Tree:
    """New root with the old tree as its single branch; all heights shift up."""
    return Tree((t,))


# ---------------------------------------------------------------------------
# cells: a cell of a tree is a pair (node path, gap), an n-cell at depth n


@functools.lru_cache(maxsize=None)
def leaf_paths(t: Tree):
    """Paths of all leaves, left to right."""
    if t.is_leaf:
        return ((),)
    out = []
    for i, c in enumerate(t.children):
        out.extend((i,) + p for p in leaf_paths(c))
    return tuple(out)


def cells(t: Tree, path=()) -> list:
    """The cells (node path, gap) of a tree in preorder."""
    out = [(path, gap) for gap in range(t.arity + 1)]
    for i, child in enumerate(t.children):
        # a leaf has one cell, and is not worth a call
        out += cells(child, path + (i,)) if child.children else [(path + (i,), 0)]
    return out


def face(cell, e: int, side: str):
    """The e-dimensional source ("s") or target ("t") face of a cell."""
    path, _ = cell
    return path[:e], path[e] + (side == "t")


def leaf_address(t: Tree, cell) -> tuple[int, str]:
    """The leaf whose globe carries a cell, and the chain of faces, from the
    leaf's top dimension down, that lands on it.  A leaf carries its own
    cell.  Gap g < arity of a node is the source face of child g, and the
    last gap the target face of the last child; the child's cells are then
    reached from its leftmost leaf by source faces, so the leaf is the
    first one at or after the child's path."""
    path, gap = cell
    paths = leaf_paths(t)
    node = t.subtree(path)
    if node.is_leaf:
        return bisect.bisect_left(paths, path), ""
    last = gap == node.arity
    leaf = bisect.bisect_left(paths, path + (gap - last,))
    return leaf, "s" * (len(paths[leaf]) - len(path) - 1) + ("t" if last else "s")


class Sector(namedtuple("Sector", "path gap")):
    """One gap at a node: ``gap`` indexes the r+1 slots around r children."""

    __slots__ = ()


class ExtendedTree(namedtuple("ExtendedTree", "base sector klass")):
    __slots__ = ()

    @property
    def result(self) -> Tree:
        """The extended tree, built on each read."""
        return insert_at(self.base, self.sector)


def insert_at(t: Tree, sector: Sector) -> Tree:
    parent = t.subtree(sector.path)
    if sector.gap < 0 or sector.gap > parent.arity:
        raise DomainError(f"gap {sector.gap} out of range at {sector.path}")
    return _insert(t, sector.path, sector.gap)


def _insert(node: Tree, path, gap: int) -> Tree:
    """``node`` with a new leaf in gap ``gap`` of its descendant at ``path``."""
    kids = list(node.children)
    if not path:
        kids.insert(gap, LEAF)
    else:
        kids[path[0]] = _insert(kids[path[0]], path[1:], gap)
    return Tree(tuple(kids))


def _klass(height: int, gap: int, r: int) -> str:
    if height == 1:
        if gap == r:
            return H1_RIGHT
        if gap == 0 and r > 0:
            return H1_LEFT
        return H1_MID
    if height == 2:
        if r == 0:
            return H2_OVER_EDGE
        if gap == r:
            return H2_MAX
        if gap == 0:
            return H2_MIN
        return H2_MID
    return H3


def linearization(t: Tree) -> list[ExtendedTree]:
    """The ordered one-vertex extensions of ``t``: its sectors in contour
    order, starting at the bottom-right corner and walking the outline of
    the tree counterclockwise, each tagged where the walk passes it."""
    out = []
    _contour(t, t, (), out)
    return out


def _contour(t: Tree, node: Tree, path, out: list):
    """Append the sectors of the subtree of ``t`` at ``path``, which is
    ``node``, to ``out`` in contour order, each tagged as an extension."""
    r = node.arity
    out.append(ExtendedTree(t, Sector(path, r), _klass(len(path) + 1, r, r)))
    for i in range(r - 1, -1, -1):
        if node.children[i].is_leaf:
            out.append(ExtendedTree(t, Sector(path + (i,), 0), _klass(len(path) + 2, 0, 0)))
        else:
            _contour(t, node.children[i], path + (i,), out)
        out.append(ExtendedTree(t, Sector(path, i), _klass(len(path) + 1, i, r)))


def tree_to_dot(t: Tree, highlight_path=None) -> str:
    """DOT rendering; ``highlight_path`` marks one vertex (e.g. an insertion)."""
    lines = ["digraph tree {", "  node [shape=point, width=0.1];"]
    names = {}
    for k, path in enumerate(t.nodes()):
        names[path] = f"n{k}"
        attrs = ""
        if highlight_path is not None and path == tuple(highlight_path):
            attrs = ' [color=red, width=0.18]'
        lines.append(f"  {names[path]}{attrs};")
    for path in t.nodes():
        for i in range(t.subtree(path).arity):
            child = path + (i,)
            style = ""
            if highlight_path is not None and child == tuple(highlight_path):
                style = ' [color=red, penwidth=2]'
            lines.append(f"  {names[path]} -> {names[child]}{style};")
    lines.append("}")
    return "\n".join(lines)


def extension_to_dot(ext: ExtendedTree) -> str:
    new_vertex = ext.sector.path + (ext.sector.gap,)
    return tree_to_dot(ext.result, highlight_path=new_vertex)


def all_trees(max_nodes: int):
    """All planar rooted trees with at most ``max_nodes`` nodes."""
    for n in range(1, max_nodes + 1):
        yield from _trees_with_nodes(n)


def _trees_with_nodes(n: int):
    """The planar rooted trees with exactly ``n`` nodes."""
    # weakly-ordered compositions: root uses 1 node, children use n-1
    if n == 1:
        yield LEAF
        return
    for parts in _compositions(n - 1):
        for kids in itertools.product(*(_trees_with_nodes(p) for p in parts)):
            yield Tree(kids)


def _compositions(n):
    """Compositions of n >= 1, first part ascending.  A cut after position i
    ends a part there; trying the cut before its absence gives that order."""
    for cuts in itertools.product((True, False), repeat=n - 1):
        ends = [i for i, cut in enumerate(cuts, 1) if cut] + [n]
        yield tuple(b - a for a, b in zip([0] + ends, ends))
