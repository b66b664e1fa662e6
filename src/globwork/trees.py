"""Planar rooted trees encoding globular sums.

A tree is the canonical encoding of a globular sum: leaf heights read
left-to-right give the top dimensions, junction heights of consecutive
leaves give the gluing dimensions.  The empty bracket ``[]`` is the point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Tree:
    children: tuple["Tree", ...] = ()

    def __str__(self):
        return "[" + "".join(str(c) for c in self.children) + "]"

    @property
    def arity(self):
        return len(self.children)

    @property
    def is_leaf(self):
        return not self.children

    def n_nodes(self):
        return 1 + sum(c.n_nodes() for c in self.children)

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

    @staticmethod
    def from_json(data):
        return Tree(tuple(Tree.from_json(c) for c in data))


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


MAX_PARSE_DEPTH = 100


def _too_deep():
    return SizeGuardError(f"tree is deeper than the bound {MAX_PARSE_DEPTH}")


def parse_tree(text: str) -> Tree:
    """Parse the bracket grammar ``tree := '[' tree* ']'``.

    The shorthand ``Dk`` (e.g. ``D2``) is accepted for globes.  Trees of
    dimension above ``MAX_PARSE_DEPTH`` are refused: the package recurses
    along the height of a tree.
    """
    s = text.strip()
    if s and s[0] in "Dd" and s[1:].isdigit():
        k = int(s[1:])
        if k > MAX_PARSE_DEPTH:
            raise _too_deep()
        return globe(k)
    pos = 0

    def parse_node(depth):
        nonlocal pos
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
                pos += 1
                return Tree(tuple(kids))
            kids.append(parse_node(depth + 1))

    t = parse_node(0)
    if pos != len(s):
        raise ParseError("stray characters after tree", pos)
    return t


@dataclass(frozen=True)
class DimensionTable:
    """Tops i_1..i_m and joins i'_1..i'_{m-1} with i'_k < i_k, i'_k < i_{k+1}."""

    tops: tuple[int, ...]
    joins: tuple[int, ...]

    def __post_init__(self):
        if len(self.tops) != len(self.joins) + 1:
            raise InvalidTableError("need exactly m tops and m-1 joins")
        if any(i < 0 for i in self.tops) or any(j < 0 for j in self.joins):
            raise InvalidTableError("table entries must be naturals")
        for k, j in enumerate(self.joins):
            if not (j < self.tops[k] and j < self.tops[k + 1]):
                raise InvalidTableError(
                    f"join {j} at position {k} is not below both neighbours"
                )

    def __str__(self):
        tops = ",".join(str(i) for i in self.tops)
        joins = ",".join(str(j) for j in self.joins)
        return f"({tops};{joins})"

    @staticmethod
    def parse(text: str) -> "DimensionTable":
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")) or ";" not in s:
            raise InvalidTableError(f"bad table literal: {text!r}")
        tops_s, joins_s = s[1:-1].split(";", 1)
        tops = tuple(int(x) for x in tops_s.split(",") if x.strip() != "")
        joins = tuple(int(x) for x in joins_s.split(",") if x.strip() != "")
        return DimensionTable(tops, joins)


def dim(t: Tree) -> int:
    """Dimension of the globular sum: the maximal leaf height."""
    if t.is_leaf:
        return 0
    return 1 + max(dim(c) for c in t.children)


def tree_to_table(t: Tree) -> DimensionTable:
    tops = []
    joins = []

    def walk(node, height):
        if node.is_leaf:
            tops.append(height)
            return
        for i, c in enumerate(node.children):
            if i > 0:
                # junction between the leaves flanking this gap sits here
                joins.append(height)
            walk(c, height + 1)

    walk(t, 0)
    return DimensionTable(tuple(tops), tuple(joins))


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

    def strip(node, height):
        kids = tuple(strip(c, height + 1) for c in node.children if height + 1 < d
                     or not c.is_leaf)
        return Tree(kids)

    return strip(t, 0)


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


def decompose(t: Tree) -> tuple[Tree, ...]:
    """The unique suspension blocks: the root's branches, re-rooted.

    The point decomposes into the empty sequence.
    """
    return t.children


def reassemble(blocks) -> Tree:
    """Inverse of decompose: suspend each block and join along the point."""
    return Tree(tuple(blocks))


@dataclass(frozen=True)
class Sector:
    """One gap at a node: ``gap`` indexes the r+1 slots around r children."""

    path: tuple[int, ...]
    gap: int


@dataclass(frozen=True)
class ExtendedTree:
    base: Tree
    sector: Sector
    result: Tree
    klass: str


def insert_at(t: Tree, sector: Sector) -> Tree:
    def ins(node, path):
        if not path:
            kids = list(node.children)
            kids.insert(sector.gap, LEAF)
            return Tree(tuple(kids))
        i = path[0]
        kids = list(node.children)
        kids[i] = ins(kids[i], path[1:])
        return Tree(tuple(kids))

    parent = t.subtree(sector.path)
    if sector.gap < 0 or sector.gap > parent.arity:
        raise DomainError(f"gap {sector.gap} out of range at {sector.path}")
    return ins(t, sector.path)


def classify_sector(t: Tree, sector: Sector) -> str:
    """Tag an insertion by height, sibling position and fiber arity."""
    height = len(sector.path) + 1
    parent = t.subtree(sector.path)
    r = parent.arity
    if height == 1:
        if sector.gap == r:
            return H1_RIGHT
        if sector.gap == 0 and r > 0:
            return H1_LEFT
        return H1_MID
    if height == 2:
        if r == 0:
            return H2_OVER_EDGE
        if sector.gap == r:
            return H2_MAX
        if sector.gap == 0:
            return H2_MIN
        return H2_MID
    return H3


def sectors_counterclockwise(t: Tree) -> list[Sector]:
    """All sectors in contour order: start at the bottom-right corner and
    walk the outline of the tree counterclockwise."""

    def walk(node, path):
        r = node.arity
        out = [Sector(path, r)]
        for i in range(r - 1, -1, -1):
            if node.children[i].is_leaf:
                out.append(Sector(path + (i,), 0))
            else:
                out.extend(walk(node.children[i], path + (i,)))
            out.append(Sector(path, i))
        return out

    if t.is_leaf:
        return [Sector((), 0)]
    return walk(t, ())


def linearization(t: Tree) -> list[ExtendedTree]:
    """The ordered one-vertex extensions of ``t``."""
    out = []
    for sector in sectors_counterclockwise(t):
        out.append(
            ExtendedTree(
                base=t,
                sector=sector,
                result=insert_at(t, sector),
                klass=classify_sector(t, sector),
            )
        )
    return out


def count_sectors(t: Tree) -> int:
    return sum(t.subtree(p).arity + 1 for p in t.nodes())


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

    def with_nodes(n):
        # weakly-ordered compositions: root uses 1 node, children use n-1
        if n == 1:
            yield LEAF
            return
        for parts in _compositions(n - 1):
            for kids in itertools.product(*(with_nodes(p) for p in parts)):
                yield Tree(kids)

    for n in range(1, max_nodes + 1):
        yield from with_nodes(n)


def _compositions(n):
    """Compositions of n >= 1, first part ascending.  A cut after position i
    ends a part there; trying the cut before its absence gives that order."""
    for cuts in itertools.product((True, False), repeat=n - 1):
        ends = [i for i, cut in enumerate(cuts, 1) if cut] + [n]
        yield tuple(b - a for a, b in zip([0] + ends, ends))
