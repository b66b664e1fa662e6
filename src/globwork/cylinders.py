"""Cylinder presentations and the ordered stack over tree extensions.

The cylinder on a globe is presented by two globe copies, two connecting
1-cells, one seam cell per level and a top filler.  Every cylinder-shaped
computad on a globe (the full one, the degenerate ones whose collapsed
sides take units, and the copies inside a modification) is glued by one
step, ``_glue``; a modification is two glued copies that share the globes,
and its restriction maps Xi0/Xi1 onto the cylinder are read off the gluing
(the tests check them against the renamed cylinder for every k).

The cylinder on a sum of dimension <= 2 follows one rule, the recursion of
Lafont, Metayer & Worytkiewicz: each cell x of the tree has a top copy
u(x), a bottom copy v(x) and a connecting cell c(x) from lax(u, x), u(x)
whiskered by the c's over its target faces, to lax(v, x), v(x) whiskered by
the c's over its source faces.  The c's over points, 1-cells and 2-cells
are the sides, seams and fillers.  The ordered one-vertex extensions of
the tree give one chain of sections s_ε(i) = incl_{B_i} ∘ δ_ε from the u
copies to the v copies, with s_τ(i) = s_σ(i+1), and every structural
inclusion is read off that chain.  The sum cylinder checks the chain when
it is built, walking one list of images slice by slice, and builds each
inclusion only when it is read, so its cost is linear in the tree.  The
stack of a homogeneous operation has one square per extension, composed
vertically from the whiskered top to the whiskered bottom; the sector and
class of the extension fix the square's states and degenerate sides.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import operator
from collections import namedtuple
from collections.abc import Sequence
from .errors import DomainError, SizeGuardError, TypingError
from .trees import (
    ExtendedTree,
    Tree,
    boundary as tree_boundary,
    cells as tree_cells,
    dim as tree_dim,
    face,
    globe,
    insert_at,
    linearization,
)
from . import trees as tree_mod
from .computads import Computad, FCell, fcomp, funit, fwhisker
from .theta import ThetaMap, homogeneous_op, is_homogeneous, render
from .theory import TheoryPresentation


def _require_systems(th: TheoryPresentation, k: int):
    for j in range(1, max(k, 1) + 1):
        if f"c{j}" not in th.symbols:
            raise DomainError("cylinder presentations need the composition systems")


# ---------------------------------------------------------------------------
# cylinders on globes

def _bd_to(cell: FCell, d: int, which: str) -> FCell:
    while cell.dim > d:
        cell = cell.src if which == "s" else cell.tgt
    return cell


def _add_globe_pair(P: Computad, name: str, k: int):
    """A free k-globe worth of generators, returning the top one."""
    lo_s = P.add(f"{name}0s", 0)
    lo_t = P.add(f"{name}0t", 0)
    src, tgt = lo_s, lo_t
    for d in range(1, k):
        src2 = P.add(f"{name}{d}s", d, src, tgt)
        tgt2 = P.add(f"{name}{d}t", d, src, tgt)
        src, tgt = src2, tgt2
    top = P.add(f"{name}{k}", k, src, tgt) if k >= 1 else None
    return top


def _globes(P: Computad, k: int, same_c=False, same_d=False, merged=()):
    """The two globes of a cylinder over D_k, k in {1, 2}, added dimension by
    dimension, returning the two tops and the points a, b, c, d.

    ``same_c`` (``same_d``) identifies the second globe's source (target)
    point with the first's; a side in ``merged`` shares its 1-cell too.
    """
    a = P.add("a", 0)
    b = P.add("b", 0)
    c = a if same_c else P.add("c", 0)
    d = b if same_d else P.add("d", 0)
    if k == 1:
        return P.add("alpha", 1, a, b), P.add("beta", 1, c, d), (a, b, c, d)
    sA = P.add("sA", 1, a, b)
    tA = P.add("tA", 1, a, b)
    sB = sA if "s" in merged else P.add("sB", 1, c, d)
    tB = tA if "t" in merged else P.add("tB", 1, c, d)
    return P.add("A", 2, sA, tA), P.add("B", 2, sB, tB), (a, b, c, d)


def _glue(P: Computad, A: FCell, B: FCell, copies, seam: str, merged=()):
    """Glue one cylinder per copy between the globe tops A and B.

    A copy ``(tag, f, g, filler_name)`` brings its legs f, g between the
    globes' source and target points.  The connecting seams enter bottom-up
    in dimension, level by level across the copies, each whiskering the
    remaining pair one homotopy level deeper; ``seam`` is the format of
    their names (fields ``level``, ``side``, ``tag``) and a side in
    ``merged`` takes the unit instead.  Returns, per copy, its legs, seams
    and filler keyed by their ``cyl_presentation`` names.
    """
    pairs = [[fwhisker(A, g, "r"), fwhisker(B, f, "l")] for _, f, g, _ in copies]
    parts = [{"f": f, "g": g} for _, f, g, _ in copies]
    for level in range(2, A.dim + 1):
        for (tag, *_), pair, part in zip(copies, pairs, parts):
            for side in ("s", "t"):
                top, bottom = (_bd_to(x, level - 1, side) for x in pair)
                part[f"E{level}{side}"] = (
                    funit(top)
                    if side in merged
                    else P.add(seam.format(level=level, side=side, tag=tag), level, top, bottom)
                )
            pair[0] = fwhisker(pair[0], part[f"E{level}t"], "r")
            pair[1] = fwhisker(pair[1], part[f"E{level}s"], "l")
    for (*_, name), (top, bottom), part in zip(copies, pairs, parts):
        part["C"] = P.add(name, top.dim + 1, top, bottom)
    return parts


def cyl_presentation(k: int, th: TheoryPresentation) -> Computad:
    """The finite computad corepresenting k-cylinders, for k <= 3."""
    if k < 0 or k > 3:
        raise DomainError("cylinder presentations are built for k in 0..3")
    _require_systems(th, k)
    P = Computad(f"cyl(D{k})")
    if k == 0:
        a = P.add("a", 0)
        b = P.add("b", 0)
        P.designated["iota0"] = a
        P.designated["iota1"] = b
        P.designated["filler"] = P.add("C", 1, a, b)
        return P
    A = _add_globe_pair(P, "A", k)
    B = _add_globe_pair(P, "B", k)
    f = P.add("f", 1, P["A0s"], P["B0s"])
    g = P.add("g", 1, P["A0t"], P["B0t"])
    (part,) = _glue(P, A, B, [("", f, g, "C")], "E{level}{side}")
    P.designated["filler"] = part["C"]
    P.designated["iota0"] = A
    P.designated["iota1"] = B
    return P


def boundary_cyl(k: int, th: TheoryPresentation):
    """The boundary presentation of the k-cylinder with its gluing data.

    The presentation is the pushout of the cylinder on the (k-1)-sphere
    with two free k-cells: concretely, all generators of cyl(D_k) except
    the top filler.  Returned with the itemized boundary data and the
    inclusion (which adds exactly the filler).
    """
    if k < 1:
        raise DomainError("the 0-cylinder has no boundary presentation")
    full = cyl_presentation(k, th)
    P = Computad(f"bdcyl(D{k})")
    filler_name = full.designated["filler"].name
    for name in full.order:
        if name == filler_name:
            continue
        c = full.gens[name]
        P.gens[name] = c
        P.order.append(name)
    P.designated["iota0"] = full.designated["iota0"]
    P.designated["iota1"] = full.designated["iota1"]
    data = {
        "parallel_cylinders": [
            sorted(n for n in P.order if n.startswith("E") and n.endswith(side))
            + ["f", "g"]
            + sorted(n for n in P.order if n.endswith(side) and not n.startswith("E"))
            for side in ("s", "t")
        ],
        "top_cells": [full.designated["iota0"].name, full.designated["iota1"].name],
        "inclusion_adds": [filler_name],
    }
    return P, data


def degenerate_cyl(k: int, p, q, th: TheoryPresentation) -> Computad:
    """Cylinder presentation with collapsed iterated source/target sides.

    ``p`` (resp. ``q``) is the dimension at which the iterated source
    (resp. target) cylinder collapses; ``None`` means no collapse.
    """
    if k < 1 or k > 2:
        raise DomainError("degenerate cylinders are built for k in {1, 2}")
    for v in (p, q):
        if v is not None and not (0 <= v < k):
            raise DomainError("collapse index out of range")
    _require_systems(th, k)
    P = Computad(f"cyl^{p}_{q}(D{k})")
    f_unit = p in (0, 1) or q == 1
    g_unit = q in (0, 1) or p == 1
    merged = ("s",) * (p == 1) + ("t",) * (q == 1)
    A, B, (a, b, c, d) = _globes(P, k, f_unit, g_unit, merged)
    # a unit leg drops out of its whiskerings
    f = funit(a) if f_unit else P.add("f", 1, a, c)
    g = funit(b) if g_unit else P.add("g", 1, b, d)
    (part,) = _glue(P, A, B, [("", f, g, "C")], "E{side}", merged)
    P.designated["filler"] = part["C"]
    P.designated["iota0"] = A
    P.designated["iota1"] = B
    return P


# ---------------------------------------------------------------------------
# cylinders on globular sums, with the structural inclusions

# The sum cylinder keeps one image per cell of the tree and walks its
# section chain in slices, so its time and memory are linear in the tree:
# `globwork cyl sum` in a fresh process on a 2-core Xeon VM takes 0.07-0.09 s
# and 16-18 MB for a root with 400 leaves (401 nodes), 0.25-0.30 s and
# 31 MB for one with 4000 leaves (4001 nodes).  Trees with more nodes than
# the second are refused.
MAX_SUM_NODES = 4001


class SumCylinder(namedtuple("SumCylinder", "tree presentation atoms inclusions")):
    # atoms: (side, cell of the tree) -> generator, side "u", "v" or "c";
    # inclusions: an `Inclusions`, one per linearization element, each a
    # dict cell -> FCell built and verified when read; the chain of
    # sections they are read off is checked when the cylinder is built
    __slots__ = ()


def _gen_name(A: Tree, side: str, x) -> str:
    path, gap = x
    if not path:
        return f"{side}{gap}"
    j = path[0] + 1
    if side == "c":
        return f"om{j}_{path[1] + 1}" if len(path) == 2 else f"s{j}_{gap}"
    if len(path) == 2:
        return f"{side}x{j}_{path[1] + 1}"
    return f"{side}e{j}" + ("" if A.children[path[0]].is_leaf else f"_{gap}")


def cyl_glob_sum(A: Tree, th: TheoryPresentation) -> SumCylinder:
    """Present cyl(A) for dim(A) <= 2 with one inclusion per tree extension.

    Each cell x of A has a top copy u(x), a bottom copy v(x) and a
    connecting cell c(x) : lax(u, x) => lax(v, x).  Generators come for the
    root's points, then for each root branch; within a group the u copies,
    the v copies, then the c's, each in dimension order.  The chain of
    sections is checked here; the inclusions are built off it when read.
    Both read the lax cells through ``_lax``, whose one memo, keyed by
    (side, x, depth), makes each whiskering once, so that they compare lax
    cells by identity; the memo lives as long as the cylinder's inclusions.
    """
    if tree_dim(A) > 2:
        raise DomainError("sum cylinders are implemented through dimension 2")
    if A.n_nodes() > MAX_SUM_NODES:
        raise SizeGuardError(f"tree has {A.n_nodes()} nodes, above the bound {MAX_SUM_NODES} for sum cylinders")
    _require_systems(th, max(tree_dim(A), 1))
    P = Computad(f"cyl({A})")
    atoms = {}
    lax = functools.partial(_lax, atoms, {})
    cells = tree_cells(A)
    groups = {}
    for x in cells:
        # preorder within a root branch of height <= 1 is dimension order
        groups.setdefault(x[0][:1], []).append(x)
    for group in groups.values():
        for side in ("u", "v", "c"):
            for x in group:
                n = len(x[0])
                if side == "c":
                    bd = (lax("u", x, n), lax("v", x, n))
                else:
                    bd = tuple(atoms[(side, face(x, n - 1, w))] for w in "st") if n else ()
                atoms[(side, x)] = P.add(_gen_name(A, side, x), n + (side == "c"), *bd)
    exts, span = linearization(A), _spans(A)
    _check_chain(cells, exts, span, lax)
    return SumCylinder(A, P, atoms, Inclusions(cells, exts, span, lax))


def _lax(atoms: dict, memo: dict, side: str, x, d: int) -> FCell:
    """The copy of x on side u (v) whiskered on the right (left) by the c's
    over its target (source) faces of dimension below d; at d = 0 the
    generator over x on any side.  At d = dim x it is the lax cell: the last
    whiskering composes with c(t x) (c(s x)).  Each whiskering is made once,
    from the one before it, and kept in ``memo`` under (side, x, depth), so
    that every read of a lax cell gives the same object."""
    cell = atoms[(side, x)]
    which, hand = ("t", "r") if side == "u" else ("s", "l")
    for e in range(d):
        key = (side, x, e + 1)
        whiskered = memo.get(key)
        if whiskered is None:
            whiskered = memo[key] = fwhisker(cell, atoms[("c", face(x, e, which))], hand)
        cell = whiskered
    return cell


class Inclusions(Sequence):
    """The structural inclusions of a sum cylinder, one per extension in
    order, read off the chain of sections that ``_image_chain`` walks from
    the cells, extensions, spans and cell reader given.  Inclusion i is
    built when read: the chain is walked to s_σ(i) and s_τ(i), and
    ``_structural_inclusion`` splices them and verifies the result.  An
    iteration walks the chain once."""

    __slots__ = ("_cells", "_exts", "_span", "_read")

    def __init__(self, cells, exts, span, read):
        self._cells, self._exts, self._span, self._read = cells, exts, span, read

    def _chain(self):
        return _image_chain(self._cells, self._exts, self._span, self._read)

    def __len__(self):
        return len(self._exts)

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]
        chain = self._chain()
        before = list(next(itertools.islice(chain, i, None)))
        return self._splice(self._exts[i], before, next(chain))

    def __iter__(self):
        chain = self._chain()
        before = list(next(chain))
        for ext, after in zip(self._exts, chain):
            yield self._splice(ext, before, after)
            before = list(after)

    def _splice(self, ext, before, after):
        new = self._read("c", tuple(ext.sector), 0)
        return _structural_inclusion(ext, self._span, before, after, new)


def _spans(t: Tree, path=(), start=0, span=None) -> dict:
    """Each node's (start, stop) range in the preorder ``trees.cells`` list:
    the node's gaps, then its children's subtrees."""
    span = {} if span is None else span
    stop = start + t.arity + 1
    for i, child in enumerate(t.children):
        stop = _spans(child, path + (i,), stop, span)[path + (i,)][1]
    span[path] = (start, stop)
    return span


def _moves(exts, span):
    """Per extension in order, the three slices of the preorder cells that
    it moves along the chain of sections, each with the pair it moves them
    to.  At gap g of a node p of height h they are the subtree of child g-1,
    to ("u", h+1), that of child g, to ("v", h), and the gap itself, also to
    ("v", h)."""
    for ext in exts:
        path, gap = ext.sector
        h = len(path)
        a, b = span.get(path + (gap - 1,), (0, 0))
        c, d = span.get(path + (gap,), (0, 0))
        at = span[path][0] + gap
        yield (a, b, ("u", h + 1)), (c, d, ("v", h)), (at, at + 1, ("v", h))


def _image_chain(cells, exts, span, read):
    """The sections s_σ(0), s_τ(0) = s_σ(1), ..., s_τ(last) of the ordered
    extensions, s_ε(i) = incl_{B_i} ∘ δ_ε for the Θ-faces δ_ε : A -> B_i.
    One list holds the image of each cell x of A in preorder, with
    ``read(side, x, depth)`` the formal cell lax(side, x, depth).  It
    starts at the u copies, each extension's ``_moves`` update it in
    place, and it is yielded at each section."""
    images = [read("u", x, 0) for x in cells]
    yield images
    for step in _moves(exts, span):
        for a, b, (side, d) in step:
            images[a:b] = [read(side, x, d) for x in cells[a:b]]
        yield images


def _check_chain(cells, exts, span, read):
    """Check the chain of sections that ``_image_chain`` walks with the cell
    reader ``read`` where it changes; ``read("c", x, 0)`` is c(x).

    The walk checks s_σ(0) whole, then at each extension the moved slices
    and the new vertex: c over the sector's cell must run from the sector
    gap's image before the moves to its image after.  This makes every
    structural inclusion preserve boundaries.  A cell's faces are gaps of
    its proper ancestors (``trees.face``), so the only cells whose faces an
    extension at gap g of node p moves are those of child g-1's and child
    g's subtrees, which it moves too: each section preserves boundaries.
    The inclusion of the extension's scheme B is its two sections spliced
    at the sector (``_structural_inclusion``).  Every cell outside the
    moved slices keeps its image, and every other cell of B reads its faces
    off its own section (p's gaps up to g and its children before g off
    s_σ, the rest off s_τ), except the new vertex: the only cell of B whose
    two faces read different sections, gap g of each.
    """
    # the index of each cell's source face in preorder; its target face is next
    faces = [span[path[:-1]][0] + path[-1] if path else None for path, _ in cells]
    chain = _image_chain(cells, exts, span, read)
    images = next(chain)
    _check_section(cells, faces, images, 0, len(cells))
    for step in _moves(exts, span):
        at = step[-1][0]
        src = images[at]
        next(chain)
        # the sector's cell (p, g), and the new vertex over it as a cell of B
        path, gap = x = cells[at]
        new, tgt = read("c", x, 0), images[at]
        if new.src is not src or new.tgt is not tgt:
            _check_faces("section chain", (path + (gap,), 0), new, src, tgt)
        for a, b, _ in step:
            _check_section(cells, faces, images, a, b)


def _check_section(cells, faces, images, a, b):
    """Check that the images of the cells a..b-1 (in preorder) preserve
    boundaries, their faces read off the same images."""
    for i in range(a, b):
        s = faces[i]
        if s is not None:
            cell, src, tgt = images[i], images[s], images[s + 1]
            if cell.src is not src or cell.tgt is not tgt:
                _check_faces("section chain", cells[i], cell, src, tgt)


def _check_faces(what, x, cell, src, tgt):
    # the lax cells are shared, so the callers pass over an identical
    # boundary, the usual case, without this call
    if not (cell.src is src or cell.src == src) or not (cell.tgt is tgt or cell.tgt == tgt):
        raise TypingError(f"{what} breaks at {x}: {cell.src} vs {src} / {cell.tgt} vs {tgt}")


def _structural_inclusion(ext: ExtendedTree, span, before, after, new) -> dict:
    """Map the cells of the extension's scheme B into the cylinder, given
    its sections s_σ, s_τ as formal cells (``before``, ``after``) and c over
    the sector's cell (``new``), the image of the new vertex.  B's cells in
    preorder are A's with the sector's gap g doubled and the new vertex
    before child g's subtree; those before it take s_σ, the rest s_τ."""
    path, g = ext.sector.path, ext.sector.gap
    gaps = span[path][0]
    end = gaps + ext.base.subtree(path).arity + 1
    cut = span[path + (g - 1,)][1] if g else end
    B = ext.result
    cells = tree_cells(B)
    images = before[: gaps + g + 1] + after[gaps + g : end] + before[end:cut] + [new] + after[cut:]
    incl = {"extension": ext, "scheme": B, "mapping": dict(zip(cells, images))}
    _verify_inclusion(incl, cells)
    return incl


def _verify_inclusion(incl, cells):
    """A structural inclusion must be a map of schemes into formal cells:
    defined on exactly the cells of its scheme (``cells``), and preserving
    boundaries."""
    mapping = incl["mapping"]
    if mapping.keys() != set(cells):
        raise TypingError(f"structural inclusion is not defined on exactly the cells of {incl['scheme']}")
    for x, cell in mapping.items():
        path = x[0]
        if path:
            # the faces of x, trees.face(x, dim x - 1, "s") and "t"
            node, i = path[:-1], path[-1]
            src, tgt = mapping[(node, i)], mapping[(node, i + 1)]
            if cell.src is not src or cell.tgt is not tgt:
                _check_faces("structural inclusion", x, cell, src, tgt)


# ---------------------------------------------------------------------------
# the stack of squares over the ordered tree extensions

class StackSquare(namedtuple("StackSquare", "index element top bottom left right source_degenerate target_degenerate")):
    # a side is degenerate (flag set, no record) or has a record, at k = 1 neither;
    # p (q) is the dimension at which the source (target) side collapses, or None
    __slots__ = ()

    @property
    def case(self):
        return self.element.klass

    @property
    def p(self):
        return 0 if self.source_degenerate else None

    @property
    def q(self):
        return 0 if self.target_degenerate else None

    def to_json(self):
        return {
            "index": self.index,
            "case": self.case,
            "sector": {"path": list(self.element.sector.path), "gap": self.element.sector.gap},
            "top": self.top,
            "bottom": self.bottom,
            "left": None if self.left is None else self.left._asdict(),
            "right": None if self.right is None else self.right._asdict(),
            "degenerate": [self.source_degenerate, self.target_degenerate],
        }


# a side's record: a coherence cell between two corner texts, or rho restricted along d_eps
CohRecord = namedtuple("CohRecord", "kind src tgt")
RhoStarRecord = namedtuple("RhoStarRecord", "kind eps args plus_tree rho_eps boundary")


def _side_name(q: int, p: int) -> str:
    if q == 0:
        return "C_s"
    if q == p:
        return "C_t"
    return f"c{q}"


def _corner(state, side: str):
    """The source ("s") or target ("t") 1-cell boundary of an edge state: a
    mid state restricts through the seam on that side."""
    if state[0] == "mid":
        return ("btau" if side == "s" else "bsig", state[1])
    return state


def _after(sector) -> tuple:
    """The typed edge state after the extension at ``sector``, a tree of
    height <= 2: root gap g gives btau g (post at g = 0), gap g of root
    branch j gives mid j g (bsig j at g = 0), and the depth-2 leaf l of
    branch j gives mid j l."""
    path, gap = sector
    if not path:
        return ("btau", gap) if gap else ("post",)
    j = path[0] + 1
    if len(path) == 2:
        return ("mid", j, path[1])
    return ("mid", j, gap) if gap else ("bsig", j)


# per side, the classes whose square is degenerate there at k = 2
_DEGENERATE = {
    "s": (tree_mod.H2_MAX, tree_mod.H2_MID, tree_mod.H3),
    "t": (tree_mod.H2_MIN, tree_mod.H2_MID, tree_mod.H3),
}


# The texts of the states, one table for the process: every stack reads its
# edge and corner texts from it, so the stacks `_readings` keeps share
# their strings.  A stack needs at most three texts per section: the 140
# stacks of the criterion-9 family need 176 together, one stack of 1001
# nodes at most 6006 (1000 leaves, --k 2).  Under tracemalloc a text with
# its key takes about 200 bytes, so the table keeps the last 8192 used,
# about 1.6 MB.
MAX_RENDERED = 8192


@functools.lru_cache(maxsize=MAX_RENDERED)
def _render(state, p: int, side: str) -> str:
    """An edge state (side "") or a corner state (side "s"/"t") of a tree
    of root arity p, as a restriction of rho."""
    d = f"d{side}" if side else ""
    if state[0] == "pre":
        return f"C_t*rho{side}({d}U)"
    if state[0] == "post":
        return f"rho{side}({d}V)*C_s"
    kind, j = state[:2]
    if kind == "btau":
        seam = f"{_side_name(j, p)}*{d}U_{j}"
    elif kind == "bsig":
        seam = f"{d}V_{j}*{_side_name(j - 1, p)}"
    else:
        r = state[2]
        seam = f"{_side_name(j, p)}*U_{j}^<={r}, a_{j}.{r}, V_{j}^>{r}*{_side_name(j - 1, p)}"
    parts = ([f"{d}U_<{j}"] if j > 1 else []) + [seam] + ([f"{d}V_>{j}"] if j < p else [])
    return f"rho{side}(" + ", ".join(parts) + ")"


def _reapplied(bt: Tree, sector) -> tree_mod.Sector:
    """The sector moved onto the boundary tree ``bt``.  If the sector's parent
    was deleted (it sat at maximal height), the new vertex re-attaches to the
    deepest surviving ancestor; the gap is clamped to the surviving arity."""
    node, depth = bt, 0
    for i in sector.path:
        if i >= node.arity:
            break
        node, depth = node.children[i], depth + 1
    return tree_mod.Sector(sector.path[:depth], min(sector.gap, node.arity))


_RHO_BOUNDARY = {side: f"(d_sigma . rho_{side}, d_tau . rho_{side})" for side in "st"}


def _rho_star(rho_eps: str, plus_tree: str, side: str, A: Tree, j: int) -> RhoStarRecord:
    """A side of a square in root branch j that restricts ρ along d_ε, with
    ρ_ε rendered and ∂A with the sector re-applied; it passes the branch's
    cell F_j when the branch is a leaf, else its first (σ) or last (τ) cell."""
    if A.children[j - 1].is_leaf:
        args = f"(d{side}U_<{j}, d{side}V_>{j}, F_{j})"
    else:
        gap = 0 if side == "s" else A.children[j - 1].arity
        args = f"(d{side}U_<{j}, a_{j}.{gap}, d{side}V_>{j})"
    eps = "sigma" if side == "s" else "tau"
    return RhoStarRecord("rho_star", eps, args, plus_tree, rho_eps, _RHO_BOUNDARY[side])


# Reading a stack keeps one state at a time, but the plus trees of its
# rho_star records are as long as the tree, so its output grows with the
# square of the tree.  `globwork cyl stack` in a fresh process on a 2-core
# Xeon VM, at 1001 nodes: 0.08-0.13 s and 18 MB (--k 1, 1000 leaves) and
# 0.28-0.37 s and 20 MB (--k 2, 500 [[]] branches).
MAX_STACK_NODES = 1001


class _Readings:
    """The stacks by (k, A), each a tuple of squares, least recently used
    first, evicted while the node total of their trees is above ``bound``."""

    def __init__(self, bound: int):
        self.bound, self.nodes, self.entries = bound, 0, collections.OrderedDict()

    def get(self, key):
        squares = self.entries.get(key)
        if squares is not None:
            self.entries.move_to_end(key)
        return squares

    def put(self, key, squares):
        self.entries[key] = squares
        self.nodes += key[1].n_nodes()
        while self.nodes > self.bound:
            (_, A), _ = self.entries.popitem(last=False)
            self.nodes -= A.n_nodes()


# The stacks memo keeps trees of at most this many nodes together.  Under
# tracemalloc a stack, its texts apart, holds 4.5-8.0 KB at 8 nodes, 35-65 KB
# at 64 and 0.6-1.3 MB at 1001 (the plus trees of its records are as long as
# the tree), so a count of entries would not bound it.  The 140 stacks of the
# criterion-9 family, 996 nodes together, hold 0.8 MB; a full memo holds at
# most about 2.7 MB.
MAX_READING_NODES = 2048
_readings = _Readings(MAX_READING_NODES)


def stack(ρ: ThetaMap, th: TheoryPresentation):
    """The ordered squares interpreting a homogeneous operation on cylinders.

    Square i runs from s_σ(i) to s_τ(i) in the chain of sections, and its
    edges are their typed states.  Its side ε is degenerate when the two
    sections agree on A's ε-boundary cells: the root's points and each root
    branch's first (σ) or last (τ) 1-cell.  Any other side is a coherence
    cell when the sector is at the root, and otherwise restricts ρ along d_ε
    and carries ρ_ε, the homogeneous half of d_ε ∘ ρ.

    As ρ is homogeneous, the globular half of d_ε ∘ ρ is the
    boundary inclusion ∂A -> A when dim A = k and the identity of A when
    dim A < k, so ρ_ε is a homogeneous (k-1)-operation into ∂A (or A).  A
    homogeneous operation is determined by its target, so ρ_ε is the same
    on both sides and is built once per stack with ``homogeneous_op``.

    So ρ is the only homogeneous map D_k -> A (it is the one the scan
    finds in tests/test_theta.py::test_homogeneous_op_matches_scan), and
    the stack depends on (k, A) alone: each call checks ρ, then returns a
    new list of the squares that the memo ``_readings`` keeps, read once
    per key while it keeps it.  Squares and their records are immutable,
    so every call hands out the same ones.
    """
    k = tree_dim(ρ.source)
    if k not in (1, 2):
        raise DomainError("stacks are built for operations of dimension 1 and 2")
    if ρ.source != globe(k):
        raise DomainError("stacks interpret globe-sourced operations")
    if not is_homogeneous(ρ):
        raise DomainError("stacks interpret homogeneous operations only")
    A = ρ.target
    if A.n_nodes() > MAX_STACK_NODES:
        raise SizeGuardError(f"tree has {A.n_nodes()} nodes, above the bound {MAX_STACK_NODES} for stacks")
    _require_systems(th, k)
    squares = _readings.get((k, A))
    if squares is None:
        squares = _read(k, A)
        _readings.put((k, A), squares)
    return list(squares)


def _read(k: int, A: Tree) -> tuple:
    """The squares of the stack of (k, A), one per extension: square i runs
    from square i-1's bottom state (pre at i = 0) to ``_after`` its sector.
    At k = 2 a side is degenerate by ``_DEGENERATE``, else a coherence cell
    at the root or ρ restricted in a root branch, and its corners must agree
    with its degenerate flag."""
    p = A.arity
    bt = tree_boundary(A) if tree_dim(A) else A
    rho_eps = render(homogeneous_op(k - 1, bt if tree_dim(A) == k else A))
    plus_trees = {}
    squares, top = [], ("pre",)
    for i, ext in enumerate(linearization(A)):
        sector, bottom = ext.sector, _after(ext.sector)
        records, flags = [None, None], [False, False]
        for n, side in enumerate(("s", "t") if k >= 2 else ()):
            corners = _corner(top, side), _corner(bottom, side)
            flags[n] = degenerate = ext.klass in _DEGENERATE[side]
            if (corners[0] == corners[1]) != degenerate:
                raise TypingError(f"{'source' if side == 's' else 'target'} corner mismatch at square {i}")
            if degenerate:
                continue
            if not sector.path:
                records[n] = CohRecord("coh", *(_render(c, p, side) for c in corners))
            else:
                plus = _reapplied(bt, sector)
                if plus not in plus_trees:
                    plus_trees[plus] = str(insert_at(bt, plus))
                records[n] = _rho_star(rho_eps, plus_trees[plus], side, A, sector.path[0] + 1)
        squares.append(StackSquare(i, ext, _render(top, p, ""), _render(bottom, p, ""), *records, *flags))
        top = bottom
    return tuple(squares)


def _side_kind(degenerate: bool, record) -> str:
    return "degenerate" if degenerate else "coh" if record is None else record.kind


def _bare(sq) -> bool:
    # only a k = 1 square has a side with neither a record nor a degenerate flag
    return sq.left is None and not sq.source_degenerate


def vcompose_meta(squares) -> dict:
    """Bookkeeping for the vertical composite of a compatible stack, whose
    squares follow each other in one stack: one tree, one k and consecutive
    indices.  These are the squares whose sections meet, as the sections of
    a chain are pairwise distinct (the tests check both)."""
    if not squares:
        raise DomainError("empty stacks have no composite")
    for a, b in zip(squares, squares[1:]):
        if b.element.base is not a.element.base or b.index != a.index + 1 or _bare(a) != _bare(b):
            raise DomainError(f"stack is not composable between squares {a.index} and {b.index}")
    return {
        "top": squares[0].top,
        "bottom": squares[-1].bottom,
        "p": min((sq.p for sq in squares if sq.p is not None), default=None),
        "q": min((sq.q for sq in squares if sq.q is not None), default=None),
        "source_record": tuple(_side_kind(sq.source_degenerate, sq.left) for sq in squares),
        "target_record": tuple(_side_kind(sq.target_degenerate, sq.right) for sq in squares),
    }


def stack_to_dot(squares) -> str:
    lines = ["digraph stack {", '  node [shape=box, fontsize=10];']
    for sq in squares:
        flags = []
        if sq.source_degenerate:
            flags.append("s-degen")
        if sq.target_degenerate:
            flags.append("t-degen")
        label = f"{sq.index}: {sq.case}" + (f" [{' '.join(flags)}]" if flags else "")
        lines.append(f'  sq{sq.index} [label="{label}\\n{sq.top}\\n{sq.bottom}"];')
    for a, b in zip(squares, squares[1:]):
        lines.append(f"  sq{a.index} -> sq{b.index};")
    lines.append("}")
    return "\n".join(lines)


def stack_to_json(squares) -> str:
    return json.dumps([sq.to_json() for sq in squares], indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# modifications

def modification_presentation(k: int, th: TheoryPresentation):
    """The computad corepresenting modifications of k-cylinders, with the
    restriction maps onto the two cylinder copies.

    For k >= 1 the two copies are glued on shared globes; comparison cells
    Ts : f => f2 and Tt : g2 => g tie their legs, and one comparison per top
    seam (k = 2) or filler (k = 1) compares the first copy's cell, whiskered
    by Tt and Ts, with the second's.
    """
    if k < 0 or k > 2:
        raise DomainError("modification presentations are built for k in 0..2")
    _require_systems(th, max(k, 1))
    P = Computad(f"M{k}")
    equations = []
    if k == 0:
        a = P.add("a", 0)
        b = P.add("b", 0)
        C = P.add("C", 1, a, b)
        D = P.add("D", 1, a, b)
        P.designated["filler"] = P.add("Theta", 2, C, D)
        xi0 = {"a": "a", "b": "b", "C": "C"}
        xi = {"Xi0": xi0, "Xi1": {**xi0, "C": "D"}}
    else:
        A, B, (a, b, c, d) = _globes(P, k)
        copies = [
            (tag, P.add(f"f{tag}", 1, a, c), P.add(f"g{tag}", 1, b, d), filler)
            for tag, filler in zip(("", "2"), ("FC", "FD") if k == 1 else ("OmC", "OmD"))
        ]
        first, second = _glue(P, A, B, copies, "E{side}{tag}")
        Ts = P.add("Ts", 2, first["f"], second["f"])
        Tt = P.add("Tt", 2, second["g"], first["g"])

        def compare(name, x, y, key):
            src = fcomp([fwhisker(Tt, x, "l"), first[key], fwhisker(Ts, y, "r")])
            return P.add(name, src.dim + 1, src, second[key])

        if k == 1:
            P.designated["filler"] = compare("Theta", A, B, "C")
        else:
            # recursive modification data: its sides compare the whisker-corrected
            # seams (through the chosen whisker cylinders) with the second copy
            for side in ("s", "t"):
                compare(f"G{side}", _bd_to(A, 1, side), _bd_to(B, 1, side), f"E2{side}")
            equations.append(("modification_top", "paste(OmC, Gs, Gt) = OmD"))
        # the restriction maps send the globes to the shared globes and the
        # rest to each copy's own cells
        globes = {}
        for name, top in (("A", A), ("B", B)):
            globes[f"{name}{k}"] = top.name
            for j in range(k):
                for side in ("s", "t"):
                    globes[f"{name}{j}{side}"] = _bd_to(top, j, side).name
        xi = {
            f"Xi{i}": {**globes, **{key: cell.name for key, cell in part.items()}}
            for i, part in enumerate((first, second))
        }
    xi["equations"] = equations
    return P, xi
