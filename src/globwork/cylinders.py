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
copies to the v copies, with s_τ(i) = s_σ(i+1).  Both every structural
inclusion and, for a homogeneous operation, every square of the stack are
read off that chain; the stack composes vertically from the whiskered top
to the whiskered bottom.  The sum cylinder checks the chain when it is
built, walking one list of images slice by slice, and builds each
inclusion only when it is read, so its cost is linear in the tree.
"""

from __future__ import annotations

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
    """
    if tree_dim(A) > 2:
        raise DomainError("sum cylinders are implemented through dimension 2")
    if A.n_nodes() > MAX_SUM_NODES:
        raise SizeGuardError(f"tree has {A.n_nodes()} nodes, above the bound {MAX_SUM_NODES} for sum cylinders")
    _require_systems(th, max(tree_dim(A), 1))
    P = Computad(f"cyl({A})")
    atoms = {}

    @functools.cache
    def lax(side, x, d):
        """The copy of x on side u (v) whiskered on the right (left) by the
        c's over its target (source) faces of dimension below d; at d = 0 the
        generator over x on any side.  At d = dim x it is the lax cell: the
        last whiskering composes with c(t x) (c(s x))."""
        if d == 0:
            return atoms[(side, x)]
        which, hand = ("t", "r") if side == "u" else ("s", "l")
        return fwhisker(lax(side, x, d - 1), atoms[("c", face(x, d - 1, which))], hand)

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


def _section_chain(exts, span):
    """The sections s_σ(0), s_τ(0) = s_σ(1), ..., s_τ(last) of the ordered
    extensions, s_ε(i) = incl_{B_i} ∘ δ_ε for the Θ-faces δ_ε : A -> B_i.
    A section holds one pair (side, depth), standing for lax(side, x,
    depth), per cell x of A in preorder.  It starts at the u copies, and
    each extension makes its ``_moves``."""
    section = [("u", 0)] * span[()][1]
    yield tuple(section)
    for (a, b, left), (c, d, right), (at, _, gap) in _moves(exts, span):
        section[a:b] = [left] * (b - a)
        section[c:d] = [right] * (d - c)
        section[at] = gap
        yield tuple(section)


def _image_chain(cells, exts, span, read):
    """The chain of sections as formal cells: one list holds the image of
    each cell x of A in preorder, with ``read(side, x, depth)`` the formal
    cell lax(side, x, depth) a pair stands for.  It starts at s_σ(0), each
    extension's ``_moves`` update it in place, and it is yielded at each
    section, s_σ(0), s_τ(0), ..., s_τ(last)."""
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

class StackSquare:
    def __init__(self, index: int, element: ExtendedTree, case: str, top_section: tuple,
                 bottom_section: tuple, top: str, bottom: str):
        self.index, self.element, self.case = index, element, case
        self.top_section, self.bottom_section, self.top, self.bottom = top_section, bottom_section, top, bottom
        # filled in per side by stack()
        self.left = self.right = self.p = self.q = None
        self.source_degenerate = self.target_degenerate = False

    def to_json(self):
        return {
            "index": self.index,
            "case": self.case,
            "sector": {"path": list(self.element.sector.path), "gap": self.element.sector.gap},
            "top": self.top,
            "bottom": self.bottom,
            "left": self.left,
            "right": self.right,
            "degenerate": [self.source_degenerate, self.target_degenerate],
        }


# per side of a square: its StackSquare fields for the degenerate index, the
# degenerate flag and the side's record
_SIDE_FIELDS = {"s": ("p", "source_degenerate", "left"), "t": ("q", "target_degenerate", "right")}


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


def _render(state, A: Tree, side: str = "") -> str:
    """An edge state, or with side "s"/"t" a corner state, as a restriction
    of rho."""
    d = f"d{side}" if side else ""
    if state[0] == "pre":
        return f"C_t*rho{side}({d}U)"
    if state[0] == "post":
        return f"rho{side}({d}V)*C_s"
    p = A.arity
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


def _state(section, A: Tree, span) -> tuple:
    """The typed edge state of a section.  With m of the root's p+1 points
    on u it is pre (m = p+1) or post (m = 0); else it crosses in root branch
    j = m and is btau j (bsig j) when the whole branch is at ("u", 1)
    (("v", 1)), otherwise mid j r with r of the branch's leaves on u."""
    p = A.arity
    m = section[: p + 1].count(("u", 0))
    if m == p + 1:
        return ("pre",)
    if m == 0:
        return ("post",)
    start, stop = span[(m - 1,)]
    branch = section[start:stop]
    for kind, pair in (("btau", ("u", 1)), ("bsig", ("v", 1))):
        if branch.count(pair) == stop - start:
            return (kind, m)
    leaves = branch[A.children[m - 1].arity + 1 :]
    return ("mid", m, [side for side, _ in leaves].count("u"))


def _rho_star(rho_eps: str, plus_tree: str, side: str, A: Tree, j: int) -> dict:
    """A side of a square in root branch j that restricts ρ along d_ε, with
    ρ_ε rendered and ∂A with the sector re-applied; it passes the branch's
    cell F_j when the branch is a leaf, else its first (σ) or last (τ) cell."""
    if A.children[j - 1].is_leaf:
        args = f"(d{side}U_<{j}, d{side}V_>{j}, F_{j})"
    else:
        gap = 0 if side == "s" else A.children[j - 1].arity
        args = f"(d{side}U_<{j}, a_{j}.{gap}, d{side}V_>{j})"
    return {
        "kind": "rho_star",
        "eps": "sigma" if side == "s" else "tau",
        "args": args,
        "plus_tree": plus_tree,
        "rho_eps": rho_eps,
        "boundary": f"(d_sigma . rho_{side}, d_tau . rho_{side})",
    }


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
    """
    k = tree_dim(ρ.source)
    if k not in (1, 2):
        raise DomainError("stacks are built for operations of dimension 1 and 2")
    if ρ.source != globe(k):
        raise DomainError("stacks interpret globe-sourced operations")
    if not is_homogeneous(ρ):
        raise DomainError("stacks interpret homogeneous operations only")
    A = ρ.target
    _require_systems(th, k)
    bt = tree_boundary(A) if tree_dim(A) else A
    rho_eps = render(homogeneous_op(k - 1, bt if tree_dim(A) == k else A))
    exts = linearization(A)
    span = _spans(A)
    chain = list(_section_chain(exts, span))
    states = [_state(s, A, span) for s in chain]
    texts = [_render(state, A) for state in states]
    squares = [
        StackSquare(idx, ext, ext.klass, *chain[idx : idx + 2], *texts[idx : idx + 2])
        for idx, ext in enumerate(exts)
    ]
    plus_trees = {}
    for side in ("s", "t") if k >= 2 else ():
        index, flag, record = _SIDE_FIELDS[side]
        on_boundary = operator.itemgetter(
            *range(A.arity + 1), *(span[(i,)][0] + (side == "t") * b.arity for i, b in enumerate(A.children))
        )
        bound = [on_boundary(s) for s in chain]
        corner = [_corner(state, side) for state in states]
        for i, sq in enumerate(squares):
            degenerate = bound[i] == bound[i + 1]
            if (corner[i] == corner[i + 1]) != degenerate:
                what = "source" if side == "s" else "target"
                raise TypingError(f"{what} corner mismatch at square {i}")
            sector = sq.element.sector
            if degenerate:
                setattr(sq, flag, True)
                setattr(sq, index, 0)
            elif not sector.path:
                src, tgt = (_render(c, A, side) for c in corner[i : i + 2])
                setattr(sq, record, {"kind": "coh", "src": src, "tgt": tgt})
            else:
                plus = _reapplied(bt, sector)
                if plus not in plus_trees:
                    plus_trees[plus] = str(insert_at(bt, plus))
                setattr(sq, record, _rho_star(rho_eps, plus_trees[plus], side, A, sector.path[0] + 1))
    return squares


def vcompose_meta(squares) -> dict:
    """Bookkeeping for the vertical composite of a compatible stack."""
    if not squares:
        raise DomainError("empty stacks have no composite")
    for a, b in zip(squares, squares[1:]):
        if a.bottom_section != b.top_section:
            raise DomainError(f"stack is not composable between squares {a.index} and {b.index}")
    meta = {"top": squares[0].top, "bottom": squares[-1].bottom}
    for side, key in (("s", "source_record"), ("t", "target_record")):
        index, flag, record = _SIDE_FIELDS[side]
        meta[index] = min(
            (getattr(sq, index) for sq in squares if getattr(sq, index) is not None), default=None
        )
        meta[key] = tuple(
            "degenerate" if getattr(sq, flag) else (getattr(sq, record) or {}).get("kind", "coh")
            for sq in squares
        )
    return meta


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
