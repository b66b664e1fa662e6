"""Cylinder presentations and the ordered stack over tree extensions.

The cylinder on a globe is presented by two globe copies, two connecting
1-cells, one seam cell per level and a top filler.  Every cylinder-shaped
computad on a globe (the full one, the degenerate ones whose collapsed
sides take units, and the copies inside a modification) is glued by one
step, ``_glue``; a modification is two glued copies that share the globes,
and its restriction maps Xi0/Xi1 onto the cylinder are read off the gluing
and checked by ``_verify_xi``.

The cylinder on a general sum is the colimit over the one-vertex extensions
of its tree; each extension contributes a structural inclusion, and for a
homogeneous operation the extensions index a stack of squares that composes
vertically from the whiskered top to the whiskered bottom.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from .errors import DomainError, TypingError
from .trees import (
    LEAF,
    DimensionTable,
    ExtendedTree,
    Tree,
    boundary as tree_boundary,
    dim as tree_dim,
    globe,
    insert_at,
    linearization,
    table_to_tree,
)
from . import trees as tree_mod
from .computads import Computad, FCell, fcomp, funit, fwhisker, rename
from .theta import ThetaMap, homogeneous_op, is_homogeneous, leaf_inclusion, render
from .theory import Term, TheoryPresentation, app_cell, glob_cell, single, whisker


def _require_systems(th: TheoryPresentation, k: int):
    for j in range(1, max(k, 1) + 1):
        if f"c{j}" not in th.chosen:
            raise DomainError("cylinder presentations need chosen systems")


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
        raise DomainError("cylinder presentations are built for k <= 3")
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

@dataclass
class SumCylinder:
    tree: Tree
    presentation: Computad
    atoms: dict
    inclusions: list  # one per linearization element: dict cell -> FCell


def cyl_glob_sum(A: Tree, th: TheoryPresentation) -> SumCylinder:
    """Present cyl(A) for dim(A) <= 2 with one inclusion per tree extension."""
    if tree_dim(A) > 2:
        raise DomainError("sum cylinders are implemented through dimension 2")
    _require_systems(th, max(tree_dim(A), 1))
    P = Computad(f"cyl({A})")
    p = A.arity
    atoms = {}
    for side in ("u", "v"):
        for j in range(p + 1):
            atoms[(side, j)] = P.add(f"{side}{j}", 0)
    for j in range(p + 1):
        atoms[("c", j)] = P.add(f"c{j}", 1, atoms[("u", j)], atoms[("v", j)])
    for j, block in enumerate(A.children, start=1):
        # block j suspends its m cells; a leaf block is the case m = 0
        m = block.arity
        for side in ("u", "v"):
            for level in range(m + 1):
                name = f"{side}e{j}" if block.is_leaf else f"{side}e{j}_{level}"
                atoms[(side, j, "e", level)] = P.add(
                    name, 1, atoms[(side, j - 1)], atoms[(side, j)]
                )
            for r in range(1, m + 1):
                atoms[(side, j, "x", r)] = P.add(
                    f"{side}x{j}_{r}",
                    2,
                    atoms[(side, j, "e", r - 1)],
                    atoms[(side, j, "e", r)],
                )
        for level in range(m + 1):
            atoms[("seam", j, level)] = P.add(
                f"s{j}_{level}",
                2,
                fcomp([atoms[("u", j, "e", level)], atoms[("c", j)]]),
                fcomp([atoms[("c", j - 1)], atoms[("v", j, "e", level)]]),
            )
        for r in range(1, m + 1):
            atoms[("fill", j, r)] = P.add(
                f"om{j}_{r}",
                3,
                fcomp(
                    [fwhisker(atoms[("u", j, "x", r)], atoms[("c", j)], "r"), atoms[("seam", j, r)]]
                ),
                fcomp(
                    [atoms[("seam", j, r - 1)], fwhisker(atoms[("v", j, "x", r)], atoms[("c", j - 1)], "l")]
                ),
            )
    inclusions = [
        _structural_inclusion(A, e, atoms) for e in linearization(A)
    ]
    for incl in inclusions:
        _verify_inclusion(incl)
    return SumCylinder(A, P, atoms, inclusions)


def _cells_of(t: Tree):
    out = []
    for path in t.nodes():
        node = t.subtree(path)
        for gap in range(node.arity + 1):
            out.append((path, gap))
    return out


def _copy_atom(atoms, side, block, path_rest, gap):
    """An untouched cell of a non-seam block (coordinates local to it)."""
    if not path_rest:
        return atoms[(side, block, "e", gap)]
    return atoms[(side, block, "x", path_rest[0] + 1)]


def _structural_inclusion(A: Tree, ext: ExtendedTree, atoms) -> dict:
    """Map the cells of the extension's scheme into the cylinder presentation.

    Cells left of the seam read off the top copy, cells right of it read
    off the bottom copy (whiskered through the side below the seam); the
    new vertex lands on the side, seam or filler generator its sector
    points at.
    """
    B = ext.result
    sector = ext.sector
    mapping = {}
    if sector.path == ():
        s = sector.gap
        for (path, gap) in _cells_of(B):
            if path == ():
                side = "u" if gap <= s else "v"
                mapping[(path, gap)] = atoms[(side, gap if gap <= s else gap - 1)]
            elif path == (s,):
                mapping[(path, gap)] = atoms[("c", s)]
            else:
                i = path[0] if path[0] < s else path[0] - 1
                side = "u" if i < s else "v"
                mapping[(path, gap)] = _copy_atom(atoms, side, i + 1, path[1:], gap)
        return {"extension": ext, "scheme": B, "mapping": mapping}

    i = sector.path[0]
    j = i + 1
    cl, cr = atoms[("c", j - 1)], atoms[("c", j)]
    for (path, gap) in _cells_of(B):
        if path == ():
            side = "u" if gap <= i else "v"
            mapping[(path, gap)] = atoms[(side, gap)]
            continue
        if path[0] != i:
            side = "u" if path[0] < i else "v"
            mapping[(path, gap)] = _copy_atom(atoms, side, path[0] + 1, path[1:], gap)
            continue
        mapping[(path, gap)] = _seam_block_image(ext, atoms, j, cl, cr, path, gap)
    return {"extension": ext, "scheme": B, "mapping": mapping}


def _seam_block_image(ext, atoms, j, cl, cr, path, gap) -> FCell:
    """Cells of the seam block, in the extended tree's own coordinates.

    A sector of height 2 at gap s splits the block's cells at s; an
    over-edge sector is the leaf-block case, at gap 0.
    """
    sector = ext.sector
    if ext.klass != tree_mod.H3:
        s = sector.gap
        if len(path) == 1:
            if gap <= s:
                return fcomp([atoms[("u", j, "e", gap)], cr])
            return fcomp([cl, atoms[("v", j, "e", gap - 1)]])
        r = path[1] + 1
        if r <= s:
            return fwhisker(atoms[("u", j, "x", r)], cr, "r")
        if r == s + 1:
            return atoms[("seam", j, s)]
        return fwhisker(atoms[("v", j, "x", r - 1)], cl, "l")

    # H3 over the r-th cell of the block
    r = sector.path[1] + 1
    if len(path) == 1:
        if gap <= r - 1:
            return fcomp([atoms[("u", j, "e", gap)], cr])
        return fcomp([cl, atoms[("v", j, "e", gap)]])
    if len(path) == 2:
        t = path[1] + 1
        if t < r:
            return fwhisker(atoms[("u", j, "x", t)], cr, "r")
        if t > r:
            return fwhisker(atoms[("v", j, "x", t)], cl, "l")
        fill = atoms[("fill", j, r)]
        return fill.src if gap == 0 else fill.tgt
    return atoms[("fill", j, r)]


def _verify_inclusion(incl):
    """A structural inclusion must be a map of schemes into formal cells."""
    B = incl["scheme"]
    mapping = incl["mapping"]
    for (path, gap), cell in mapping.items():
        if len(path) == 0:
            continue
        src_cell = mapping[(path[:-1], path[-1])]
        tgt_cell = mapping[(path[:-1], path[-1] + 1)]
        if cell.src != src_cell or cell.tgt != tgt_cell:
            raise TypingError(
                f"structural inclusion breaks at {(path, gap)}: "
                f"{cell.src} vs {src_cell} / {cell.tgt} vs {tgt_cell}"
            )


# ---------------------------------------------------------------------------
# the stack of squares over the ordered tree extensions

@dataclass
class StackSquare:
    index: int
    element: ExtendedTree
    case: str
    top_state: tuple
    bottom_state: tuple
    top: str
    bottom: str
    left: dict | None
    right: dict | None
    source_degenerate: bool
    target_degenerate: bool
    p: int | None
    q: int | None

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


def boundary_plus(A: Tree, sector) -> Tree:
    """The boundary tree with the same sector re-applied.

    If the sector's parent was deleted (it sat at maximal height), the new
    vertex re-attaches to the deepest surviving ancestor; gaps are clamped
    to the surviving arity.
    """
    return _reapply(tree_boundary(A), sector)


def _reapply(bt: Tree, sector) -> Tree:
    path = sector.path
    while True:
        node = bt
        ok = True
        for i in path:
            if i >= node.arity:
                ok = False
                break
            node = node.children[i]
        if ok:
            gap = min(sector.gap, node.arity)
            return insert_at(bt, tree_mod.Sector(path, gap))
        path = path[:-1]


def _rho_star(rho_eps: str, bt: Tree, ext: ExtendedTree, side: str, args: str) -> dict:
    """A side of a square that restricts ρ along d_ε.

    ``rho_eps`` is the rendered homogeneous half of d_ε ∘ ρ, the homogeneous
    operation into ∂A (into A when dim A < k); it is the same for both sides
    (see ``stack``).  ``bt`` is ∂A, on which the extension's sector is
    re-applied.
    """
    return {
        "kind": "rho_star",
        "eps": "sigma" if side == "s" else "tau",
        "args": args,
        "plus_tree": str(_reapply(bt, ext.sector)),
        "rho_eps": rho_eps,
        "boundary": f"(d_sigma . rho_{side}, d_tau . rho_{side})",
    }


def _square_states(ext: ExtendedTree, p: int):
    """Top and bottom edge states of the square attached to one extension."""
    klass = ext.klass
    sector = ext.sector
    if klass == tree_mod.H1_RIGHT:
        return ("pre",), (("btau", p) if p > 0 else ("post",))
    if klass == tree_mod.H1_LEFT:
        return ("bsig", 1), ("post",)
    if klass == tree_mod.H1_MID:
        q = sector.gap
        return ("bsig", q + 1), ("btau", q)
    j = sector.path[0] + 1
    if klass == tree_mod.H2_OVER_EDGE:
        return ("btau", j), ("bsig", j)
    if klass == tree_mod.H2_MAX:
        return ("btau", j), ("mid", j, sector.gap)
    if klass == tree_mod.H2_MIN:
        return ("mid", j, 0), ("bsig", j)
    if klass == tree_mod.H2_MID:
        return ("mid", j, sector.gap), ("mid", j, sector.gap)
    # H3 over the r-th cell
    r = sector.path[1] + 1
    return ("mid", j, r), ("mid", j, r - 1)


# per side: the classes whose square is degenerate there, and the class
# whose side restricts rho through the block's first (s) or last (t) cell
_DEGENERATE_KLASSES = {
    "s": (tree_mod.H2_MAX, tree_mod.H2_MID, tree_mod.H3),
    "t": (tree_mod.H2_MIN, tree_mod.H2_MID, tree_mod.H3),
}
_EXTREME_KLASS = {"s": tree_mod.H2_MIN, "t": tree_mod.H2_MAX}


def stack(ρ: ThetaMap, th: TheoryPresentation):
    """The ordered squares interpreting a homogeneous operation on cylinders.

    Every side that restricts ρ along d_ε carries ρ_ε, the homogeneous half
    of d_ε ∘ ρ.  As ρ is homogeneous, the globular half of d_ε ∘ ρ is the
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
    p = A.arity
    bt = tree_boundary(A) if tree_dim(A) else A
    rho_eps = render(homogeneous_op(k - 1, bt if tree_dim(A) == k else A))
    squares = []
    for idx, ext in enumerate(linearization(A)):
        top_state, bottom_state = _square_states(ext, p)
        top = _render(top_state, A)
        bottom = _render(bottom_state, A)
        record = {"s": None, "t": None}
        degenerate = {"s": False, "t": False}
        if k >= 2:
            j = ext.sector.path[0] + 1 if ext.sector.path else None
            for side in ("s", "t"):
                top_c, bottom_c = _corner(top_state, side), _corner(bottom_state, side)
                degenerate[side] = ext.klass in _DEGENERATE_KLASSES[side]
                if (top_c == bottom_c) != degenerate[side]:
                    what = "source" if side == "s" else "target"
                    raise TypingError(f"{what} corner mismatch at square {idx}")
                if degenerate[side]:
                    continue
                if ext.klass == tree_mod.H2_OVER_EDGE:
                    args = f"(d{side}U_<{j}, d{side}V_>{j}, F_{j})"
                    record[side] = _rho_star(rho_eps, bt, ext, side, args)
                elif ext.klass == _EXTREME_KLASS[side]:
                    gap = 0 if side == "s" else A.children[j - 1].arity
                    args = f"(d{side}U_<{j}, a_{j}.{gap}, d{side}V_>{j})"
                    record[side] = _rho_star(rho_eps, bt, ext, side, args)
                else:
                    record[side] = {
                        "kind": "coh",
                        "src": _render(top_c, A, side),
                        "tgt": _render(bottom_c, A, side),
                    }
        squares.append(
            StackSquare(
                index=idx,
                element=ext,
                case=ext.klass,
                top_state=top_state,
                bottom_state=bottom_state,
                top=top,
                bottom=bottom,
                left=record["s"],
                right=record["t"],
                source_degenerate=degenerate["s"],
                target_degenerate=degenerate["t"],
                p=0 if degenerate["s"] else None,
                q=0 if degenerate["t"] else None,
            )
        )
    return squares


def vcompose_meta(squares) -> dict:
    """Bookkeeping for the vertical composite of a compatible stack."""
    if not squares:
        raise DomainError("empty stacks have no composite")
    for a, b in zip(squares, squares[1:]):
        if a.bottom_state != b.top_state:
            raise DomainError(
                f"stack is not composable between squares {a.index} and {b.index}"
            )
    meta = {"top": squares[0].top, "bottom": squares[-1].bottom}
    for index, flag, record, key in (
        ("p", "source_degenerate", "left", "source_record"),
        ("q", "target_degenerate", "right", "target_record"),
    ):
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
        raise DomainError("modification presentations are built for k <= 2")
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
    _verify_xi(k, th, P, xi)
    return P, xi


def _verify_xi(k, th, P, xi):
    """The restriction maps must send cylinder generators to cells with the
    renamed boundaries."""
    cyl = cyl_presentation(k, th)
    for key in ("Xi0", "Xi1"):
        mapping = xi[key]
        for name in cyl.order:
            gen = cyl.gens[name]
            img = P.gens[mapping[name]]
            if gen.dim != img.dim:
                raise TypingError(f"{key} changes dimension at {name}")
            if gen.dim > 0:
                if rename(gen.src, mapping) != img.src or rename(gen.tgt, mapping) != img.tgt:
                    raise TypingError(f"{key} breaks the boundary at {name}")


# ---------------------------------------------------------------------------
# coherence-cylinder boundary pairs

def _wrap(th, cell, target, lefts, rights, order="lr"):
    """Whisker a single-cell term by edges of the target, inner to outer."""
    seq = (
        [(i, "l") for i in lefts] + [(i, "r") for i in rights]
        if order == "lr"
        else [(i, "r") for i in rights] + [(i, "l") for i in lefts]
    )
    for idx, side in seq:
        cell = whisker(th, side, cell, glob_cell(leaf_inclusion(target, idx)), target)
    return cell


def coherence_boundary(kind: str, indices, level: int, th: TheoryPresentation):
    """The two boundary components of a coherence-cylinder extension problem.

    ``kind`` selects the family: "psi" bundles the middle with its nearest
    edge on either side; "phi" and "theta" carry an extra cell glued one
    codimension in, bundled by the suspended whiskering.  The extensions
    themselves are opaque choices; only their boundary pair is built.
    """
    if kind == "psi":
        m, k = indices
        mid_dim = level + 1
        if mid_dim > th.n:
            raise DomainError("component dimension exceeds the truncation")
        M = Tree((LEAF,) * m + (globe(level),) + (LEAF,) * k)
        mid = glob_cell(leaf_inclusion(M, m))

        def bundle(side):
            edge = glob_cell(leaf_inclusion(M, m - 1 if side == "l" else m + 1))
            return whisker(th, side, mid, edge, M)

        if m == 0 and k == 0:
            c1 = c2 = mid
        elif m == 0:
            c1 = _wrap(th, mid, M, [], range(m + 1, m + k + 1))
            c2 = _wrap(th, bundle("r"), M, [], range(m + 2, m + k + 1))
        elif k == 0:
            c1 = _wrap(th, bundle("l"), M, range(m - 2, -1, -1), [])
            c2 = _wrap(th, mid, M, range(m - 1, -1, -1), [])
        else:
            c1 = _wrap(th, bundle("l"), M, range(m - 2, -1, -1), range(m + 1, m + k + 1))
            c2 = _wrap(th, bundle("r"), M, range(m - 1, -1, -1), range(m + 2, m + k + 1))
        t1 = single(mid_dim, M, c1)
        t2 = single(mid_dim, M, c2)
        th.validate_term(t1)
        th.validate_term(t2)
        return t1, t2

    if kind not in ("phi", "theta"):
        raise DomainError(f"unknown coherence family {kind!r}")
    q, m, k = indices
    if m < 1:
        raise DomainError("the glued-cell families need m >= 1")
    j = level + m
    if j + 1 > th.n + 1 or j > th.n:
        raise DomainError("component dimension exceeds the truncation")
    fused = table_to_tree(
        DimensionTable((m + 1, j), (m,))
        if kind == "phi"
        else DimensionTable((j, m + 1), (m,))
    )
    M = Tree((LEAF,) * q + (fused.children[0],) + (LEAF,) * k)
    cellleaf = q if kind == "phi" else q + 1
    midleaf = q + 1 if kind == "phi" else q
    mid = glob_cell(leaf_inclusion(M, midleaf))
    extra = glob_cell(leaf_inclusion(M, cellleaf))
    if j == m + 1:
        bundle_sym = th.chosen[f"c{j}"]
    elif m == 1 and j == 3 and "sw_l_3" in th.chosen:
        bundle_sym = th.chosen["sw_l_3" if kind == "phi" else "sw_r_3"]
    else:
        raise DomainError("suspended whiskering outside the shipped range")
    entries = (extra, mid) if kind == "phi" else (mid, extra)
    core = app_cell(bundle_sym, Term(th.symbol(bundle_sym).arity, M, entries))
    lefts = range(q - 1, -1, -1)
    rights = range(q + 2, q + 2 + k)
    c1 = _wrap(th, core, M, lefts, rights, order="lr")
    c2 = _wrap(th, core, M, lefts, rights, order="rl")
    t1 = single(j, M, c1)
    t2 = single(j, M, c2)
    th.validate_term(t1)
    th.validate_term(t2)
    return t1, t2
