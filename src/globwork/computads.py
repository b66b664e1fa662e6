"""Formal cells over named generators, and finite computad presentations.

The cylinder and modification presentations and the interval all describe
cells by formal composites: generators, applied operations (with declared
boundaries when the operation is an opaque chosen filler), and unbiased
codimension-1 composites.  Composites are normalized by flattening and unit
removal, which is the working notion of "omitting bracketings" used
throughout.

Every ``FCell`` is typed at its own level when it is made, so it is typed all
the way down, and ``Computad.add`` checks only a new generator's name and that
it has a boundary.
"""

from __future__ import annotations

from collections import namedtuple
from .errors import DomainError, TypingError

UNIT = "1"


class FCell(namedtuple("FCell", "kind name args dim src tgt")):
    # kind is "var", "op" or "comp"
    __slots__ = ()

    def __new__(cls, kind, name="", args=(), dim=0, src=None, tgt=None):
        cell = tuple.__new__(cls, (kind, name, args, dim, src, tgt))
        if dim < 0:
            raise TypingError(f"{cell} has negative dimension {dim}")
        if dim == 0:
            if src is not None or tgt is not None:
                raise TypingError(f"{cell} is a 0-cell with a boundary")
        elif src is None or tgt is None:
            raise TypingError(f"{cell} lacks a boundary")
        elif src.dim != dim - 1 or tgt.dim != dim - 1:
            raise TypingError(f"{cell} has off-dimension boundary")
        elif dim >= 2 and (src.src, src.tgt) != (tgt.src, tgt.tgt):  # identity first, then ==
            raise TypingError(f"{cell} has a non-parallel boundary pair")
        return cell

    @classmethod
    def _make(cls, iterable):  # and so _replace
        return cls(*iterable)

    def __str__(self):
        if self.kind == "var":
            return self.name
        if self.kind == "comp":
            return "(" + " * ".join(str(a) for a in self.args) + ")"
        if self.name == UNIT:
            return f"1[{self.args[0]}]"
        return f"{self.name}(" + ", ".join(str(a) for a in self.args) + ")"

    @property
    def is_unit(self):
        return self.kind == "op" and self.name == UNIT


def fvar(name: str, dim: int, src=None, tgt=None) -> FCell:
    return FCell("var", name, (), dim, src, tgt)


def fop(name: str, args, dim: int, src=None, tgt=None) -> FCell:
    return FCell("op", name, tuple(args), dim, src, tgt)


def funit(base: FCell) -> FCell:
    return FCell("op", UNIT, (base,), base.dim + 1, base, base)


def fcomp(parts) -> FCell:
    """Unbiased codimension-1 composite; flattens and drops units."""
    flat = []
    for p in parts:
        if p.kind == "comp":
            flat.extend(p.args)
        elif not p.is_unit:
            flat.append(p)
    if not flat:
        parts = tuple(parts)
        if not parts:
            raise TypingError("empty composite")
        return funit(parts[0].src) if parts[0].is_unit else parts[0]
    for a, b in zip(flat, flat[1:]):
        if a.tgt != b.src:
            raise TypingError(f"composite chain breaks between {a} and {b}")
    if len(flat) == 1:
        return flat[0]
    return FCell("comp", "", tuple(flat), flat[0].dim, flat[0].src, flat[-1].tgt)


def fwhisker(cell: FCell, edge: FCell, side: str) -> FCell:
    """Whisker a cell by a lower- or equal-dimensional edge on its target
    ("r") or source ("l") side; the pair keeps its left-to-right order."""
    if side not in ("l", "r"):
        raise DomainError(f"whiskering side must be 'l' or 'r', got {side!r}")
    if cell.dim < 1 or edge.dim < 1 or cell.dim < edge.dim:
        raise TypingError("whiskering needs positive compatible dimensions")
    if edge.is_unit:
        return cell
    pair = (cell, edge) if side == "r" else (edge, cell)
    if cell.dim == edge.dim:
        return fcomp(pair)
    return fop(
        "w" + side,
        pair,
        cell.dim,
        fwhisker(cell.src, edge, side),
        fwhisker(cell.tgt, edge, side),
    )


def rename(cell: FCell, mapping: dict) -> FCell:
    """Rename the generators (``var`` cells, which have no args) of a cell."""
    return FCell(
        cell.kind,
        mapping.get(cell.name, cell.name) if cell.kind == "var" else cell.name,
        # most cells renamed are vars, and an empty generator costs more than the test
        tuple(rename(a, mapping) for a in cell.args) if cell.args else (),
        cell.dim,
        rename(cell.src, mapping) if cell.src else None,
        rename(cell.tgt, mapping) if cell.tgt else None,
    )


class Computad:
    """Generators by dimension with formal boundary cells."""

    def __init__(self, label: str):
        self.label = label
        self.gens = {}
        self.order = []
        self.designated = {}

    def add(self, name: str, dim: int, src: FCell | None = None, tgt: FCell | None = None) -> FCell:
        if name in self.gens:
            raise TypingError(f"duplicate generator {name!r}")
        if dim > 0 and (src is None or tgt is None):
            raise TypingError(f"positive-dimensional generator {name!r} needs a boundary")
        cell = self.gens[name] = fvar(name, dim, src, tgt)
        self.order.append(name)
        return cell

    def __getitem__(self, name: str) -> FCell:
        return self.gens[name]

    def counts(self) -> tuple:
        top = max((c.dim for c in self.gens.values()), default=-1)
        out = [0] * (top + 1)
        for c in self.gens.values():
            out[c.dim] += 1
        return tuple(out)

    def to_json(self):
        return {
            "label": self.label,
            "generators": [
                {
                    "name": n,
                    "dim": self.gens[n].dim,
                    "src": str(self.gens[n].src) if self.gens[n].src else None,
                    "tgt": str(self.gens[n].tgt) if self.gens[n].tgt else None,
                }
                for n in self.order
            ],
            "designated": {k: str(v) for k, v in self.designated.items()},
        }


def find_computad_iso(P: Computad, Q: Computad):
    """A dimension- and boundary-preserving bijection of generators, or None.

    Backtracks over P's generators in (dimension, ``P.order``) order, each
    trying Q's generators of its dimension in ``Q.order``; ``tried[i]`` is
    the index of the candidate the i-th generator is placed on.
    """
    if P.counts() != Q.counts():
        return None
    ps = sorted(P.order, key=lambda n: P.gens[n].dim)
    qs = {}
    for q in Q.order:
        qs.setdefault(Q.gens[q].dim, []).append(q)
    mapping, used, tried, start = {}, set(), [], 0
    while len(tried) < len(ps):
        p = ps[len(tried)]
        pc = P.gens[p]
        if pc.dim > 0:
            src, tgt = rename(pc.src, mapping), rename(pc.tgt, mapping)
        cands = qs[pc.dim]
        for j in range(start, len(cands)):
            q = cands[j]
            qc = Q.gens[q]
            if q not in used and (pc.dim == 0 or (qc.src == src and qc.tgt == tgt)):
                mapping[p] = q
                used.add(q)
                tried.append(j)
                start = 0
                break
        else:
            if not tried:
                return None
            start = tried.pop() + 1
            used.discard(mapping.pop(ps[len(tried)]))
    return mapping
