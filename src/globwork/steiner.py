"""Chain-complex model of the free strict omega-category on a pasting scheme.

A pasting scheme is loop-free and unital, so its cells can be enumerated as
tables of non-negative chains: a k-cell is a tuple of chain pairs
(x_0^-, x_0^+), ..., (x_k^-, x_k^+) with equal top components, boundary
condition d(x_i^eps) = x_{i-1}^+ - x_{i-1}^- and augmentation 1 in degree 0.

This is kept independent of the wreath encoding of Theta on purpose: it is
the ground-truth enumeration the wreath homs are compared against.
"""

from __future__ import annotations

import itertools
from .trees import Tree
from .globsets import realize

# chains are canonical tuples of (atom, coefficient), coefficient > 0,
# sorted by repr of the atom
ZERO = ()


def _freeze(d):
    return tuple(sorted(((a, c) for a, c in d.items() if c), key=repr))


def _unfreeze(ch):
    return dict(ch)


def chain_sub(a, b):
    out = dict(a)
    for atom, c in b:
        out[atom] = out.get(atom, 0) - c
    return {k: v for k, v in out.items() if v}


class PastingComplex:
    """Atoms per dimension with their boundary, derived from a tree."""

    def __init__(self, t: Tree):
        self.tree = t
        X = realize(t)
        self.n = X.n
        self.atoms = [list(X.cells[k]) for k in range(X.n + 1)]
        self.d = {}
        for k in range(1, X.n + 1):
            for a in X.cells[k]:
                self.d[a] = (X.src[k][a], X.tgt[k][a])

    def boundary(self, chain):
        """d(chain) as a dict, tgt minus src of each atom."""
        out = {}
        for atom, c in chain:
            s, t = self.d[atom]
            out[t] = out.get(t, 0) + c
            out[s] = out.get(s, 0) - c
        return {k: v for k, v in out.items() if v}

    def solve(self, k, target, bound=2):
        """All non-negative degree-k chains x with d(x) = target (a dict)."""
        atoms = self.atoms[k] if k <= self.n else []
        sols = []
        for coeffs in itertools.product(range(bound + 1), repeat=len(atoms)):
            ch = _freeze({a: c for a, c in zip(atoms, coeffs)})
            if self.boundary(ch) == target:
                sols.append(ch)
        return sols


def enumerate_cells(t: Tree, k: int, bound=2):
    """All k-cells of the free strict omega-category on the scheme of t."""
    K = PastingComplex(t)
    zeros = K.atoms[0]
    cells = []

    def extend(level, levels):
        prev_m, prev_p = levels[-1]
        target = chain_sub(_unfreeze(prev_p), prev_m)
        if level == k:
            for x in K.solve(level, target, bound):
                cells.append(tuple(levels) + ((x, x),))
            return
        for xm in K.solve(level, target, bound):
            for xp in K.solve(level, target, bound):
                extend(level + 1, levels + [(xm, xp)])

    for x0m in zeros:
        for x0p in zeros:
            base = [(_freeze({x0m: 1}), _freeze({x0p: 1}))]
            if k == 0:
                if x0m == x0p:
                    cells.append(tuple(base))
                continue
            extend(1, base)
    return cells


def count_cells(t: Tree, k: int, bound=2) -> int:
    return len(enumerate_cells(t, k, bound))

