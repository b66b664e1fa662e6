"""Chain-complex model of the free strict omega-category on a pasting scheme.

A pasting scheme is loop-free and unital, so its cells can be enumerated as
tables of non-negative chains: a k-cell is a tuple of chain pairs
(x_0^-, x_0^+), ..., (x_k^-, x_k^+) with equal top components, boundary
condition d(x_i^eps) = x_{i-1}^+ - x_{i-1}^- and augmentation 1 in degree 0.

This is kept independent of the wreath encoding of Theta on purpose: it is
the ground-truth enumeration the wreath homs are compared against. It uses
only the realization of a tree and the chain boundary.

Coefficients are searched up to ``bound`` (default 2). That this bound
loses no cell is a checked claim: tests/test_steiner.py asserts that bounds
1, 2 and 3 give identical cell lists on every tree of up to 6 nodes, k <= 3.
"""

from __future__ import annotations

import functools

from .errors import DomainError
from .trees import Tree
from .globsets import realize

# chains are canonical tuples of (atom, coefficient), coefficient > 0, in
# the native order of the atoms (the order of PastingComplex.atoms)
ZERO = ()


def _freeze(d):
    return tuple(sorted((a, c) for a, c in d.items() if c))


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
        # native tuple order: the realization keeps cells in repr order,
        # which puts gap 10 before gap 2
        self.atoms = [sorted(X.cells[k]) for k in range(X.n + 1)]
        self.d = {}
        for k in range(1, X.n + 1):
            for a in X.cells[k]:
                self.d[a] = (X.src[k][a], X.tgt[k][a])
        self._plans = {}
        self._solved = {}

    def _plan(self, k, bound):
        """The search plan of degree k: per atom its faces with their signs,
        the faces it closes (it is their last atom) and the faces it leaves
        open, each with the range [-bound * later src uses, bound * later
        tgt uses] that the atoms after it can still add to it."""
        plan = self._plans.get((k, bound))
        if plan is not None:
            return plan
        atoms = self.atoms[k] if k <= self.n else []
        faces = [tuple(zip(self.d.get(a, ()), (-1, 1))) for a in atoms]
        last = {v: i for i, fs in enumerate(faces) for v, _ in fs}
        closes = [[(v, e) for v, e in fs if last[v] == i] for i, fs in enumerate(faces)]
        later = {v: [0, 0] for v in last}
        room = [None] * len(atoms)
        for i in reversed(range(len(atoms))):
            room[i] = [(v, -bound * later[v][0], bound * later[v][1]) for v, _ in faces[i] if last[v] != i]
            for v, e in faces[i]:
                later[v][e > 0] += 1
        plan = self._plans[k, bound] = (atoms, faces, last, closes, room)
        return plan

    def solve(self, k, target, bound=2):
        """All degree-k chains x with coefficients in 0..bound and d(x) = target.

        ``target`` maps (k-1)-atoms to nonzero coefficients; d(x) is tgt
        minus src of each atom, and zero in degree 0. Solutions come in
        lexicographic order of their coefficient vectors over
        ``self.atoms[k]``, the order of a product scan over all vectors.
        Each is emitted in atom order, which is already canonical.

        Coefficients are assigned atom by atom in that order. A (k-1)-atom v
        is checked once the last k-atom touching it has a value, and the
        coefficient of that atom is forced by the first v it closes instead
        of tried; a forced value outside 0..bound prunes the branch. A face
        v still open is cut on capacity: once want[v] - net[v] lies outside
        what the later atoms on v can still add, no completion exists.

        ``enumerate_cells`` reads the solutions through a memo on the
        complex (``_solutions``), so each target is searched once per tree.
        """
        atoms, faces, last, closes, room = self._plan(k, bound)
        if any(v not in last for v in target):
            return []
        if not atoms:
            return [ZERO]
        want = {v: target.get(v, 0) for v in last}
        net = dict.fromkeys(last, 0)
        coeffs = []
        sols = []

        def choices(i):
            if not closes[i]:
                return range(bound, -1, -1)
            v, e = closes[i][0]
            c = e * (want[v] - net[v])
            return (c,) if 0 <= c <= bound else ()

        # depth-first over coefficient vectors with an explicit stack (a level
        # may have more atoms than the recursion limit); choices() lists
        # values in descending order so that they come off it ascending
        stack = [(0, c) for c in choices(0)]
        while stack:
            i, c = stack.pop()
            while len(coeffs) > i:
                old = coeffs.pop()
                for v, e in faces[len(coeffs)]:
                    net[v] -= e * old
            coeffs.append(c)
            for v, e in faces[i]:
                net[v] += e * c
            if any(net[v] != want[v] for v, _ in closes[i]):
                continue
            if any(not lo <= want[v] - net[v] <= hi for v, lo, hi in room[i]):
                continue
            if i + 1 == len(atoms):
                sols.append(tuple((a, c) for a, c in zip(atoms, coeffs) if c))
            else:
                stack.extend((i + 1, c2) for c2 in choices(i + 1))
        return sols

    def _solutions(self, k, target, bound):
        """``solve``, memoised by (k, bound, target); the lists are shared."""
        key = (k, bound, frozenset(target.items()))
        sols = self._solved.get(key)
        if sols is None:
            sols = self._solved[key] = self.solve(k, target, bound)
        return sols


@functools.lru_cache(maxsize=None)
def pasting_complex(t: Tree) -> PastingComplex:
    """The complex of t, shared by every k so that they share its memo."""
    return PastingComplex(t)


def enumerate_cells(t: Tree, k: int, bound=2):
    """All k-cells of the free strict omega-category on the scheme of t."""
    if k < 0:
        raise DomainError(f"cells have dimension at least 0, got {k}")
    K = pasting_complex(t)
    zeros = K.atoms[0]
    cells = []
    for x0m in zeros:
        for x0p in zeros:
            base = [(_freeze({x0m: 1}), _freeze({x0p: 1}))]
            if k == 0:
                if x0m == x0p:
                    cells.append(tuple(base))
                continue
            _extend(K, k, bound, base, cells)
    return cells


def _extend(K: PastingComplex, k: int, bound, levels: list, cells: list):
    """Append to ``cells`` every k-cell of K whose table starts with the
    chain pairs ``levels``, in lexicographic order of the later pairs."""
    level = len(levels)
    prev_m, prev_p = levels[-1]
    found = K._solutions(level, chain_sub(dict(prev_p), prev_m), bound)
    if level == k:
        for x in found:
            cells.append(tuple(levels) + ((x, x),))
        return
    for xm in found:
        for xp in found:
            _extend(K, k, bound, levels + [(xm, xp)], cells)


def count_cells(t: Tree, k: int, bound=2) -> int:
    return len(enumerate_cells(t, k, bound))
