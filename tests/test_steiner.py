"""The propagation solver of the chain model against the product scan.

``scan_solve`` is the plain search: try every coefficient vector in
0..bound over the k-atoms and keep those whose boundary is the target.
``PastingComplex.solve`` must return exactly its list, in its order, and
``enumerate_cells`` must equal the enumeration built on the scan.
"""

import itertools

from globwork import steiner
from globwork.steiner import PastingComplex, chain_sub, enumerate_cells
from globwork.trees import all_trees, dim

SCAN_TREES = list(all_trees(5))


def chain_boundary(K, chain):
    """d(chain) as a dict: tgt minus src of each atom, zero in degree 0."""
    out = {}
    for atom, c in chain:
        for face, sign in zip(K.d.get(atom, ()), (-1, 1)):
            out[face] = out.get(face, 0) + sign * c
    return {v: c for v, c in out.items() if c}


def scan_solve(K, k, target, bound):
    atoms = K.atoms[k] if k <= K.n else []
    sols = []
    for coeffs in itertools.product(range(bound + 1), repeat=len(atoms)):
        ch = steiner._freeze(dict(zip(atoms, coeffs)))
        if chain_boundary(K, ch) == target:
            sols.append(ch)
    return sols


def scan_enumerate(t, k, bound):
    """enumerate_cells with every target solved by the scan, no memo."""
    K = PastingComplex(t)
    cells = []

    def extend(level, levels):
        prev_m, prev_p = levels[-1]
        found = scan_solve(K, level, chain_sub(dict(prev_p), prev_m), bound)
        if level == k:
            cells.extend(tuple(levels) + ((x, x),) for x in found)
            return
        for xm in found:
            for xp in found:
                extend(level + 1, levels + [(xm, xp)])

    for x0m in K.atoms[0]:
        for x0p in K.atoms[0]:
            base = [(((x0m, 1),), ((x0p, 1),))]
            if k == 0:
                if x0m == x0p:
                    cells.append(tuple(base))
                continue
            extend(1, base)
    return cells


def reached_targets(K, bound):
    """Per level, every target that enumerate_cells solves for at any k."""
    levels = {0: [{}]}
    frontier = {frozenset(chain_sub({q: 1}, ((p, 1),)).items()) for p in K.atoms[0] for q in K.atoms[0]}
    for level in range(1, K.n + 2):
        levels[level] = [dict(t) for t in frontier]
        nxt = set()
        for target in levels[level]:
            found = scan_solve(K, level, target, bound)
            nxt.update(frozenset(chain_sub(dict(xp), xm).items()) for xm in found for xp in found)
        frontier = nxt
    return levels


def unsolvable_targets(K, k):
    """Targets with no solution: an atom outside the complex, unbalanced ones."""
    out = [{("outside", 0): 1}]
    if k >= 1:
        v = K.atoms[k - 1][0]
        out += [{v: 1}, {v: -1}]
        if len(K.atoms[k - 1]) > 1:
            w = K.atoms[k - 1][-1]
            out += [{v: 5, w: -5}, {v: 1, w: 1}]
    return out


def test_solve_matches_scan():
    cases = 0
    for T in SCAN_TREES:
        K = PastingComplex(T)
        for bound in (0, 1, 2):
            reached = reached_targets(K, bound)
            for k in range(dim(T) + 2):
                for target in reached[k] + unsolvable_targets(K, k):
                    assert K.solve(k, target, bound) == scan_solve(K, k, target, bound), (str(T), k, target, bound)
                    cases += 1
    assert cases > 1000


def test_enumerate_cells_matches_scan_enumeration():
    for T in SCAN_TREES:
        for k in range(dim(T) + 2):
            for bound in (1, 2):
                assert enumerate_cells(T, k, bound) == scan_enumerate(T, k, bound), (str(T), k, bound)


def test_coefficient_bound_two_loses_no_cell():
    """The default bound is a checked claim: bounds 1, 2 and 3 agree."""
    for T in all_trees(6):
        for k in range(4):
            cells = enumerate_cells(T, k, 1)
            assert enumerate_cells(T, k, 2) == cells, (str(T), k)
            assert enumerate_cells(T, k, 3) == cells, (str(T), k)
