"""The nine acceptance criteria, one test each, with their runtime budgets.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.
"""

import collections
import itertools
import random
import time
from contextlib import contextmanager

from globwork import cylinders as cyl
from globwork import globsets as gs
from globwork import steiner
from globwork import theory as theory_mod
from globwork import theta
from globwork.computads import find_computad_iso
from globwork.theta import (
    compose,
    hg_factorize,
    hom,
    hom_count,
    identity,
    is_homogeneous,
    sigma_theta,
    tau_theta,
    to_steiner_cell,
)
from globwork.trees import Tree, all_trees, boundary, boundary_table_oracle, dim, globe, linearization, parse_tree
from test_globsets import globset_iso, latching

NINE_TREE = parse_tree("[[[][]][]]")


@contextmanager
def criterion(number, label, budget):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if ok and elapsed < budget else "FAIL"
        print(f"{status} criterion {number}: {label} ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_linearization_golden():
    with criterion(1, "ordered extensions of the nine-tree example", 1.0):
        ext = linearization(NINE_TREE)
        assert len(ext) == 9
        tags = [e.klass for e in ext]
        assert sorted(tags) == sorted(
            ["H1-Right", "H1-Mid", "H1-Left", "H2-OverEdge", "H2-Max", "H2-Min", "H2-Mid", "H3", "H3"]
        )
        assert tags[0] == "H1-Right"
        assert tags[-1] == "H1-Left"
        assert ext[0].sector.path == () and ext[0].sector.gap == NINE_TREE.arity
        assert ext[-1].sector.path == () and ext[-1].sector.gap == 0


def test_criterion_2_theta_oracle_equivalence():
    with criterion(2, "wreath homs match the chain-model enumeration", 60.0):
        assert hom_count(globe(1), globe(1)) == 3
        assert hom_count(globe(1), globe(2)) == 4
        assert hom_count(globe(2), globe(2)) == 5
        for T in all_trees(8):
            for k in range(5):
                cells = steiner.enumerate_cells(T, k)
                maps = hom(globe(k), T)
                assert len(maps) == len(cells)
                images = {to_steiner_cell(f) for f in maps}
                assert images == set(cells)


def push_atom(g, atom):
    """g_* on one atom (path, gap) of g.source, read off the wreath data: a
    0-atom goes to the gap phi picks, and an atom over child i to the sum,
    over g's block i, of its pushed-forward sub-atoms."""
    path, gap = atom
    if not path:
        return {((), g.phi[gap]): 1}
    return {
        ((child,) + p, q): c
        for child, comp in enumerate(g.components[path[0]], g.phi[path[0]])
        for (p, q), c in push_atom(comp, (path[1:], gap)).items()
    }


def push_cell(g, cell):
    """g_* on every chain of a chain-model cell, frozen as in to_steiner_cell."""

    def push(chain):
        out = collections.Counter()
        for atom, c in chain:
            for image, d in push_atom(g, atom).items():
                out[image] += c * d
        return tuple(sorted(out.items()))

    return tuple((push(minus), push(plus)) for minus, plus in cell)


def test_criterion_3_category_laws():
    with criterion(3, "identity and associativity laws, exhaustively", 60.0):
        trees3 = list(all_trees(3))
        for S in trees3:
            for T in trees3:
                for f in hom(S, T):
                    assert compose(identity(S), f) == f
                    assert compose(f, identity(T)) == f
        for S, T, U, V in itertools.product(trees3, repeat=4):
            for f in hom(S, T):
                for g in hom(T, U):
                    fg = compose(f, g)
                    for h in hom(U, V):
                        assert compose(fg, h) == compose(f, compose(g, h))
        # composites of cells against the chain map of the second factor;
        # telling apart g's components within a gap needs a 3-node T and
        # 4 nodes in U, and components of one type over a gap 5 nodes in U
        pairs = 0
        for T, U in itertools.product(all_trees(4), all_trees(5)):
            for k in range(4):
                for f in hom(globe(k), T):
                    cell = to_steiner_cell(f)
                    for g in hom(T, U):
                        assert to_steiner_cell(compose(f, g)) == push_cell(g, cell), (f, g)
                        pairs += 1
        assert pairs == 71291


def test_criterion_4_homogeneous_globular_factorization():
    with criterion(4, "homogeneous-globular factorization, unique", 120.0):
        small = list(all_trees(5))
        for S in small:
            homogeneous = {}
            for T in small:
                # every composite of a homogeneous map with a globular mono,
                # counted once over all (B, mono, h), then read per map
                found = collections.Counter()
                for B in all_trees(T.n_nodes()):
                    if B not in homogeneous:
                        homogeneous[B] = [h for h in hom(S, B) if is_homogeneous(h)]
                    for mono in theta.all_globular_monos(B, T):
                        for h in homogeneous[B]:
                            found[compose(h, mono)] += 1
                for f in hom(S, T):
                    fact = hg_factorize(f)
                    assert compose(fact.homogeneous, fact.globular) == f
                    assert theta.is_globular(fact.globular)
                    assert is_homogeneous(fact.homogeneous)
                    assert is_homogeneous(f) == (fact.globular == identity(T))
                    assert found[f] == 1


def test_criterion_5_factorization_system_randomized():
    with criterion(5, "bijective/fully-faithful classes and unique lifts", 30.0):
        rng = random.Random(0)
        for m in range(4):
            done = 0
            while done < 200:
                X = gs.random_finglobset(rng, n=3, max_cells=3)
                Y = gs.random_finglobset(rng, n=3, max_cells=3)
                f = gs.random_globmap(rng, X, Y)
                if f is None:
                    continue
                h, g = gs.factor_bij_ff(f, m)
                assert gs.is_m_bijective(h, m)
                assert gs.is_m_fully_faithful(g, m)
                assert h.then(g) == f
                d = gs.check_orthogonal(h, g, h, g)
                assert d == gs.identity_map(h.cod)
                done += 1


def test_criterion_6_spheres_latching_boundary():
    with criterion(6, "latching objects are spheres; boundary oracle", 10.0):
        fam = ([gs.globe_set(k) for k in range(5)], *([gs.globe_face_map(k, e) for k in range(4)] for e in "st"))
        for m in range(1, 5):
            iso = globset_iso(latching(fam, m), gs.sphere(m - 1))
            assert iso is not None
        for t in all_trees(6):
            if dim(t) >= 1:
                assert boundary(t) == boundary_table_oracle(t)


def test_criterion_7_coherator_tower():
    with criterion(7, "standard tower, groupoidalization, functoriality", 60.0):
        th = theory_mod.standard_library(3)
        assert th.audit() == []
        for sym in th.operations():
            if sym.theta_image is not None:
                assert compose(sigma_theta(sym.dim - 1), sym.theta_image) == th.eval_term(sym.src)
                assert compose(tau_theta(sym.dim - 1), sym.theta_image) == th.eval_term(sym.tgt)
        gth = theory_mod.groupoidalize(th)
        assert gth.audit() == []
        inv = [s for s in gth.symbols.values() if s.name.startswith("inv_")]
        kappa = [s for s in gth.symbols.values() if s.name.startswith("k_")]
        assert len(inv) == 6
        assert len(kappa) == 6 and sum(1 for s in kappa if s.is_equation) == 2
        for k in (2, 3):
            kl = theory_mod.app_cell(f"k_l_{k}", gth.identity_term(globe(k - 1)))
            assert gth.cell_boundary(kl, "s").op == f"id{k - 2}"
            assert gth.cell_boundary(kl, "t").op == f"c{k - 1}"
        # functoriality on random composable pairs
        from test_theory import random_term

        rng = random.Random(7)
        trees = [globe(1), globe(2), Tree((Tree(()), Tree(()))), NINE_TREE]
        done = 0
        while done < 200:
            A = rng.choice(trees[:3])
            B = rng.choice(trees)
            C = rng.choice(trees)
            t = random_term(rng, th, A, B)
            u = random_term(rng, th, B, C)
            if t is None or u is None:
                continue
            assert th.eval_term(th.substitute(t, u)) == compose(th.eval_term(t), th.eval_term(u))
            done += 1


def test_criterion_8_cylinder_presentations():
    with criterion(8, "cylinder generator counts and typing", 10.0):
        th = theory_mod.groupoidalize(theory_mod.standard_library(3))
        assert cyl.cyl_presentation(0, th).counts() == (2, 1)
        assert cyl.cyl_presentation(1, th).counts() == (4, 4, 1)
        assert cyl.cyl_presentation(2, th).counts() == (4, 6, 4, 1)
        bd, data = cyl.boundary_cyl(1, th)
        assert bd.counts() + (0,) == (4, 4, 0)
        assert len(data["inclusion_adds"]) == 1
        # imported here, as test_computads imports this module
        from test_computads import typecheck

        for k in range(3):
            P = cyl.cyl_presentation(k, th)
            typecheck(*P.gens.values())
            S = cyl.cyl_glob_sum(globe(k), th)
            typecheck(*S.presentation.gens.values())
            assert find_computad_iso(S.presentation, P) is not None


def test_criterion_9_stack_suite():
    with criterion(9, "stacks compose with the stated endpoints and flags", 120.0):
        th = theory_mod.groupoidalize(theory_mod.standard_library(3))
        checked = 0
        for A in all_trees(9):
            if dim(A) > 2 or A.n_leaves() > 5:
                continue
            for rho in hom(globe(2), A):
                if not is_homogeneous(rho):
                    continue
                squares = cyl.stack(rho, th)
                meta = cyl.vcompose_meta(squares)
                assert meta["top"] == "C_t*rho(U)"
                assert meta["bottom"] == "rho(V)*C_s"
                for sq in squares:
                    expect_src = sq.case in ("H2-Max", "H2-Mid", "H3")
                    expect_tgt = sq.case in ("H2-Min", "H2-Mid", "H3")
                    assert sq.source_degenerate == expect_src
                    assert sq.target_degenerate == expect_tgt
                ps = [sq.p for sq in squares]
                qs = [sq.q for sq in squares]
                assert meta["p"] == (None if all(v is None for v in ps) else 0)
                assert meta["q"] == (None if all(v is None for v in qs) else 0)
                checked += 1
        assert checked > 50