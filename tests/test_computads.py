"""The computad isomorphism search, against the recursive search it replaced."""

import random
import time

import pytest

import test_acceptance
import test_cylinders
import test_globsets
from globwork import cylinders as cyl
from globwork import globsets as gs
from globwork.computads import Computad, find_computad_iso, rename
from globwork.theory import groupoidalize, interval_presentation, standard_library
from globwork.trees import LEAF, Tree, all_trees, dim

TH = groupoidalize(standard_library(3))


def find_computad_iso_by_recursion(P: Computad, Q: Computad):
    """The search as two nested recursive closures, one stack frame per
    generator: a dimension- and boundary-preserving bijection, or None."""
    if P.counts() != Q.counts():
        return None
    dims = sorted({c.dim for c in P.gens.values()})
    mapping: dict = {}

    def extend(di):
        if di == len(dims):
            return True
        d = dims[di]
        ps = [n for n in P.order if P.gens[n].dim == d]
        qs = [n for n in Q.order if Q.gens[n].dim == d]

        def place(i, used):
            if i == len(ps):
                return extend(di + 1)
            p = ps[i]
            pc = P.gens[p]
            for q in qs:
                if q in used:
                    continue
                qc = Q.gens[q]
                if pc.dim > 0:
                    if rename(pc.src, mapping) != qc.src or rename(pc.tgt, mapping) != qc.tgt:
                        continue
                mapping[p] = q
                if place(i + 1, used | {q}):
                    return True
                del mapping[p]
            return False

        return place(0, set())

    if extend(0):
        return dict(mapping)
    return None


def assert_searches_agree(P, Q):
    got = find_computad_iso(P, Q)
    want = find_computad_iso_by_recursion(P, Q)
    # the same mapping, built in the same order
    assert got == want and (got is None or list(got) == list(want))
    return got


def relabelled(P: Computad, rng, reverse=False) -> Computad:
    """P with its generators renamed by a random bijection and added in a
    random order within each dimension; with ``reverse``, one random
    top-dimensional generator of positive dimension has its source and
    target swapped, which may or may not leave P's isomorphism class."""
    fresh = [f"g{i}" for i in range(len(P.order))]
    rng.shuffle(fresh)
    names = dict(zip(P.order, fresh))
    top = max(c.dim for c in P.gens.values())
    flipped = rng.choice([n for n in P.order if P.gens[n].dim == top]) if reverse and top else None
    Q = Computad(f"relabelled {P.label}")
    for n in sorted(P.order, key=lambda n: (P.gens[n].dim, rng.random())):
        c = P.gens[n]
        ends = (rename(c.src, names), rename(c.tgt, names)) if c.dim else ()
        Q.add(names[n], c.dim, *(ends[::-1] if n == flipped else ends))
    return Q


# the tests whose computad pairs the suite already passes: globset_iso
# (criterion 6 and tests/test_globsets.py), criterion 8 and the sum
# cylinders of D0-D2 against cyl_presentation
SUITE_PAIRS = (
    test_globsets.test_pushout_along_identity,
    test_globsets.test_latching_of_globes_is_sphere,
    test_globsets.test_latching_constant_family,
    test_globsets.test_factor_sphere_into_globe,
    test_globsets.test_loopspace_of_two_cell,
    test_globsets.test_realize_agrees_with_table_colimit,
    test_globsets.test_spheres_match_the_pushout_route,
    test_acceptance.test_criterion_6_spheres_latching_boundary,
    test_acceptance.test_criterion_8_cylinder_presentations,
    test_cylinders.test_degenerate_cyl_none_is_full,
    test_cylinders.test_cyl_glob_sum_matches_globe_presentations,
)


@pytest.mark.parametrize("test", SUITE_PAIRS, ids=lambda t: t.__name__)
def test_loop_matches_the_recursion_on_the_suites_pairs(monkeypatch, test):
    searched = []

    def both(P, Q):
        searched.append(assert_searches_agree(P, Q))
        return searched[-1]

    for module in (test_globsets, test_acceptance, test_cylinders):
        monkeypatch.setattr(module, "find_computad_iso", both)
    test()
    assert searched and all(m is not None for m in searched)


def small_computads():
    yield interval_presentation(TH)
    for k in range(3):
        yield cyl.cyl_presentation(k, TH)
        yield cyl.modification_presentation(k, TH)[0]
    # at three root branches the search walks the 8! orders of the points
    for A in all_trees(4):
        if dim(A) <= 2 and A.arity <= 2:
            yield cyl.cyl_glob_sum(A, TH).presentation


def test_loop_matches_the_recursion_on_random_relabellings():
    rng = random.Random(2323)
    sources = [P for P in small_computads() for _ in range(4)]
    while len(sources) < 240:
        sources.append(test_globsets.as_computad(gs.random_finglobset(rng, n=rng.randint(0, 2), max_cells=3)))
    reversals = []
    for P in sources:
        assert assert_searches_agree(P, relabelled(P, rng)) is not None
        reversals.append(assert_searches_agree(P, relabelled(P, rng, reverse=True)) is not None)
    # a reversal can leave the isomorphism class or stay in it
    assert reversals.count(False) >= 20 and reversals.count(True) >= 20


def points(n):
    P = Computad(f"{n} points")
    for i in range(n):
        P.add(f"p{i}", 0)
    return P


def test_large_self_isomorphisms_answer_without_recursion():
    # both raised RecursionError in the recursive search
    P = points(1100)
    S = cyl.cyl_glob_sum(Tree((LEAF,) * 400), TH).presentation
    assert S.counts() == (802, 1201, 400)
    for X in (P, S):
        start = time.perf_counter()
        iso = find_computad_iso(X, X)
        assert time.perf_counter() - start < 1.0
        assert iso == {n: n for n in X.order}


def test_points_with_an_edge_are_not_points_with_a_loop():
    # an exhaustive refutation over the placements of the points, as in
    # the recursion (0.3 s at 8 points, 2.6 s at 9)
    for n in range(2, 7):
        P, Q = points(n), points(n)
        P.add("e", 1, P["p0"], P["p1"])
        Q.add("e", 1, Q["p0"], Q["p0"])
        assert assert_searches_agree(P, Q) is None
        assert find_computad_iso(P, P) is not None
