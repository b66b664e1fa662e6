import collections
import functools
import itertools
import random
import re
import time

import pytest

from globwork.errors import DomainError, TypingError
from globwork import globsets as gs
from globwork.computads import Computad, find_computad_iso
from globwork.trees import all_trees, dim, globe, parse_tree, suspend
from globwork.globsets import (
    EMPTY,
    FinGlobSet,
    GlobMap,
    boundary_inclusion,
    check_orthogonal,
    chi_check,
    factor_bij_ff,
    globe_set,
    globe_face_map,
    identity_map,
    loopspace,
    realize,
    sphere,
    sphere_collapse,
)

NINE_TREE = parse_tree("[[[][]][]]")


def as_computad(X):
    """X as a computad: one generator per cell, named by its dimension and
    repr, with the generators of its source and target as boundary."""
    P = Computad(repr(X))
    for k, layer in enumerate(X.cells):
        for c in layer:
            faces = (P[f"{k - 1}:{X.src[k][c]!r}"], P[f"{k - 1}:{X.tgt[k][c]!r}"]) if k else ()
            P.add(f"{k}:{c!r}", k, *faces)
    return P


def globset_iso(X, Y):
    """A dimension- and boundary-preserving bijection of the cells of X
    and Y (as a map of generator names), or None: the computad
    isomorphism search on the two presented as computads."""
    if X.n != Y.n:
        return None
    return find_computad_iso(as_computad(X), as_computad(Y))


def test_realize_globe_counts():
    assert realize(globe(2)).counts() == (2, 2, 1)
    assert realize(globe(0)).counts() == (1,)


def test_realize_nine_tree_counts():
    assert realize(NINE_TREE).counts() == (3, 4, 2)


def test_realize_suspension_counts():
    for t in all_trees(5):
        base = realize(t).counts()
        susp = realize(suspend(t)).counts()
        assert susp == (2,) + base


def test_realize_globularity_everywhere():
    for t in all_trees(6):
        realize(t).validate()


def test_pushout_along_identity():
    X = realize(NINE_TREE)
    P, i1, i2, _ = pushout(identity_map(X), identity_map(X))
    assert P.counts() == X.counts()
    assert globset_iso(P, X) is not None


def test_pushout_two_edges():
    D0, D1 = globe_set(0), globe_set(1)
    pt = D0.cells[0][0]
    a0, a1 = D1.cells[0]
    src_pick = GlobMap(D0, D1, [{pt: a0}])
    tgt_pick = GlobMap(D0, D1, [{pt: a1}])
    P, _, _, _ = pushout(tgt_pick, src_pick)
    assert P.counts() == (3, 2)


def test_pushout_two_triangles_share_edge():
    D1, D2 = globe_set(1), globe_set(2)
    src2 = globe_face_map(1, "s")
    tgt2 = globe_face_map(1, "t")
    P, _, _, _ = pushout(tgt2, src2)
    assert P.counts() == (2, 3, 2)


def test_spheres():
    assert sphere(-1) is EMPTY
    assert sphere(0).counts() == (1, 1) or sphere(0).counts() == (2,)
    assert sphere(0).counts() == (2,)
    assert sphere(1).counts() == (2, 2)
    assert sphere(2).counts() == (2, 2, 2)


def test_map_refuses_a_broken_boundary():
    D1 = globe_set(1)
    (a0, a1), (e,) = D1.cells
    for points, side in (({a0: a1, a1: a0}, "src"), ({a0: a0, a1: a0}, "tgt")):
        with pytest.raises(TypingError, match=f"^{re.escape(f'{side} not preserved at {e!r}')}$"):
            GlobMap(D1, D1, [points, {e: e}])


@pytest.mark.parametrize(
    "n, cells, src, tgt",
    [
        (0, [["a", "a"]], [{}], [{}]),
        (1, [["a"], ["e", "e"]], [{}, {"e": "a"}], [{}, {"e": "a"}]),
        (2, [["a"], ["e"], ["x", "x"]], [{}, {"e": "a"}, {"x": "e"}], [{}, {"e": "a"}, {"x": "e"}]),
    ],
)
def test_globular_set_refuses_a_repeated_cell(n, cells, src, tgt):
    with pytest.raises(TypingError, match=f"^a cell repeats in level {n}$"):
        FinGlobSet(n, cells, src, tgt)


def test_boundary_inclusion_commutes():
    for k in range(4):
        jk = boundary_inclusion(k)
        jk.validate()
        assert jk.dom.counts() == sphere(k - 1).counts()
        assert jk.cod == globe_set(k)


def test_sphere_collapse_surjective_on_top():
    for k in range(4):
        f = sphere_collapse(k)
        tops = {f.maps[k][c] for c in f.dom.cells[k]}
        assert tops == set(globe_set(k).cells[k])


def test_latching_of_globes_is_sphere():
    fam = ([globe_set(k) for k in range(5)], *([globe_face_map(k, e) for k in range(4)] for e in "st"))
    for m in range(1, 5):
        L = latching(fam, m)
        S = sphere(m - 1)
        assert globset_iso(L, S) is not None


def test_latching_constant_family():
    X = realize(NINE_TREE)
    fam = ([X] * 4, [identity_map(X)] * 3, [identity_map(X)] * 3)
    for m in range(2, 5):
        assert globset_iso(latching(fam, m), X) is not None
    # at m = 1 the indexing slice is discrete with two objects
    assert latching(fam, 1).counts() == tuple(2 * c for c in X.counts())


def test_classify_identity():
    X = realize(NINE_TREE)
    f = identity_map(X)
    for m in range(3):
        assert gs.is_m_bijective(f, m) and gs.is_m_fully_faithful(f, m)


def test_classify_sigma():
    f = globe_face_map(1, "s")  # D1 -> D2
    assert gs.is_m_bijective(f, 0)
    assert not gs.is_m_bijective(f, 1)  # two edges downstairs, one upstairs is hit


def test_sigma_tau_bijectivity_level():
    # on realizations, globe source/target maps are (k-1)-bijective
    for k in range(1, 4):
        for f in (globe_face_map(k, "s"), globe_face_map(k, "t")):
            assert gs.is_m_bijective(f, k - 1)
            assert not gs.is_m_bijective(f, k)


def test_classify_boundary_inclusion():
    j2 = boundary_inclusion(2)  # S1 -> D2
    assert gs.is_m_bijective(j2, 1)
    assert not gs.is_m_fully_faithful(j2, 1)  # the 2-cell has its boundary in the image but no preimage


def test_factor_already_bijective():
    X = realize(globe(2))
    h, g = factor_bij_ff(identity_map(X), 1)
    assert gs.is_m_bijective(h, 1)
    assert gs.is_m_fully_faithful(g, 1)
    assert h.then(g) == identity_map(X)


def test_factor_sphere_into_globe():
    f = boundary_inclusion(2)
    h, g = factor_bij_ff(f, 1)
    assert h.then(g).maps == gs.pad_map(f, 2).maps
    assert gs.is_m_bijective(h, 1)
    assert gs.is_m_fully_faithful(g, 1)
    # the middle object acquires the missing 2-cell
    assert h.cod.counts() == (2, 2, 1)
    assert globset_iso(h.cod, globe_set(2)) is not None


def test_factor_fold_map():
    D0 = globe_set(0)
    two = colimit({"a": D0, "b": D0}, []).obj
    pt = D0.cells[0][0]
    fold = GlobMap(two, D0, [{c: pt for c in two.cells[0]}])
    h, g = factor_bij_ff(fold, 0)
    assert h.then(g) == fold
    assert gs.is_m_bijective(h, 0)
    assert gs.is_m_fully_faithful(g, 0)


def test_factor_classes_on_realizations():
    rng = random.Random(7)
    trees = [t for t in all_trees(5)]
    for _ in range(60):
        t1, t2 = rng.choice(trees), rng.choice(trees)
        X, Y = realize(t1), realize(t2)
        n = max(X.n, Y.n)
        Xp, Yp = gs.pad_to(X, n), gs.pad_to(Y, n)
        f = gs.random_globmap(rng, Xp, Yp)
        if f is None:
            continue
        for m in range(n + 1):
            h, g = factor_bij_ff(f, m)
            assert gs.is_m_bijective(h, m)
            assert gs.is_m_fully_faithful(g, m)
            assert h.then(g) == f


def test_orthogonality_identity_cases():
    X = realize(globe(1))
    i = identity_map(X)
    p = identity_map(X)
    d = check_orthogonal(i, p, i, p)
    assert d == identity_map(X)


def test_orthogonal_lifting_unique_random():
    rng = random.Random(1234)
    found = 0
    for _ in range(80):
        X = gs.random_finglobset(rng, n=2, max_cells=3)
        Y = gs.random_finglobset(rng, n=2, max_cells=3)
        f = gs.random_globmap(rng, X, Y)
        if f is None:
            continue
        m = rng.randint(0, 2)
        h, g = factor_bij_ff(f, m)
        # lifting problem: h against g with the factorization square; the
        # unique diagonal is the identity of the middle object
        d = check_orthogonal(h, g, h, g)
        assert d == identity_map(h.cod)
        found += 1
    assert found >= 20


def test_no_filler_reported():
    # the fold map against itself admits no diagonal at all
    D0 = globe_set(0)
    two = colimit({"a": D0, "b": D0}, []).obj
    pt = D0.cells[0][0]
    fold = GlobMap(two, D0, [{c: pt for c in two.cells[0]}])
    with pytest.raises(DomainError):
        check_orthogonal(fold, fold, identity_map(two), identity_map(D0))


def test_loopspace_of_edge():
    X = realize(globe(1))
    a, b = X.cells[0]
    L = loopspace(X, a, b)
    assert L.counts() == (1,)
    same = loopspace(X, a, a)
    assert same.counts() == (0,)


def test_loopspace_of_two_cell():
    X = realize(globe(2))
    a, b = X.cells[0]
    L = loopspace(X, a, b)
    assert L.counts() == (2, 1)
    assert globset_iso(L, globe_set(1)) is not None


def test_chi_check_free_two_cell():
    X = realize(globe(2))
    report = chi_check(X, {})
    by_item = {r["item"]: r for r in report}
    # no composable 1-cell pairs, so item (1) is vacuous; identities are absent
    assert by_item[1]["ok"]
    assert not by_item[4]["ok"]
    assert not by_item[5]["ok"]


def test_chi_check_idempotent_arrow_passes():
    cells = [["a"], ["f"], ["phi"]]
    src = [{}, {"f": "a"}, {"phi": "f"}]
    tgt = [{}, {"f": "a"}, {"phi": "f"}]
    X = FinGlobSet(2, cells, src, tgt)
    structure = {"comp1": {("f", "f"): "f"}, "id1": {"a": "f"}}
    report = chi_check(X, structure)
    assert all(r["ok"] for r in report)


def test_chi_check_unit_constraint_flagged():
    # two distinct endo-cells with composite chosen away from the unit law
    cells = [["a"], ["f", "i"], [("c", k) for k in range(3)]]
    src = [{}, {"f": "a", "i": "a"}, {("c", 0): "f", ("c", 1): "i", ("c", 2): "f"}]
    tgt = [{}, {"f": "a", "i": "a"}, {("c", 0): "f", ("c", 1): "i", ("c", 2): "f"}]
    X = FinGlobSet(2, cells, src, tgt)
    structure = {
        "comp1": {(x, y): "i" for x in ("f", "i") for y in ("f", "i")},
        "id1": {"a": "i"},
    }
    report = chi_check(X, structure)
    by_item = {r["item"]: r for r in report}
    # composites of f with the unit land on i, and X2(i, f) is empty
    assert not by_item[6]["ok"]


def test_chi_check_witnesses_both_sides_in_order():
    # one 2-cell f => g and every composite chosen as i: each whiskering of
    # it and each unit constraint fails on both sides
    ones = {"f": "a", "g": "a", "i": "a"}
    X = FinGlobSet(2, [["a"], list(ones), ["c"]], [{}, ones, {"c": "f"}], [{}, ones, {"c": "g"}])
    structure = {"comp1": {(x, y): "i" for x in ones for y in ones}, "id1": {"a": "i"}}
    by_item = {r["item"]: r for r in chi_check(X, structure)}
    assert by_item[3]["witnesses"] == [
        (side, "f", "g", h) for h in ("f", "g", "i") for side in ("right", "left")
    ]
    assert by_item[6]["witnesses"] == [
        (side, f, pair)
        for f in ("f", "g", "i")
        for side in ("pre-unit", "post-unit")
        for pair in (("i", f), (f, "i"))
    ]


def cyclic_checklist():
    """chi_check on 2-cells f => g, g => i and i => f (named so that they
    sort in that order) with every composite chosen as i."""
    ones = {"f": "a", "g": "a", "i": "a"}
    rel = {"fg": ("f", "g"), "gi": ("g", "i"), "if": ("i", "f")}
    X = FinGlobSet(
        2,
        [["a"], list(ones), list(rel)],
        [{}, ones, {c: s for c, (s, _) in rel.items()}],
        [{}, ones, {c: t for c, (_, t) in rel.items()}],
    )
    return chi_check(X, {"comp1": {(x, y): "i" for x in ones for y in ones}, "id1": {"a": "i"}})


def test_chi_check_reports_in_cell_order():
    by_item = {r["item"]: r for r in cyclic_checklist()}
    assert by_item[2]["witnesses"][:2] == [("f", "g", "i"), ("g", "i", "f")]


def test_chi_check_rejects_ill_typed_tables():
    X = realize(globe(2))
    with pytest.raises(TypingError):
        chi_check(X, {"comp1": {("nope", "nope"): "nope"}})
    with pytest.raises(TypingError):
        chi_check(gs.globe_set(1), {})


def test_bijective_closed_under_pushout():
    rng = random.Random(99)
    done = 0
    for _ in range(60):
        X = gs.random_finglobset(rng, n=2, max_cells=3)
        Y = gs.random_finglobset(rng, n=2, max_cells=3)
        Z = gs.random_finglobset(rng, n=2, max_cells=3)
        f = gs.random_globmap(rng, X, Y)
        g = gs.random_globmap(rng, X, Z)
        if f is None or g is None:
            continue
        for m in range(3):
            if gs.is_m_bijective(f, m):
                _, _, inj2, _ = pushout(f, g)
                assert gs.is_m_bijective(inj2, m)
                done += 1
    assert done >= 10


def test_orthogonal_lifting_on_induced_squares():
    # squares induced by an arbitrary map B -> X also lift uniquely
    rng = random.Random(424242)
    done = 0
    while done < 60:
        X1 = gs.random_finglobset(rng, n=2, max_cells=3)
        Y1 = gs.random_finglobset(rng, n=2, max_cells=3)
        f1 = gs.random_globmap(rng, X1, Y1)
        if f1 is None:
            continue
        m = rng.randint(0, 2)
        i, _ = factor_bij_ff(f1, m)  # i is m-bijective
        X2 = gs.random_finglobset(rng, n=2, max_cells=3)
        Y2 = gs.random_finglobset(rng, n=2, max_cells=3)
        f2 = gs.random_globmap(rng, X2, Y2)
        if f2 is None:
            continue
        _, p = factor_bij_ff(f2, m)  # p is m-fully-faithful
        w = gs.random_globmap(rng, i.cod, p.dom)
        if w is None:
            continue
        d = check_orthogonal(i, p, i.then(w), w.then(p))
        assert d == w
        done += 1
    assert done == 60


def _sigma_chain(i, j):
    f = identity_map(globe_set(i))
    for k in range(i, j):
        f = f.then(globe_face_map(k, "s"))
    return f


def _tau_chain(i, j):
    f = identity_map(globe_set(i))
    for k in range(i, j):
        f = f.then(globe_face_map(k, "t"))
    return f


def test_realize_agrees_with_table_colimit():
    # the direct construction against the colimit of globes over the table
    from globwork.trees import tree_to_table

    for t in all_trees(6):
        tbl = tree_to_table(t)
        spaces = {("top", k): globe_set(i) for k, i in enumerate(tbl.tops)}
        edges = []
        for k, j in enumerate(tbl.joins):
            spaces[("join", k)] = globe_set(j)
            edges.append((("join", k), ("top", k), _tau_chain(j, tbl.tops[k])))
            edges.append((("join", k), ("top", k + 1), _sigma_chain(j, tbl.tops[k + 1])))
        glued = colimit(spaces, edges).obj
        assert globset_iso(glued, gs.pad_to(realize(t), glued.n)) is not None


def test_factorization_unique_up_to_middle_iso():
    # any relabelled factorization compares to the canonical one through the
    # unique orthogonality diagonal, which recovers the relabelling
    rng = random.Random(5150)
    done = 0
    while done < 40:
        X = gs.random_finglobset(rng, n=2, max_cells=3)
        Y = gs.random_finglobset(rng, n=2, max_cells=3)
        f = gs.random_globmap(rng, X, Y)
        if f is None:
            continue
        m = rng.randint(0, 2)
        h, g = factor_bij_ff(f, m)
        W = h.cod
        # relabel the middle object with a random permutation per dimension
        perm = [dict(zip(W.cells[k], rng.sample(W.cells[k], len(W.cells[k])))) for k in range(W.n + 1)]
        W2 = gs.FinGlobSet(
            W.n,
            [[perm[k][c] for c in W.cells[k]] for k in range(W.n + 1)],
            [{perm[k][c]: perm[k - 1][v] for c, v in W.src[k].items()} for k in range(W.n + 1)],
            [{perm[k][c]: perm[k - 1][v] for c, v in W.tgt[k].items()} for k in range(W.n + 1)],
        )
        relabel = GlobMap(W, W2, [dict(perm[k]) for k in range(W.n + 1)])
        h2 = h.then(relabel)
        g2 = GlobMap(W2, Y, [{perm[k][c]: v for c, v in g.maps[k].items()} for k in range(W.n + 1)])
        assert gs.is_m_bijective(h2, m) and gs.is_m_fully_faithful(g2, m)
        d = check_orthogonal(h, g2, h2, g)
        assert d == relabel
        done += 1


# ---------------------------------------------------------------------------
# oracles: the search routes that the constructions replaced

Colimit = collections.namedtuple("Colimit", "obj legs")


def colimit(spaces, edges):
    """Colimit of a finite diagram of globular sets.

    ``spaces`` maps vertex names to FinGlobSets; ``edges`` is a list of
    ``(v, w, GlobMap)`` with domain ``spaces[v]`` and codomain
    ``spaces[w]``.  The cells ``(k, v, c)`` are glued by a union-find that
    names each class by its least member under ``repr``.
    """
    parent = {(k, v, c): (k, v, c) for v, X in spaces.items() for k, layer in enumerate(X.cells) for c in layer}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for v, w, f in edges:
        for k, layer in enumerate(f.maps):
            for c, y in layer.items():
                lo, hi = sorted((find((k, v, c)), find((k, w, y))), key=repr)
                parent[hi] = lo
    rep = {x: find(x) for x in parent}
    n = max([X.n for X in spaces.values()], default=-1)
    cells = [set() for _ in range(n + 1)]
    src, tgt = [{} for _ in range(n + 1)], [{} for _ in range(n + 1)]
    for (k, v, c), r in rep.items():
        cells[k].add(r)
        if k:
            s, t = (rep[k - 1, v, side[k][c]] for side in (spaces[v].src, spaces[v].tgt))
            if src[k].setdefault(r, s) != s or tgt[k].setdefault(r, t) != t:
                raise TypingError("colimit boundaries are not well defined")
    P = FinGlobSet(n, cells, src, tgt)
    legs = {
        v: GlobMap(X, P, [{c: rep[k, v, c] for c in layer} for k, layer in enumerate(X.cells)])
        for v, X in spaces.items()
    }
    return Colimit(P, legs)


def pushout(f, g):
    """Degreewise pushout of ``Y <- X -> Z``; returns (P, Y->P, Z->P, colim)."""
    if f.dom != g.dom:
        raise TypingError("pushout needs a common domain")
    co = colimit({"X": f.dom, "Y": f.cod, "Z": g.cod}, [("X", "Y", f), ("X", "Z", g)])
    return co.obj, co.legs["Y"], co.legs["Z"], co


def latching(family, m):
    """Latching object at m of a coglobular family ``(spaces, sigmas, taus)``.

    The indexing slice has one object per map j -> m in the globe category
    (two for each j < m, named by the bottom letter), and one morphism
    between consecutive stages for each matching bottom letter.
    """
    spaces, sigmas, taus = family
    verts = {(j, eps): spaces[j] for j in range(m) for eps in "st"}
    steps = [(j, eps, step) for j in range(m - 1) for eps, step in (("s", sigmas[j]), ("t", taus[j]))]
    return colimit(verts, [((j, eps), (j + 1, eps2), step) for j, eps, step in steps for eps2 in "st"]).obj


def mediate(co, cocone):
    """The induced map out of a colimit, given a compatible cocone."""
    maps = [dict() for _ in range(co.obj.n + 1)]
    target = None
    for v, leg in co.legs.items():
        u = cocone[v]
        target = u.cod
        for k in range(leg.dom.n + 1):
            for c in leg.dom.cells[k]:
                rep = leg.maps[k][c]
                img = u.maps[k][c]
                if rep in maps[k] and maps[k][rep] != img:
                    raise TypingError("cocone is not compatible")
                maps[k][rep] = img
    return GlobMap(co.obj, target, maps)


@functools.lru_cache(maxsize=None)
def sphere_pushout(k):
    """The defining pushout S^k = D_k u_{S^{k-1}} D_k, for k >= 0."""
    jk = boundary_inclusion_by_pushouts(k)
    return pushout(jk, jk)[3]


def boundary_inclusion_by_pushouts(k):
    """j_k : S^{k-1} -> D_k, induced by the globe source and target maps."""
    if k == 0:
        return GlobMap(EMPTY, globe_set(0), [])
    glue = (
        GlobMap(EMPTY, globe_set(k), [])
        if k == 1
        else boundary_inclusion_by_pushouts(k - 1).then(globe_face_map(k - 1, "s"))
    )
    cocone = {"X": glue, "Y": globe_face_map(k - 1, "s"), "Z": globe_face_map(k - 1, "t")}
    return mediate(sphere_pushout(k - 1), cocone)


def sphere_collapse_by_pushouts(k):
    ident = identity_map(globe_set(k))
    glue = GlobMap(EMPTY, globe_set(k), []) if k == 0 else boundary_inclusion_by_pushouts(k)
    return mediate(sphere_pushout(k), {"X": glue, "Y": ident, "Z": ident})


def test_spheres_match_the_pushout_route():
    for k in range(5):
        assert globset_iso(sphere(k), sphere_pushout(k).obj) is not None
        for built, oracle in (
            (boundary_inclusion(k), boundary_inclusion_by_pushouts(k)),
            (sphere_collapse(k), sphere_collapse_by_pushouts(k)),
        ):
            assert globset_iso(built.dom, oracle.dom) is not None and built.cod == oracle.cod
            assert [set(m.values()) for m in built.maps] == [set(m.values()) for m in oracle.maps]


def ff_by_pair_scan(f, m):
    """Cartesian boundary squares above m, scanning every pair of cells."""
    X, Y = f.dom, f.cod

    def xs_at(k):
        return X.cells[k] if k <= X.n else ()

    for i in range(m, Y.n):
        seen = {}
        for c in xs_at(i + 1):
            key = (f.maps[i + 1][c], X.src[i + 1][c], X.tgt[i + 1][c])
            if key in seen:
                return False
            seen[key] = c
        for y in Y.cells[i + 1]:
            for xs in xs_at(i):
                for xt in xs_at(i):
                    if i >= 1 and (
                        X.src[i][xs] != X.src[i][xt] or X.tgt[i][xs] != X.tgt[i][xt]
                    ):
                        continue
                    if f.maps[i][xs] == Y.src[i + 1][y] and f.maps[i][xt] == Y.tgt[i + 1][y]:
                        if (y, xs, xt) not in seen:
                            return False
    return True


def factor_by_pair_scan(f, m):
    """The (bij_m, ff_m) factorization, scanning every pair of cells below."""
    if f.dom.n < f.cod.n:
        f = gs.pad_map(f, f.cod.n)
    X, Y = f.dom, f.cod
    n = X.n
    cells = []
    src = [dict() for _ in range(n + 1)]
    tgt = [dict() for _ in range(n + 1)]
    h_maps = []
    g_maps = []
    for k in range(min(m, n) + 1):
        cells.append(list(X.cells[k]))
        if k >= 1:
            src[k] = dict(X.src[k])
            tgt[k] = dict(X.tgt[k])
        h_maps.append({c: c for c in X.cells[k]})
        g_maps.append({c: f.maps[k][c] for c in X.cells[k]})
    for k in range(m + 1, n + 1):
        layer = []
        g_maps.append({})
        for y in Y.cells[k]:
            for ws in cells[k - 1]:
                for wt in cells[k - 1]:
                    if g_maps[k - 1][ws] == Y.src[k][y] and g_maps[k - 1][wt] == Y.tgt[k][y]:
                        if k >= 2 and (src[k - 1].get(ws, None) != src[k - 1].get(wt, None)
                                       or tgt[k - 1].get(ws, None) != tgt[k - 1].get(wt, None)):
                            continue
                        w = ("pb", y, ws, wt)
                        layer.append(w)
                        src[k][w] = ws
                        tgt[k][w] = wt
                        g_maps[k][w] = y
        cells.append(layer)
        h_maps.append({})
        for c in X.cells[k]:
            h_maps[k][c] = ("pb", f.maps[k][c], h_maps[k - 1][X.src[k][c]], h_maps[k - 1][X.tgt[k][c]])
    W = FinGlobSet(n, cells, src, tgt)
    return GlobMap(X, W, h_maps), GlobMap(W, Y, g_maps)


def criterion_5_maps():
    """The random maps of acceptance criterion 5: 200 for each m = 0..3."""
    rng = random.Random(0)
    for m in range(4):
        done = 0
        while done < 200:
            X = gs.random_finglobset(rng, n=3, max_cells=3)
            Y = gs.random_finglobset(rng, n=3, max_cells=3)
            f = gs.random_globmap(rng, X, Y)
            if f is not None:
                yield f, m
                done += 1


def test_factorization_matches_the_pair_scan():
    cases = list(criterion_5_maps())
    cases += [(boundary_inclusion(k), m) for k in range(5) for m in range(k + 1)]
    answers = set()
    for f, m in cases:
        h, g = factor_bij_ff(f, m)
        assert (h, g) == factor_by_pair_scan(f, m)
        answers.add(gs.is_m_fully_faithful(f, m))
        assert gs.is_m_fully_faithful(f, m) == ff_by_pair_scan(f, m)
        assert gs.is_m_fully_faithful(g, m) == ff_by_pair_scan(g, m)
    assert len(cases) >= 800 and answers == {True, False}


def find_lifts(i, p, top, bottom):
    """All diagonals d with d.i = top and p.d = bottom.

    Exhaustive search over dimensionwise assignments, pruned by the square
    and by src/tgt commutation with the layers already placed.
    """
    A, B = i.dom, i.cod
    X = p.dom
    if top.dom != A or bottom.dom != B or top.cod != X or bottom.cod != p.cod:
        raise TypingError("square does not type-check")
    for k in range(A.n + 1):
        for c in A.cells[k]:
            if p.maps[k][top.maps[k][c]] != bottom.maps[k][i.maps[k][c]]:
                raise TypingError("square does not commute")

    results = []

    def go(k, layers):
        if k > B.n:
            results.append(GlobMap(B, X, [dict(m) for m in layers]))
            return
        forced = {}
        if k <= A.n:
            for c in A.cells[k]:
                b, v = i.maps[k][c], top.maps[k][c]
                if forced.setdefault(b, v) != v:
                    return
        options = []
        for b in B.cells[k]:
            cands = []
            for x in X.cells[k] if k <= X.n else ():
                if p.maps[k][x] != bottom.maps[k][b]:
                    continue
                if b in forced and forced[b] != x:
                    continue
                if k >= 1 and (
                    X.src[k][x] != layers[k - 1][B.src[k][b]]
                    or X.tgt[k][x] != layers[k - 1][B.tgt[k][b]]
                ):
                    continue
                cands.append(x)
            options.append((b, cands))

        def assign(idx, layer):
            if idx == len(options):
                go(k + 1, layers + [layer])
                return
            b, cands = options[idx]
            for x in cands:
                assign(idx + 1, {**layer, b: x})

        assign(0, {})

    go(0, [])
    return results


def orthogonal_by_search(i, p, top, bottom):
    """``check_orthogonal`` read off the list of every diagonal."""
    lifts = find_lifts(i, p, top, bottom)
    if not lifts:
        raise DomainError("no filler: orthogonality violated")
    if len(lifts) > 1:
        raise DomainError("filler is not unique: orthogonality violated")
    return lifts[0]


def lift_outcome(check, square):
    """("unique", d), ("none" | "not unique", message), or the typing error."""
    try:
        return "unique", check(*square)
    except DomainError as e:
        return ("none" if str(e).startswith("no filler") else "not unique"), str(e)
    except TypingError as e:
        return TypingError, str(e)


def test_lifts_match_the_exhaustive_search():
    squares = [(h, g, h, g) for h, g in (factor_bij_ff(f, m) for f, m in criterion_5_maps())]
    # squares outside the factorization system: f against itself; for
    # random i (from the empty set or from a random A) and p, the square
    # induced by a map w : B -> X, and the same top with a random bottom
    squares += [(f, f, identity_map(f.dom), identity_map(f.cod)) for f, _ in criterion_5_maps()]
    rng = random.Random(1919)
    while len(squares) < 2400:
        A, B, X, Y = (gs.random_finglobset(rng, n=2, max_cells=3) for _ in range(4))
        i = GlobMap(EMPTY, B, []) if rng.random() < 0.3 else gs.random_globmap(rng, A, B)
        p, w = gs.random_globmap(rng, X, Y), gs.random_globmap(rng, B, X)
        if i is None or p is None or w is None:
            continue
        squares.append((i, p, i.then(w), w.then(p)))
        bottom = gs.random_globmap(rng, B, Y)
        if bottom is not None:
            squares.append((i, p, i.then(w), bottom))
    squares += [forced_edge_square(n) for n in range(2, 9)]
    # a square that does not type-check, and one whose diagonal would land
    # in a lower truncation
    f = squares[0][0]
    squares.append((f, f, identity_map(f.cod), identity_map(f.dom)))
    D0 = globe_set(0)
    B = Y = gs.pad_to(D0, 1)
    ident = [{c: c for c in D0.cells[0]}]
    squares.append((GlobMap(EMPTY, B, []), GlobMap(D0, Y, ident), GlobMap(EMPTY, D0, []), GlobMap(B, Y, ident + [{}])))
    seen = collections.Counter()
    for square in squares:
        outcome = lift_outcome(check_orthogonal, square)
        assert outcome == lift_outcome(orthogonal_by_search, square)
        seen[outcome[0] if outcome[0] is not TypingError else outcome[1]] += 1
    assert min(seen[v] for v in ("none", "unique", "not unique", "square does not commute")) >= 40, seen
    assert seen["square does not type-check"] == seen["codomain truncation too small"] == 1


def test_many_lifts_stop_at_the_second(monkeypatch):
    # 40 points over a two-point fibre: 2**40 diagonals, two of them built
    D0 = globe_set(0)
    B = colimit({("b", j): D0 for j in range(40)}, []).obj
    X = colimit({"x": D0, "y": D0}, []).obj
    pt = D0.cells[0][0]
    i = GlobMap(EMPTY, B, [])
    p = GlobMap(X, D0, [dict.fromkeys(X.cells[0], pt)])
    bottom = GlobMap(B, D0, [dict.fromkeys(B.cells[0], pt)])
    built = []

    class CountedGlobMap(GlobMap):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(gs, "GlobMap", CountedGlobMap)
    start = time.monotonic()
    with pytest.raises(DomainError, match=r"^filler is not unique: orthogonality violated$"):
        check_orthogonal(i, p, GlobMap(EMPTY, X, []), bottom)
    assert time.monotonic() - start < 1.0
    assert len(built) == 2


def test_empty_fibre_refutes_the_square_at_once():
    # 20 free points and an edge b0 -> b1 over a point with a loop, against
    # two points and no edge: the edge's fibre is empty, so none of the
    # 2**20 choices on the points extends
    Y = FinGlobSet(1, [["pt"], ["loop"]], [{}, {"loop": "pt"}], [{}, {"loop": "pt"}])
    points = [("b", j) for j in range(20)]
    B = FinGlobSet(1, [points, ["e"]], [{}, {"e": points[0]}], [{}, {"e": points[1]}])
    X = FinGlobSet(1, [["x", "y"], []], [{}, {}], [{}, {}])
    p = GlobMap(X, Y, [dict.fromkeys(X.cells[0], "pt"), {}])
    bottom = GlobMap(B, Y, [dict.fromkeys(points, "pt"), {"e": "loop"}])
    start = time.monotonic()
    with pytest.raises(DomainError, match=r"^no filler: orthogonality violated$"):
        check_orthogonal(GlobMap(EMPTY, B, []), p, GlobMap(EMPTY, X, []), bottom)
    assert time.monotonic() - start < 0.5


def forced_edge_square(n):
    """n points and an edge b0 -> b1 over a point with a loop, with b0 and
    b1 forced to x and y, against X = {x, y, y -> x}: the loop's fibre
    holds y -> x, but no cell of X goes x -> y."""
    Y = FinGlobSet(1, [["pt"], ["loop"]], [{}, {"loop": "pt"}], [{}, {"loop": "pt"}])
    points = [("b", j) for j in range(n)]
    B = FinGlobSet(1, [points, ["e"]], [{}, {"e": points[0]}], [{}, {"e": points[1]}])
    A = FinGlobSet(0, [["a0", "a1"]], [{}], [{}])
    X = FinGlobSet(1, [["x", "y"], ["f"]], [{}, {"f": "y"}], [{}, {"f": "x"}])
    i = GlobMap(A, B, [{"a0": points[0], "a1": points[1]}])
    top = GlobMap(A, X, [{"a0": "x", "a1": "y"}])
    p = GlobMap(X, Y, [dict.fromkeys(X.cells[0], "pt"), {"f": "loop"}])
    bottom = GlobMap(B, Y, [dict.fromkeys(points, "pt"), {"e": "loop"}])
    return i, p, top, bottom


def test_forced_faces_refute_the_square_at_once():
    # the edge's faces are both forced, so its one bucket is known before
    # the 2**22 choices on the free points, and it is empty
    start = time.monotonic()
    with pytest.raises(DomainError, match=r"^no filler: orthogonality violated$"):
        check_orthogonal(*forced_edge_square(24))
    assert time.monotonic() - start < 0.5


def loopspace_by_filter(X, a, b):
    """The loop space filtered out of X: the (k+1)-cells whose iterated
    source is a and iterated target is b, with each boundary checked to
    stay inside."""

    def iterated(side, k, x):
        for d in range(k, 0, -1):
            x = side[d][x]
        return x

    if X.n < 0 or a not in set(X.cells[0]) or b not in set(X.cells[0]):
        raise DomainError("loopspace needs two 0-cells of X")
    n = X.n - 1
    cells = [
        [x for x in X.cells[k + 1] if iterated(X.src, k + 1, x) == a and iterated(X.tgt, k + 1, x) == b]
        for k in range(n + 1)
    ]
    src = [dict() for _ in range(n + 1)]
    tgt = [dict() for _ in range(n + 1)]
    for k in range(1, n + 1):
        for x in cells[k]:
            s, t = X.src[k + 1][x], X.tgt[k + 1][x]
            if s not in cells[k - 1] or t not in cells[k - 1]:
                raise TypingError("loopspace boundaries escaped the fiber")
            src[k][x], tgt[k][x] = s, t
    return FinGlobSet(n, cells, src, tgt)


def test_loopspace_matches_the_filter():
    rng = random.Random(2020)
    spaces = [realize(t) for t in all_trees(6)]
    spaces += [gs.random_finglobset(rng, n=rng.randint(0, 3), max_cells=5) for _ in range(1500)]
    sizes = collections.Counter()
    for X in spaces:
        for a in X.cells[0]:
            for b in X.cells[0]:
                L = loopspace(X, a, b)
                assert L == loopspace_by_filter(X, a, b)
                sizes[L.n, sum(L.counts()) > 0] += 1
    # every truncation occurs, empty and (from n = 0 on) not
    assert {(-1, False)} | {(n, full) for n in range(3) for full in (False, True)} <= set(sizes), sizes


def is_m_bijective_by_levels(f, m):
    """Bijective through dimension m, read level by level on the unpadded
    map: a level above the domain's truncation must be empty."""
    for k in range(m + 1):
        if k > f.cod.n:
            break
        if k > f.dom.n:
            if f.cod.cells[k]:
                return False
            continue
        image = [f.maps[k][c] for c in f.dom.cells[k]]
        if sorted(image, key=repr) != sorted(f.cod.cells[k], key=repr):
            return False
    return True


def test_is_m_bijective_matches_the_level_scan():
    rng = random.Random(7373)
    answers = collections.Counter()
    done = 0
    while done < 400:
        X = gs.random_finglobset(rng, n=rng.randint(0, 2), max_cells=3)
        Y = gs.random_finglobset(rng, n=rng.randint(X.n + 1, 3), max_cells=3)
        maps = [gs.random_globmap(rng, X, Y), GlobMap(X, gs.pad_to(X, Y.n), identity_map(X).maps)]
        for f in filter(None, maps):
            for m in range(5):
                answer = gs.is_m_bijective(f, m)
                assert answer == is_m_bijective_by_levels(f, m)
                answers[answer] += 1
        done += 1
    assert answers[True] >= 100 and answers[False] >= 100


def chi_check_by_filter(X, structure):
    """``chi_check`` (without its table checks) over nested filters of all
    pairs and triples of 1-cells, the 2-cell boundary pairs kept as a set."""
    comp1, id1 = dict(structure.get("comp1", {})), dict(structure.get("id1", {}))
    src, tgt, ones = X.src[1], X.tgt[1], X.cells[1]
    rel = {(X.src[2][c], X.tgt[2][c]) for c in X.cells[2]}
    report = []

    def item(number, bad, detail):
        report.append({"item": number, "ok": not bad, "witnesses": bad, "detail": detail})

    bad = []
    for f in ones:
        for g in ones:
            if tgt[f] == src[g]:
                h = comp1.get((f, g))
                if h is None:
                    bad.append((f, g, "missing"))
                elif src[h] != src[f] or tgt[h] != tgt[g]:
                    bad.append((f, g, "bad boundary"))
    item(1, bad, "composites for all composable pairs")
    bad = [(f, g, h) for f, g in rel for g2, h in rel if g2 == g and (f, h) not in rel]
    item(2, bad, "2-cell inhabitation closed under vertical pasting")
    bad = []
    for f, g in rel:
        for h in ones:
            for side, near, far, order in (("right", src, tgt, 1), ("left", tgt, src, -1)):
                if near[h] == far[f]:
                    wf, wg = (comp1.get((x, h)[::order]) for x in (f, g))
                    if wf is not None and wg is not None and (wf, wg) not in rel:
                        bad.append((side, f, g, h))
    item(3, bad, "whiskered 2-cells exist")
    bad = []
    for a in X.cells[0]:
        f = id1.get(a)
        if f is None:
            bad.append((a, "missing"))
        elif src[f] != a or tgt[f] != a:
            bad.append((a, "not an endo-cell"))
    item(4, bad, "identity 1-cells chosen for every object")
    item(5, [f for f in ones if (f, f) not in rel], "reflexive 2-cells on every 1-cell")
    bad = []
    for f in ones:
        for side, end, order in (("pre-unit", src, 1), ("post-unit", tgt, -1)):
            a = end[f]
            key = (id1.get(a), f)[::order]
            if a in id1 and key in comp1:
                c = comp1[key]
                bad += [(side, f, pair) for pair in ((c, f), (f, c)) if pair not in rel]
    item(6, bad, "unit constraint 2-cells inhabit both directions")
    bad = []
    for f, g, h in itertools.product(ones, repeat=3):
        if tgt[f] == src[g] and tgt[g] == src[h]:
            fg, gh = comp1.get((f, g)), comp1.get((g, h))
            if fg is not None and gh is not None:
                left, right = comp1.get((fg, h)), comp1.get((f, gh))
                if left is not None and right is not None:
                    if (left, right) not in rel or (right, left) not in rel:
                        bad.append((f, g, h))
    item(7, bad, "associator 2-cells inhabit both directions")
    return report


def random_tables(rng, X):
    """comp1 on most pairs of 1-cells (mostly a composite with the right
    boundary, where one exists) and id1 on most 0-cells (mostly a loop)."""
    ones = X.cells[1]
    if not ones:
        return {}
    comp1, id1 = {}, {}
    for f in ones:
        for g in ones:
            if rng.random() < 0.8:
                fit = [h for h in ones if X.src[1][h] == X.src[1][f] and X.tgt[1][h] == X.tgt[1][g]]
                comp1[f, g] = rng.choice(fit if fit and rng.random() < 0.8 else ones)
    for a in X.cells[0]:
        if rng.random() < 0.8:
            loops = [f for f in ones if X.src[1][f] == X.tgt[1][f] == a]
            id1[a] = rng.choice(loops if loops and rng.random() < 0.8 else ones)
    return {"comp1": comp1, "id1": id1}


def test_chi_check_matches_the_filter():
    rng = random.Random(4747)
    spaces = [realize(t) for t in all_trees(5) if dim(t) == 2]
    spaces += [gs.random_finglobset(rng, n=2, max_cells=rng.randint(1, 6)) for _ in range(700)]
    flagged = collections.Counter()
    for X in spaces:
        structure = random_tables(rng, X)
        for got, want in zip(chi_check(X, structure), chi_check_by_filter(X, structure), strict=True):
            if got["item"] in (2, 3):
                assert collections.Counter(got.pop("witnesses")) == collections.Counter(want.pop("witnesses"))
            assert got == want
            flagged[got["item"], got["ok"]] += 1
    # each item passes and fails somewhere
    assert all(flagged[number, ok] for number in range(1, 8) for ok in (True, False)), flagged
