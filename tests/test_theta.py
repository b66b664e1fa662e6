import functools
import gc
import itertools
import math
import random
import time

import pytest

from globwork.errors import DomainError, SizeGuardError, TypingError
from globwork import steiner, theta
from globwork.globsets import GlobMap, realize
from globwork.theory import groupoidalize, standard_library
from globwork.trees import LEAF, Tree, all_trees, boundary, dim, globe, parse_tree, suspend, tree_to_table
from globwork.theta import (
    HomSet,
    ThetaMap,
    assemble,
    boundary_maps,
    cell_inclusion,
    compose,
    face_reader,
    face_theta,
    filler,
    hg_factorize,
    hom,
    hom_count,
    homogeneous_op,
    identity,
    is_admissible_categorical,
    is_admissible_groupoidal,
    is_globular,
    is_homogeneous,
    leaf_inclusion,
    leaf_paths,
    map_face,
    map_from_json,
    sigma_theta,
    tau_theta,
    to_steiner_cell,
)

NINE_TREE = parse_tree("[[[][]][]]")
SMALL_TREES = list(all_trees(4))


def test_hom_anchored_counts():
    assert hom_count(globe(1), globe(1)) == 3
    assert hom_count(globe(1), globe(2)) == 4
    assert hom_count(globe(2), globe(2)) == 5


def test_hom_enumeration_is_duplicate_free_and_counted():
    for S in SMALL_TREES:
        for T in SMALL_TREES:
            maps = hom(S, T)
            assert len(maps) == hom_count(S, T)
            assert len(set(maps)) == len(maps)


def test_every_hom_set_holds_the_constant_maps():
    # the T.arity + 1 constant maps make every hom set, and every run of
    # ranks of one phi, nonempty: the rank table has one entry per phi
    for S in all_trees(5):
        for T in all_trees(5):
            assert hom_count(S, T) >= T.arity + 1
            starts, entries = HomSet(S, T)._blocks()
            assert len(starts) == len(entries) == math.comb(T.arity + S.arity + 1, S.arity + 1)


def hom_by_product(S, T, memo):
    """hom(S, T) enumerated as a tuple: every phi in lexicographic order,
    then the product over blocks of the products over gaps."""
    if (S, T) not in memo:
        m, n = S.arity, T.arity
        out = []
        for phi in itertools.combinations_with_replacement(range(n + 1), m + 1):
            block_choices = []
            for i in range(m):
                per_gap = [
                    hom_by_product(S.children[i], T.children[j - 1], memo)
                    for j in range(phi[i] + 1, phi[i + 1] + 1)
                ]
                block_choices.append(list(itertools.product(*per_gap)))
            for picks in itertools.product(*block_choices):
                out.append(ThetaMap(S, T, phi, tuple(picks)))
        memo[S, T] = tuple(out)
    return memo[S, T]


def hom_count_by_phis(S, T):
    """|hom(S, T)| summed over every monotone phi between the root gaps:
    the product, over each block's target branches, of the child counts."""
    total = 0
    for phi in itertools.combinations_with_replacement(range(T.arity + 1), S.arity + 1):
        prod = 1
        for i, c in enumerate(S.children):
            for j in range(phi[i], phi[i + 1]):
                prod *= hom_count_by_phis(c, T.children[j])
        total += prod
    return total


def wide_target(b):
    return parse_tree("[" + "[[][][]]" * b + "]")


def test_homset_matches_product_enumeration():
    rng = random.Random(16)
    memo = {}
    pairs = [(S, T) for S in all_trees(5) for T in all_trees(5)]
    pairs += [(globe(k), wide_target(b)) for b in range(5) for k in range(3)]
    for S, T in pairs:
        oracle = hom_by_product(S, T, memo)
        assert len(HomSet(S, T)) == len(oracle) == hom_count(S, T) == hom_count_by_phis(S, T)
        # map by map from its rank, and in one pass
        ranked = HomSet(S, T)
        assert tuple(ranked[i] for i in range(len(oracle))) == oracle
        assert tuple(HomSet(S, T)) == oracle
        # maps read by rank before the pass are the ones the pass yields
        hs = HomSet(S, T)
        picked = {i: hs[i] for i in rng.sample(range(len(oracle)), min(len(oracle), 5))}
        walked = tuple(hs)
        assert walked == oracle
        assert all(walked[i] is f for i, f in picked.items())
        assert all(hs[i] is f for i, f in picked.items())
    assert len(memo[globe(2), wide_target(4)]) == 12345


def test_homset_indexes_like_a_tuple():
    S, T = globe(1), wide_target(2)
    ref = hom_by_product(S, T, {})
    n = len(ref)
    hs = HomSet(S, T)

    class Rank:
        def __index__(self):
            return 1

    # a float is no index, before map 1 is read and after
    with pytest.raises(TypeError):
        hs[1.0]
    # first from the per-rank memo, then from the tuple a pass leaves
    for walked in (False, True):
        if walked:
            assert tuple(hs) == ref
        for i in range(-n, n):
            assert hs[i] == ref[i] and hs[i] is hs[i % n]
        for sl in (slice(None), slice(2, -1), slice(None, None, -2), slice(-100, 100, 3), slice(5, 2)):
            assert hs[sl] == ref[sl]
        for i in (n, -n - 1, 10**30):
            with pytest.raises(IndexError):
                hs[i]
        with pytest.raises(TypeError):
            hs["0"]
        with pytest.raises(TypeError):
            hs[1.0]
        assert hs[True] is hs[Rank()] is hs[1]


def count_maps():
    return sum(isinstance(o, ThetaMap) for o in gc.get_objects())


def map_nodes(f):
    return 1 + sum(map_nodes(c) for block in f.components for c in block)


def test_indexed_access_builds_only_the_touched_maps():
    # the last map, a middle one and the first of the 12345 in hom(D2, T)
    T = wide_target(4)
    for i in (12344, 6000, 0):
        hs = HomSet(globe(2), T)
        before = count_maps()
        f = hs[i]
        assert count_maps() - before <= map_nodes(f)
        assert len(hs) == 12345


def test_map_refusals():
    A = parse_tree("[[][]]")
    leaf = ThetaMap(LEAF, LEAF, (0,), ())
    cases = [
        ("wrong shape", (globe(1), A, (0,), ())),
        ("must be monotone", (globe(1), A, (2, 1), ((),))),
        ("out of range", (globe(1), A, (0, 3), ((leaf, leaf, leaf),))),
        ("wrong component count", (globe(1), A, (0, 2), ((leaf,),))),
        ("mistyped", (globe(1), parse_tree("[[[]][]]"), (0, 1), ((leaf,),))),
    ]
    for message, args in cases:
        with pytest.raises(TypingError, match=message):
            ThetaMap(*args)
        with pytest.raises(TypingError, match=message):
            ThetaMap(**dict(zip(("source", "target", "phi", "components"), args)))
    with pytest.raises(TypingError, match="wrong shape"):
        map_from_json(globe(1), A, {"phi": [0, 1], "components": []})
    with pytest.raises(TypingError, match="must be monotone"):
        map_from_json(globe(1), A, {"phi": [1, 0], "components": [[]]})
    with pytest.raises(TypingError, match="out of range"):
        map_from_json(globe(1), A, {"phi": [-1, -1], "components": [[]]})
    # map_from_json types every component from its place, so a mistyped
    # one shows only as a component of the wrong shape
    point = {"phi": [0], "components": []}
    with pytest.raises(TypingError, match="wrong shape"):
        map_from_json(globe(2), globe(2), {"phi": [0, 1], "components": [[point]]})


def assert_well_typed(f, checked):
    """Run the constructor's check on f and on every map inside it, once
    per object: ``checked`` maps id to map, so no id is reused."""
    if id(f) not in checked:
        theta.check_map(f)
        for block in f.components:
            for c in block:
                assert_well_typed(c, checked)
        checked[id(f)] = f


def test_built_maps_are_well_typed():
    # the builders make their maps unchecked; this is the check they skip,
    # on every map they return over the criterion 3 and 4 ranges
    checked = {}

    def walk(maps):
        for f in maps:
            assert_well_typed(f, checked)

    trees3, trees4, trees5 = (list(all_trees(n)) for n in (3, 4, 5))
    pairs = list(itertools.product(trees3, trees3)) + list(itertools.product(trees4, trees5))
    pairs += [(globe(k), T) for T in trees4 for k in range(4)]
    for S, T in pairs:
        ranked = HomSet(S, T)
        walk(ranked[i] for i in range(len(ranked)))
        walk(HomSet(S, T))
    for S, T, U in itertools.product(trees3, repeat=3):
        walk(compose(f, g) for f in hom(S, T) for g in hom(T, U))
    for T, U in itertools.product(trees4, trees5):
        walk(compose(f, g) for k in range(4) for f in hom(globe(k), T) for g in hom(T, U))
    for S, T in itertools.product(trees4, repeat=2):
        for f in hom(S, T):
            fact = hg_factorize(f)
            walk((fact.homogeneous, fact.globular))
    for A in trees5:
        walk([identity(A)])
        walk(leaf_inclusion(A, i) for i in range(len(leaf_paths(A))))
        walk(op for k in range(4) if (op := homogeneous_op(k, A)) is not None)
        if dim(A) > 0:
            walk(boundary_maps(A))
        for B in trees4:
            walk(theta.all_globular_monos(B, A))
    walk(face_theta(k, side) for k in range(4) for side in "st")
    # fillers of the boundary pairs of 1- and 2-cells of the wide targets
    for b in (2, 3, 4):
        T = wide_target(b)
        for k in (1, 2):
            cells = hom(globe(k), T)
            for h in cells[:: max(1, len(cells) // 200)]:
                f, g = compose(sigma_theta(k - 1), h), compose(tau_theta(k - 1), h)
                walk(x for x in (filler(f, g), filler(f, f), filler(g, f)) if x is not None)
    for th in (standard_library(3), groupoidalize(standard_library(3))):
        assert th.audit() == []
        strict = [sym for sym in th.operations() if sym.theta_image is not None]
        walk(sym.theta_image for sym in strict)
        walk(th.eval_term(t) for sym in strict for t in (sym.src, sym.tgt))
        # and every term the build and the audit evaluated
        walk(th._eval_cache.values())


def test_hom_size_guard():
    # six [[][][]] blocks: 1234567 maps, above DEFAULT_HOM_BOUND, so the
    # set is read by index but never built whole
    message = r"^hom would have 1234567 elements \(bound 1000000\)$"
    fresh = HomSet(globe(2), wide_target(6))
    for hs in (fresh, hom(globe(2), wide_target(6))):
        built = dict(hs._got)
        with pytest.raises(SizeGuardError, match=message):
            iter(hs)
        with pytest.raises(SizeGuardError, match=message):
            hs[:]
        assert hs._got == built
    assert fresh._got == {}
    assert len(fresh) == 1234567
    assert fresh[-1] is fresh[1234566] and fresh[-1].phi == (6, 6)
    assert len(fresh[:3]) == 3


def test_hom_size_guard_covers_reversed_and_index(monkeypatch):
    # reversed and index read the whole set, so they meet the bound first
    monkeypatch.setattr(theta, "DEFAULT_HOM_BOUND", 10)
    hs = HomSet(globe(1), wide_target(2))
    assert len(hs) == 27
    message = r"^hom would have 27 elements \(bound 10\)$"
    with pytest.raises(SizeGuardError, match=message):
        reversed(hs)
    with pytest.raises(SizeGuardError, match=message):
        hs.index(object())
    assert hs._got == {}
    monkeypatch.setattr(theta, "DEFAULT_HOM_BOUND", 27)
    maps = tuple(HomSet(globe(1), wide_target(2)))
    assert tuple(reversed(hs)) == maps[::-1]
    assert [hs.index(f) for f in maps] == list(range(27))
    with pytest.raises(ValueError):
        hs.index(object())


def test_oracle_equivalence_small():
    for T in SMALL_TREES:
        for k in range(4):
            cells = steiner.enumerate_cells(T, k)
            maps = hom(globe(k), T)
            assert len(maps) == len(cells)
            translated = {to_steiner_cell(f) for f in maps}
            assert len(translated) == len(maps)
            assert translated == set(cells)


WIDE_TREES = ["[" + "[]" * 11 + "]", "[[" + "[]" * 11 + "]]", "[[" + "[]" * 10 + "][]]"]


@pytest.mark.parametrize("literal", WIDE_TREES)
def test_oracle_equivalence_wide_vertex(literal):
    """Gap indices of 10 and more, where repr order and atom order differ:
    both sides must still give the same canonical chains, within budget."""
    T = parse_tree(literal)
    start = time.monotonic()
    for k in range(4):
        cells = steiner.enumerate_cells(T, k)
        maps = hom(globe(k), T)
        assert len(maps) == len(cells)
        translated = {to_steiner_cell(f) for f in maps}
        assert len(translated) == len(maps)
        assert translated == set(cells), (literal, k)
    assert time.monotonic() - start < 2.0


def test_category_laws_exhaustive_small():
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


def test_delta_level_constant_absorbs():
    two = parse_tree("[[][]]")
    f = ThetaMap(two, two, (0, 0, 2), ((), (identity(LEAF), identity(LEAF))))
    const = ThetaMap(two, two, (0, 0, 0), ((), ()))
    assert compose(const, f).phi == (0, 0, 0)


def test_sigma_tau_relations():
    for k in range(1, 4):
        assert compose(sigma_theta(k - 1), sigma_theta(k)) == compose(
            sigma_theta(k - 1), tau_theta(k)
        )
        assert compose(tau_theta(k - 1), sigma_theta(k)) == compose(
            tau_theta(k - 1), tau_theta(k)
        )


def test_leaf_inclusions_are_globular():
    for T in SMALL_TREES:
        for i in range(len(leaf_paths(T))):
            inc = leaf_inclusion(T, i)
            assert is_globular(inc)
            assert is_homogeneous(inc) == (T == inc.source)


def test_cell_inclusion_round_trip():
    for T in SMALL_TREES:
        X = realize(T)
        for k in range(X.n + 1):
            for c in X.cells[k]:
                inc = cell_inclusion(T, c)
                assert inc.source == globe(k)
                assert is_globular(inc)
                back = realize_map(inc)
                assert back.maps[k][X_cell_top(k)] == c


def X_cell_top(k):
    return (tuple([0] * k), 0)


def test_embed_globular_of_source_edge():
    from globwork.globsets import globe_face_map

    f = embed_globular(globe_face_map(1, "s"))
    assert f.phi == (0, 1)
    assert f.components[0][0].phi == (0,)
    assert f == sigma_theta(1)


def test_embed_globular_rejects_degeneracy():
    const = ThetaMap(globe(2), globe(2), (0, 0), ((),))
    assert not is_globular(const)
    # degeneracy-type maps do not come from scheme maps
    with pytest.raises(DomainError):
        realize_map(const)


def test_identity_globular():
    for T in SMALL_TREES:
        assert is_globular(identity(T))


def test_support_of_identity_cell():
    c = identity(globe(2))
    fact = hg_factorize(c)
    B, mono, residue = fact.middle, fact.globular, fact.homogeneous
    assert B == globe(2)
    assert mono == identity(globe(2))
    assert residue == c


def test_support_of_degenerate_cell():
    # the 2-cell sitting on the source edge of D2 (identity of that edge)
    inner = ThetaMap(globe(1), globe(1), (0, 0), ((),))
    c = ThetaMap(globe(2), globe(2), (0, 1), ((inner,),))
    fact = hg_factorize(c)
    B, mono, residue = fact.middle, fact.globular, fact.homogeneous
    assert B == globe(1)
    assert is_globular(mono)
    assert residue.target == globe(1)
    assert compose(residue, mono) == c


def test_support_of_zero_cell_pick():
    c = ThetaMap(globe(1), globe(2), (0, 0), ((),))
    fact = hg_factorize(c)
    B, mono, residue = fact.middle, fact.globular, fact.homogeneous
    assert B == LEAF
    assert compose(residue, mono) == c


def test_support_minimality_exhaustive():
    for T in SMALL_TREES:
        for k in range(3):
            for c in hom(globe(k), T):
                fact = hg_factorize(c)
                B, mono, residue = fact.middle, fact.globular, fact.homogeneous
                assert compose(residue, mono) == c
                # no strictly smaller globular subobject works
                for B2 in all_trees(B.n_nodes()):
                    for mono2 in theta.all_globular_monos(B2, T):
                        if B2.n_nodes() == B.n_nodes() and mono2 == mono:
                            continue
                        for h in hom(globe(k), B2):
                            if compose(h, mono2) == c:
                                assert B2.n_nodes() >= B.n_nodes()


def test_hg_factorization_exists_and_unique():
    for S in SMALL_TREES:
        for T in SMALL_TREES:
            for f in hom(S, T):
                fact = hg_factorize(f)
                assert compose(fact.homogeneous, fact.globular) == f
                assert is_globular(fact.globular)
                assert is_homogeneous(fact.homogeneous)
                assert is_homogeneous(f) == (fact.globular == identity(T))
                # exhaustive alternative-factorization search
                found = 0
                for B2 in all_trees(T.n_nodes()):
                    for mono2 in theta.all_globular_monos(B2, T):
                        for h in hom(S, B2):
                            if is_homogeneous(h) and compose(h, mono2) == f:
                                found += 1
                                assert B2 == fact.middle
                                assert mono2 == fact.globular
                                assert h == fact.homogeneous
                assert found == 1


def test_homogeneous_trivial_cases():
    assert is_homogeneous(identity(globe(2)))
    assert not is_homogeneous(sigma_theta(1))
    two = parse_tree("[[][]]")
    comp_cell = ThetaMap(
        globe(1), two, (0, 2), ((ThetaMap(LEAF, LEAF, (0,), ()), ThetaMap(LEAF, LEAF, (0,), ())),)
    )
    assert is_homogeneous(comp_cell)


def test_hg_globular_input():
    iota = leaf_inclusion(NINE_TREE, 2)
    fact = hg_factorize(iota)
    assert fact.globular == iota
    assert fact.homogeneous == identity(globe(1))


def test_hg_last_edge_identity():
    # D2 into the nine-tree sum hitting the identity of its last edge: the
    # globular part of the factorization is the inclusion of that D1
    last_edge = cell_inclusion(NINE_TREE, ((1,), 0))
    deg = ThetaMap(globe(2), globe(1), (0, 1), ((ThetaMap(globe(1), LEAF, (0, 0), ((),)),),))
    c = compose(deg, last_edge)
    fact = hg_factorize(c)
    assert fact.middle == globe(1)
    assert fact.globular == last_edge


def test_admissible_groupoidal():
    s1, t1 = sigma_theta(1), tau_theta(1)
    assert is_admissible_groupoidal(s1, t1)
    # k = 0 pairs are parallel by fiat; the dimension bound still applies
    a = ThetaMap(LEAF, globe(1), (0,), ())
    b = ThetaMap(LEAF, globe(1), (1,), ())
    assert is_admissible_groupoidal(a, b)
    a2 = ThetaMap(LEAF, globe(2), (0,), ())
    b2 = ThetaMap(LEAF, globe(2), (1,), ())
    assert not is_admissible_groupoidal(a2, b2)
    # parallel pair into a dim-3 sum with k = 1 is out of range
    s = compose(sigma_theta(1), sigma_theta(2))
    t = compose(tau_theta(1), sigma_theta(2))
    assert not is_admissible_groupoidal(s, t)


def test_admissible_categorical():
    s1, t1 = sigma_theta(1), tau_theta(1)
    assert is_admissible_categorical(s1, t1)
    # pairs of homogeneous maps
    assert is_admissible_categorical(identity(globe(2)), identity(globe(2)))
    # globular non-boundary-factoring against homogeneous
    two = parse_tree("[[][]]")
    e2 = leaf_inclusion(two, 1)
    comp_cell = ThetaMap(
        globe(1), two, (0, 2),
        ((ThetaMap(LEAF, LEAF, (0,), ()), ThetaMap(LEAF, LEAF, (0,), ())),),
    )
    assert not is_admissible_categorical(e2, comp_cell)


def test_filler_degenerate_pair():
    f = identity(globe(1))
    h = filler(f, f)
    assert h is not None
    assert compose(sigma_theta(1), h) == f
    assert compose(tau_theta(1), h) == f


def test_filler_generator():
    h = filler(sigma_theta(1), tau_theta(1))
    assert h == identity(globe(2))


def test_filler_deterministic():
    a = filler(identity(globe(1)), identity(globe(1)))
    b = filler(identity(globe(1)), identity(globe(1)))
    assert a == b


def test_top_cells_determined_by_boundary():
    # in a k-dimensional sum, k-cells are unique given their boundary
    for T in SMALL_TREES:
        k = dim(T)
        if k == 0:
            continue
        seen = {}
        for h in hom(globe(k), T):
            key = (compose(sigma_theta(k - 1), h), compose(tau_theta(k - 1), h))
            assert key not in seen
            seen[key] = h


def test_no_filler_reported_as_none():
    assert filler(tau_theta(0), sigma_theta(0)) is None


def suspend_map(f: ThetaMap) -> ThetaMap:
    return ThetaMap(suspend(f.source), suspend(f.target), (0, 1), ((f,),))


def test_suspend_map():
    assert suspend_map(identity(LEAF)) == identity(globe(1))
    f = sigma_theta(1)
    sf = suspend_map(f)
    assert sf.source == globe(2) and sf.target == globe(3)


def test_boundary_maps_of_globe():
    s, t = boundary_maps(globe(3))
    assert s == sigma_theta(2)
    assert t == tau_theta(2)


def test_boundary_maps_nine_tree_bijectivity():
    from globwork import globsets as gs

    s, t = boundary_maps(NINE_TREE)
    for f in (s, t):
        g = realize_map(f)
        assert gs.is_m_bijective(g, 0)
        assert not gs.is_m_bijective(g, 1)


def test_assemble_from_leaf_inclusions():
    for T in SMALL_TREES:
        incs = [leaf_inclusion(T, i) for i in range(len(leaf_paths(T)))]
        assert assemble(T, T, incs) == identity(T)
    # assemble builds unchecked, so it refuses leaf maps of the wrong type
    # or number: into another target, of too high or too low a dimension
    D1, D2 = globe(1), globe(2)
    for source, target, leaf_maps in [
        (D1, D2, [identity(D1)]),
        (D1, D2, [identity(D2)]),
        (D2, D1, [sigma_theta(0)]),
        (D1, D1, [identity(D1), identity(D1)]),
        (NINE_TREE, NINE_TREE, []),
    ]:
        with pytest.raises(TypingError, match="one map D_h -> target per source leaf"):
            assemble(source, target, leaf_maps)


def test_json_round_trip():
    for f in hom(globe(2), NINE_TREE):
        data = f.to_json()
        assert map_from_json(globe(2), NINE_TREE, data) == f


def test_boundary_maps_bijectivity_level_small():
    # the boundary inclusions are bijective through dimension m-2 and no
    # further, on every sum of positive dimension
    from globwork import globsets as gs

    for t in all_trees(5):
        m = dim(t)
        if m == 0:
            continue
        for f in boundary_maps(t):
            g = realize_map(f)
            assert gs.is_m_bijective(g, m - 2)
            assert not gs.is_m_bijective(g, m - 1)


# ---------------------------------------------------------------------------
# the bridge between wreath maps and maps of realizations, kept as oracles

def embed_globular(g: GlobMap) -> ThetaMap:
    """Lift a realization-level map of schemes along the wreath encoding."""
    S = _tree_of(g.dom)
    T = _tree_of(g.cod)
    for k in range(g.dom.n + 1):
        if len(set(g.maps[k].values())) != len(g.maps[k]):
            raise DomainError("not a monomorphism of schemes")

    def build(sp, tp):
        s_node, t_node = S.subtree(sp), T.subtree(tp)
        phi = []
        for i in range(s_node.arity + 1):
            img = g.maps[len(sp)][(sp, i)]
            if img[0] != tp:
                raise DomainError("image is not gap-local; not globular")
            phi.append(img[1])
        comps = []
        for i in range(s_node.arity):
            if phi[i + 1] != phi[i] + 1:
                raise DomainError("non-consecutive image; not globular")
            comps.append((build(sp + (i,), tp + (phi[i],)),))
        return ThetaMap(s_node, t_node, tuple(phi), tuple(comps))

    return build((), ())


def _tree_of(X) -> Tree:
    """Reconstruct the tree of a realization from its canonical cell ids."""
    paths = set()
    for k in range(X.n + 1):
        for (path, _gap) in X.cells[k]:
            paths.add(path)

    def grow(path):
        kids = []
        i = 0
        while path + (i,) in paths:
            kids.append(grow(path + (i,)))
            i += 1
        return Tree(tuple(kids))

    return grow(())


def realize_map(f: ThetaMap) -> GlobMap:
    """The realization of a globular wreath map as a map of schemes."""
    if not is_globular(f):
        raise DomainError("only globular maps realize to maps of schemes")
    maps = [dict() for _ in range(dim(f.source) + 1)]

    def walk(g: ThetaMap, sp, tp):
        for i in range(g.source.arity + 1):
            maps[len(sp)][(sp, i)] = (tp, g.phi[i])
        for i in range(g.source.arity):
            walk(g.components[i][0], sp + (i,), tp + (g.phi[i],))

    walk(f, (), ())
    return GlobMap(realize(f.source), realize(f.target), maps)


# ---------------------------------------------------------------------------
# the hom scans and routes the constructions replaced, kept as oracles

def homogeneous_by_factorisation(f):
    """Homogeneity as the factorisation defines it: the globular half of
    hg_factorize(f) is the identity of the target."""
    return hg_factorize(f).globular == identity(f.target)


def splits_off(f: ThetaMap, g: ThetaMap) -> bool:
    """Whether the globular map g into f's target is the globular half of
    hg_factorize(f), read off the wreath data with no factorisation built:
    the point phi[0] when f's span phi[0]..phi[-1] is one 0-cell, else the
    run of the span's gaps with, over each gap, the globular half of f's
    component there.  The two halves the package asks about, the identity
    of the target (homogeneity) and d_sigma, d_tau (boundary admissibility),
    are read by ``_spans`` without building g; the tests hold it to this
    general form."""
    a, b = f.phi[0], f.phi[-1]
    if g.source.is_leaf:
        return a == b == g.phi[0]
    if a == b or (a, b) != (g.phi[0], g.phi[-1]):
        return False
    # f's blocks cover the gaps a+1..b in order, one component per gap
    gaps = itertools.chain.from_iterable(f.components)
    return all(splits_off(c, h) for c, (h,) in zip(gaps, g.components))


def boundary_maps_via_globsets(t):
    """d_sigma and d_tau through the realizations: a cell of the boundary
    at height dim t - 1 goes to the first (sigma) or last (tau) gap of its
    node, every other cell to itself, and the map of schemes is embedded
    along the wreath encoding."""
    d = dim(t)
    X, Y = realize(boundary(t)), realize(t)

    def mk(side):
        maps = [dict() for _ in range(X.n + 1)]
        for k in range(X.n + 1):
            for (path, gap) in X.cells[k]:
                node = t.subtree(path)
                if k == d - 1 and node.arity > 0:
                    maps[k][(path, gap)] = (path, 0 if side == "s" else node.arity)
                else:
                    maps[k][(path, gap)] = (path, gap)
        return embed_globular(GlobMap(X, Y, maps))

    return mk("s"), mk("t")


def scan_fillers(k, T):
    """The filler scan over hom(D_{k+1}, T), run once for every boundary
    pair: the first h in hom order with the given sigma and tau faces."""
    first = {}
    for h in hom(globe(k + 1), T):
        first.setdefault((compose(sigma_theta(k), h), compose(tau_theta(k), h)), h)
    return first


@functools.lru_cache(maxsize=None)
def boundary_factored(k, A):
    """The maps h;d_sigma and h;d_tau for homogeneous h in hom(D_k, dA)."""
    candidates = [h for h in hom(globe(k), boundary(A)) if homogeneous_by_factorisation(h)]
    return tuple({compose(h, d) for h in candidates} for d in boundary_maps_via_globsets(A))


def scan_admissible_categorical(f, g):
    """Admissibility with the boundary factorisation found by filtering
    hom(D_k, dA) for homogeneous maps."""
    k = dim(f.source)
    if k == 0 or (homogeneous_by_factorisation(f) and homogeneous_by_factorisation(g)):
        return True
    if dim(f.target) == 0:
        return False
    via_sigma, via_tau = boundary_factored(k, f.target)
    return f in via_sigma and g in via_tau


def filter_globular_monos(B, T):
    return [m for m in hom(B, T) if is_globular(m)]


def oracle_pairs():
    """Every ordered pair from hom(D_k, T), k <= 2, T of up to 5 nodes
    (4940 pairs; no such hom set has more than 18 maps)."""
    for T in all_trees(5):
        for k in range(3):
            maps = hom(globe(k), T)
            yield T, k, [(f, g) for f in maps for g in maps]


def test_homogeneous_matches_factorisation(monkeypatch):
    # hg_factorize recurses through the module name, so the cells share the
    # factorisations of their common components
    monkeypatch.setattr(theta, "hg_factorize", functools.cache(theta.hg_factorize))
    positive = 0
    for S in all_trees(5):
        for T in all_trees(5):
            for f in hom(S, T):
                ok = is_homogeneous(f)
                assert ok == homogeneous_by_factorisation(f)
                positive += ok
    # cells D_k -> T; each hom set is a fresh HomSet, not the cached one,
    # since only this test walks these 251009 maps
    for k in range(4):
        for T in all_trees(9):
            if hom_count(globe(k), T) <= 20000:
                for f in HomSet(globe(k), T):
                    ok = is_homogeneous(f)
                    assert ok == homogeneous_by_factorisation(f)
                    positive += ok
    assert positive > 0


def test_splits_off_matches_factorisation():
    # g runs over f's own globular half, the identity and the globular
    # monos from the small trees and from T's boundary
    small = list(all_trees(3))
    positive = negative = 0
    for T in all_trees(5):
        monos = [m for B in small for m in theta.all_globular_monos(B, T)]
        if dim(T) > 0:
            monos += theta.all_globular_monos(boundary(T), T)
        for S in all_trees(5):
            for f in hom(S, T):
                half = hg_factorize(f).globular
                for g in [half, identity(T)] + monos:
                    ok = splits_off(f, g)
                    assert ok == (half == g)
                    positive += ok
                    negative += not ok
    assert positive > 0 and negative > 0


def test_face_read_matches_composition():
    # h runs over the face itself, the opposite face and the face's wreath
    # data into a wider target; the oracle builds the composite and compares
    checked = 0
    for T in all_trees(6):
        wider = Tree(T.children + (LEAF,))
        for k in range(1, 4):
            for f in hom(globe(k), T):
                is_face = face_reader(f, k)
                faces = {side: compose(face_theta(k - 1, side), f) for side in "st"}
                for side, other in ("st", "ts"):
                    h = faces[side]
                    elsewhere = ThetaMap(h.source, wider, h.phi, h.components)
                    for g in (h, faces[other], elsewhere):
                        assert is_face(g, side) == (compose(face_theta(k - 1, side), f) == g)
                    assert is_face(h, side) and not is_face(elsewhere, side)
                    checked += 1
    assert checked == 2 * sum(hom_count(globe(k), T) for T in all_trees(6) for k in range(1, 4))


def test_face_built_matches_composition():
    # the face cell_boundary builds, held to the composite it stands for
    checked, typed = 0, {}
    for T in all_trees(7):
        for k in range(1, 4):
            for f in hom(globe(k), T):
                for side in "st":
                    h = map_face(f, side)
                    assert h == compose(face_theta(k - 1, side), f)
                    assert_well_typed(h, typed)
                    checked += 1
    assert checked == 2 * sum(hom_count(globe(k), T) for T in all_trees(7) for k in range(1, 4))


def test_boundary_read_matches_splits_off():
    # the d_sigma / d_tau test of is_admissible_categorical, read without
    # the boundary inclusions, against splits_off on the built ones
    positive = negative = 0
    for T in all_trees(6):
        if dim(T) == 0:
            continue
        d_maps = boundary_maps(T)
        for S in [globe(k) for k in range(4)] + list(all_trees(4)):
            for f in hom(S, T):
                for side, d in zip("st", d_maps):
                    ok = theta._spans(f, dim(T) - 1, side)
                    assert ok == splits_off(f, d)
                    positive += ok
                    negative += not ok
    assert positive > 0 and negative > 0


def test_face_read_refuses_as_composition_does():
    # a map not out of D_k has no face through face_theta(k - 1, side), and
    # there is no face_theta(-1, side)
    f = leaf_inclusion(NINE_TREE, 0)
    for k, error in ((1, TypingError), (3, TypingError), (0, DomainError)):
        for side in "st":
            with pytest.raises(error) as composed:
                compose(face_theta(k - 1, side), f)
            with pytest.raises(error) as read:
                face_reader(f, k)
            assert str(read.value) == str(composed.value)


def test_face_built_refuses_as_composition_does():
    # a map not out of a globe, or out of the point, has no face
    for g, error in ((identity(NINE_TREE), TypingError), (identity(LEAF), DomainError)):
        for side in "st":
            with pytest.raises(error) as composed:
                compose(face_theta(dim(g.source) - 1, side), g)
            with pytest.raises(error) as built:
                map_face(g, side)
            assert str(built.value) == str(composed.value)


def junction_height(p, q):
    h = 0
    while h < len(p) and h < len(q) and p[h] == q[h]:
        h += 1
    return h


def test_leaf_table_matches_the_leaf_paths():
    for t in all_trees(9):
        paths = leaf_paths(t)
        table = tree_to_table(t)
        assert table.tops == tuple(len(p) for p in paths)
        assert table.joins == tuple(junction_height(p, q) for p, q in zip(paths, paths[1:]))
        assert tree_to_table(t) is table


def test_boundary_maps_match_globsets():
    checked = 0
    for t in all_trees(9):
        if dim(t) > 0:
            assert boundary_maps(t) == boundary_maps_via_globsets(t)
            checked += 1
    assert checked == 2055


def test_filler_matches_scan():
    found = 0
    for T, k, pairs in oracle_pairs():
        first = scan_fillers(k, T)
        for f, g in pairs:
            h = filler(f, g)
            assert h == first.get((f, g))
            found += h is not None
    assert found > 0


def test_admissible_categorical_matches_scan():
    positive = 0
    for T, k, pairs in oracle_pairs():
        for f, g in pairs:
            ok = is_admissible_categorical(f, g)
            assert ok == scan_admissible_categorical(f, g)
            positive += ok and not (is_homogeneous(f) and is_homogeneous(g))
    assert positive > 0


def test_admissible_categorical_boundary_factored_pairs():
    # pairs built as h;d_sigma and h';d_tau from homogeneous h, h', as in
    # the towers; random pairs are rarely of this kind
    checked = 0
    for T in all_trees(6):
        if dim(T) == 0:
            continue
        d_sigma, d_tau = boundary_maps(T)
        for k in (1, 2):
            homog = [h for h in hom(globe(k), boundary(T)) if homogeneous_by_factorisation(h)]
            for h, h2 in itertools.product(homog, repeat=2):
                f, g = compose(h, d_sigma), compose(h2, d_tau)
                assert is_admissible_categorical(f, g)
                assert scan_admissible_categorical(f, g)
                checked += 1
    assert checked > 0


def test_globular_monos_match_filter():
    for B in all_trees(4):
        for T in all_trees(5):
            assert theta.all_globular_monos(B, T) == filter_globular_monos(B, T)


WIDE_TARGET = parse_tree("[" + "[[][][]]" * 6 + "]")


def test_homogeneous_op_matches_scan():
    # the filtered scan is the oracle; the constructed op must be its only
    # element, and exist exactly when dim A <= k
    found = 0
    for A in all_trees(7):
        for k in range(4):
            scan = [f for f in hom(globe(k), A) if homogeneous_by_factorisation(f)]
            op = homogeneous_op(k, A)
            assert (op is not None) == (dim(A) <= k)
            assert scan == ([op] if op is not None else [])
            found += op is not None
    assert found == 217
    with pytest.raises(DomainError):
        homogeneous_op(-1, LEAF)


def test_homogeneous_maps_out_of_a_globe_land_in_low_dimension():
    # the claim is_homogeneous rests on instead of a check: a homogeneous
    # map D_k -> A has dim A <= k
    found = 0
    for A in all_trees(8):
        for k in range(4):
            for f in hom(globe(k), A):
                if is_homogeneous(f):
                    assert dim(A) <= k, (k, A)
                    found += 1
    assert found == 515


def test_filler_wide_target():
    # hom(D2, T) has 1234567 maps here, above the default hom bound
    edges = hom(globe(1), WIDE_TARGET)
    for f, g in [(edges[0], edges[0]), (edges[1], edges[4])]:
        h = filler(f, g)
        assert compose(sigma_theta(1), h) == f
        assert compose(tau_theta(1), h) == g
