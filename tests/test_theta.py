import functools
import itertools

import pytest

from globwork.errors import DomainError, SizeGuardError
from globwork import steiner, theta
from globwork.trees import LEAF, Tree, all_trees, boundary, dim, globe, parse_tree
from globwork.theta import (
    ThetaMap,
    assemble,
    boundary_maps,
    cell_inclusion,
    compose,
    embed_globular,
    filler,
    hg_factorize,
    hom,
    hom_count,
    identity,
    is_admissible_categorical,
    is_admissible_groupoidal,
    is_globular,
    is_homogeneous,
    leaf_inclusion,
    leaf_paths,
    map_from_json,
    realize_map,
    sigma_theta,
    support,
    suspend_map,
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


def test_hom_size_guard():
    with pytest.raises(SizeGuardError):
        hom(globe(1), globe(1), max_size=1)


def test_oracle_equivalence_small():
    for T in SMALL_TREES:
        for k in range(4):
            cells = steiner.enumerate_cells(T, k)
            maps = hom(globe(k), T)
            assert len(maps) == len(cells)
            translated = {to_steiner_cell(f) for f in maps}
            assert len(translated) == len(maps)
            assert translated == set(cells)


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
    from globwork.globsets import realize

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
    B, mono, residue = support(c)
    assert B == globe(2)
    assert mono == identity(globe(2))
    assert residue == c


def test_support_of_degenerate_cell():
    # the 2-cell sitting on the source edge of D2 (identity of that edge)
    inner = ThetaMap(globe(1), globe(1), (0, 0), ((),))
    c = ThetaMap(globe(2), globe(2), (0, 1), ((inner,),))
    B, mono, residue = support(c)
    assert B == globe(1)
    assert is_globular(mono)
    assert residue.target == globe(1)
    assert compose(residue, mono) == c


def test_support_of_zero_cell_pick():
    c = ThetaMap(globe(1), globe(2), (0, 0), ((),))
    B, mono, residue = support(c)
    assert B == LEAF
    assert compose(residue, mono) == c


def test_support_minimality_exhaustive():
    for T in SMALL_TREES:
        for k in range(3):
            for c in hom(globe(k), T):
                B, mono, residue = support(c)
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
# the hom scans the constructions replaced, kept as oracles

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
    candidates = [h for h in hom(globe(k), boundary(A)) if is_homogeneous(h)]
    return tuple({compose(h, d) for h in candidates} for d in boundary_maps(A))


def scan_admissible_categorical(f, g):
    """Admissibility with the boundary factorisation found by filtering
    hom(D_k, dA) for homogeneous maps."""
    k = dim(f.source)
    if k == 0 or (is_homogeneous(f) and is_homogeneous(g)):
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
            homog = [h for h in hom(globe(k), boundary(T)) if is_homogeneous(h)]
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


def test_filler_wide_target():
    # hom(D2, T) has 1234567 maps here, above the default hom bound
    edges = hom(globe(1), WIDE_TARGET)
    for f, g in [(edges[0], edges[0]), (edges[1], edges[4])]:
        h = filler(f, g)
        assert compose(sigma_theta(1), h) == f
        assert compose(tau_theta(1), h) == g
