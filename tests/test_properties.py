"""Laws checked on shrinking examples: trees, small finite globular sets
presented as computads, the hom sets between small trees and the maps in
them, the terms of the shipped n = 3 tower, and the lifting squares of
small finite globular sets."""

import functools
import itertools

from hypothesis import assume, given, strategies as st

from test_computads import assert_searches_agree, relabelled
from test_globsets import as_computad, lift_outcome, orthogonal_by_search
from test_theory import TWO, random_term
from globwork.globsets import (
    EMPTY,
    FinGlobSet,
    GlobMap,
    check_orthogonal,
    factor_bij_ff,
    is_m_bijective,
    is_m_fully_faithful,
    pad_to,
    random_finglobset,
    random_globmap,
)
from globwork.theory import standard_library
from globwork.theta import HomSet, compose, hg_factorize, hom, hom_count, identity, is_globular, is_homogeneous
from globwork.trees import LEAF, Tree, boundary, boundary_table_oracle, globe, parse_tree


def trees(max_leaves=8):
    return st.recursive(
        st.just(LEAF),
        lambda kids: st.lists(kids, min_size=1, max_size=3).map(lambda cs: Tree(tuple(cs))),
        max_leaves=max_leaves,
    )


@st.composite
def finglobsets(draw, max_dim=2, max_cells=4):
    """A finite globular set of dimension at most ``max_dim``: each k-cell
    draws its source and target from the parallel pairs of (k-1)-cells."""
    n = draw(st.integers(0, max_dim))
    cells = [[("c", 0, i) for i in range(draw(st.integers(1, max_cells)))]]
    src, tgt = [{}], [{}]
    for k in range(1, n + 1):
        below = cells[k - 1]
        parallel = [
            (s, t) for s in below for t in below
            if k == 1 or (src[k - 1][s], tgt[k - 1][s]) == (src[k - 1][t], tgt[k - 1][t])
        ]
        ends = draw(st.lists(st.sampled_from(parallel), max_size=max_cells)) if parallel else []
        cells.append([("c", k, i) for i in range(len(ends))])
        src.append({c: s for c, (s, _) in zip(cells[k], ends)})
        tgt.append({c: t for c, (_, t) in zip(cells[k], ends)})
    return FinGlobSet(n, cells, src, tgt)


@st.composite
def globmaps(draw):
    """A map between two drawn finite globular sets, padded to one
    dimension: each cell draws its image from the cells of the codomain over
    the images of its source and target."""
    X, Y = draw(finglobsets()), draw(finglobsets())
    n = max(X.n, Y.n)
    X, Y = pad_to(X, n), pad_to(Y, n)
    maps = [{c: draw(st.sampled_from(Y.cells[0])) for c in X.cells[0]}]
    for k in range(1, n + 1):
        maps.append({})
        for c in X.cells[k]:
            ends = (maps[k - 1][X.src[k][c]], maps[k - 1][X.tgt[k][c]])
            over = [y for y in Y.cells[k] if (Y.src[k][y], Y.tgt[k][y]) == ends]
            assume(over)
            maps[k][c] = draw(st.sampled_from(over))
    return GlobMap(X, Y, maps)


# one strategy object, so hypothesis validates it once
SMALL_TREES = trees(max_leaves=5)


@st.composite
def maps(draw, source=None):
    """A map of hom(S, T) read by rank from a fresh hom set, with S (unless
    given) and T drawn from ``SMALL_TREES``.  No hom set is empty: every
    map through the point is in it."""
    S = draw(SMALL_TREES) if source is None else source
    T = draw(SMALL_TREES)
    return HomSet(S, T)[draw(st.integers(0, hom_count(S, T) - 1))]


@given(trees())
def test_parse_inverts_str(t):
    fresh = parse_tree(str(t))
    assert fresh == t and hash(fresh) == hash(t)


@given(trees().filter(lambda t: t.children))
def test_boundary_matches_the_table_rule(t):
    assert boundary(t) == boundary_table_oracle(t)


@given(finglobsets().map(as_computad), st.randoms(use_true_random=False), st.booleans())
def test_computad_search_matches_the_recursion(P, rng, reverse):
    iso = assert_searches_agree(P, relabelled(P, rng, reverse))
    assert reverse or iso is not None


@given(trees(max_leaves=4), trees(max_leaves=4))
def test_reading_by_rank_is_the_full_pass(S, T):
    # a fresh set read rank by rank, before any full pass of that set
    by_rank = tuple(HomSet(S, T)[i] for i in range(hom_count(S, T)))
    assert by_rank == tuple(HomSet(S, T)) == tuple(hom(S, T))


@given(maps())
def test_identity_is_a_unit(f):
    assert compose(identity(f.source), f) == f == compose(f, identity(f.target))


@given(st.data())
def test_composition_is_associative(data):
    f = data.draw(maps())
    g = data.draw(maps(source=f.target))
    h = data.draw(maps(source=g.target))
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(maps())
def test_factorisation_recomposes(f):
    fact = hg_factorize(f)
    assert compose(fact.homogeneous, fact.globular) == f
    assert is_homogeneous(fact.homogeneous) and is_globular(fact.globular)
    assert is_homogeneous(f) == (fact.globular == identity(f.target))


@given(globmaps(), st.integers(0, 3))
def test_bijective_fully_faithful_factorisation(f, m):
    h, g = factor_bij_ff(f, m)
    assert h.then(g) == f
    assert is_m_bijective(h, m) and is_m_fully_faithful(g, m)


@given(st.sampled_from((2, 3)), st.integers(0, 3), st.randoms(use_true_random=True))
def test_check_orthogonal_matches_the_search(n, m, rng):
    # the square induced by a map w : B -> X, for i from the empty set or a
    # random A, and the same top against a random bottom; then the
    # (bij_m, ff_m) factorisations h, g of the maps drawn, each against
    # itself and against the others through a random map cod h -> dom g
    A, B, X, Y = (random_finglobset(rng, n=n, max_cells=3) for _ in range(4))
    i = GlobMap(EMPTY, B, []) if rng.random() < 0.3 else random_globmap(rng, A, B)
    p, w = random_globmap(rng, X, Y), random_globmap(rng, B, X)
    squares = []
    if None not in (i, p, w):
        squares.append((i, p, i.then(w), w.then(p)))
        bottom = random_globmap(rng, B, Y)
        if bottom is not None:
            squares.append((i, p, i.then(w), bottom))
    factors = [factor_bij_ff(f, m) for f in (i, p, w) if f is not None]
    squares += [(h, g, h, g) for h, g in factors]
    for (h, _), (_, g) in itertools.permutations(factors, 2):
        d = random_globmap(rng, h.cod, g.dom)
        if d is not None:
            squares.append((h, g, h.then(d), d.then(g)))
    assume(squares)
    for square in squares:
        assert lift_outcome(check_orthogonal, square) == lift_outcome(orthogonal_by_search, square)


@functools.lru_cache(maxsize=None)
def tower():
    return standard_library(3)


# the sources of u and v are kept small: random_term's cost grows fast with
# the leaves of its source.  It calls the generator some 700 times a triple,
# which a Random drawing every value from hypothesis (use_true_random=False)
# answers at about 25 us a call, so the generator is a seeded one: 100
# triples take about 1 s rather than 6 s
TERM_SOURCES = (globe(1), globe(2), TWO, Tree((globe(1), LEAF)))
TERM_TARGETS = TERM_SOURCES + (parse_tree("[[[][]][]]"),)


@given(st.lists(st.sampled_from(TERM_SOURCES), min_size=3, max_size=3), st.sampled_from(TERM_TARGETS),
       st.randoms(use_true_random=True))
def test_substitution_is_associative_and_evaluation_functorial(sources, D, rng):
    th = tower()
    A, B, C = sources
    t, u, v = random_term(rng, th, A, B), random_term(rng, th, B, C), random_term(rng, th, C, D)
    assume(None not in (t, u, v))
    tu = th.substitute(t, u)
    # terms are hash-consed, so the two bracketings are one object
    assert th.substitute(tu, v) is th.substitute(t, th.substitute(u, v))
    for x, y in ((t, u), (tu, v)):
        xy = th.substitute(x, y)
        th.validate_term(xy)
        assert th.eval_term(xy) == compose(th.eval_term(x), th.eval_term(y))
