import pytest

from globwork.errors import DomainError, InvalidTableError, ParseError, SizeGuardError
from globwork import theta, trees
from globwork.trees import (
    DimensionTable,
    Tree,
    all_trees,
    boundary,
    boundary_table_oracle,
    dim,
    globe,
    insert_at,
    linearization,
    parse_tree,
    suspend,
    table_to_tree,
    tree_to_table,
)

NINE_TREE = "[[[][]][]]"


def test_parse_point():
    assert parse_tree("[]") == Tree()


def test_parse_nine_tree():
    t = parse_tree(NINE_TREE)
    assert t.arity == 2
    assert t.children[0].arity == 2
    assert t.children[1].is_leaf


def test_parse_globe_shorthand():
    assert parse_tree("D3") == globe(3)
    assert str(globe(2)) == "[[[]]]"


def test_parse_errors_carry_position():
    for text, position in (("[[]", 3), ("[]x", 2), ("x", 0), ("[[]x]", 3), ("", 0)):
        with pytest.raises(ParseError) as e:
            parse_tree(text)
        assert e.value.position == position, text


def test_parse_depth_bound():
    k = trees.MAX_PARSE_DEPTH
    assert parse_tree(f"D{k}") == parse_tree(str(globe(k))) == globe(k)
    # the literal of the (k + 1)-globe, which globe() itself refuses
    for text in (f"D{k + 1}", "[" * (k + 2) + "]" * (k + 2)):
        with pytest.raises(SizeGuardError):
            parse_tree(text)


def suspend_map(f):
    return theta.ThetaMap(trees.suspend(f.source), trees.suspend(f.target), (0, 1), ((f,),))


def test_library_depth_bound():
    k = trees.MAX_PARSE_DEPTH
    assert trees.suspend(globe(k - 1)) == globe(k)
    assert theta.render(suspend_map(theta.identity(globe(k - 1)))) == theta.render(theta.identity(globe(k)))
    # at 400 theta.render overflowed the stack with RecursionError
    for height in (k + 1, 400):
        with pytest.raises(SizeGuardError):
            theta.render(theta.identity(globe(height)))
    with pytest.raises(SizeGuardError):
        trees.suspend(globe(k))
    with pytest.raises(SizeGuardError):
        suspend_map(theta.identity(globe(k)))


def test_stored_height_and_constructor_bound():
    # the height each tree stores is the largest top of its table, and the
    # node count the number of its node paths
    for t in all_trees(7):
        assert dim(t) == max(tree_to_table(t).tops)
        assert t.n_nodes() == len(list(t.nodes()))
    # no tree above the bound is built, whichever way it is constructed;
    # before heights were stored these reached RecursionError
    k = trees.MAX_PARSE_DEPTH
    assert dim(table_to_tree(DimensionTable((k,), ()))) == k
    with pytest.raises(SizeGuardError):
        dim(table_to_tree(DimensionTable((400,), ())))
    with pytest.raises(SizeGuardError):
        trees.suspend(table_to_tree(DimensionTable((400,), ())))
    with pytest.raises(SizeGuardError):
        Tree((globe(k),))
    with pytest.raises(SizeGuardError):
        Tree(children=(globe(k),))


def test_deep_and_wide_trees():
    # a chain at the depth bound and a corolla of 3000 leaves go through
    # every walk of the package, each checked against an answer built
    # without it
    k = trees.MAX_PARSE_DEPTH
    chain, corolla = globe(k), Tree((trees.LEAF,) * 3000)
    for t in (chain, corolla):
        assert parse_tree(str(t)) is t
        assert table_to_tree(tree_to_table(t)) is t
        assert boundary(t) is boundary_table_oracle(t)
        assert len(linearization(t)) == sum(t.subtree(path).arity + 1 for path in t.nodes())
    assert insert_at(chain, trees.Sector((0,) * (k - 1), 0)) is table_to_tree(DimensionTable((k, k), (k - 1,)))
    assert insert_at(corolla, trees.Sector((), 3000)) is Tree((trees.LEAF,) * 3001)
    assert theta.leaf_inclusion(chain, 0) == theta.identity(chain)
    assert theta.boundary_maps(chain) == (theta.face_theta(k - 1, "s"), theta.face_theta(k - 1, "t"))
    assert theta.to_steiner_cell(theta.identity(chain)) == tuple(
        (((((0,) * r, 0), 1),), ((((0,) * r, int(r < k)), 1),)) for r in range(k + 1)
    )
    last = theta.leaf_inclusion(corolla, 2999)
    assert last == theta.ThetaMap(globe(1), corolla, (2999, 3000), ((theta.identity(trees.LEAF),),))
    assert theta.to_steiner_cell(last) == (
        (((((), 2999), 1),), ((((), 3000), 1),)), (((((2999,), 0), 1),), ((((2999,), 0), 1),))
    )
    assert theta.boundary_maps(corolla) == tuple(
        theta.ThetaMap(trees.LEAF, corolla, (gap,), ()) for gap in (0, 3000)
    )


def test_pretty_print_round_trip():
    for t in all_trees(6):
        assert parse_tree(str(t)) == t


def test_table_of_chain_is_globe():
    for m in range(5):
        assert tree_to_table(globe(m)) == DimensionTable((m,), ())


def test_nine_tree_table():
    assert str(tree_to_table(parse_tree(NINE_TREE))) == "(2,2,1;1,0)"


def test_table_to_tree_two_arrows():
    t = table_to_tree(DimensionTable((1, 1), (0,)))
    assert str(t) == "[[][]]"


def test_table_round_trip_both_ways():
    for t in all_trees(6):
        assert table_to_tree(tree_to_table(t)) == t
    # and on the table side, via trees of every shape
    for t in all_trees(6):
        tbl = tree_to_table(t)
        assert tree_to_table(table_to_tree(tbl)) == tbl


def test_invalid_tables_rejected():
    with pytest.raises(InvalidTableError):
        DimensionTable((1, 1), (1,))
    with pytest.raises(InvalidTableError):
        DimensionTable((2, 1), (1,))
    with pytest.raises(InvalidTableError):
        DimensionTable((1, 1), ())


def test_dim():
    assert dim(Tree()) == 0
    assert dim(parse_tree(NINE_TREE)) == 2
    for t in all_trees(5):
        assert dim(suspend(t)) == dim(t) + 1
        assert dim(t) == max(tree_to_table(t).tops)


def test_boundary_of_globe():
    for m in range(1, 5):
        assert boundary(globe(m)) == globe(m - 1)


def test_boundary_nine_tree():
    assert str(boundary(parse_tree(NINE_TREE))) == "[[][]]"
    assert tree_to_table(boundary(parse_tree(NINE_TREE))) == DimensionTable((1, 1), (0,))


def test_boundary_dim_one():
    assert boundary(parse_tree("[[][]]")) == Tree()


def test_boundary_point_is_error():
    with pytest.raises(DomainError):
        boundary(Tree())


def test_boundary_matches_table_oracle():
    for t in all_trees(6):
        if dim(t) == 0:
            continue
        assert boundary(t) == boundary_table_oracle(t)
        assert dim(boundary(t)) == dim(t) - 1


def test_suspend():
    assert str(suspend(Tree())) == "[[]]"
    tbl = tree_to_table(suspend(parse_tree(NINE_TREE)))
    assert tbl == DimensionTable((3, 3, 2), (2, 1))
    for t in all_trees(5):
        assert suspend(t).children == (t,)


def test_decompose():
    assert Tree().children == ()
    t = parse_tree(NINE_TREE)
    assert [str(b) for b in t.children] == ["[[][]]", "[]"]
    for u in all_trees(6):
        assert Tree(u.children) == u
        assert len(u.children) == u.arity


def test_linearization_nine_tree():
    ext = linearization(parse_tree(NINE_TREE))
    assert len(ext) == 9
    tags = [e.klass for e in ext]
    assert tags == [
        "H1-Right",
        "H2-OverEdge",
        "H1-Mid",
        "H2-Max",
        "H3",
        "H2-Mid",
        "H3",
        "H2-Min",
        "H1-Left",
    ]
    # the nine extension results, in contour order; the first and third
    # give the same abstract tree (adjacent gaps around the same leaf) but
    # remain distinct as extensions via their sectors
    assert str(ext[0].result) == "[[[][]][][]]"
    assert str(ext[1].result) == "[[[][]][[]]]"
    assert str(ext[2].result) == "[[[][]][][]]"
    assert ext[0].sector != ext[2].sector
    assert str(ext[8].result) == "[[][[][]][]]"


def test_linearization_point_and_globe():
    assert len(linearization(Tree())) == 1
    ext = linearization(parse_tree("[[]]"))
    assert len(ext) == 3
    assert [str(e.result) for e in ext] == ["[[][]]", "[[[]]]", "[[][]]"]
    assert [e.klass for e in ext] == ["H1-Right", "H2-OverEdge", "H1-Left"]


def klass_of(t, sector):
    """The class of an insertion from its height, gap and fiber arity."""
    return trees._klass(len(sector.path) + 1, sector.gap, t.subtree(sector.path).arity)


def test_linearization_counts_brute_force():
    for t in all_trees(7):
        ext = linearization(t)
        assert len(ext) == sum(t.subtree(p).arity + 1 for p in t.nodes()) == 2 * t.n_nodes() - 1
        # all results valid one-vertex extensions, built on read
        for e in ext:
            assert e.result == insert_at(e.base, e.sector)
            assert e.result.n_nodes() == t.n_nodes() + 1
            assert klass_of(t, e.sector) == e.klass
        # every tag well formed, and exactly one tag per sector
        assert all(e.klass in trees.ALL_KLASSES for e in ext)


def test_insert_at_out_of_range():
    with pytest.raises(DomainError):
        insert_at(Tree(), trees.Sector((), 1))


def test_classify_depends_only_on_local_data():
    t = parse_tree(NINE_TREE)
    for e in linearization(t):
        height = len(e.sector.path) + 1
        arity = t.subtree(e.sector.path).arity
        again = klass_of(t, e.sector)
        assert again == e.klass
        if height >= 3:
            assert again == "H3"
        if height == 2 and arity == 0:
            assert again == "H2-OverEdge"


def test_json_and_dot():
    t = parse_tree(NINE_TREE)
    dot = trees.tree_to_dot(t)
    assert dot.startswith("digraph")
    ext = linearization(t)[0]
    assert "red" in trees.extension_to_dot(ext)
