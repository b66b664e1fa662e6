import pytest

from globwork.errors import DomainError, InvalidTableError, ParseError, SizeGuardError
from globwork import trees
from globwork.trees import (
    DimensionTable,
    Tree,
    all_trees,
    boundary,
    boundary_table_oracle,
    classify_sector,
    count_sectors,
    decompose,
    dim,
    globe,
    insert_at,
    linearization,
    parse_tree,
    reassemble,
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
    with pytest.raises(ParseError) as e:
        parse_tree("[[]")
    assert e.value.position == 3
    with pytest.raises(ParseError):
        parse_tree("[]x")
    with pytest.raises(ParseError):
        parse_tree("x")


def test_parse_depth_bound():
    k = trees.MAX_PARSE_DEPTH
    assert parse_tree(f"D{k}") == parse_tree(str(globe(k))) == globe(k)
    for text in (f"D{k + 1}", str(globe(k + 1))):
        with pytest.raises(SizeGuardError):
            parse_tree(text)


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


def test_table_literal_round_trip():
    tbl = tree_to_table(parse_tree(NINE_TREE))
    assert DimensionTable.parse(str(tbl)) == tbl
    assert DimensionTable.parse("(0;)") == DimensionTable((0,), ())
    with pytest.raises(InvalidTableError):
        DimensionTable.parse("2,2;1")


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
        assert decompose(suspend(t)) == (t,)


def test_decompose():
    assert decompose(Tree()) == ()
    t = parse_tree(NINE_TREE)
    assert [str(b) for b in decompose(t)] == ["[[][]]", "[]"]
    for u in all_trees(6):
        assert reassemble(decompose(u)) == u
        assert len(decompose(u)) == u.arity


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


def test_linearization_counts_brute_force():
    for t in all_trees(6):
        ext = linearization(t)
        assert len(ext) == count_sectors(t) == 2 * t.n_nodes() - 1
        # all results valid one-vertex extensions
        for e in ext:
            assert e.result.n_nodes() == t.n_nodes() + 1
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
        again = classify_sector(t, e.sector)
        assert again == e.klass
        if height >= 3:
            assert again == "H3"
        if height == 2 and arity == 0:
            assert again == "H2-OverEdge"


def test_json_and_dot():
    t = parse_tree(NINE_TREE)
    assert Tree.from_json(t.to_json()) == t
    dot = trees.tree_to_dot(t)
    assert dot.startswith("digraph")
    ext = linearization(t)[0]
    assert "red" in trees.extension_to_dot(ext)
