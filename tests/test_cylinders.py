import collections
import functools
import re
import time

import pytest

from globwork.errors import DomainError, SizeGuardError, TypingError
from globwork import cylinders as cyl, steiner
from globwork.computads import fcomp, find_computad_iso, fwhisker, rename
from globwork.theory import (
    Term,
    TheoryPresentation,
    app_cell,
    base_theory,
    glob_cell,
    groupoidalize,
    single,
    standard_library,
    whisker,
)
from globwork.theta import (
    compose,
    face_theta,
    hg_factorize,
    hom,
    homogeneous_op,
    identity,
    is_homogeneous,
    leaf_inclusion,
    render,
    sigma_theta,
    tau_theta,
)
from globwork import trees as tree_mod
from globwork.trees import (
    H3,
    LEAF,
    DimensionTable,
    Tree,
    all_trees,
    boundary,
    dim,
    globe,
    linearization,
    parse_tree,
    table_to_tree,
)

TH = groupoidalize(standard_library(3))
NINE_TREE = parse_tree("[[[][]][]]")


def boundary_plus(A, sector):
    """The boundary tree with the sector re-applied, as a stack's rho_star
    record reads it."""
    bt = boundary(A)
    return tree_mod.insert_at(bt, cyl._reapplied(bt, sector))


def homogeneous_ops(A, k):
    return [f for f in hom(globe(k), A) if is_homogeneous(f)]


def rho_eps_by_factorisation(rho, side):
    """The restriction of rho along d_side, as the homogeneous half of the
    factorised composite."""
    k = dim(rho.source)
    return render(hg_factorize(compose(face_theta(k - 1, side), rho)).homogeneous)


def test_cyl_counts():
    assert cyl.cyl_presentation(0, TH).counts() == (2, 1)
    assert cyl.cyl_presentation(1, TH).counts() == (4, 4, 1)
    assert cyl.cyl_presentation(2, TH).counts() == (4, 6, 4, 1)
    assert cyl.cyl_presentation(3, TH).counts() == (4, 6, 6, 4, 1)


def test_cyl_typechecks_and_designates():
    # imported here, as test_computads imports this module
    from test_computads import typecheck

    for k in range(3):
        P = cyl.cyl_presentation(k, TH)
        typecheck(*P.gens.values())
        assert "iota0" in P.designated and "iota1" in P.designated
        if k >= 1:
            assert P.designated["iota0"].dim == k


def test_boundary_cyl_counts():
    P, data = cyl.boundary_cyl(1, TH)
    assert P.counts() == (4, 4)
    assert data["inclusion_adds"] == ["C"]
    P2, data2 = cyl.boundary_cyl(2, TH)
    assert P2.counts() == (4, 6, 4)
    assert data2["top_cells"] == ["A2", "B2"]
    assert len(data2["parallel_cylinders"]) == 2
    with pytest.raises(DomainError):
        cyl.boundary_cyl(0, TH)


def test_degenerate_cyl_source():
    P = cyl.degenerate_cyl(1, 0, None, TH)
    assert P.counts() == (3, 3, 1)
    names = set(P.order)
    assert {"g", "alpha", "beta", "C"} <= names
    assert "f" not in names
    # C : g.alpha => beta
    C = P.designated["filler"]
    assert str(C.src) == "(alpha * g)"
    assert C.tgt.name == "beta"


def test_degenerate_cyl_none_is_full():
    P = cyl.degenerate_cyl(1, None, None, TH)
    assert P.counts() == (4, 4, 1)
    P2 = cyl.degenerate_cyl(2, None, None, TH)
    assert P2.counts() == (4, 6, 4, 1)
    # with no collapse it is the cylinder, designated cells included
    for k, P in ((1, P), (2, P2)):
        Q = cyl.cyl_presentation(k, TH)
        iso = find_computad_iso(P, Q)
        assert iso is not None
        for key in ("iota0", "iota1", "filler"):
            assert iso[P.designated[key].name] == Q.designated[key].name


def test_degenerate_cyl_both():
    P = cyl.degenerate_cyl(1, 0, 0, TH)
    assert P.counts() == (2, 2, 1)
    C = P.designated["filler"]
    assert C.src.name == "alpha" and C.tgt.name == "beta"


def test_degenerate_cyl_rejects_bad_indices():
    with pytest.raises(DomainError):
        cyl.degenerate_cyl(1, 1, None, TH)
    with pytest.raises(DomainError):
        cyl.degenerate_cyl(3, 0, None, TH)


def test_cyl_glob_sum_matches_globe_presentations():
    for k in range(3):
        S = cyl.cyl_glob_sum(globe(k), TH)
        P = cyl.cyl_presentation(k, TH)
        assert S.presentation.counts() == P.counts()
        assert find_computad_iso(S.presentation, P) is not None


def test_cyl_glob_sum_nine_tree():
    S = cyl.cyl_glob_sum(NINE_TREE, TH)
    assert len(S.inclusions) == 9
    assert [incl["extension"] for incl in structural_inclusions(S)] == linearization(NINE_TREE)
    # counts: two copies of the scheme, sides, seams, fillers
    assert S.presentation.counts() == (6, 4 + 4 + 3, 2 + 2 + 4, 2)


def test_cyl_glob_sum_keeps_one_extension_per_inclusion():
    for A in all_trees(6):
        if dim(A) > 2:
            continue
        S = cyl.cyl_glob_sum(A, TH)
        assert S.inclusions == tuple(linearization(A))
        assert len(S.inclusions) == 2 * A.n_nodes() - 1


def test_cyl_glob_sum_rejects_high_dimension():
    with pytest.raises(DomainError):
        cyl.cyl_glob_sum(globe(3), TH)


def structural_inclusions(S):
    """The structural inclusions B -> cyl(A) of the sum cylinder S, one per
    extension in order, each checked as a map of schemes into formal cells.

    The chain of sections that the sum walks (``cyl._image_chain``) is
    walked once more, and each extension's two sections s_σ, s_τ are
    spliced at its sector: B's cells in preorder are A's with the sector's
    gap g of node p doubled and the new vertex before child g's subtree.
    The new vertex goes to c over the sector's cell; p's gaps up to g and
    every cell before them or in p's children before g read s_σ, the rest
    s_τ."""
    A = S.tree
    cells, span = tree_mod.cells(A), cyl._spans(A)
    read = functools.partial(cyl._lax, S.atoms, {})
    chain = cyl._image_chain(cells, S.inclusions, span, read)
    before = list(next(chain))
    for ext, after in zip(S.inclusions, chain):
        path, g = ext.sector
        gaps = span[path][0]
        end = gaps + A.subtree(path).arity + 1
        cut = span[path + (g - 1,)][1] if g else end
        new = read("c", (path, g), 0)
        images = before[: gaps + g + 1] + after[gaps + g : end] + before[end:cut] + [new] + after[cut:]
        B = ext.result
        cells_B = tree_mod.cells(B)
        assert len(images) == len(cells_B), f"the inclusion of {B} is not defined on exactly its cells"
        mapping = dict(zip(cells_B, images))
        for (node, gap), cell in mapping.items():
            if node:
                # the faces of the cell, trees.face(x, dim x - 1, "s") and "t";
                # identity first, as the sum's own check compares
                src, tgt = mapping[(node[:-1], node[-1])], mapping[(node[:-1], node[-1] + 1)]
                assert cell.src is src or cell.src == src, (B, node, gap)
                assert cell.tgt is tgt or cell.tgt == tgt, (B, node, gap)
        yield {"extension": ext, "scheme": B, "mapping": mapping}
        before = list(after)


def inclusion_by_cases(S, ext):
    """The structural inclusion of one extension by a case analysis on its
    sector: at the root, in a root branch (height 2) and over a 2-cell (H3),
    with the generators looked up by name."""
    gen = S.presentation.gens
    blocks = S.tree.children

    def e(side, j, level):
        return gen[f"{side}e{j}" if blocks[j - 1].is_leaf else f"{side}e{j}_{level}"]

    def copy(side, j, rest, gap):
        return e(side, j, gap) if not rest else gen[f"{side}x{j}_{rest[0] + 1}"]

    B, sector = ext.result, ext.sector
    cells = [(path, gap) for path in B.nodes() for gap in range(B.subtree(path).arity + 1)]
    mapping = {}
    if sector.path == ():
        s = sector.gap
        for path, gap in cells:
            if path == ():
                mapping[(path, gap)] = gen[f"u{gap}" if gap <= s else f"v{gap - 1}"]
            elif path == (s,):
                mapping[(path, gap)] = gen[f"c{s}"]
            else:
                i = path[0] if path[0] < s else path[0] - 1
                mapping[(path, gap)] = copy("u" if i < s else "v", i + 1, path[1:], gap)
        return mapping
    i = sector.path[0]
    j = i + 1
    cl, cr = gen[f"c{j - 1}"], gen[f"c{j}"]
    for path, gap in cells:
        if path == ():
            mapping[(path, gap)] = gen[f"u{gap}" if gap <= i else f"v{gap}"]
        elif path[0] != i:
            mapping[(path, gap)] = copy("u" if path[0] < i else "v", path[0] + 1, path[1:], gap)
        elif ext.klass != H3:
            # height 2 at gap s splits the branch's cells at s
            s = sector.gap
            if len(path) == 1:
                img = fcomp([e("u", j, gap), cr]) if gap <= s else fcomp([cl, e("v", j, gap - 1)])
            else:
                r = path[1] + 1
                if r <= s:
                    img = fwhisker(gen[f"ux{j}_{r}"], cr, "r")
                elif r == s + 1:
                    img = gen[f"s{j}_{s}"]
                else:
                    img = fwhisker(gen[f"vx{j}_{r - 1}"], cl, "l")
            mapping[(path, gap)] = img
        else:
            # H3 over the r-th cell of the branch
            r = sector.path[1] + 1
            fill = gen[f"om{j}_{r}"]
            if len(path) == 1:
                img = fcomp([e("u", j, gap), cr]) if gap <= r - 1 else fcomp([cl, e("v", j, gap)])
            elif len(path) == 3:
                img = fill
            elif path[1] + 1 == r:
                img = fill.src if gap == 0 else fill.tgt
            elif path[1] + 1 < r:
                img = fwhisker(gen[f"ux{j}_{path[1] + 1}"], cr, "r")
            else:
                img = fwhisker(gen[f"vx{j}_{path[1] + 1}"], cl, "l")
            mapping[(path, gap)] = img
    return mapping


def test_structural_inclusions_match_the_case_analysis():
    trees = [A for A in all_trees(10) if dim(A) <= 2]
    assert len(trees) == 512
    for A in trees:
        S = cyl.cyl_glob_sum(A, TH)
        for incl in structural_inclusions(S):
            assert incl["mapping"] == inclusion_by_cases(S, incl["extension"]), (A, incl["extension"].sector)


def lax_by_definition(S, side, x, depth):
    """The copy of x on side u (v) whiskered on the right (left) by the c's
    over its target (source) faces of dimension below ``depth``."""
    which, hand = ("t", "r") if side == "u" else ("s", "l")
    cell = S.atoms[(side, x)]
    for e in range(depth):
        cell = fwhisker(cell, S.atoms[("c", tree_mod.face(x, e, which))], hand)
    return cell


def section_by_faces(incl, side, x):
    """incl_B ∘ δ_ε at the cell x of A, for the two Θ-faces δ_σ, δ_τ : A -> B
    of the extension: at the sector's node p child indices from g on shift
    up by one, the sector's gap goes to gap g (σ) or g+1 (τ), and the cells
    over child g (σ) or g-1 (τ) are whiskered by the new vertex."""
    mapping = incl["mapping"]
    p, g = incl["extension"].sector.path, incl["extension"].sector.gap
    h = len(p)
    path, gap = x
    if path[:h] != p:
        return mapping[x]
    if len(path) == h:
        return mapping[(p, gap + (gap > g or (side == "t" and gap == g)))]
    i = path[h]
    image = mapping[(p + (i + (i >= g),) + path[h + 1 :], gap)]
    new = mapping[(p + (g,), 0)]
    if side == "s" and i == g:
        return fwhisker(image, new, "l")
    if side == "t" and i == g - 1:
        return fwhisker(image, new, "r")
    return image


def section_chain(A):
    """The chain of sections of A's ordered extensions, walked by the sum
    cylinder's ``_image_chain`` with a reader that keeps the pair: each
    section holds one (side, depth) per cell x of A in preorder, standing
    for lax(side, x, depth)."""
    walk = cyl._image_chain(tree_mod.cells(A), linearization(A), cyl._spans(A), lambda side, x, d: (side, d))
    return [tuple(section) for section in walk]


def test_section_chain_is_the_inclusions_on_the_theta_faces():
    trees = [A for A in all_trees(9) if 1 <= dim(A) <= 2]
    assert len(trees) == 255
    for A in trees:
        S = cyl.cyl_glob_sum(A, TH)
        cells = tree_mod.cells(A)
        chain = section_chain(A)
        assert chain[0] == (("u", 0),) * len(cells) and chain[-1] == (("v", 0),) * len(cells)
        assert len(chain) == len(S.inclusions) + 1
        for i, incl in enumerate(structural_inclusions(S)):
            for side, section in (("s", chain[i]), ("t", chain[i + 1])):
                for x, (copy, depth) in zip(cells, section, strict=True):
                    assert lax_by_definition(S, copy, x, depth) == section_by_faces(incl, side, x), (A, i, side, x)


def abelianise(cell):
    """The chain of a formal cell over the generator names: a generator is
    itself, a composite the sum of its parts, a whiskering the chain of its
    higher argument and a unit 0."""
    if cell.kind == "var":
        return collections.Counter({cell.name: 1})
    if cell.kind == "comp":
        return sum((abelianise(a) for a in cell.args), collections.Counter())
    if cell.is_unit:
        return collections.Counter()
    assert cell.name in ("wl", "wr"), cell
    (higher,) = [a for a in cell.args if a.dim == cell.dim]
    return abelianise(higher)


def chain(terms):
    """The chain sum of (generator name, coefficient) pairs, zeros dropped."""
    out = collections.Counter()
    for name, c in terms:
        out[name] += c
    return {name: c for name, c in out.items() if c}


def tensor_differential(name, d, side, x):
    """The differential of the basis element (side, x) of I (x) lambda(A) as
    (generator name, coefficient) pairs, with I the interval c : u -> v, d
    the differential of lambda(A) and ``name`` the generator of each basis
    element: d(c (x) x) = dc (x) x - c (x) dx, with dc = v - u, and
    d(e (x) x) = e (x) dx for e = u, v."""
    sx, tx = d.get(x, (None, None))
    if side == "c":
        want = [(name["v", x], 1), (name["u", x], -1)]
        return want + ([(name["c", sx], 1), (name["c", tx], -1)] if tx else [])
    return [(name[side, tx], 1), (name[side, sx], -1)] if tx else []


def test_sum_cylinder_is_the_gray_tensor_with_the_interval():
    # the generators of cyl(A) are the basis u(x), v(x), c(x) of I (x) lambda(A),
    # with lambda(A) the Steiner complex of A, and [tgt g] - [src g] is the
    # tensor differential of g
    trees = [A for A in all_trees(9) if dim(A) <= 2]
    assert len(trees) == 256
    generators = 0
    for A in trees:
        S = cyl.cyl_glob_sum(A, TH)
        d = steiner.pasting_complex(A).d
        name = {atom: g.name for atom, g in S.atoms.items()}
        gens = S.presentation.gens
        assert len(S.atoms) == len(gens) == 3 * len(tree_mod.cells(A))
        for (side, x), g in S.atoms.items():
            assert g is gens[g.name] and g.dim == len(x[0]) + (side == "c")
            if g.dim:
                got = abelianise(g.tgt)
                got.subtract(abelianise(g.src))
                assert chain(got.items()) == chain(tensor_differential(name, d, side, x)), (A, side, x)
            generators += 1
    assert generators == 11526


def test_structural_inclusions_are_chain_maps():
    # each structural inclusion B -> cyl(A), abelianised, is a map of
    # augmented directed complexes lambda(B) -> I (x) lambda(A): it keeps
    # degrees, sends each atom to a sum of atoms with positive coefficients
    # and each point to one point, and commutes with the differentials
    trees = [A for A in all_trees(9) if dim(A) <= 2]
    assert len(trees) == 256
    cells = 0
    for A in trees:
        S = cyl.cyl_glob_sum(A, TH)
        d = steiner.pasting_complex(A).d
        gens = S.presentation.gens
        name = {atom: g.name for atom, g in S.atoms.items()}
        differential = {name[atom]: tensor_differential(name, d, *atom) for atom in name}
        for incl in structural_inclusions(S):
            dB = steiner.pasting_complex(incl["scheme"]).d
            image = {y: abelianise(cell) for y, cell in incl["mapping"].items()}
            for y, f in image.items():
                n = len(y[0])
                assert f and all(c > 0 and gens[name].dim == n for name, c in f.items()), (A, y, f)
                if not n:
                    assert list(f.values()) == [1], (A, y, f)
                    continue
                sy, ty = dB[y]
                got = chain((g, c * e) for name, c in f.items() for g, e in differential[name])
                want = chain([*image[ty].items(), *((name, -c) for name, c in image[sy].items())])
                assert got == want, (A, incl["extension"].sector, y)
            cells += len(image)
    assert cells == 67324


def globe_basis(k, names):
    """The basis (side, x) of I (x) lambda(D_k), x a cell of the globe D_k,
    with its generator name: the point, side and top names of ``names``
    ((u, v, c) triples for gap 0, gap 1 and the top cell) at depth 0 and k,
    and ``names["seam"]`` over the depth-d cells between, formatted with
    the depth d and the side s or t of the gap."""
    basis = {}
    for x in tree_mod.cells(globe(k)):
        gap, depth = x[1], len(x[0])
        if depth == k:
            row = names["top"]
        elif depth == 0:
            row = names["points"][gap]
        else:
            row = tuple(fmt.format(d=depth, e=depth + 1, side="st"[gap]) for fmt in names["seam"])
        basis.update(zip((("u", x), ("v", x), ("c", x)), row))
    return basis


# the generator names of cyl_presentation(k): u(x) is A{d}{s|t} (A{k} at the
# top cell), v(x) is B..., c over the two points f and g, c over the depth-d
# cells E{d+1}{s|t} and c over the top cell C; at k = 0 a, b and C
CYL_NAMES = {
    0: {"top": ("a", "b", "C")},
    **{
        k: {
            "points": (("A0s", "B0s", "f"), ("A0t", "B0t", "g")),
            "seam": ("A{d}{side}", "B{d}{side}", "E{e}{side}"),
            "top": (f"A{k}", f"B{k}", "C"),
        }
        for k in (1, 2, 3)
    },
}
# the generator names of degenerate_cyl(k, p, q), before the collapse
DEGENERATE_NAMES = {
    1: {"points": (("a", "c", "f"), ("b", "d", "g")), "top": ("alpha", "beta", "C")},
    2: {
        "points": (("a", "c", "f"), ("b", "d", "g")),
        "seam": ("{side}A", "{side}B", "E{side}"),
        "top": ("A", "B", "C"),
    },
}


def presentation_differential(P):
    """[tgt g] - [src g] of each generator g of P, abelianised, by name."""
    out = {}
    for g in P.gens.values():
        got = abelianise(g.tgt) if g.dim else collections.Counter()
        if g.dim:
            got.subtract(abelianise(g.src))
        out[g.name] = chain(got.items())
    return out


def assert_squares_to_zero(differential):
    for name, dx in differential.items():
        ddx = chain((h, c * e) for g, c in dx.items() for h, e in differential[g].items())
        assert ddx == {}, (name, ddx)


def test_cylinder_presentations_are_their_chain_complexes():
    # Abelianised (a composite is the sum of its parts, a whiskering its
    # higher argument, a unit 0), cyl_presentation(k) is the Gray tensor
    # complex I (x) lambda(D_k) under the name table CYL_NAMES, boundary_cyl(k)
    # is that complex without c over the top cell, and degenerate_cyl(k, p, q)
    # is its quotient by the collapsed sides: p (q) collapses the source
    # (target) p-cell (q-cell) of D_k and its faces x, so c (x) x goes to 0
    # and v (x) x to u (x) x.  The paper states no complex for the
    # modification, so for it the test checks only the counts and dd = 0.
    for k in range(4):
        basis = globe_basis(k, CYL_NAMES[k])
        d = steiner.pasting_complex(globe(k)).d
        want = {name: chain(tensor_differential(basis, d, *atom)) for atom, name in basis.items()}
        assert_squares_to_zero(want)
        P = cyl.cyl_presentation(k, TH)
        assert presentation_differential(P) == want, k
        if k:
            P, _ = cyl.boundary_cyl(k, TH)
            got = presentation_differential(P)
            assert got == {name: dx for name, dx in want.items() if name != "C"}, k
            assert P.counts() == {1: (4, 4), 2: (4, 6, 4), 3: (4, 6, 6, 4)}[k]
            assert_squares_to_zero(got)
    quotients = 0
    for k in (1, 2):
        d = steiner.pasting_complex(globe(k)).d
        for p in (None, *range(k)):
            for q in (None, *range(k)):
                collapsed = {
                    x
                    for n, gap in ((p, 0), (q, 1))
                    if n is not None
                    for x in tree_mod.cells(globe(k))
                    if len(x[0]) < n or x == ((0,) * n, gap)
                }
                basis = globe_basis(k, DEGENERATE_NAMES[k])
                for x in collapsed:
                    basis["v", x], basis["c", x] = basis["u", x], None
                want = {}
                for atom, name in basis.items():
                    if name is not None:
                        dx = chain((g, c) for g, c in tensor_differential(basis, d, *atom) if g is not None)
                        # v (x) x and u (x) x of a collapsed x must agree
                        assert want.setdefault(name, dx) == dx, (k, p, q, atom)
                P = cyl.degenerate_cyl(k, p, q, TH)
                got = presentation_differential(P)
                assert got == want, (k, p, q)
                dims = collections.Counter(P.gens[name].dim for name in want)
                assert P.counts() == tuple(dims[n] for n in range(k + 2)), (k, p, q)
                assert_squares_to_zero(got)
                quotients += 1
    assert quotients == 13
    for k, counts in enumerate(((2, 2, 1), (4, 6, 4, 1), (4, 8, 8, 4))):
        P, _ = cyl.modification_presentation(k, TH)
        assert P.counts() == counts
        assert_squares_to_zero(presentation_differential(P))


def walk_with(monkeypatch, wrong, walk=cyl._check_chain):
    """Make the sum cylinder check its chain of sections with the cell
    reader ``wrong(read)`` in place of its own reader ``read``."""
    monkeypatch.setattr(cyl, "_check_chain", lambda cells, exts, span, read: walk(cells, exts, span, wrong(read)))


SMALL_SUMS = [A for A in all_trees(5) if 1 <= dim(A) <= 2]


def test_the_chain_check_catches_a_swapped_image(monkeypatch):
    # each lax cell that a section reads, swapped for each other lax cell of
    # its cell of A, breaks the chain while the sum is built
    swaps = 0
    for A in SMALL_SUMS:
        cells = tree_mod.cells(A)
        read = {
            (side, x, d)
            for section in section_chain(A)
            for x, (side, d) in zip(cells, section)
        }
        for side, x, d in sorted(read):
            for wrong in [(s, x, e) for s in "uv" for e in range(len(x[0]) + 1) if (s, e) != (side, d)]:
                walk_with(monkeypatch, lambda lax: lambda *key: lax(*(wrong if key == (side, x, d) else key)))
                with pytest.raises(TypingError, match="section chain breaks"):
                    cyl.cyl_glob_sum(A, TH)
                swaps += 1
    assert swaps == 1192


def test_the_chain_check_catches_a_new_vertex_off_by_one_gap(monkeypatch):
    # c over the next gap (the previous one at the last gap) as the new
    # vertex of any one extension breaks the chain while the sum is built
    extensions = 0
    for A in SMALL_SUMS:
        for ext in linearization(A):
            path, g = ext.sector
            arity = A.subtree(path).arity
            if not arity:
                continue
            x, off = (path, g), (path, g + 1 if g < arity else g - 1)
            walk_with(monkeypatch, lambda lax: lambda side, y, d: lax(side, off if (side, y) == ("c", x) else y, d))
            with pytest.raises(TypingError, match=re.escape(f"section chain breaks at {(path + (g,), 0)}:")):
                cyl.cyl_glob_sum(A, TH)
            extensions += 1
    assert extensions == 76


def test_sum_cylinders_scale_linearly():
    # the chain of sections is walked in slices: 0.2-0.3 s on a 2-core Xeon VM
    start = time.perf_counter()
    S = cyl.cyl_glob_sum(Tree((LEAF,) * 4000), TH)
    assert time.perf_counter() - start < 3.0
    assert len(S.inclusions) == 8001


# ---------------------------------------------------------------------------
# stacks

def section_state(section, A, span):
    """The typed edge state of a section.  With m of the root's p+1 points
    on u it is pre (m = p+1) or post (m = 0); else it crosses in root branch
    j = m and is btau j (bsig j) when the whole branch is at ("u", 1)
    (("v", 1)), otherwise mid j r with r of the branch's leaves on u."""
    p = A.arity
    m = section[: p + 1].count(("u", 0))
    if m == p + 1:
        return ("pre",)
    if m == 0:
        return ("post",)
    start, stop = span[(m - 1,)]
    branch = section[start:stop]
    for kind, pair in (("btau", ("u", 1)), ("bsig", ("v", 1))):
        if branch.count(pair) == stop - start:
            return (kind, m)
    leaves = branch[A.children[m - 1].arity + 1 :]
    return ("mid", m, [side for side, _ in leaves].count("u"))


def boundary_cells(A, span, side):
    """The preorder positions of A's cells on its source (s) or target (t)
    boundary at dim <= 2: the root's points and each root branch's first
    (s) or last (t) 1-cell."""
    return [*range(A.arity + 1), *(span[(i,)][0] + (side == "t") * b.arity for i, b in enumerate(A.children))]


def stack_by_sections(k, A):
    """Per square: its edge texts and bottom state, its degenerate flags and
    each side's kind with its rendered corners (coh) or its arguments
    (rho_star), read off the chain of sections.  Square i runs from section
    i to section i+1.  At k = 2 its side ε is degenerate when the two
    sections agree on A's ε-boundary cells; otherwise it is a coherence
    cell when a root point moves, and else it restricts rho through the one
    boundary 1-cell that moves, the branch's cell F_j or a_j.gap."""
    span, cells = cyl._spans(A), tree_mod.cells(A)
    chain = section_chain(A)
    states = [section_state(section, A, span) for section in chain]
    squares = []
    for i, (before, after) in enumerate(zip(chain, chain[1:])):
        flags, records = [False, False], [None, None]
        for n, side in enumerate("st" if k >= 2 else ""):
            moved = [cells[c] for c in boundary_cells(A, span, side) if before[c] != after[c]]
            if not moved:
                flags[n] = True
            elif any(not path for path, _ in moved):
                corners = (cyl._render(cyl._corner(state, side), A.arity, side) for state in states[i : i + 2])
                records[n] = ("coh", *corners)
            else:
                ((path, gap),) = moved
                j = path[0] + 1
                if A.children[j - 1].is_leaf:
                    records[n] = ("rho_star", f"(d{side}U_<{j}, d{side}V_>{j}, F_{j})")
                else:
                    records[n] = ("rho_star", f"(d{side}U_<{j}, a_{j}.{gap}, d{side}V_>{j})")
        top, bottom = (cyl._render(state, A.arity, "") for state in states[i : i + 2])
        squares.append((top, bottom, states[i + 1], *flags, *records))
    return squares


def side_summary(record):
    if record is None:
        return None
    if record.kind == "coh":
        return ("coh", record.src, record.tgt)
    return ("rho_star", record.args)


def test_stack_matches_the_chain_of_sections():
    # the stack is read off the extensions' sectors and classes; the chain
    # of sections is the oracle for its states, degenerate sides and records
    stacks = 0
    for A in all_trees(9):
        if dim(A) > 2:
            continue
        for k in (1, 2):
            rho = homogeneous_op(k, A)
            if rho is None:
                continue
            got = [
                (
                    sq.top,
                    sq.bottom,
                    cyl._after(sq.element.sector),
                    sq.source_degenerate,
                    sq.target_degenerate,
                    side_summary(sq.left),
                    side_summary(sq.right),
                )
                for sq in cyl.stack(rho, TH)
            ]
            assert got == stack_by_sections(k, A), (k, A)
            stacks += 1
    assert stacks == 265


def test_stack_nine_tree_cases_and_order():
    rho = homogeneous_ops(NINE_TREE, 2)
    assert len(rho) >= 1
    squares = cyl.stack(rho[0], TH)
    assert len(squares) == 9
    cases = [sq.case for sq in squares]
    assert cases == [
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
    assert squares[0].top == "C_t*rho(U)"
    assert squares[-1].bottom == "rho(V)*C_s"


def test_stack_degeneracy_flags_match_case_table():
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    for sq in cyl.stack(rho, TH):
        if sq.case == "H2-Max":
            assert sq.source_degenerate and not sq.target_degenerate
        elif sq.case == "H2-Min":
            assert sq.target_degenerate and not sq.source_degenerate
        elif sq.case in ("H2-Mid", "H3"):
            assert sq.source_degenerate and sq.target_degenerate
        else:
            assert not sq.source_degenerate and not sq.target_degenerate


def test_stack_sides():
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    squares = cyl.stack(rho, TH)
    by_case = {}
    for sq in squares:
        by_case.setdefault(sq.case, sq)
    over = by_case["H2-OverEdge"]
    assert over.left.kind == "rho_star" and over.left.eps == "sigma"
    assert over.right.kind == "rho_star" and over.right.eps == "tau"
    assert by_case["H2-Max"].right.kind == "rho_star"
    assert by_case["H2-Max"].left is None
    assert by_case["H2-Min"].left.kind == "rho_star"
    assert by_case["H1-Mid"].left.kind == "coh"
    # the plus-tree of the over-edge square repeats the sector on the boundary
    assert over.left.plus_tree == "[[][[]]]"


def test_stack_composable_and_endpoints_all_small():
    for A in all_trees(6):
        if dim(A) > 2 or A.n_leaves() > 5:
            continue
        for rho in homogeneous_ops(A, 2):
            squares = cyl.stack(rho, TH)
            meta = cyl.vcompose_meta(squares)
            assert meta["top"] == "C_t*rho(U)"
            assert meta["bottom"] == "rho(V)*C_s"


def test_stack_k1():
    A = parse_tree("[[][]]")
    for rho in homogeneous_ops(A, 1):
        squares = cyl.stack(rho, TH)
        assert len(squares) == 5
        meta = cyl.vcompose_meta(squares)
        assert meta["p"] is None and meta["q"] is None
        assert [sq.case for sq in squares] == [
            "H1-Right",
            "H2-OverEdge",
            "H1-Mid",
            "H2-OverEdge",
            "H1-Left",
        ]


def test_stack_point():
    rho = homogeneous_ops(LEAF, 2)[0]
    squares = cyl.stack(rho, TH)
    assert len(squares) == 1
    meta = cyl.vcompose_meta(squares)
    assert meta["top"] == "C_t*rho(U)" and meta["bottom"] == "rho(V)*C_s"


def test_stack_corner_mismatch_is_a_typing_error(monkeypatch):
    # states that ignore the sectors disagree with the degenerate flags; the
    # check runs when a reading is made, so the stack is read cold
    monkeypatch.setattr(cyl, "_readings", cyl._Readings(cyl.MAX_READING_NODES))
    monkeypatch.setattr(cyl, "_after", lambda sector: ("pre",))
    with pytest.raises(TypingError):
        cyl.stack(homogeneous_ops(NINE_TREE, 2)[0], TH)
    assert not cyl._readings.entries


def test_stack_is_immutable(monkeypatch):
    monkeypatch.setattr(cyl, "_readings", cyl._Readings(cyl.MAX_READING_NODES))
    rho = homogeneous_op(2, NINE_TREE)
    first = cyl.stack(rho, TH)
    want = cyl.stack_to_json(first)
    second = cyl.stack(rho, TH)
    assert list(cyl._readings.entries) == [(2, NINE_TREE)]
    assert second == first and second is not first
    # neither a square nor a record takes an assignment, to a field or not
    records = {rec.kind: rec for sq in first for rec in (sq.left, sq.right) if rec is not None}
    assert sorted(records) == ["coh", "rho_star"]
    for value, name in [(first[0], "top"), (first[0], "case"), (first[0], "top_section"),
                        (records["coh"], "src"), (records["rho_star"], "kind")]:
        with pytest.raises(AttributeError):
            setattr(value, name, "edited")
    # a caller that edits its list leaves the next call's alone
    second[0] = second[-1]
    second.reverse()
    del second[1:]
    assert cyl.stack_to_json(cyl.stack(rho, TH)) == want


def test_stack_renders_the_same_cold_warm_and_after_eviction(monkeypatch):
    for k, A, other in ((1, parse_tree("[[][]]"), parse_tree("[[][][]]")), (2, NINE_TREE, parse_tree("[[][[]]]"))):
        rho = homogeneous_op(k, A)
        # a memo with room for A only: reading another tree evicts it
        monkeypatch.setattr(cyl, "_readings", cyl._Readings(A.n_nodes()))
        cold = cyl.stack(rho, TH)
        renders = {(cyl.stack_to_json(cold), cyl.stack_to_dot(cold))}
        warm = cyl.stack(rho, TH)
        renders.add((cyl.stack_to_json(warm), cyl.stack_to_dot(warm)))
        cyl.stack(homogeneous_op(k, other), TH)
        assert (k, A) not in cyl._readings.entries
        again = cyl.stack(rho, TH)
        renders.add((cyl.stack_to_json(again), cyl.stack_to_dot(again)))
        assert len(renders) == 1


def test_stack_refuses_before_the_memo(monkeypatch):
    A = NINE_TREE
    cyl.stack(homogeneous_op(2, A), TH)
    assert (2, A) in cyl._readings.entries
    flat = next(f for f in hom(globe(2), A) if not is_homogeneous(f))
    for call, error, message in [
        (lambda: cyl.stack(flat, TH), DomainError, "stacks interpret homogeneous operations only"),
        (lambda: cyl.stack(homogeneous_op(3, A), TH), DomainError,
         "stacks are built for operations of dimension 1 and 2"),
        (lambda: cyl.stack(identity(A), TH), DomainError,
         "stacks interpret globe-sourced operations"),
        (lambda: cyl.stack(homogeneous_op(2, A), base_theory(3)), DomainError,
         "cylinder presentations need the composition systems"),
    ]:
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            call()
    monkeypatch.setattr(cyl, "MAX_STACK_NODES", A.n_nodes() - 1)
    with pytest.raises(SizeGuardError, match="above the bound"):
        cyl.stack(homogeneous_op(2, A), TH)


def test_stack_memo_keeps_its_node_bound(monkeypatch):
    memo = cyl._Readings(20)
    monkeypatch.setattr(cyl, "_readings", memo)
    evicted = 0
    for A in all_trees(8):
        for k in (1, 2):
            rho = homogeneous_op(k, A)
            if rho is None or dim(A) > 2:
                continue
            before = len(memo.entries)
            cyl.stack(rho, TH)
            evicted += before + 1 - len(memo.entries)
            assert memo.nodes == sum(B.n_nodes() for _, B in memo.entries) <= memo.bound
    assert evicted > 0
    # a tree above the bound is read but not kept
    cyl.stack(homogeneous_op(1, parse_tree("[" + "[]" * 20 + "]")), TH)
    assert memo.nodes == 0 and not memo.entries


def test_stack_rejects_non_homogeneous():
    with pytest.raises(DomainError):
        cyl.stack(sigma_theta(1), TH)


def test_stack_source_target_restrictions_have_stacks():
    # the boundary restrictions of a stacked operation stack as well
    for A in all_trees(5):
        if dim(A) != 2 or A.n_leaves() > 4:
            continue
        for rho in homogeneous_ops(A, 2):
            for eps in (sigma_theta(1), tau_theta(1)):
                part = hg_factorize(compose(eps, rho)).homogeneous
                sub = cyl.stack(part, TH)
                meta = cyl.vcompose_meta(sub)
                assert meta["top"] == "C_t*rho(U)"
                assert meta["bottom"] == "rho(V)*C_s"


def test_rho_eps_is_the_homogeneous_op_into_the_boundary():
    cases = 0
    for A in all_trees(11):
        if not 1 <= dim(A) <= 2:
            continue
        built = render(homogeneous_op(1, boundary(A) if dim(A) == 2 else A))
        rho = homogeneous_op(2, A)
        for side in ("s", "t"):
            assert built == rho_eps_by_factorisation(rho, side)
            cases += 1
    assert cases == 2046


def test_stack_rho_star_records_match_factorisation():
    records = 0
    for A in all_trees(9):
        if dim(A) > 2:
            continue
        for k in (1, 2):
            rho = homogeneous_op(k, A)
            if rho is None:
                continue
            for sq in cyl.stack(rho, TH):
                for side, rec in (("s", sq.left), ("t", sq.right)):
                    if rec is None or rec.kind != "rho_star":
                        continue
                    assert rec.rho_eps == rho_eps_by_factorisation(rho, side)
                    assert rec.plus_tree == str(boundary_plus(A, sq.element.sector))
                    records += 1
    assert records == 2048


def test_vcompose_min_rule():
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    squares = cyl.stack(rho, TH)
    meta = cyl.vcompose_meta(squares)
    assert meta["p"] == 0 and meta["q"] == 0
    # a purely non-degenerate stack keeps the sentinel
    flat = cyl.stack(homogeneous_ops(parse_tree("[[][]]"), 2)[0], TH)
    m2 = cyl.vcompose_meta(flat)
    assert (m2["p"], m2["q"]) == (0, 0) or (m2["p"] is None) == all(
        sq.p is None for sq in flat
    )


def test_vcompose_epsilon_distribution():
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    squares = cyl.stack(rho, TH)
    meta = cyl.vcompose_meta(squares)
    assert meta["source_record"] == tuple(
        "degenerate" if sq.source_degenerate else "coh" if sq.left is None else sq.left.kind
        for sq in squares
    )
    assert len(meta["target_record"]) == len(squares)


def test_vcompose_rejects_shuffled():
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    squares = cyl.stack(rho, TH)
    with pytest.raises(DomainError):
        cyl.vcompose_meta([squares[0], squares[2]])
    # consecutive indices in the stacks of two trees
    other = cyl.stack(homogeneous_op(2, parse_tree("[[][[]]]")), TH)
    with pytest.raises(DomainError):
        cyl.vcompose_meta([squares[0], other[1]])


def test_vcompose_refuses_squares_of_two_k():
    # square 0 of the k = 1 stack and square 1 of the k = 2 stack on one tree
    # share their tree and follow in index, but only a k = 1 square has a
    # side with neither a record nor a degenerate flag
    A = parse_tree("[[][]]")
    one, two = (cyl.stack(homogeneous_op(k, A), TH) for k in (1, 2))
    for pair in ([one[0], two[1]], [two[0], one[1]]):
        with pytest.raises(DomainError, match="^stack is not composable between squares 0 and 1$"):
            cyl.vcompose_meta(pair)
    assert cyl.vcompose_meta(one[:2])["source_record"] == ("coh", "coh")
    assert cyl.vcompose_meta(two[:2])["source_record"] == ("coh", "rho_star")


def test_sections_of_a_chain_are_pairwise_distinct():
    # so two squares of one stack share a section exactly when they are
    # adjacent, which is what vcompose_meta reads
    chains = 0
    for A in all_trees(9):
        if dim(A) <= 2:
            chain = section_chain(A)
            assert len(set(chain)) == len(chain) == 2 * A.n_nodes(), A
            chains += 1
    assert chains == 256


def test_vcompose_accepts_the_pairs_whose_sections_meet():
    # the composability test that compared the bottom section of a square
    # with the top section of the next, rebuilt from the chain
    pairs = accepted = 0
    for A in all_trees(9):
        if dim(A) > 2:
            continue
        chain = section_chain(A)
        for k in (1, 2):
            rho = homogeneous_op(k, A)
            if rho is None:
                continue
            squares = cyl.stack(rho, TH)
            for a in squares:
                for b in squares:
                    meets = chain[a.index + 1] == chain[b.index]
                    try:
                        cyl.vcompose_meta([a, b])
                    except DomainError:
                        assert not meets, (k, A, a.index, b.index)
                    else:
                        assert meets, (k, A, a.index, b.index)
                        accepted += 1
                    pairs += 1
    assert (pairs, accepted) == (60609, 3658)


def test_stack_exports():
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    squares = cyl.stack(rho, TH)
    assert cyl.stack_to_dot(squares).startswith("digraph")
    assert cyl.stack_to_json(squares).startswith("[")


def test_boundary_plus_reattaches():
    ext = linearization(NINE_TREE)
    over_edge = next(e for e in ext if e.klass == "H2-OverEdge")
    plus = boundary_plus(NINE_TREE, over_edge.sector)
    assert str(plus) == "[[][[]]]"
    # a sector whose parent was deleted re-attaches to the survivor
    h3 = next(e for e in ext if e.klass == "H3")
    plus2 = boundary_plus(NINE_TREE, h3.sector)
    assert plus2.n_nodes() == boundary(NINE_TREE).n_nodes() + 1
    # gap clamping: the H2-Max sector points past the survivor's arity
    h2max = next(e for e in ext if e.klass == "H2-Max")
    plus3 = boundary_plus(NINE_TREE, h2max.sector)
    assert str(plus3) == "[[[]][]]"


# ---------------------------------------------------------------------------
# modifications

def test_modification_counts():
    P0, xi0 = cyl.modification_presentation(0, TH)
    assert P0.counts() == (2, 2, 1)
    P1, xi1 = cyl.modification_presentation(1, TH)
    assert P1.counts() == (4, 6, 4, 1)
    P2, xi2 = cyl.modification_presentation(2, TH)
    assert P2.counts()[0:2] == (4, 8)
    assert xi2["equations"]


def test_modification_k1_shape():
    P, xi = cyl.modification_presentation(1, TH)
    # two comparison 2-cells and a single 3-cell on top of the two cylinders
    assert {"Ts", "Tt"} <= set(P.order)
    filler = P.designated["filler"]
    assert filler.dim == 3
    assert filler.tgt.name == "FD"
    # identity-boundary reading: the source composite contains FC between
    # the two whiskered comparison cells
    assert any(part.name == "FC" for part in filler.src.args)


def verify_xi(k, P, xi):
    """The restriction maps must send cylinder generators to cells with the
    renamed boundaries."""
    cyl_k = cyl.cyl_presentation(k, TH)
    for key in ("Xi0", "Xi1"):
        mapping = xi[key]
        for name in cyl_k.order:
            gen = cyl_k.gens[name]
            img = P.gens[mapping[name]]
            if gen.dim != img.dim:
                raise TypingError(f"{key} changes dimension at {name}")
            if gen.dim > 0:
                if rename(gen.src, mapping) != img.src or rename(gen.tgt, mapping) != img.tgt:
                    raise TypingError(f"{key} breaks the boundary at {name}")


def test_modification_xi_restricts():
    for k in range(3):
        P, xi = cyl.modification_presentation(k, TH)
        verify_xi(k, P, xi)
        order = cyl.cyl_presentation(k, TH).order
        # the oracle refuses Xi1 with two images swapped: two points (a
        # broken boundary) or a point and the top filler (a changed dimension)
        for x, y in ((order[0], order[1]), (order[0], order[-1])):
            bad = {**xi, "Xi1": {**xi["Xi1"], x: xi["Xi1"][y], y: xi["Xi1"][x]}}
            with pytest.raises(TypingError, match="Xi1"):
                verify_xi(k, P, bad)
        globes = [n for n in order if n not in ("f", "g", "C") and not n.startswith("E")]
        for key in ("Xi0", "Xi1"):
            assert set(xi[key]) == set(order)
            assert len(set(xi[key].values())) == len(order)
        for n in order:
            assert (xi["Xi0"][n] == xi["Xi1"][n]) == (n in globes), (k, n)


# ---------------------------------------------------------------------------
# coherence boundaries: the boundary pairs of the coherence-cylinder extension
# problems, a golden generator (tests/golden/coherence_boundaries.txt)

def coherence_boundary(kind: str, indices, level: int, th: TheoryPresentation):
    """The two boundary components of a coherence-cylinder extension problem.

    ``kind`` selects the family and its core: the middle leaf m of psi's
    (m, k), or leaves q and q+1 of phi's and theta's (q, m, k), a glued block
    or its mirror, bundled by the suspended whiskering.  The components
    whisker the core by the edges, inner to outer: all left ones, then the
    right ones; or the nearest right one (psi) or all of them, then the rest.
    The extensions are opaque choices; only their boundary pair is built.
    """
    if kind not in ("psi", "phi", "theta"):
        raise DomainError(f"unknown coherence family {kind!r}")
    glued = kind != "psi"
    names = ("q", "m", "k") if glued else ("m", "k")
    if len(indices) != len(names):
        raise DomainError(f"{kind} takes the indices ({', '.join(names)}), got {tuple(indices)}")
    for name, i in zip(names + ("level",), (*indices, level)):
        least = 1 if glued and name in ("m", "level") else 0
        if i < least:
            raise DomainError(f"{kind} needs {name} >= {least}, got {i}")
    if glued:
        q, m, k = indices
        dim = level + m
    else:
        q, k = indices  # psi's (m, k): the core is leaf q = m
        dim = level + 1
    if dim > th.n:
        raise DomainError("component dimension exceeds the truncation")
    if glued:
        rows = (m + 1, dim) if kind == "phi" else (dim, m + 1)
        block = table_to_tree(DimensionTable(rows, (m,))).children[0]
    else:
        block = globe(level)
    M = Tree((LEAF,) * q + (block,) + (LEAF,) * k)

    def leaf(i):
        return glob_cell(leaf_inclusion(M, i))

    core = leaf(q)
    if glued:
        if dim == m + 1:
            sym = f"c{dim}"
        elif m == 1 and dim == 3 and "sw_l_3" in th.symbols:
            sym = "sw_l_3" if kind == "phi" else "sw_r_3"
        else:
            raise DomainError("suspended whiskering outside the shipped range")
        core = app_cell(sym, Term(th.symbol(sym).arity, M, (core, leaf(q + 1))))
    lefts = [(i, "l") for i in range(q - 1, -1, -1)]
    rights = [(i, "r") for i in range(q + 1 + glued, q + 1 + glued + k)]
    near = len(rights) if glued else 1
    terms = []
    for edges in (lefts + rights, rights[:near] + lefts + rights[near:]):
        cell = core
        for i, side in edges:
            cell = whisker(th, side, cell, leaf(i), M)
        terms.append(single(dim, M, cell))
    for t in terms:
        th.validate_term(t)
    return tuple(terms)


def test_psi_components_nested_shape():
    t1, t2 = coherence_boundary("psi", (2, 1), 1, TH)
    # first component: innermost bundle joins the middle to its nearest left
    # edge, then the remaining edges wrap outward
    c1 = t1.sole
    assert c1.op == "w_r_2"
    inner = c1.args.cells[0]
    assert inner.op == "w_l_2"
    bundle = inner.args.cells[1]
    assert bundle.op == "w_l_2"
    assert bundle.args.cells[1].is_glob  # the bare middle cell
    # second component bundles with the nearest right edge innermost, so the
    # outermost wraps are the two remaining left edges
    c2 = t2.sole
    assert c2.op == "w_l_2"
    assert c2.args.cells[1].op == "w_l_2"
    innermost = c2.args.cells[1].args.cells[1]
    assert innermost.op == "w_r_2"
    assert innermost.args.cells[0].is_glob
    assert t1 != t2
    assert TH.eval_term(t1) == TH.eval_term(t2)


def test_psi_degenerate():
    t1, t2 = coherence_boundary("psi", (0, 0), 1, TH)
    assert t1 == t2
    assert t1.sole.is_glob


def test_psi_one_sided():
    # with no edges on one side the two bracketings coincide
    t1, t2 = coherence_boundary("psi", (0, 2), 1, TH)
    assert t1 == t2
    assert TH.eval_term(t1) == TH.eval_term(t2)
    t1b, t2b = coherence_boundary("psi", (3, 0), 1, TH)
    assert t1b == t2b
    assert TH.eval_term(t1b) == TH.eval_term(t2b)


def test_phi_theta_components():
    for kind in ("phi", "theta"):
        t1, t2 = coherence_boundary(kind, (1, 1, 1), 1, TH)
        assert TH.eval_term(t1) == TH.eval_term(t2)
        t1b, t2b = coherence_boundary(kind, (1, 1, 0), 2, TH)
        assert TH.eval_term(t1b) == TH.eval_term(t2b)


def test_coherence_rejects_bad_input():
    th4 = groupoidalize(standard_library(4))
    for kind, indices, level, th, message in (
        ("psi", (1, 1), 3, TH, "exceeds the truncation"),
        ("nope", (1, 1), 1, TH, "unknown coherence family"),
        ("phi", (1, 0, 1), 1, TH, "m >= 1"),
        ("theta", (1, 1, 1), 3, TH, "exceeds the truncation"),
        ("phi", (1, 2, 1), 2, th4, "outside the shipped range"),
    ):
        with pytest.raises(DomainError, match=message):
            coherence_boundary(kind, indices, level, th)


@pytest.mark.parametrize(
    "kind, indices, level, message",
    [
        ("psi", (1, 1, 1), 1, r"psi takes the indices \(m, k\), got \(1, 1, 1\)"),
        ("phi", (1, 1), 1, r"phi takes the indices \(q, m, k\), got \(1, 1\)"),
        ("phi", (1, 1, 1), 0, "phi needs level >= 1, got 0"),
        ("theta", (1, 1, 1), 0, "theta needs level >= 1, got 0"),
        ("psi", (-1, 1), 1, "psi needs m >= 0, got -1"),
        ("phi", (-1, 1, 1), 1, "phi needs q >= 0, got -1"),
        ("theta", (1, -1, 1), 1, "theta needs m >= 1, got -1"),
        ("theta", (1, 1, -1), 1, "theta needs k >= 0, got -1"),
    ],
)
def test_coherence_names_the_bad_argument(kind, indices, level, message):
    # refused before any table or term is built, by the argument's name
    with pytest.raises(DomainError, match=message) as info:
        coherence_boundary(kind, indices, level, TH)
    assert type(info.value) is DomainError


def test_vcompose_single_square_is_itself():
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    sq = cyl.stack(rho, TH)[0]
    meta = cyl.vcompose_meta([sq])
    assert meta["top"] == sq.top and meta["bottom"] == sq.bottom
    assert meta["p"] == sq.p and meta["q"] == sq.q


def test_vcompose_slice_min_rule():
    # a contiguous slice mixing one-sided and two-sided degeneracies
    rho = homogeneous_ops(NINE_TREE, 2)[0]
    squares = cyl.stack(rho, TH)
    inner = squares[3:8]  # H2-Max .. H2-Min
    assert [sq.case for sq in inner] == ["H2-Max", "H3", "H2-Mid", "H3", "H2-Min"]
    meta = cyl.vcompose_meta(inner)
    assert (meta["p"], meta["q"]) == (0, 0)
    top_only = squares[3:4] + squares[4:5]
    meta2 = cyl.vcompose_meta(top_only)
    assert (meta2["p"], meta2["q"]) == (0, 0)
