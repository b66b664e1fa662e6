import itertools
import random
import re

import pytest

from globwork.errors import AdmissibilityError, DomainError, SizeGuardError, TypingError
from globwork import globsets as gs
from globwork import theory as T
from globwork.computads import Computad, fcomp, fop, funit, fvar, fwhisker, typecheck as ftypecheck
from globwork.theta import (
    ThetaMap,
    cell_inclusion,
    compose,
    face_theta,
    identity,
    leaf_inclusion,
    map_face,
    sigma_theta,
    tau_theta,
)
from globwork.trees import LEAF, Tree, all_trees, cells, globe, leaf_address, leaf_paths, parse_tree
from globwork.theory import (
    GROUPOIDAL,
    Term,
    TermCell,
    TheoryPresentation,
    app_cell,
    base_theory,
    generating_cofibrations,
    glob_cell,
    groupoidalize,
    interval_presentation,
    single,
    standard_library,
    standard_systems,
    whisker,
    zero_cell_pick,
)
from test_cylinders import coherence_boundary

TWO = Tree((LEAF, LEAF))


def nabla_batch():
    src = single(0, TWO, zero_cell_pick(TWO, 0))
    tgt = single(0, TWO, zero_cell_pick(TWO, 2))
    return {"name": "nabla", "arity": TWO, "k": 1, "src": src, "tgt": tgt}


def test_base_theory_empty():
    th = base_theory(3)
    assert th.symbols == {}
    assert th.stages == {}


def test_base_theory_needs_positive_truncation():
    with pytest.raises(DomainError):
        base_theory(0)


def test_extend_binary_composition():
    th = base_theory(3).extend([nabla_batch()])
    sym = th.symbol("nabla")
    assert sym.dim == 1 and not sym.is_equation
    # the chosen strict image is the two-edge composite cell
    assert sym.theta_image.phi == (0, 2)


def test_extend_codim_one_inverse_boundary_groupoidal():
    th = base_theory(3, GROUPOIDAL)
    th = th.extend(
        [
            {
                "name": "omega",
                "arity": globe(2),
                "k": 2,
                "src": single(1, globe(2), glob_cell(tau_theta(1))),
                "tgt": single(1, globe(2), glob_cell(sigma_theta(1))),
            }
        ]
    )
    assert th.symbol("omega").theta_image is None


def test_extend_rejects_high_dimensional_arity_groupoidal():
    th = base_theory(3, GROUPOIDAL)
    A = globe(3)
    s = single(1, A, glob_cell(compose(sigma_theta(1), compose(sigma_theta(2), identity(A)))))
    t = single(1, A, glob_cell(compose(sigma_theta(1), sigma_theta(2))))
    with pytest.raises(AdmissibilityError):
        th.extend([{"name": "bad", "arity": A, "k": 2, "src": s, "tgt": t}])


def test_extend_rejects_duplicate_names():
    th = base_theory(3).extend([nabla_batch()])
    with pytest.raises(DomainError):
        th.extend([nabla_batch()])


def test_extend_rejects_nonparallel():
    th = base_theory(3)
    # the f-edge against the degenerate cell on a: targets disagree
    degenerate_a = ThetaMap(globe(1), globe(2), (0, 0), ((),))
    with pytest.raises(TypingError):
        th.extend(
            [
                {
                    "name": "skew",
                    "arity": globe(2),
                    "k": 2,
                    "src": single(1, globe(2), glob_cell(sigma_theta(1))),
                    "tgt": single(1, globe(2), glob_cell(degenerate_a)),
                }
            ]
        )


def test_extend_generator_pair_gets_generator_filler():
    th = base_theory(3).extend(
        [
            {
                "name": "gen2",
                "arity": globe(2),
                "k": 2,
                "src": single(1, globe(2), glob_cell(sigma_theta(1))),
                "tgt": single(1, globe(2), glob_cell(tau_theta(1))),
            }
        ]
    )
    assert th.symbol("gen2").theta_image == identity(globe(2))


def x_item(end):
    """x : D_1 -> [[][]] from the 0-cell 0 to the 0-cell ``end``."""
    return {
        "name": "x",
        "arity": TWO,
        "k": 1,
        "src": single(0, TWO, zero_cell_pick(TWO, 0)),
        "tgt": single(0, TWO, zero_cell_pick(TWO, end)),
    }


def answers(th, op):
    """Boundaries and strict images of ``op`` over [[][]] and of its identity."""
    cell = app_cell(op, th.identity_term(TWO))
    out = []
    for c in (cell, app_cell("id1", single(1, TWO, cell))):
        term = Term(globe(th.cell_dim(c)), TWO, (c,))
        th.validate_term(term)
        out.append((th.cell_boundary(c, "s"), th.cell_boundary(c, "t"), th.eval_term(term)))
    return out


def test_extensions_of_one_parent_keep_their_caches_apart():
    # extend copies the parent's caches; each branch must still answer as
    # the same branch built from scratch, and the parent must not know x
    parent = standard_systems(base_theory(3))
    expected = answers(standard_systems(base_theory(3)), "c1")
    branches = {}

    def cache_sizes():
        return len(parent._boundary_cache), len(parent._eval_cache)

    for end in (2, 1):
        assert answers(parent, "c1") == expected  # warm caches to copy
        warm = cache_sizes()
        branches[end] = parent.extend([x_item(end)])
        answers(branches[end], "x")
        assert cache_sizes() == warm  # the branch filled its own copies only
    assert answers(branches[1], "x") != answers(branches[2], "x")
    for end, th in branches.items():
        assert answers(th, "x") == answers(standard_systems(base_theory(3)).extend([x_item(end)]), "x")

    def parent_knows_no_x(x, target):
        with pytest.raises(TypingError):
            parent.cell_boundary(x, "s")
        with pytest.raises(TypingError):
            parent.eval_term(single(1, target, x))

    parent_knows_no_x(app_cell("x", parent.identity_term(TWO)), TWO)
    # a batch that defines x and then fails on a pair through x: the two
    # 1-cells from 0 to 2 in [[][][]] do not factor through its boundary
    three = Tree((LEAF, LEAF, LEAF))
    first_two = Term(TWO, three, tuple(glob_cell(leaf_inclusion(three, j)) for j in (0, 1)))
    x, c = (app_cell(op, first_two) for op in ("x", "c1"))
    y = {"name": "y", "arity": three, "k": 2, "src": single(1, three, x), "tgt": single(1, three, c)}
    assert answers(parent, "c1") == expected
    with pytest.raises(AdmissibilityError):
        parent.extend([x_item(2), y])
    parent_knows_no_x(x, three)
    assert answers(parent, "c1") == expected


def test_systems_boundary_laws():
    th = standard_systems(base_theory(3))
    for k in range(1, 4):
        c = th.symbol(f"c{k}")
        assert c.src.sole.glob == compose(sigma_theta(k - 1), leaf_inclusion(c.arity, 0))
        assert c.tgt.sole.glob == compose(tau_theta(k - 1), leaf_inclusion(c.arity, 1))
    for k in range(0, 3):
        idk = th.symbol(f"id{k}")
        assert idk.src == idk.tgt
    # l_k . sigma = identity after src computation
    for k in range(2, 5):
        lk = th.symbol(f"l{k}")
        assert lk.src.sole.glob == identity(globe(k - 1))
        assert lk.is_equation == (k == 4)
        inst = app_cell(f"l{k}", th.identity_term(globe(k - 1))) if k <= 3 else None
        if inst is not None:
            assert th.cell_boundary(inst, "s") == glob_cell(identity(globe(k - 1)))
            tgt = th.cell_boundary(inst, "t")
            assert tgt.op == f"c{k - 1}"


def test_glob_boundary_refuses_a_map_not_out_of_a_globe():
    # compose(face_theta(k - 1, side), f) refuses such an f, and so does
    # the face cell_boundary builds in its place
    th = base_theory(3)
    for A in (TWO, parse_tree("[[[]][]]")):
        cell = glob_cell(identity(A))
        for side in "st":
            with pytest.raises(TypingError, match="composition mismatch"):
                th.cell_boundary(cell, side)


def test_systems_fillers_verified():
    th = standard_systems(base_theory(3))
    assert th.audit() == []


# ---------------------------------------------------------------------------
# the whiskering sum: a golden generator (tests/golden/whisker_sums.txt)

def whisker_sum(th: TheoryPresentation, A: Tree, side: str):
    """The componentwise whiskering of A by a new edge as a term:
    A -> A u_{D_0} D_1 for side "r", A -> D_1 u_{D_0} A for side "l".

    Only the block next to the new edge can absorb it: a whiskered block
    moves its far 0-boundary, so whiskering any other block would break
    the gluing at a 0-cell join.  On suspensions every cell is whiskered;
    in general the other blocks pass through untouched.
    """
    right = side == "r"
    if A == LEAF:
        return Term(LEAF, globe(1), (zero_cell_pick(globe(1), 0 if right else 1),))
    target = Tree(A.children + (LEAF,) if right else (LEAF,) + A.children)
    edge = glob_cell(leaf_inclusion(target, A.n_leaves() if right else 0))
    near_block = A.arity - 1 if right else 0
    cells = []
    for j, path in enumerate(leaf_paths(A)):
        cell = glob_cell(leaf_inclusion(target, j if right else j + 1))
        cells.append(whisker(th, side, cell, edge, target) if path[0] == near_block else cell)
    return Term(A, target, tuple(cells))


def test_whisker_sum_nine_tree():
    th = standard_systems(base_theory(3))
    A = parse_tree("[[[][]][]]")
    w = whisker_sum(th, A, "r")
    assert len(w.cells) == 3
    assert w.target == Tree(A.children + (LEAF,))
    th.validate_term(w)
    # the trailing block absorbs the edge, earlier blocks pass through
    assert w.cells[0].is_glob and w.cells[1].is_glob
    assert w.cells[2].op == "c1"
    wl = whisker_sum(th, A, "l")
    assert wl.target == Tree((LEAF,) + A.children)
    th.validate_term(wl)
    assert wl.cells[0].op == "w_l_2" and wl.cells[2].is_glob


def test_whisker_sum_suspension_whiskers_everything():
    th = standard_systems(base_theory(3))
    B = Tree((Tree((LEAF, LEAF)),))  # a suspension: two vertical 2-cells
    w = whisker_sum(th, B, "r")
    th.validate_term(w)
    assert all(not c.is_glob for c in w.cells)


def test_whisker_sum_point():
    th = standard_systems(base_theory(3))
    w = whisker_sum(th, LEAF, "r")
    assert w.target == globe(1)
    th.validate_term(w)


def test_library_builds_and_audits():
    th = standard_library(3)
    assert th.audit() == []
    for name in ("assoc", "interchange", "pentagon", "triangle"):
        assert name in th.symbols
    # associativity boundary matches the two bracketed composites
    assoc = th.symbol("assoc")
    assert assoc.src.sole.op == "c1"
    assert assoc.theta_image is not None


def test_library_rebuild_is_bit_identical():
    a = standard_library(3)
    b = standard_library(3)
    assert a.symbols == b.symbols
    assert a.stages == b.stages


def test_groupoidalize_counts():
    th = groupoidalize(standard_library(3))
    inv = [s for s in th.symbols.values() if s.name.startswith("inv_")]
    kappa = [s for s in th.symbols.values() if s.name.startswith("k_")]
    assert len(inv) == 6 and all(not s.is_equation for s in inv)
    assert len(kappa) == 6
    assert sum(1 for s in kappa if s.is_equation) == 2
    assert th.kind == GROUPOIDAL


def test_groupoidalize_kappa_laws():
    th = groupoidalize(standard_library(3))
    for k in (2, 3):
        kl = app_cell(f"k_l_{k}", th.identity_term(globe(k - 1)))
        src = th.cell_boundary(kl, "s")
        assert src.op == f"id{k - 2}"
        assert src.args.sole.glob == sigma_theta(k - 2)
        tgt = th.cell_boundary(kl, "t")
        assert tgt.op == f"c{k - 1}"
        kr = app_cell(f"k_r_{k}", th.identity_term(globe(k - 1)))
        assert th.cell_boundary(kr, "s").args.sole.glob == tau_theta(k - 2)


def test_groupoidalize_idempotent():
    th = groupoidalize(standard_library(3))
    again = groupoidalize(th)
    assert again.symbols == th.symbols


def test_groupoidalize_audit_clean():
    th = groupoidalize(standard_library(3))
    assert th.audit() == []


def test_tower_stages_respect_dimension():
    th = groupoidalize(standard_library(3))
    for k, syms in th.stages.items():
        for s in syms:
            assert s.dim == k


@pytest.mark.parametrize("build", [standard_systems, groupoidalize])
def test_builders_leave_their_argument_unchanged(build):
    th = standard_systems(base_theory(3)) if build is groupoidalize else base_theory(3)
    before = (dict(th.symbols), {k: list(v) for k, v in th.stages.items()}, th.kind)
    out = build(th)
    assert (th.symbols, th.stages, th.kind) == before
    assert len(out.symbols) > len(th.symbols)


@pytest.mark.parametrize(
    "call",
    [
        lambda: interval_presentation(base_theory(3)),
        lambda: division_term(1, standard_library(3)),
        lambda: promote_inverse_term(standard_library(3)),
        lambda: coherence_boundary("psi", (1, 1), 1, base_theory(3)),
        lambda: whisker_sum(base_theory(3), globe(1), "r"),
    ],
    ids=["interval", "division", "promotion", "coherence", "whisker_sum"],
)
def test_missing_system_is_a_typing_error(call):
    with pytest.raises(TypingError, match="unknown operation symbol"):
        call()


_GLOB_POOL = {}


def glob_pool(B, k):
    from globwork.globsets import realize

    key = (B, k)
    if key not in _GLOB_POOL:
        X = realize(B)
        cells = X.cells[k] if k <= X.n else ()
        _GLOB_POOL[key] = [glob_cell(cell_inclusion(B, c)) for c in cells]
    return _GLOB_POOL[key]


def random_cell_term(rng, th, k, B, depth=1):
    """A globular k-cell of B or, while depth lasts, a symbol with a strict
    image applied to random arguments.  The pick comes first and only the
    picked symbol's arguments are built; a symbol whose arguments cannot
    be built leaves the draw."""
    choices = list(glob_pool(B, k))
    if depth > 0:
        choices += [s for s in th.operations() if s.dim == k and s.theta_image is not None]
    while choices:
        pick = choices.pop(rng.randrange(len(choices)))
        if isinstance(pick, TermCell):
            return pick
        args = random_term(rng, th, pick.arity, B, depth - 1)
        if args is not None:
            return app_cell(pick.name, args)
    return None


def random_term(rng, th, A, B, depth=1, tries=12):
    paths = leaf_paths(A)
    for _ in range(tries):
        cells = []
        ok = True
        for i, p in enumerate(paths):
            k = len(p)
            cands = [random_cell_term(rng, th, k, B, depth) for _ in range(6)]
            cands = [c for c in cands if c is not None]
            if i > 0:
                join = 0
                q = paths[i - 1]
                while join < len(p) and join < len(q) and p[join] == q[join]:
                    join += 1
                prev = th.iterated_boundary_cell(cells[-1], len(q) - join, "t")
                cands = [
                    c
                    for c in cands
                    if th.iterated_boundary_cell(c, k - join, "s") == prev
                ]
            if not cands:
                ok = False
                break
            cells.append(rng.choice(cands))
        if ok:
            t = Term(A, B, tuple(cells))
            th.validate_term(t)
            return t
    return None


def test_eval_theta_functorial_random():
    th = standard_library(3)
    rng = random.Random(2024)
    trees = [globe(1), globe(2), TWO, Tree((globe(1), LEAF)), parse_tree("[[[][]][]]")]
    done = 0
    while done < 200:
        A = rng.choice([globe(1), globe(2), TWO])
        B = rng.choice(trees)
        C = rng.choice(trees)
        t = random_term(rng, th, A, B)
        u = random_term(rng, th, B, C)
        if t is None or u is None:
            continue
        tu = th.substitute(t, u)
        th.validate_term(tu)
        assert th.eval_term(tu) == compose(th.eval_term(t), th.eval_term(u))
        done += 1
    # identity preservation
    for A in trees:
        assert th.eval_term(th.identity_term(A)) == identity(A)


def test_generating_cofibrations_counts():
    I3, J3 = generating_cofibrations(3)
    assert len(I3) == 5
    assert len(J3) == 3
    assert I3[0].dom is gs.EMPTY
    collapse = I3[-1]
    tops = {collapse.maps[3][c] for c in collapse.dom.cells[3]}
    assert tops == set(gs.globe_set(3).cells[3])


def test_truncation_bound():
    # refused before any work, however large the truncation
    for n in (T.MAX_TRUNCATION + 1, 10**30):
        with pytest.raises(SizeGuardError):
            base_theory(n)
        with pytest.raises(SizeGuardError):
            generating_cofibrations(n)
    assert base_theory(T.MAX_TRUNCATION).n == T.MAX_TRUNCATION


# ---------------------------------------------------------------------------
# division and promotion schemas: golden generators
# (tests/golden/schema_terms.txt)

def division_term(n: int, th: TheoryPresentation):
    """The correction composite dividing a whiskered cell by the 1-cell.

    Returns the formal composite (a list of factors plus the assembled
    cell); the outer factors are opaque coherence constraints.
    """
    if n not in (1, 2):
        raise DomainError("division schema implemented for n = 1, 2")
    a = fvar("a", 0)
    b = fvar("b", 0)
    c = fvar("c", 0)
    f = fvar("f", 1, b, c)
    f_inv = fop(th.symbol("inv_l_1").name, (f,), 1, c, b)

    def blown(X):
        # X f f^-1, collared back to X's boundary by the coh cells of its
        # faces (none at dimension 1)
        w = fwhisker(fwhisker(X, f, "r"), f_inv, "r")
        return w if X.dim == 1 else fcomp([coh(X.src, True), w, coh(X.tgt, False)])

    def coh(X, into):
        ends = (X, blown(X)) if into else (blown(X), X)
        return fop("coh", (X,), X.dim + 1, *ends)

    s, t = (a, b) if n == 1 else (fvar("sA", 1, a, b), fvar("tA", 1, a, b))
    A = fvar("A", n, s, t)
    B = fvar("B", n, s, t)
    H = fvar("H", n + 1, fwhisker(A, f, "r"), fwhisker(B, f, "r"))
    mid = fwhisker(H, f_inv, "r")
    if n == 2:
        mid = fop("whisker", (coh(s, True), mid, coh(t, False)), 3, blown(A), blown(B))
    factors = [coh(A, True), mid, coh(B, False)]
    return factors, fcomp(factors)


def promote_inverse_term(th: TheoryPresentation):
    """From a left and a right inverse to a comparison cell between them.

    The two factors: whisker the right-inverse witness by the left inverse,
    then whisker the inverted left-inverse witness by the right inverse.
    Unit cells are absorbed by composite normalization.
    """
    x = fvar("x", 0)
    y = fvar("y", 0)
    f = fvar("f", 1, x, y)
    k = fop(th.symbol("inv_l_1").name, (f,), 1, y, x)
    g = fop(th.symbol("inv_r_1").name, (f,), 1, y, x)
    # kappa^r f : 1_y => (g then f);  kappa^l f : 1_x => (f then k)
    kappa_r = fop(th.symbol("k_r_2").name, (f,), 2, funit(y), fcomp([g, f]))
    kappa_l = fop(th.symbol("k_l_2").name, (f,), 2, funit(x), fcomp([f, k]))
    inv_kappa_l = fop(th.symbol("inv_r_2").name, (kappa_l,), 2, fcomp([f, k]), funit(x))
    first = fwhisker(kappa_r, k, "r")  # k => k f g (units absorbed)
    second = fwhisker(inv_kappa_l, g, "l")  # k f g => g
    factors = [first, second]
    return factors, fcomp(factors)


def test_division_term_shapes():
    # the schemas have finitely many outputs, so their typecheck runs here
    th = groupoidalize(standard_library(3))
    factors, out = division_term(1, th)
    assert len(factors) == 3
    assert factors[0].name == "coh" and factors[2].name == "coh"
    factors2, out2 = division_term(2, th)
    assert len(factors2) == 3
    for cell in factors + [out] + factors2 + [out2]:
        ftypecheck(cell)
    with pytest.raises(DomainError):
        division_term(3, th)


def test_promote_inverse_term_shape():
    th = groupoidalize(standard_library(3))
    factors, out = promote_inverse_term(th)
    assert len(factors) == 2
    assert factors[0].name == "wr"
    for cell in factors + [out]:
        ftypecheck(cell)
    # a comparison from the left inverse k to the right inverse g of f
    x, y = fvar("x", 0), fvar("y", 0)
    f = fvar("f", 1, x, y)
    assert out.src == fop("inv_l_1", (f,), 1, y, x)
    assert out.tgt == fop("inv_r_1", (f,), 1, y, x)


def test_audit_reports_each_broken_symbol():
    # symbols put in by hand, past _adjoin's checks
    A = parse_tree("[[][]]")
    edge = single(1, A, glob_cell(leaf_inclusion(A, 0)))
    ghost = app_cell("nope", T.Term(A, A, tuple(glob_cell(leaf_inclusion(A, i)) for i in range(2))))
    c1, c2 = (standard_library(2).symbol(name) for name in ("c1", "c2"))
    for sym, problems in (
        (T.OperationSymbol("bad", c1.arity, c1.dim, c1.tgt, c1.src, c1.theta_image, c1.is_equation),
         [("bad", "image source mismatch"), ("bad", "image target mismatch")]),
        # an image out of D_2 for a 1-cell: its faces cannot be taken at all
        (T.OperationSymbol("wrong", c1.arity, 1, c1.src, c1.tgt, c2.theta_image, False),
         [("wrong", "composition mismatch")]),
        (T.OperationSymbol("twice", A, 2, edge, edge, None), [("twice", "inadmissible")]),
        (T.OperationSymbol("ghost", A, 2, single(1, A, ghost), edge, None),
         [("ghost", "unknown operation symbol 'nope'")]),
    ):
        th = standard_library(2)
        th.stages[sym.dim].append(sym)
        th.symbols[sym.name] = sym
        assert th.audit() == problems


def test_audit_types_an_image_before_evaluating_its_faces():
    # k_l_2's target uses inv_l_1, which has no strict image; in a groupoidal
    # tower nothing evaluates it before the image's faces are read
    th = groupoidalize(standard_library(2))
    k2, c1 = th.symbol("k_l_2"), th.symbol("c1")
    for name, dim, image, problems in (
        ("late", k2.dim, c1.theta_image, [("late", "composition mismatch")]),
        ("flat", 0, c1.theta_image, [("flat", "inadmissible"), ("flat", "globe dimension must be >= 0, got -1")]),
        ("lazy", k2.dim, th.symbol("c2").theta_image, [("lazy", "symbol 'inv_l_1' has no strict image")]),
    ):
        broken = th.copy()
        broken.stages.setdefault(dim, []).append(T.OperationSymbol(name, k2.arity, dim, k2.tgt, k2.tgt, image, False))
        broken.symbols[name] = broken.stages[dim][-1]
        assert broken.audit() == problems


def test_interval_presentation():
    th = standard_library(3)
    P = interval_presentation(th)
    assert P.counts() == (2, 3, 2)
    assert P.designated["alpha_1"].name == "f"
    P.typecheck()


def test_add_checks_a_boundary_that_only_reuses_a_generator_name():
    # add stops its walk at a generator of the computad, found by identity:
    # an ill-typed cell under a generator's name is still walked, and fails
    P = Computad("P")
    a = P.add("a", 0)
    b = P.add("b", 0)
    P.add("f", 1, a, b)
    forged = fvar("f", 1)  # named like f, with no boundary
    with pytest.raises(TypingError):
        P.add("alpha", 2, forged, forged)
    assert "alpha" not in P.gens


def test_codim_one_inverse_stored_boundary():
    th = base_theory(3, GROUPOIDAL).extend(
        [
            {
                "name": "omega",
                "arity": globe(2),
                "k": 2,
                "src": single(1, globe(2), glob_cell(tau_theta(1))),
                "tgt": single(1, globe(2), glob_cell(sigma_theta(1))),
            }
        ]
    )
    inst = app_cell("omega", th.identity_term(globe(2)))
    assert th.cell_boundary(inst, "s") == glob_cell(tau_theta(1))
    assert th.cell_boundary(inst, "t") == glob_cell(sigma_theta(1))


def inclusion_by_descent(t, cell):
    """The globular map onto a cell, descending one node at a time: a
    leaf's cell is its inclusion, any other gap the source face of the
    child to its right, or the target face of the last child."""
    path, gap = cell
    node = t.subtree(path)
    if node.is_leaf:
        return leaf_inclusion(t, leaf_paths(t).index(path))
    last = gap == node.arity
    deeper = inclusion_by_descent(t, (path + (node.arity - 1 if last else gap,), 0))
    return compose(face_theta(len(path), "t" if last else "s"), deeper)


def globe_into(node, rest):
    """The inclusion of the globe of the leaf at path ``rest`` below
    ``node``, one node at a time."""
    if not rest:
        return ThetaMap(LEAF, LEAF, (0,), ())
    i = rest[0]
    return ThetaMap(globe(len(rest)), node, (i, i + 1), ((globe_into(node.children[i], rest[1:]),),))


def address_inclusion(t, leaf, chain):
    """The cell addressed by (leaf, chain), the oracle of cell_inclusion:
    the leaf's globe inclusion, then ``map_face`` along the chain from the
    top dimension down."""
    f = globe_into(t, leaf_paths(t)[leaf])
    for side in chain:
        f = map_face(f, side)
    return f


def test_cells_by_leaf_address_match_the_descent():
    # the identity term's entry over each cell, and the cell's inclusion,
    # against the descent and against the leaf address route
    th = base_theory(3)
    seen = 0
    for B in all_trees(8):
        ident = th.identity_term(B)
        for c in cells(B):
            expected = glob_cell(inclusion_by_descent(B, c))
            assert glob_cell(cell_inclusion(B, c)) == expected
            assert cell_inclusion(B, c) == address_inclusion(B, *leaf_address(B, c))
            assert th.term_cell_at(ident, c) == expected
            seen += 1
    assert seen == 8788


BAD_CELL_REFS = [
    {"leaf": -1, "chain": "s"},
    {"leaf": 2},
    {"leaf": 9},
    {"leaf": True},
    {"leaf": 0.0},
    {"leaf": "0"},
    {"leaf": 0, "chain": "x"},
    {"leaf": 0, "chain": ["s"]},
    {"leaf": 0, "chain": None},
    {"leaf": 0, "chain": "sss"},
    {"leaf": 1, "chain": "st"},
]


@pytest.mark.parametrize("ref", BAD_CELL_REFS, ids=str)
def test_cell_from_json_rejects_bad_references(ref):
    # [[[]][]]: leaf 0 is a 2-globe, leaf 1 an edge
    with pytest.raises(DomainError, match="^cell " + re.escape(str(ref))):
        T.cell_from_json(base_theory(3), parse_tree("[[[]][]]"), ref)


def test_cell_from_json_accepts_every_address():
    B = parse_tree("[[[]][]]")
    for leaf, path in enumerate(leaf_paths(B)):
        for h in range(len(path) + 1):
            for chain in map("".join, itertools.product("st", repeat=h)):
                cell = T.cell_from_json(base_theory(3), B, {"leaf": leaf, "chain": chain})
                assert cell.glob == address_inclusion(B, leaf, chain)
