"""Presented globular theories: towers of operations over the globular site.

A presentation is a tower of freely added operation symbols, each with a
boundary pair of terms and (when one exists) a chosen cell of the strict
operation category as its image.  Terms are normal forms: tuples with one
entry per globe of the source decomposition, each entry either a globular
map or an opaque symbol applied to a term.

Every operation enters a tower through one checked step,
``TheoryPresentation._adjoin``.  The systems are the symbols of their names:
compositions ``c{k}``, identities ``id{k}``, whiskerings ``w_{l,r}_{k}`` and
``sw_{l,r}_3``, unit cells ``l{k}`` and ``r{k}``, and in a groupoidal tower
the inverses ``inv_{l,r}_{k}`` and their witnesses ``k_{l,r}_{k}``.  The
compositions ``c1`` and ``c2`` sit at the bottom of the whiskering family and
of the suspended whiskering family.
"""

from __future__ import annotations

from collections import namedtuple
from .errors import AdmissibilityError, DomainError, SizeGuardError, TypingError, json_field
from .trees import (
    LEAF, Hashed, Tree, dim as tree_dim, face, globe, leaf_address, leaf_paths, parse_tree, suspend, tree_to_table,
)
from . import globsets as gs
from . import theta as th_ops
from .computads import Computad, fop, funit
from .theta import (
    ThetaMap,
    assemble,
    cell_inclusion,
    compose,
    face_reader,
    face_theta,
    filler,
    identity,
    is_admissible_categorical,
    leaf_inclusion,
    map_face,
    sigma_theta,
    tau_theta,
)

CATEGORICAL = "categorical"
GROUPOIDAL = "groupoidal"


class TermCell(Hashed):
    """A single morphism D_k -> B: a globular map or an applied symbol."""

    __slots__ = ("glob", "op", "args", "_h")
    _fields = __slots__[:3]
    _table: dict = {}

    def __new__(cls, glob: ThetaMap | None = None, op: str | None = None, args: "Term | None" = None):
        key = (glob, op, args)
        c = cls._table.get(key)
        return cls._intern(key) if c is None else c

    def _check(self):
        if (self.glob is None) == (self.op is None):
            raise TypingError("a term cell is either globular or a symbol application")

    @property
    def is_glob(self):
        return self.glob is not None

    def __str__(self):
        if self.is_glob:
            return f"<{th_ops.render(self.glob)}>"
        return f"{self.op}({self.args})"


class Term(Hashed):
    """A morphism source -> target: one cell per leaf of the source."""

    __slots__ = ("source", "target", "cells", "_h")
    _fields = __slots__[:3]
    _table: dict = {}

    def __new__(cls, source: Tree, target: Tree, cells: tuple[TermCell, ...]):
        key = (source, target, cells)
        t = cls._table.get(key)
        return cls._intern(key) if t is None else t

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.cells) + ")"

    @property
    def sole(self) -> TermCell:
        if len(self.cells) != 1:
            raise TypingError("term has more than one entry")
        return self.cells[0]


def glob_cell(g: ThetaMap) -> TermCell:
    return TermCell(glob=g)


def app_cell(op: str, args: Term) -> TermCell:
    return TermCell(op=op, args=args)


def single(source_dim: int, target: Tree, cell: TermCell) -> Term:
    return Term(globe(source_dim), target, (cell,))


class OperationSymbol(
    namedtuple("OperationSymbol", "name arity dim src tgt theta_image is_equation", defaults=(False,))
):
    __slots__ = ()


# The largest truncation built.  The work grows with n: the slowest tower
# command, ``theory audit --groupoidalize``, run in a fresh process on a
# 2-core Xeon VM, takes 0.26-0.45 s and 23-24 MB of peak RSS at n = 32,
# and 1.0-1.6 s and 55 MB at n = 64 (with the bound raised).  Building the
# tower is most of that: in process the n = 32 tower takes 0.16-0.26 s to
# build and 7-13 ms to audit.
MAX_TRUNCATION = 32


def _guard_truncation(n: int):
    if n > MAX_TRUNCATION:
        raise SizeGuardError(f"truncation {n} is above the bound {MAX_TRUNCATION}")


class TheoryPresentation:
    """A tower of operation batches over the n-truncated globular site."""

    def __init__(self, n: int, kind: str):
        if n < 1:
            raise DomainError("truncation must be at least 1")
        _guard_truncation(n)
        if kind not in (CATEGORICAL, GROUPOIDAL):
            raise DomainError(f"unknown theory kind {kind!r}")
        self.n = n
        self.kind = kind
        self.stages: dict[int, list[OperationSymbol]] = {}
        self.symbols: dict[str, OperationSymbol] = {}
        self._boundary_cache: dict = {}
        self._eval_cache: dict[Term, ThetaMap] = {}

    # -- basic views --------------------------------------------------------

    def copy(self) -> "TheoryPresentation":
        """The same symbols in a new presentation, with its own copies of
        the caches.

        A copy only ever gains symbols and ``_adjoin`` refuses a name twice,
        so every entry of the original stays true of the copy.  Each side
        adds entries only to its own dicts, so two copies may define one new
        name differently and the original learns neither.
        """
        out = TheoryPresentation(self.n, self.kind)
        out.stages = {k: list(v) for k, v in self.stages.items()}
        out.symbols = dict(self.symbols)
        out._boundary_cache = dict(self._boundary_cache)
        out._eval_cache = dict(self._eval_cache)
        return out

    def symbol(self, name: str) -> OperationSymbol:
        if name not in self.symbols:
            raise TypingError(f"unknown operation symbol {name!r}")
        return self.symbols[name]

    def operations(self):
        return [s for syms in self.stages.values() for s in syms if not s.is_equation]

    # -- term calculus ------------------------------------------------------

    def cell_dim(self, cell: TermCell) -> int:
        if cell.is_glob:
            return tree_dim(cell.glob.source)
        return self.symbol(cell.op).dim

    def validate_term(self, t: Term):
        tbl = tree_to_table(t.source)
        heights = tbl.tops
        if len(t.cells) != len(heights):
            raise TypingError("term needs one entry per source leaf")
        for cell, h in zip(t.cells, heights):
            if cell.is_glob:
                if not th_ops.is_globular(cell.glob):
                    raise TypingError("globular entries must be globular maps")
                k, target = tree_dim(cell.glob.source), cell.glob.target
            else:
                sym = self.symbol(cell.op)
                if cell.args.source != sym.arity:
                    raise TypingError(f"arguments of {cell.op} must be shaped {sym.arity}")
                self.validate_term(cell.args)
                k, target = sym.dim, cell.args.target
            if k != h:
                raise TypingError("entry dimension does not match its leaf")
            if target != t.target:
                raise TypingError("entry lands in the wrong target")
        # matched boundaries: consecutive leaves agree at the junction height
        for i, join in enumerate(tbl.joins):
            left = self.iterated_boundary_cell(t.cells[i], heights[i] - join, "t")
            right = self.iterated_boundary_cell(t.cells[i + 1], heights[i + 1] - join, "s")
            if left != right:
                raise TypingError(
                    f"leaves {i} and {i + 1} do not share their dim-{join} boundary"
                )

    def cell_boundary(self, cell: TermCell, side: str) -> TermCell:
        """The source (side "s") or target (side "t") of a cell."""
        key = (side, cell)
        hit = self._boundary_cache.get(key)
        if hit is not None:
            return hit
        k = self.cell_dim(cell)
        if k == 0:
            raise TypingError(f"0-cells have no {'source' if side == 's' else 'target'}")
        if cell.is_glob:
            out = glob_cell(map_face(cell.glob, side))
        else:
            sym = self.symbol(cell.op)
            out = self.substitute(sym.src if side == "s" else sym.tgt, cell.args).sole
        self._boundary_cache[key] = out
        return out

    def iterated_boundary_cell(self, cell: TermCell, steps: int, which: str) -> TermCell:
        for _ in range(steps):
            cell = self.cell_boundary(cell, which)
        return cell

    def parallel(self, a: TermCell, b: TermCell) -> bool:
        return all(self.cell_boundary(a, side) == self.cell_boundary(b, side) for side in "st")

    def term_cell_at(self, t: Term, cell_id) -> TermCell:
        """The entry of t over a cell of its source scheme: the boundary of
        the entry over the cell's leaf along the cell's leaf address."""
        leaf, chain = leaf_address(t.source, cell_id)
        cell = t.cells[leaf]
        for side in chain:
            cell = self.cell_boundary(cell, side)
        return cell

    def substitute_cell(self, cell: TermCell, u: Term) -> TermCell:
        """Compose a cell D_k -> B with a term u : B -> C."""
        if cell.is_glob:
            return self.term_cell_at(u, th_ops.glob_top_image(cell.glob))
        return app_cell(cell.op, self.substitute(cell.args, u))

    def substitute(self, t: Term, u: Term) -> Term:
        """Composite term t ; u for t : A -> B and u : B -> C."""
        if t.target != u.source:
            raise TypingError("substitution mismatch")
        return Term(t.source, u.target, tuple(self.substitute_cell(c, u) for c in t.cells))

    def identity_term(self, A: Tree) -> Term:
        return Term(A, A, tuple(glob_cell(leaf_inclusion(A, i)) for i in range(A.n_leaves())))

    # -- evaluation to the strict operation category ------------------------

    def eval_cell(self, cell: TermCell) -> ThetaMap:
        if cell.is_glob:
            return cell.glob
        sym = self.symbol(cell.op)
        if sym.theta_image is None:
            raise DomainError(f"symbol {sym.name!r} has no strict image")
        return compose(sym.theta_image, self.eval_term(cell.args))

    def eval_term(self, t: Term) -> ThetaMap:
        """The strict image of t, memoised in the presentation."""
        hit = self._eval_cache.get(t)
        if hit is None:
            hit = assemble(t.source, t.target, [self.eval_cell(c) for c in t.cells])
            self._eval_cache[t] = hit
        return hit

    # -- the tower ----------------------------------------------------------

    def admissible(self, k: int, src: Term, tgt: Term) -> bool:
        """Admissibility of the evaluated boundary pair, per the theory kind."""
        if self.kind == GROUPOIDAL:
            if k - 1 == 0:
                return tree_dim(src.target) <= k
            return self.parallel(src.sole, tgt.sole) and tree_dim(src.target) <= k
        f, g = self.eval_term(src), self.eval_term(tgt)
        return is_admissible_categorical(f, g)

    def _adjoin(self, name: str, arity: Tree, k: int, src: Term, tgt: Term):
        """Add the operation ``name`` : D_k -> arity with boundary pair
        (src, tgt) to this tower in place; a failed check adds nothing."""
        if name in self.symbols:
            raise DomainError(f"duplicate symbol {name!r}")
        if k < 1 or k > self.n + 1:
            raise DomainError(f"operation dimension {k} out of range")
        if tree_dim(arity) > self.n:
            raise DomainError("arity exceeds the truncation")
        for side in (src, tgt):
            if side.source != globe(k - 1) or side.target != arity:
                raise TypingError(f"boundary of {name!r} must be D_{k-1} -> arity")
            self.validate_term(side)
        if k >= 2 and not self.parallel(src.sole, tgt.sole):
            raise TypingError(f"boundary pair of {name!r} is not parallel")
        if not self.admissible(k, src, tgt):
            raise AdmissibilityError(
                f"pair for {name!r} fails the {self.kind} admissibility predicate"
            )
        image = None
        is_eq = k == self.n + 1
        if not is_eq:
            # a categorical admissibility test has evaluated both sides
            # already; eval_term keeps them
            try:
                pair = self.eval_term(src), self.eval_term(tgt)
            except DomainError:  # a side uses a symbol without strict image
                pass
            else:
                image = filler(*pair)
            if image is None and self.kind == CATEGORICAL:
                raise AdmissibilityError(f"no strict filler for categorical pair {name!r}")
        sym = OperationSymbol(name, arity, k, src, tgt, image, is_eq)
        self.stages.setdefault(k, []).append(sym)
        self.symbols[name] = sym

    def extend(self, batch) -> "TheoryPresentation":
        """A copy with freely added operations appended; each item is a dict
        with keys name, arity, k, src, tgt."""
        out = self.copy()
        for item in batch:
            out._adjoin(**item)
        return out

    def audit(self):
        """Re-check every stage: admissibility, parallelism, filler validity."""
        problems = []
        for k in sorted(self.stages):
            for sym in self.stages[k]:
                try:
                    self.validate_term(sym.src)
                    self.validate_term(sym.tgt)
                    if not self.admissible(sym.dim, sym.src, sym.tgt):
                        problems.append((sym.name, "inadmissible"))
                    if sym.theta_image is not None:
                        is_face = face_reader(sym.theta_image, sym.dim)
                        sides = (("s", sym.src, "source"), ("t", sym.tgt, "target"))
                        for side, term, what in sides:
                            if not is_face(self.eval_term(term), side):
                                problems.append((sym.name, f"image {what} mismatch"))
                except (TypingError, DomainError) as e:
                    problems.append((sym.name, str(e)))
        return problems


def base_theory(n: int, kind: str = CATEGORICAL) -> TheoryPresentation:
    """The empty tower: morphisms are exactly the globular ones."""
    return TheoryPresentation(n, kind)


# ---------------------------------------------------------------------------
# canonical arity trees

def comp_arity(k: int) -> Tree:
    """The gluing D_k u_{D_{k-1}} D_k."""
    t = Tree((LEAF, LEAF))
    for _ in range(k - 1):
        t = suspend(t)
    return t


def whisker_arity(k: int, side: str) -> Tree:
    """D_1 u_{D_0} D_k for side "l", D_k u_{D_0} D_1 for side "r"."""
    return Tree((LEAF, globe(k - 1)) if side == "l" else (globe(k - 1), LEAF))


def zero_cell_pick(A: Tree, a: int) -> TermCell:
    return glob_cell(ThetaMap(LEAF, A, (a,), ()))


def whisker(th: TheoryPresentation, side: str, cell: TermCell, edge: TermCell, target: Tree,
            wk: str | None = None) -> TermCell:
    """``cell`` whiskered by the 1-cell ``edge`` on its left ("l") or right
    ("r") side, through ``wk``: by default w_{side}_k for a k-cell, and the
    composition c1, the bottom of that family, for a 1-cell.  The suspended
    family sw_{side}_3 passes its own bottom, c2."""
    if wk is None:
        k = th.cell_dim(cell)
        wk = "c1" if k == 1 else f"w_{side}_{k}"
    entries = (edge, cell) if side == "l" else (cell, edge)
    return app_cell(wk, Term(th.symbol(wk).arity, target, entries))


def _vcomp(k: int, x: TermCell, y: TermCell, target: Tree) -> TermCell:
    """x then y along their shared (k-1)-boundary, via c_k."""
    return app_cell(f"c{k}", Term(comp_arity(k), target, (x, y)))


def _face_unit(A: Tree, side: str) -> TermCell:
    """The identity id_{k-1} on the source ("s") or target ("t") of the globe A = D_k."""
    k = tree_dim(A)
    return app_cell(f"id{k - 1}", single(k - 1, A, glob_cell(face_theta(k - 1, side))))


# ---------------------------------------------------------------------------
# the standard systems

def standard_systems(th: TheoryPresentation) -> TheoryPresentation:
    """A copy of th with the systems adjoined: compositions c_k, identities
    id_k, the whiskering families and the unit cells l_k, r_k, each the
    symbol of that name; top-dimensional members become equations."""
    n = th.n
    out = th.copy()

    # compositions c_k : D_k -> D_k u_{D_{k-1}} D_k
    for k in range(1, n + 1):
        A = comp_arity(k)
        src = single(k - 1, A, glob_cell(compose(sigma_theta(k - 1), leaf_inclusion(A, 0))))
        tgt = single(k - 1, A, glob_cell(compose(tau_theta(k - 1), leaf_inclusion(A, 1))))
        out._adjoin(f"c{k}", A, k, src, tgt)

    # identities id_k : D_{k+1} -> D_k
    for k in range(0, n):
        A = globe(k)
        ident = single(k, A, glob_cell(identity(A)))
        out._adjoin(f"id{k}", A, k + 1, ident, ident)

    # whiskering w_{side}_k : D_k -> D_1 u_{D_0} D_k (or its mirror), whose
    # faces whisker through w_{side}_{k-1} down to c1; the suspended
    # whiskering sw_{side}_3 composes a 3-cell with a 2-cell along an edge,
    # and its faces compose through c2
    families = [(f"w_{side}_{k}", whisker_arity(k, side), k, side, None)
                for k in range(2, n + 1) for side in "rl"]
    if n >= 3:
        families += [(f"sw_{side}_3", suspend(whisker_arity(2, side)), 3, side, "c2")
                     for side in "rl"]
    for name, A, k, side, base in families:
        # the globe leaf's faces, whiskered by the edge leaf on its side
        globe_leaf = leaf_inclusion(A, 0 if side == "r" else 1)
        edge = glob_cell(leaf_inclusion(A, 1 if side == "r" else 0))
        faces = (glob_cell(map_face(globe_leaf, face)) for face in "st")
        src, tgt = (single(k - 1, A, whisker(out, side, cell, edge, A, base)) for cell in faces)
        out._adjoin(name, A, k, src, tgt)

    # unit comparison cells l_k, r_k : D_k -> D_{k-1}
    for k in range(2, n + 2):
        A = globe(k - 1)
        ident = glob_cell(identity(A))
        for side, tgt in (("l", _vcomp(k - 1, ident, _face_unit(A, "t"), A)),
                          ("r", _vcomp(k - 1, _face_unit(A, "s"), ident, A))):
            out._adjoin(f"{side}{k}", A, k, single(k - 1, A, ident), single(k - 1, A, tgt))
    return out


# ---------------------------------------------------------------------------
# groupoidalization

def groupoidalize(th: TheoryPresentation) -> TheoryPresentation:
    """A copy of a categorical tower with left and right inverse systems
    freely adjoined.

    The gluing identifies the abstract composition/identity generators with
    the tower's symbols c_k and id_k, so the pushout of theories is realized
    as a symbol-set union: only the genuinely new inverse symbols are added.
    """
    if th.kind == GROUPOIDAL:
        if any(name.startswith("inv_") for name in th.symbols):
            return th.copy()
        raise DomainError("groupoidalize expects a categorical presentation")
    if any(f"c{k}" not in th.symbols for k in range(1, th.n + 1)):
        raise DomainError("groupoidalize needs the composition/identity systems")
    out = th.copy()
    out.kind = GROUPOIDAL
    n = out.n

    # inverses inv_{side}_k : D_k -> D_k, reversing the globe
    for k in range(1, n + 1):
        A = globe(k)
        src, tgt = (single(k - 1, A, glob_cell(face_theta(k - 1, side))) for side in "ts")
        for side in "lr":
            out._adjoin(f"inv_{side}_{k}", A, k, src, tgt)

    for k in range(2, n + 2):
        A = globe(k - 1)
        ident = glob_cell(identity(A))
        inv_l = app_cell(f"inv_l_{k - 1}", out.identity_term(A))
        inv_r = app_cell(f"inv_r_{k - 1}", out.identity_term(A))
        # left inverse witness: 1_{source} => (f then f^l);
        # right inverse witness: 1_{target} => (f^r then f)
        for side, end, tgt in (("l", "s", _vcomp(k - 1, ident, inv_l, A)),
                               ("r", "t", _vcomp(k - 1, inv_r, ident, A))):
            out._adjoin(f"k_{side}_{k}", A, k, single(k - 1, A, _face_unit(A, end)),
                        single(k - 1, A, tgt))
    return out


# ---------------------------------------------------------------------------
# the shipped coherence batches (3-truncated tower)

def _chain_tree(k: int) -> Tree:
    return Tree((LEAF,) * k)


def _pick(A: Tree, j: int) -> TermCell:
    return glob_cell(leaf_inclusion(A, j))


def _assoc_inst(x, y, z, target):
    return app_cell("assoc", Term(_chain_tree(3), target, (x, y, z)))


def standard_library(n: int = 3) -> TheoryPresentation:
    """The shipped deterministic tower: systems plus coherence batches.

    For n = 3 this adds an associator, an interchanger, the pentagon and
    the unit triangle on top of the systems.
    """
    th = standard_systems(base_theory(n))
    if n != 3:
        return th

    three = _chain_tree(3)
    e = [_pick(three, j) for j in range(3)]
    assoc_src = _vcomp(1, _vcomp(1, e[0], e[1], three), e[2], three)
    assoc_tgt = _vcomp(1, e[0], _vcomp(1, e[1], e[2], three), three)
    th._adjoin("assoc", three, 2, single(1, three, assoc_src), single(1, three, assoc_tgt))

    # interchanger on two horizontally adjacent 2-cells
    hh = Tree((globe(1), globe(1)))
    alpha, beta = _pick(hh, 0), _pick(hh, 1)
    f_edge, g_edge, h_edge, k_edge = (
        glob_cell(cell_inclusion(hh, ((j,), gap))) for j in (0, 1) for gap in (0, 1)
    )
    lhs = _vcomp(2, whisker(th, "r", alpha, h_edge, hh), whisker(th, "l", beta, g_edge, hh), hh)
    rhs = _vcomp(2, whisker(th, "l", beta, f_edge, hh), whisker(th, "r", alpha, k_edge, hh), hh)
    th._adjoin("interchange", hh, 3, single(2, hh, lhs), single(2, hh, rhs))

    # pentagon on four composable edges
    four = _chain_tree(4)
    u = [_pick(four, j) for j in range(4)]

    def c(x, y):
        return _vcomp(1, x, y, four)

    s1 = whisker(th, "r", _assoc_inst(u[0], u[1], u[2], four), u[3], four)
    s2 = _assoc_inst(u[0], c(u[1], u[2]), u[3], four)
    s3 = whisker(th, "l", _assoc_inst(u[1], u[2], u[3], four), u[0], four)
    path_a = _vcomp(2, _vcomp(2, s1, s2, four), s3, four)
    t1 = _assoc_inst(c(u[0], u[1]), u[2], u[3], four)
    t2 = _assoc_inst(u[0], u[1], c(u[2], u[3]), four)
    path_b = _vcomp(2, t1, t2, four)
    th._adjoin("pentagon", four, 3, single(2, four, path_a), single(2, four, path_b))

    # unit triangle on two composable edges
    two = _chain_tree(2)
    v0, v1 = _pick(two, 0), _pick(two, 1)
    middle_unit = app_cell("id0", single(0, two, zero_cell_pick(two, 1)))
    l_inst = app_cell("l2", single(1, two, v0))
    r_inst = app_cell("r2", single(1, two, v1))
    tri_src = _vcomp(2, whisker(th, "r", l_inst, v1, two), _assoc_inst(v0, middle_unit, v1, two), two)
    tri_tgt = whisker(th, "l", r_inst, v0, two)
    th._adjoin("triangle", two, 3, single(2, two, tri_src), single(2, two, tri_tgt))
    return th


# ---------------------------------------------------------------------------
# the interval presentation

def interval_presentation(th: TheoryPresentation):
    """The free model on the walking pair of one-sided-inverted 1-cells.

    Two objects, three 1-cells and two comparison 2-cells tying the two
    composites to identities; the designated cell is the backwards arrow.
    """
    P = Computad("interval")
    zero = P.add("0", 0)
    one = P.add("1", 0)
    g = P.add("g", 1, zero, one)
    f = P.add("f", 1, one, zero)
    k = P.add("k", 1, zero, one)
    c1 = th.symbol("c1").name
    fg = fop(c1, (g, f), 1, zero, zero)
    kf = fop(c1, (f, k), 1, one, one)
    P.add("left_cell", 2, funit(zero), fg)
    P.add("right_cell", 2, funit(one), kf)
    P.designated["alpha_1"] = f
    return P


# ---------------------------------------------------------------------------
# generating cofibrations

def generating_cofibrations(n: int):
    """(I_n, J_n): boundary inclusions with the parallel-pair collapse, and
    the source maps; all as realization-level data."""
    if n < 0:
        raise DomainError(f"truncation must be at least 0, got {n}")
    _guard_truncation(n)
    I_n = [gs.boundary_inclusion(k) for k in range(n + 1)]
    I_n.append(gs.sphere_collapse(n))
    J_n = [gs.globe_face_map(k, "s") for k in range(n)]
    return I_n, J_n


# ---------------------------------------------------------------------------
# JSON codecs for terms and batches

def cell_from_json(th: TheoryPresentation, target: Tree, data) -> TermCell:
    if type(data) is dict and "leaf" in data:
        leaf, chain = data["leaf"], data.get("chain", "")
        paths = leaf_paths(target)
        if type(leaf) is not int or not 0 <= leaf < len(paths):
            raise DomainError(f"cell {data}: the leaf must be an index below {len(paths)}")
        height = len(paths[leaf])
        if type(chain) is not str or not set(chain) <= {"s", "t"} or len(chain) > height:
            raise DomainError(f"cell {data}: the chain must be at most {height} of 's', 't'")
        # by globularity the chain's last step alone decides the cell
        cell = face((paths[leaf], 0), height - len(chain), chain[-1]) if chain else (paths[leaf], 0)
        return glob_cell(cell_inclusion(target, cell))
    op = json_field(data, "op", str)
    args = json_field(data, "args")
    return app_cell(op, term_from_json(th, th.symbol(op).arity, target, args))


def term_from_json(th: TheoryPresentation, source: Tree, target: Tree, data) -> Term:
    cells = tuple(cell_from_json(th, target, c) for c in json_field(data, "cells", list))
    t = Term(source, target, cells)
    th.validate_term(t)
    return t


def batch_from_json(th: TheoryPresentation, item) -> dict:
    name, k = json_field(item, "name"), json_field(item, "k")
    if type(name) is not str or type(k) is not int or not 1 <= k <= th.n + 1:
        raise DomainError(f"operation {name!r}: the name must be a string and k an "
                          f"integer from 1 to {th.n + 1}, got {k!r}")
    arity = parse_tree(json_field(item, "arity", str))
    return {
        "name": name,
        "arity": arity,
        "k": k,
        "src": term_from_json(th, globe(k - 1), arity, json_field(item, "src")),
        "tgt": term_from_json(th, globe(k - 1), arity, json_field(item, "tgt")),
    }
