"""The operation category of strict omega-categories on globular sums.

Morphisms are stored in the iterated wreath encoding: a monotone map
between root arities plus one recursive component for every target gap a
source branch spreads over.  Maps out of a globe are exactly the cells of
the free strict omega-category on the target scheme; that reading is
enforced against the chain-complex oracle by the test suite rather than
assumed.

``hom(S, T)`` returns a ``HomSet``: a sequence of the maps in canonical
order, built lazily.  Reading map i builds that map alone from its rank;
iterating builds the whole set once, and is refused above
``DEFAULT_HOM_BOUND`` maps.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Sequence
from .errors import DomainError, MalformedError, SizeGuardError, TypingError, json_field
from .trees import LEAF, Frozen, Tree, dim as tree_dim, globe, leaf_paths, tree_to_table

DEFAULT_HOM_BOUND = 10**6


class ThetaMap(Frozen):
    __slots__ = ("source", "target", "phi", "components", "_h")
    _fields = __slots__[:4]

    def __new__(cls, source: Tree, target: Tree, phi: tuple[int, ...],
                components: tuple[tuple["ThetaMap", ...], ...]):
        f = _make(source, target, phi, components)
        check_map(f)
        return f

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.phi, self.components) == (
                other.source, other.target, other.phi, other.components)
        return NotImplemented

    def __hash__(self):
        # a map is not interned, so its hash is computed on the first call,
        # not when the map is made, and kept
        h = self._h
        if h is None:
            h = hash((self.source, self.target, self.phi, self.components))
            _set_h(self, h)
        return h

    def __str__(self):
        return f"{self.source}->{self.target}:{render(self)}"

    def to_json(self):
        return {
            "phi": list(self.phi),
            "components": [[c.to_json() for c in block] for block in self.components],
        }


def check_map(f: ThetaMap):
    """Refuse wreath data that does not type f as a map source -> target.

    One level deep: the components are taken to be maps already checked.
    The constructor runs it on every map built from outside (a direct
    ``ThetaMap(...)`` call, so also ``map_from_json``); the builders of
    this module make their maps with ``_make``, unchecked, and the test
    suite runs this check on every map they return.
    """
    m, n = f.source.arity, f.target.arity
    if len(f.phi) != m + 1 or len(f.components) != m:
        raise TypingError("wreath data has the wrong shape")
    if any(f.phi[i] > f.phi[i + 1] for i in range(m)):
        raise TypingError("phi must be monotone")
    if f.phi and (f.phi[0] < 0 or f.phi[-1] > n):
        raise TypingError("phi out of range")
    for i in range(m):
        comps = f.components[i]
        if len(comps) != f.phi[i + 1] - f.phi[i]:
            raise TypingError(f"block {i} has the wrong component count")
        for off, c in enumerate(comps):
            j = f.phi[i] + off
            if c.source != f.source.children[i] or c.target != f.target.children[j]:
                raise TypingError(f"component ({i},{j}) mistyped")


_new = object.__new__
_set_source, _set_target, _set_phi, _set_components, _set_h = (
    ThetaMap.__dict__[name].__set__ for name in ("source", "target", "phi", "components", "_h")
)


def _make(source: Tree, target: Tree, phi, components) -> ThetaMap:
    """The map with this wreath data, unchecked: for the builders below,
    whose data is typed by the maps they are built from."""
    f = _new(ThetaMap)
    _set_source(f, source)
    _set_target(f, target)
    _set_phi(f, phi)
    _set_components(f, components)
    _set_h(f, None)
    return f


def render(f: ThetaMap) -> str:
    comps = ",".join(
        "[" + ";".join(render(c) for c in block) + "]" for block in f.components
    )
    phi = ",".join(str(v) for v in f.phi)
    return f"({phi}){comps if any(f.components) else ''}"


def map_from_json(source: Tree, target: Tree, data) -> ThetaMap:
    """The map that ``to_json`` wrote as data.  Data of the wrong JSON shape
    is refused with a MalformedError that names the field; wreath data of
    the right shape goes through ``check_map``, like any map built from
    outside."""
    phi = json_field(data, "phi", list)
    blocks = json_field(data, "components", list)
    if any(type(v) is not int for v in phi):
        raise MalformedError("'phi' must be a list of integers")
    if any(type(block) is not list for block in blocks):
        raise MalformedError("'components' must be a list of lists")

    def component(i, off, c):
        # a component with no place in source and target is left unread:
        # check_map then refuses the map before it reaches the component
        if i >= min(len(phi), source.arity) or not 0 <= phi[i] + off < target.arity:
            return None
        j = phi[i] + off
        try:
            return map_from_json(source.children[i], target.children[j], c)
        except MalformedError as e:
            raise MalformedError(f"component ({i},{j}): {e}") from None

    comps = tuple(
        tuple(component(i, off, c) for off, c in enumerate(block))
        for i, block in enumerate(blocks)
    )
    return ThetaMap(source, target, tuple(phi), comps)


@functools.lru_cache(maxsize=None)
def identity(t: Tree) -> ThetaMap:
    return _make(
        t,
        t,
        tuple(range(t.arity + 1)),
        tuple((identity(c),) for c in t.children),
    )


def compose(f: ThetaMap, g: ThetaMap) -> ThetaMap:
    """Diagrammatic composite: f then g."""
    if f.target != g.source:
        raise TypingError("composition mismatch")
    # block i of f holds one component per middle gap jp, and block jp - 1
    # of g one per target gap over jp, so flattening gives f's span in order
    components = tuple(
        tuple(compose(fc, gc) for jp, fc in enumerate(block, f.phi[i] + 1) for gc in g.components[jp - 1])
        for i, block in enumerate(f.components)
    )
    return _make(f.source, g.target, tuple(g.phi[v] for v in f.phi), components)


@functools.lru_cache(maxsize=None)
def face_theta(k: int, side: str) -> ThetaMap:
    """sigma_k (side "s") or tau_k (side "t") : D_k -> D_{k+1}, the cell
    of D_{k+1} in the first or last gap of its top node."""
    globe(k)  # refuses k < 0
    return cell_inclusion(globe(k + 1), ((0,) * k, 0 if side == "s" else 1))


def sigma_theta(k: int) -> ThetaMap:
    return face_theta(k, "s")


def tau_theta(k: int) -> ThetaMap:
    return face_theta(k, "t")


def face_reader(f: ThetaMap, k: int):
    """The test "h is compose(face_theta(k - 1, side), f)", as a function
    of h and side that compares in place.

    The face of a map out of D_k keeps its phi and takes the face of each
    component; the face of a map out of D_1 is the point phi[0] (sigma) or
    phi[-1] (tau).  Like ``compose``, it refuses an f not out of D_k, and
    it does so at once, before any h is made.
    """
    face_source = globe(k - 1)  # face_theta's refusal of k < 1
    if f.source != globe(k):
        raise TypingError("composition mismatch")

    def is_face(h: ThetaMap, side: str) -> bool:
        return h.source == face_source and h.target == f.target and _face_of(h, f, side)

    return is_face


def map_face(f: ThetaMap, side: str) -> ThetaMap:
    """The face compose(face_theta(k - 1, side), f) of a map f out of D_k,
    built directly, the builder twin of ``_face_of``: it keeps phi and takes
    the face of each component, and the face of a map out of D_1 is the
    point phi[0] (sigma) or phi[-1] (tau).  Like ``compose``, it refuses an
    f not out of D_k."""
    k = tree_dim(f.source)
    globe(k - 1)  # face_theta's refusal of k < 1
    if f.source is not globe(k):
        raise TypingError("composition mismatch")
    return _face(f, side)


def _face(f: ThetaMap, side: str) -> ThetaMap:
    below = f.source.children[0]
    if below.is_leaf:
        return _make(LEAF, f.target, (f.phi[0] if side == "s" else f.phi[-1],), ())
    return _make(below, f.target, f.phi, (tuple(_face(c, side) for c in f.components[0]),))


def _face_of(h: ThetaMap, f: ThetaMap, side: str) -> bool:
    if not h.components:  # h is out of the point
        return h.phi == (f.phi[0] if side == "s" else f.phi[-1],)
    if h.phi != f.phi:
        return False
    for p, q in zip(h.components[0], f.components[0]):
        if not _face_of(p, q, side):
            return False
    return True


# ---------------------------------------------------------------------------
# hom enumeration

@functools.lru_cache(maxsize=None)
def hom_count(S: Tree, T: Tree) -> int:
    """|hom(S, T)|, counted gap by gap instead of phi by phi.

    ``ways[b]`` counts the maps of the source blocks so far whose phi ends
    at gap b.  The next block ends at gap b either by spanning no branch
    (it starts at b) or as a block ending at b - 1 extended over target
    branch b - 1, in ``hom_count(c, d)`` ways.
    """
    ways = [1] * (T.arity + 1)
    for c in S.children:
        for b, d in enumerate(T.children, 1):
            ways[b] += ways[b - 1] * hom_count(c, d)
    return sum(ways)


class HomSet(Sequence):
    """hom(S, T) as a sequence in canonical order, built on demand.

    The maps come in lexicographic order of phi, and for one phi in the
    order of ``itertools.product`` over the (block, gap) components, the
    last component fastest.  ``hs[i]`` reads map i off its rank: the phi
    whose run of ranks holds i, then one component per gap from the
    child hom sets, by mixed radix.  Each map built is kept, so
    ``hs[i] is hs[i]``.  Iterating builds the whole set in one product
    pass, keeps the maps already handed out, and from then on holds one
    tuple in place of the per-index memo.  A set of more than
    ``DEFAULT_HOM_BOUND`` maps is read by index only: iterating it (also
    through ``reversed`` or ``index``), or a slice that long, raises
    ``SizeGuardError`` before any map is built, and so does ``len()`` of a
    set too large for it to return.
    """

    __slots__ = ("source", "target", "_len", "_got", "_table")

    def __init__(self, S: Tree, T: Tree):
        self.source, self.target = S, T
        self._len = hom_count(S, T)
        # rank -> map for the maps built so far, or the tuple of all of them
        self._got = {}
        self._table = None

    def __len__(self):
        if self._len > sys.maxsize:
            raise SizeGuardError(f"hom has {self._len} elements, more than len() can hold")
        return self._len

    def __getitem__(self, i):
        try:
            f = self._got[i]
        except (KeyError, TypeError):
            return self._unrank(i)
        if type(i) is not int and isinstance(self._got, dict):
            # the memo's key 1 also matches 1.0, which is no index
            operator.index(i)
        return f

    def __iter__(self):
        got = self._got
        if isinstance(got, dict):
            _guard(self._len)
            S, T = self.source, self.target
            maps = []
            for phi, blocks in self._phis():
                choices = [tuple(itertools.product(*block)) for block in blocks]
                maps += [_make(S, T, phi, comps) for comps in itertools.product(*choices)]
            # the maps already handed out stay the ones this set holds
            for i, f in got.items():
                maps[i] = f
            got = self._got = tuple(maps)
            self._table = None
        return iter(got)

    # Sequence's versions read every rank one by one, past the bound
    def __reversed__(self):
        return reversed(tuple(self))

    def index(self, *args):
        return tuple(self).index(*args)

    def _phis(self):
        """Each phi in lexicographic order, with the child hom sets of
        each of its blocks, one per gap."""
        S, T = self.source, self.target
        for phi in itertools.combinations_with_replacement(range(T.arity + 1), S.arity + 1):
            yield phi, [
                [_homset(c, T.children[j]) for j in range(phi[i], phi[i + 1])]
                for i, c in enumerate(S.children)
            ]

    def _blocks(self):
        """(start ranks, entries): one entry per phi (every hom set holds
        the constant maps, so no run is empty), holding phi, its blocks and
        the (child, size) radices, last component first."""
        if self._table is None:
            starts, entries, start = [], [], 0
            for phi, blocks in self._phis():
                radices = tuple((h, len(h)) for block in reversed(blocks) for h in reversed(block))
                starts.append(start)
                entries.append((phi, blocks, radices))
                start += math.prod(n for _, n in radices)
            self._table = (starts, entries)
        return self._table

    def _unrank(self, i):
        if isinstance(i, slice):
            ranks = range(*i.indices(self._len))
            _guard(len(ranks))
            return tuple(self[j] for j in ranks)
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("hom set index out of range")
        f = self._got.get(i)
        if f is None:
            starts, entries = self._table or self._blocks()
            e = bisect.bisect_right(starts, i) - 1
            phi, blocks, radices = entries[e]
            r = i - starts[e]
            picks = []
            for h, n in radices:
                r, q = divmod(r, n)
                picks.append(h[q])
            picks.reverse()
            comps, at = [], 0
            for block in blocks:
                comps.append(tuple(picks[at : at + len(block)]))
                at += len(block)
            f = self._got[i] = _make(self.source, self.target, phi, tuple(comps))
        return f


def _guard(size: int):
    if size > DEFAULT_HOM_BOUND:
        raise SizeGuardError(f"hom would have {size} elements (bound {DEFAULT_HOM_BOUND})")


@functools.lru_cache(maxsize=None)
def _homset(S: Tree, T: Tree) -> HomSet:
    return HomSet(S, T)


def hom(S: Tree, T: Tree) -> HomSet:
    """All maps S -> T in canonical order (lexicographic phi, then
    components), as a sequence that builds each map when first read."""
    return _homset(S, T)


# ---------------------------------------------------------------------------
# globular maps

def leaf_inclusion(t: Tree, leaf_index: int) -> ThetaMap:
    """The colimit inclusion of the leaf's globe into the sum: the leaf's
    one cell."""
    paths = leaf_paths(t)
    if leaf_index not in range(len(paths)):
        raise DomainError(f"leaf {leaf_index} out of range for {t}, which has {len(paths)}")
    return cell_inclusion(t, (paths[leaf_index], 0))


def cell_inclusion(t: Tree, cell) -> ThetaMap:
    """The globular map D_h -> t picking a cell (path, gap) of t, h the
    length of the path: the point ``gap`` in the node at the path, inside
    the branch (i, i+1) of each node above it, built from that node up."""
    path, gap = cell
    nodes = list(itertools.accumulate(path, lambda node, i: node.children[i], initial=t))
    f = _make(LEAF, nodes[-1], (gap,), ())
    for h in range(len(path) - 1, -1, -1):
        i = path[h]
        f = _make(globe(len(path) - h), nodes[h], (i, i + 1), ((f,),))
    return f


def is_globular(f: ThetaMap) -> bool:
    """Whether f is induced by a (dimension-preserving, monic) map of schemes:
    every source branch spans exactly one target gap (a block holds one
    component per gap), by a globular component."""
    for block in f.components:
        if len(block) != 1 or not is_globular(block[0]):
            return False
    return True


def glob_top_image(f: ThetaMap):
    """Image cell of the top generator under a globular globe-sourced map,
    checked level by level: a globe's one branch spans exactly one gap."""
    if f.source.is_leaf:
        return ((), f.phi[0])
    if f.source.arity != 1 or len(f.components[0]) != 1:
        raise DomainError(f"the top image needs a globular map out of a globe, not {f}")
    sub_path, sub_gap = glob_top_image(f.components[0][0])
    return ((f.phi[0],) + sub_path, sub_gap)


# ---------------------------------------------------------------------------
# homogeneous-globular factorization

class HGFactorization(namedtuple("HGFactorization", "homogeneous globular")):
    __slots__ = ()

    @property
    def middle(self) -> Tree:
        return self.homogeneous.target


def hg_factorize(f: ThetaMap) -> HGFactorization:
    """The unique factorization into a homogeneous map then a globular one.

    The middle tree glues the supports of the images of the source globes
    along their matched boundaries; per target gap there is exactly one
    source branch spreading over it, so the gluing is a gap-wise recursion.
    """
    a, b = f.phi[0], f.phi[-1]
    if a == b:
        # f collapses its source onto the 0-cell a, through the point
        m = f.source.arity
        collapse = _make(f.source, LEAF, (0,) * (m + 1), ((),) * m)
        return HGFactorization(collapse, _make(LEAF, f.target, (a,), ()))
    # f's blocks cover the gaps a+1..b in order, one component per gap
    subs = tuple(tuple(hg_factorize(c) for c in block) for block in f.components)
    flat = [sub for block in subs for sub in block]
    middle = Tree(tuple(sub.middle for sub in flat))
    mono = _make(middle, f.target, tuple(range(a, b + 1)), tuple((sub.globular,) for sub in flat))
    residue = _make(
        f.source,
        middle,
        tuple(v - a for v in f.phi),
        tuple(tuple(sub.homogeneous for sub in block) for block in subs),
    )
    return HGFactorization(residue, mono)


def _spans(f: ThetaMap, levels: int, side) -> bool:
    """Whether the globular half of f is the identity of the target down to
    ``levels`` heights below f, and there the target's first (side "s") or
    last ("t") point: above that height phi runs from 0 to the target's
    arity, in f and in every component, and at it f's span is that point.
    With levels < 0 there is no such height, and this is homogeneity; with
    levels = dim A - 1 for f's target A, it is whether the side's map d of
    ``boundary_maps(A)`` is the globular half of f, read without building d;
    tests/test_theta.py holds it to its oracle ``splits_off(f, d)``, which
    reads that for any globular d."""
    if levels == 0:
        return f.phi[0] == f.phi[-1] == (0 if side == "s" else f.target.arity)
    if f.phi[0] != 0 or f.phi[-1] != f.target.arity:
        return False
    for block in f.components:
        for c in block:
            if not _spans(c, levels - 1, side):
                return False
    return True


def is_homogeneous(f: ThetaMap) -> bool:
    """No nontrivial globular map can be split off the target side, that
    is, the identity of the target is the globular half of f: phi runs from
    0 to the target's arity (at a point target, trivially) and every
    component is homogeneous.  A recursion on the wreath data; no map is
    built.  A homogeneous map out of D_k has a target of dimension at most
    k, so there is nothing more to check: its components reach every node
    of the target at depth k by a map out of the point, and such a map
    spans its target only when the target is a leaf (tests/test_theta.py
    holds the claim on every small tree)."""
    return _spans(f, -1, None)


def homogeneous_op(k: int, A: Tree):
    """The homogeneous operation D_k -> A, or None; it exists iff dim A <= k.

    A homogeneous map leaves no globular map to split off, so it covers
    every root gap of A (phi = (0, arity A)) and is homogeneous in each
    gap: it is built child by child, and at k = 0 only the point has one.
    """
    if k < 0:
        raise DomainError("operations have dimension at least 0")
    if k == 0:
        return _make(LEAF, A, (0,), ()) if A.is_leaf else None
    block = tuple(homogeneous_op(k - 1, child) for child in A.children)
    if any(c is None for c in block):
        return None
    return _make(globe(k), A, (0, A.arity), (block,))


def all_globular_monos(B: Tree, T: Tree):
    """Every globular injection B -> T, in hom order.

    A globular map sends the root gaps of B onto a consecutive run
    a..a+arity(B) of root gaps of T, each branch by a globular map; the
    choices are ordered by a, then lexicographically by component.
    """
    if B.is_leaf:
        return [_make(B, T, (c,), ()) for c in range(T.arity + 1)]
    m = B.arity
    out = []
    for a in range(T.arity - m + 1):
        per_gap = [all_globular_monos(B.children[i], T.children[a + i]) for i in range(m)]
        for picks in itertools.product(*per_gap):
            out.append(_make(B, T, tuple(range(a, a + m + 1)), tuple((p,) for p in picks)))
    return out


# ---------------------------------------------------------------------------
# admissibility and fillers

def are_parallel(f: ThetaMap, g: ThetaMap) -> bool:
    if f.source != g.source or f.target != g.target:
        return False
    k = tree_dim(f.source)
    if k == 0:
        return True
    return all(map_face(f, side) == map_face(g, side) for side in "st")


def is_admissible_groupoidal(f: ThetaMap, g: ThetaMap) -> bool:
    """Parallel pair into a sum of dimension at most k+1."""
    if f.target != g.target:
        raise TypingError("admissible pairs need a common target")
    k = tree_dim(f.source)
    if k != tree_dim(g.source):
        raise TypingError("admissible pairs need equidimensional sources")
    for h in (f, g):
        if h.source != globe(k):
            raise DomainError(f"groupoidal admissible pairs need maps out of the globe D{k}, not out of {h.source}")
    return are_parallel(f, g) and tree_dim(f.target) <= k + 1


def boundary_maps(t: Tree):
    """The inclusions d_sigma, d_tau of the boundary sum: the identity
    wreath below height dim t - 1, where each node receives the point in
    its first (sigma) or last (tau) gap."""
    d = tree_dim(t)
    if d == 0:
        raise DomainError("the point has no boundary")
    return _boundary_map(t, d - 1, "s"), _boundary_map(t, d - 1, "t")


def _boundary_map(node: Tree, room: int, side: str) -> ThetaMap:
    """The inclusion into ``node`` that ``boundary_maps`` builds, for a node
    ``room`` levels below height dim t - 1."""
    if room == 0:
        return _make(LEAF, node, (0 if side == "s" else node.arity,), ())
    kids = tuple(_boundary_map(c, room - 1, side) for c in node.children)
    source = Tree(tuple(k.source for k in kids))
    return _make(source, node, tuple(range(node.arity + 1)), tuple((k,) for k in kids))


def is_admissible_categorical(f: ThetaMap, g: ThetaMap) -> bool:
    """k = 0 pairs, pairs of homogeneous maps, or pairs factoring
    homogeneously through the two boundary inclusions.

    A homogeneous h with h;d_sigma = f is the homogeneous half of the
    unique homogeneous-globular factorization of f, so f factors that way
    exactly when d_sigma is the globular half of f and d_tau that of g.
    ``_spans`` reads those two tests and the homogeneity of f and g off the
    wreath data, with no factorisation, boundary inclusion or realization
    built; tests/test_theta.py holds it to its oracle ``splits_off``.
    """
    if f.target != g.target:
        raise TypingError("admissible pairs need a common target")
    k = tree_dim(f.source)
    if k == 0:
        return True
    if is_homogeneous(f) and is_homogeneous(g):
        return True
    A = f.target
    if tree_dim(A) == 0 or f.source != globe(k) or g.source != globe(k):
        return False
    d = tree_dim(A) - 1
    return _spans(f, d, "s") and _spans(g, d, "t")


def filler(f: ThetaMap, g: ThetaMap):
    """First h in canonical order with h.sigma = f and h.tau = g, or None.

    At k = 0 the points a <= b span h; above, sigma_k;h and tau_k;h keep
    h's phi and restrict each gap's component to its sigma/tau face, so h
    shares phi with f and g and fills their components gap by gap.  The
    fillers form a product over gaps, and the first one in hom order takes
    the first filler in every gap.
    """
    if f.source != g.source or f.target != g.target:
        raise TypingError("filler needs a parallel pair")
    k = tree_dim(f.source)
    if f.source != globe(k):
        return None
    return _fill(k, f, g)


def _fill(k: int, f: ThetaMap, g: ThetaMap):
    if k == 0:
        (a,), (b,) = f.phi, g.phi
        if a > b:
            return None
        phi = (a, b)
        block = tuple(_make(LEAF, f.target.children[j], (0,), ()) for j in range(a, b))
    else:
        if f.phi != g.phi:
            return None
        phi = f.phi
        block = tuple(_fill(k - 1, p, q) for p, q in zip(f.components[0], g.components[0]))
        if any(h is None for h in block):
            return None
    return _make(globe(k + 1), f.target, phi, (block,))


# ---------------------------------------------------------------------------
# assembly

def assemble(source: Tree, target: Tree, leaf_maps) -> ThetaMap:
    """Glue per-leaf maps D_{i_j} -> target into a single map source -> target.

    The maps must agree on the matched boundaries; this is exactly the
    colimit description of the source sum.  Once there is one map
    D_h -> target per leaf of height h, each component glued is typed by
    the maps it comes from.
    """
    leaf_maps = list(leaf_maps)
    heights = tree_to_table(source).tops
    if len(leaf_maps) != len(heights) or any(
        m.source != globe(h) or m.target != target for m, h in zip(leaf_maps, heights)
    ):
        raise TypingError("assemble needs one map D_h -> target per source leaf of height h")
    return _glue(source, target, leaf_maps)


def _glue(source: Tree, target: Tree, leaf_maps) -> ThetaMap:
    if source.is_leaf:
        (f,) = leaf_maps
        return f
    groups = []
    idx = 0
    for child in source.children:
        take = len(leaf_paths(child))
        groups.append(leaf_maps[idx: idx + take])
        idx += take
    phi = []
    comps = []
    prev = None
    for child, grp in zip(source.children, groups):
        spans = {(m.phi[0], m.phi[-1]) for m in grp}
        if len(spans) != 1:
            raise TypingError("leaf maps of one block disagree on their span")
        u, v = spans.pop()
        if prev is None:
            phi.append(u)
        elif prev != u:
            raise TypingError("adjacent blocks do not share their joining 0-cell")
        phi.append(v)
        prev = v
        block = []
        for j in range(u + 1, v + 1):
            sub = [m.components[0][j - u - 1] for m in grp]
            block.append(_glue(child, target.children[j - 1], sub))
        comps.append(tuple(block))
    return _make(source, target, tuple(phi), tuple(comps))


# ---------------------------------------------------------------------------
# bridge to the chain model (used by the tests and the benchmark)

def to_steiner_cell(f: ThetaMap):
    """The chain-model cell corresponding to a globe-sourced map.

    The hom/oracle test suite checks that this is a bijection between
    hom(D_k, T) and the chain-model cells; it is the dictionary between
    the two encodings.

    A component reached through the children j_1, ..., j_r of the target
    puts its end gaps a, b into level r as the atoms ((j_1, ..., j_r), a)
    and ((j_1, ..., j_r), b), each with coefficient 1. The components are
    read level by level, each level's from the last's in order, so the
    prefixes of one level are distinct and come in ascending order: each
    chain comes out canonical, in atom order, with nothing to merge or sort.
    """
    k = tree_dim(f.source)
    if f.source != globe(k):
        raise DomainError("only globe-sourced maps are cells")
    cell = []
    level = [(f, ())]  # the components of one level with their prefixes
    while True:
        cell.append((tuple(((prefix, g.phi[0]), 1) for g, prefix in level),
                     tuple(((prefix, g.phi[-1]), 1) for g, prefix in level)))
        if len(cell) > k:
            return tuple(cell)
        level = [(c, prefix + (j,)) for g, prefix in level for j, c in enumerate(g.components[0], g.phi[0])]
