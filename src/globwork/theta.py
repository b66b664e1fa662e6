"""The operation category of strict omega-categories on globular sums.

Morphisms are stored in the iterated wreath encoding: a monotone map
between root arities plus one recursive component for every target gap a
source branch spreads over.  Maps out of a globe are exactly the cells of
the free strict omega-category on the target scheme; that reading is
enforced against the chain-complex oracle by the test suite rather than
assumed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from .errors import DomainError, SizeGuardError, TypingError
from .trees import LEAF, Tree, boundary as tree_boundary, dim as tree_dim, globe
from .globsets import GlobMap, realize

DEFAULT_HOM_BOUND = 10**6


@dataclass(frozen=True)
class ThetaMap:
    source: Tree
    target: Tree
    phi: tuple[int, ...]
    components: tuple[tuple["ThetaMap", ...], ...]

    def __post_init__(self):
        m, n = self.source.arity, self.target.arity
        if len(self.phi) != m + 1 or len(self.components) != m:
            raise TypingError("wreath data has the wrong shape")
        if any(self.phi[i] > self.phi[i + 1] for i in range(m)):
            raise TypingError("phi must be monotone")
        if self.phi and (self.phi[0] < 0 or self.phi[-1] > n):
            raise TypingError("phi out of range")
        for i in range(m):
            comps = self.components[i]
            if len(comps) != self.phi[i + 1] - self.phi[i]:
                raise TypingError(f"block {i} has the wrong component count")
            for off, c in enumerate(comps):
                j = self.phi[i] + off
                if c.source != self.source.children[i] or c.target != self.target.children[j]:
                    raise TypingError(f"component ({i},{j}) mistyped")

    def __str__(self):
        return f"{self.source}->{self.target}:{render(self)}"

    def to_json(self):
        return {
            "phi": list(self.phi),
            "components": [[c.to_json() for c in block] for block in self.components],
        }


def render(f: ThetaMap) -> str:
    comps = ",".join(
        "[" + ";".join(render(c) for c in block) + "]" for block in f.components
    )
    phi = ",".join(str(v) for v in f.phi)
    return f"({phi}){comps if any(f.components) else ''}"


def map_from_json(source: Tree, target: Tree, data) -> ThetaMap:
    comps = tuple(
        tuple(
            map_from_json(source.children[i], target.children[data["phi"][i] + off], c)
            for off, c in enumerate(block)
        )
        for i, block in enumerate(data["components"])
    )
    return ThetaMap(source, target, tuple(data["phi"]), comps)


@functools.lru_cache(maxsize=None)
def identity(t: Tree) -> ThetaMap:
    return ThetaMap(
        t,
        t,
        tuple(range(t.arity + 1)),
        tuple((identity(c),) for c in t.children),
    )


def compose(f: ThetaMap, g: ThetaMap) -> ThetaMap:
    """Diagrammatic composite: f then g."""
    if f.target != g.source:
        raise TypingError("composition mismatch")
    phi = tuple(g.phi[v] for v in f.phi)
    components = []
    for i in range(f.source.arity):
        block = []
        for j in range(phi[i] + 1, phi[i + 1] + 1):
            # the unique middle gap j' with g.phi[j'-1] < j <= g.phi[j']
            jp = next(
                jp
                for jp in range(1, g.source.arity + 1)
                if g.phi[jp - 1] < j <= g.phi[jp]
            )
            inner = f.components[i][jp - f.phi[i] - 1]
            outer = g.components[jp - 1][j - g.phi[jp - 1] - 1]
            block.append(compose(inner, outer))
        components.append(tuple(block))
    return ThetaMap(f.source, g.target, phi, tuple(components))


@functools.lru_cache(maxsize=None)
def face_theta(k: int, side: str) -> ThetaMap:
    """sigma_k (side "s") or tau_k (side "t") : D_k -> D_{k+1}."""
    if k == 0:
        return ThetaMap(LEAF, globe(1), (0 if side == "s" else 1,), ())
    return ThetaMap(globe(k), globe(k + 1), (0, 1), ((face_theta(k - 1, side),),))


def sigma_theta(k: int) -> ThetaMap:
    return face_theta(k, "s")


def tau_theta(k: int) -> ThetaMap:
    return face_theta(k, "t")


def iterated_boundary(f: ThetaMap, steps: int, side: str) -> ThetaMap:
    """Precompose f : D_k -> A with a sigma/tau chain of the given length."""
    k = tree_dim(f.source)
    for _ in range(steps):
        k -= 1
        f = compose(face_theta(k, side), f)
    return f


# ---------------------------------------------------------------------------
# hom enumeration

@functools.lru_cache(maxsize=None)
def hom_count(S: Tree, T: Tree) -> int:
    m, n = S.arity, T.arity
    total = 0
    for phi in itertools.combinations_with_replacement(range(n + 1), m + 1):
        prod = 1
        for i in range(m):
            for j in range(phi[i] + 1, phi[i + 1] + 1):
                prod *= hom_count(S.children[i], T.children[j - 1])
                if prod == 0:
                    break
        total += prod
    return total


@functools.lru_cache(maxsize=None)
def _hom_cached(S: Tree, T: Tree) -> tuple:
    m, n = S.arity, T.arity
    out = []
    for phi in itertools.combinations_with_replacement(range(n + 1), m + 1):
        block_choices = []
        for i in range(m):
            per_gap = [
                _hom_cached(S.children[i], T.children[j - 1])
                for j in range(phi[i] + 1, phi[i + 1] + 1)
            ]
            block_choices.append(list(itertools.product(*per_gap)))
        for picks in itertools.product(*block_choices):
            out.append(ThetaMap(S, T, phi, tuple(picks)))
    return tuple(out)


def hom(S: Tree, T: Tree, max_size: int = DEFAULT_HOM_BOUND) -> tuple:
    """All maps S -> T in canonical order (lexicographic phi, then components)."""
    count = hom_count(S, T)
    if count > max_size:
        raise SizeGuardError(f"hom would have {count} elements (bound {max_size})")
    return _hom_cached(S, T)


# ---------------------------------------------------------------------------
# globular maps

@functools.lru_cache(maxsize=None)
def leaf_paths(t: Tree):
    """Paths of all leaves, left to right."""
    if t.is_leaf:
        return ((),)
    out = []
    for i, c in enumerate(t.children):
        out.extend((i,) + p for p in leaf_paths(c))
    return tuple(out)


def leaf_inclusion(t: Tree, leaf_index: int) -> ThetaMap:
    """The colimit inclusion of the leaf's globe into the sum."""
    path = leaf_paths(t)[leaf_index]

    def build(node, rest):
        if not rest:
            if not node.is_leaf:
                raise DomainError("path does not end at a leaf")
            return ThetaMap(LEAF, LEAF, (0,), ())
        i = rest[0]
        comp = build(node.children[i], rest[1:])
        return ThetaMap(globe(len(rest)), node, (i, i + 1), ((comp,),))

    return build(t, path)


def cell_inclusion(t: Tree, cell) -> ThetaMap:
    """The globular map D_h -> t picking an arbitrary cell of realize(t)."""
    path, gap = cell
    node = t.subtree(path)
    if node.is_leaf:
        leaf_index = leaf_paths(t).index(path)
        return leaf_inclusion(t, leaf_index)
    last = gap == node.arity
    deeper = cell_inclusion(t, (path + (node.arity - 1 if last else gap,), 0))
    return compose(face_theta(len(path), "t" if last else "s"), deeper)


def is_globular(f: ThetaMap) -> bool:
    """Whether f is induced by a (dimension-preserving, monic) map of schemes."""
    if f.source.is_leaf:
        return True
    for i in range(f.source.arity):
        if f.phi[i + 1] != f.phi[i] + 1:
            return False
        if not is_globular(f.components[i][0]):
            return False
    return True


def embed_globular(g: GlobMap) -> ThetaMap:
    """Lift a realization-level map of schemes along the wreath encoding."""
    S = _tree_of(g.dom)
    T = _tree_of(g.cod)
    for k in range(g.dom.n + 1):
        if not g.is_injective_at(k):
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


def glob_top_image(f: ThetaMap):
    """Image cell of the top generator under a globular globe-sourced map."""
    if f.source.is_leaf:
        return ((), f.phi[0])
    sub_path, sub_gap = glob_top_image(f.components[0][0])
    return ((f.phi[0],) + sub_path, sub_gap)


def realize_map(f: ThetaMap) -> GlobMap:
    """The realization of a globular wreath map as a map of schemes."""
    if not is_globular(f):
        raise DomainError("only globular maps realize to maps of schemes")
    maps = [dict() for _ in range(tree_dim(f.source) + 1)]

    def walk(g: ThetaMap, sp, tp):
        for i in range(g.source.arity + 1):
            maps[len(sp)][(sp, i)] = (tp, g.phi[i])
        for i in range(g.source.arity):
            walk(g.components[i][0], sp + (i,), tp + (g.phi[i],))

    walk(f, (), ())
    return GlobMap(realize(f.source), realize(f.target), maps)


# ---------------------------------------------------------------------------
# homogeneous-globular factorization

@dataclass(frozen=True)
class HGFactorization:
    homogeneous: ThetaMap
    globular: ThetaMap

    @property
    def middle(self) -> Tree:
        return self.homogeneous.target


def collapse_map(S: Tree, zero: int, T: Tree) -> ThetaMap:
    """The map S -> T sending everything to the 0-cell ``zero``."""
    return ThetaMap(
        S,
        T,
        (zero,) * (S.arity + 1),
        tuple(() for _ in range(S.arity)),
    )


def hg_factorize(f: ThetaMap) -> HGFactorization:
    """The unique factorization into a homogeneous map then a globular one.

    The middle tree glues the supports of the images of the source globes
    along their matched boundaries; per target gap there is exactly one
    source branch spreading over it, so the gluing is a gap-wise recursion.
    """
    a, b = (f.phi[0], f.phi[-1]) if f.phi else (0, 0)
    if a == b:
        middle = LEAF
        mono = ThetaMap(LEAF, f.target, (a,), ())
        residue = collapse_map(f.source, 0, LEAF)
        return HGFactorization(residue, mono)
    kids = []
    monos = []
    res_blocks = {}
    for j in range(a + 1, b + 1):
        i = next(i for i in range(1, f.source.arity + 1) if f.phi[i - 1] < j <= f.phi[i])
        comp = f.components[i - 1][j - f.phi[i - 1] - 1]
        sub = hg_factorize(comp)
        kids.append(sub.middle)
        monos.append(sub.globular)
        res_blocks[(i, j)] = sub.homogeneous
    middle = Tree(tuple(kids))
    mono = ThetaMap(
        middle,
        f.target,
        tuple(range(a, b + 1)),
        tuple((m,) for m in monos),
    )
    res_phi = tuple(v - a for v in f.phi)
    res_components = []
    for i in range(1, f.source.arity + 1):
        block = tuple(
            res_blocks[(i, j)] for j in range(f.phi[i - 1] + 1, f.phi[i] + 1)
        )
        res_components.append(block)
    residue = ThetaMap(f.source, middle, res_phi, tuple(res_components))
    return HGFactorization(residue, mono)


def is_homogeneous(f: ThetaMap) -> bool:
    """No nontrivial globular map can be split off the target side."""
    fact = hg_factorize(f)
    ok = fact.globular == identity(f.target)
    if ok:
        # dimension consequence for globe-sourced operations
        k = tree_dim(f.source)
        if f.source == globe(k) and k < tree_dim(f.target):
            raise DomainError(f"homogeneous map out of D_{k} into a sum of higher dimension")
    return ok


def support(c: ThetaMap):
    """Minimal globular subobject through which a globe-sourced cell factors."""
    if c.source != globe(tree_dim(c.source)):
        raise DomainError("support expects a globe-sourced map")
    fact = hg_factorize(c)
    return fact.middle, fact.globular, fact.homogeneous


def all_globular_monos(B: Tree, T: Tree):
    """Every globular injection B -> T, in hom order.

    A globular map sends the root gaps of B onto a consecutive run
    a..a+arity(B) of root gaps of T, each branch by a globular map; the
    choices are ordered by a, then lexicographically by component.
    """
    if B.is_leaf:
        return [ThetaMap(B, T, (c,), ()) for c in range(T.arity + 1)]
    m = B.arity
    out = []
    for a in range(T.arity - m + 1):
        per_gap = [all_globular_monos(B.children[i], T.children[a + i]) for i in range(m)]
        for picks in itertools.product(*per_gap):
            out.append(ThetaMap(B, T, tuple(range(a, a + m + 1)), tuple((p,) for p in picks)))
    return out


# ---------------------------------------------------------------------------
# admissibility and fillers

def are_parallel(f: ThetaMap, g: ThetaMap) -> bool:
    if f.source != g.source or f.target != g.target:
        return False
    k = tree_dim(f.source)
    if k == 0:
        return True
    return all(
        compose(face_theta(k - 1, side), f) == compose(face_theta(k - 1, side), g)
        for side in "st"
    )


def is_admissible_groupoidal(f: ThetaMap, g: ThetaMap) -> bool:
    """Parallel pair into a sum of dimension at most k+1."""
    if f.target != g.target:
        raise TypingError("admissible pairs need a common target")
    k = tree_dim(f.source)
    if k != tree_dim(g.source):
        raise TypingError("admissible pairs need equidimensional sources")
    return are_parallel(f, g) and tree_dim(f.target) <= k + 1


def boundary_maps(t: Tree):
    """The two inclusions of the boundary sum, induced by sigma and tau on
    the maximal-height blocks."""
    d = tree_dim(t)
    if d == 0:
        raise DomainError("the point has no boundary")
    bt = tree_boundary(t)
    X, Y = realize(bt), realize(t)

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


def is_admissible_categorical(f: ThetaMap, g: ThetaMap) -> bool:
    """k = 0 pairs, pairs of homogeneous maps, or pairs factoring
    homogeneously through the two boundary inclusions.

    A homogeneous h with h;d_sigma = f is the homogeneous half of the
    unique homogeneous-globular factorization of f, so f factors that way
    exactly when the globular half of hg_factorize(f) is d_sigma (and g
    likewise through d_tau).
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
    return all(
        hg_factorize(m).globular == d for m, d in zip((f, g), boundary_maps(A))
    )


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
        block = tuple(ThetaMap(LEAF, f.target.children[j], (0,), ()) for j in range(a, b))
    else:
        if f.phi != g.phi:
            return None
        phi = f.phi
        block = tuple(_fill(k - 1, p, q) for p, q in zip(f.components[0], g.components[0]))
        if any(h is None for h in block):
            return None
    return ThetaMap(globe(k + 1), f.target, phi, (block,))


# ---------------------------------------------------------------------------
# suspension and assembly

def suspend_map(f: ThetaMap) -> ThetaMap:
    from .trees import suspend

    return ThetaMap(suspend(f.source), suspend(f.target), (0, 1), ((f,),))


def assemble(source: Tree, target: Tree, leaf_maps) -> ThetaMap:
    """Glue per-leaf maps D_{i_j} -> target into a single map source -> target.

    The maps must agree on the matched boundaries; this is exactly the
    colimit description of the source sum.
    """
    leaf_maps = list(leaf_maps)
    if source.is_leaf:
        (f,) = leaf_maps
        return f
    groups = []
    idx = 0
    for child in source.children:
        take = child.n_leaves() if not child.is_leaf else 1
        groups.append(leaf_maps[idx: idx + take])
        idx += take
    phi = []
    comps = []
    prev = None
    for gi, (child, grp) in enumerate(zip(source.children, groups)):
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
            block.append(assemble(child, target.children[j - 1], sub))
        comps.append(tuple(block))
    return ThetaMap(source, target, tuple(phi), tuple(comps))


# ---------------------------------------------------------------------------
# bridge to the chain model (used by tests and the support minimality check)

def to_steiner_cell(f: ThetaMap):
    """The chain-model cell corresponding to a globe-sourced map.

    The hom/oracle test suite checks that this is a bijection between
    hom(D_k, T) and the chain-model cells; it is the dictionary between
    the two encodings.
    """
    k = tree_dim(f.source)
    if f.source != globe(k):
        raise DomainError("only globe-sourced maps are cells")

    def go(g: ThetaMap, depth):
        # levels 0..depth of (minus, plus) coefficient dicts over g.target atoms
        a, b = g.phi[0], g.phi[-1]
        out = [({((), a): 1}, {((), b): 1})]
        out.extend(({}, {}) for _ in range(depth))
        if depth == 0 or a == b:
            return out
        for j in range(a + 1, b + 1):
            comp = g.components[0][j - a - 1]
            sub = go(comp, depth - 1)
            for lv in range(depth):
                for side in (0, 1):
                    dst = out[lv + 1][side]
                    for (path, gap), c in sub[lv][side].items():
                        key = ((j - 1,) + path, gap)
                        dst[key] = dst.get(key, 0) + c
        return out

    levels = go(f, k)
    frozen = tuple(
        (
            tuple(sorted(((a, c) for a, c in minus.items() if c), key=repr)),
            tuple(sorted(((a, c) for a, c in plus.items() if c), key=repr)),
        )
        for minus, plus in levels
    )
    return frozen
