"""Finite truncated globular sets, spheres and the (bij_m, ff_m) factorization.

Cells are hashable tuples, each named canonically by the construction
that makes it, so every construction is reproducible bit for bit.
Where the structure fixes the answer it is constructed, not searched: the
sphere S^k is the globe D_{k+1} without its top cell, so the boundary
inclusions and the fold S^k -> D_k are identities on cells, and both
halves of the (bij_m, ff_m) factorization system read one pullback of
parallel pairs, bucketed by image.
"""

from __future__ import annotations

import functools
import itertools
from .errors import DomainError, TypingError
from .trees import Tree, cells as tree_cells, dim as tree_dim, face, globe


class FinGlobSet:
    """An n-truncated globular set on finite cell sets.

    ``cells[k]`` is a sorted tuple of cell ids, ``src[k]``/``tgt[k]`` are
    total maps ``cells[k] -> cells[k-1]`` for ``k >= 1``.  ``n = -1`` is the
    empty globular set.
    """

    def __init__(self, n, cells, src, tgt):
        self.n = n
        self.cells = tuple(tuple(sorted(c, key=repr)) for c in cells)
        self.src = tuple(dict(d) for d in src)
        self.tgt = tuple(dict(d) for d in tgt)
        if len(self.cells) != n + 1 or len(self.src) != n + 1 or len(self.tgt) != n + 1:
            raise TypingError("cells/src/tgt must have length n+1")
        self.validate()

    def validate(self):
        below = set()
        for k, level in enumerate(self.cells):
            here = set(level)
            if len(here) != len(level):
                raise TypingError(f"a cell repeats in level {k}")
            for c in level if k >= 1 else ():
                for mp in (self.src[k], self.tgt[k]):
                    if c not in mp or mp[c] not in below:
                        raise TypingError(f"missing or dangling boundary for {c!r}")
            below = here
        for k in range(2, self.n + 1):
            for c in self.cells[k]:
                s, t = self.src[k][c], self.tgt[k][c]
                if self.src[k - 1][s] != self.src[k - 1][t] or self.tgt[k - 1][s] != self.tgt[k - 1][t]:
                    raise TypingError(f"globularity fails at {c!r}")

    def counts(self):
        return tuple(len(c) for c in self.cells)

    def __eq__(self, other):
        return (
            isinstance(other, FinGlobSet)
            and self.n == other.n
            and self.cells == other.cells
            and self.src == other.src
            and self.tgt == other.tgt
        )

    def __repr__(self):
        return f"FinGlobSet(n={self.n}, counts={self.counts()})"


EMPTY = FinGlobSet(-1, (), (), ())


class GlobMap:
    """A map of globular sets: per-dimension functions commuting with src/tgt."""

    def __init__(self, dom: FinGlobSet, cod: FinGlobSet, maps):
        self.dom = dom
        self.cod = cod
        self.maps = tuple(dict(m) for m in maps)
        self.validate()

    def validate(self):
        if len(self.maps) != self.dom.n + 1:
            raise TypingError("component count must match domain truncation")
        if self.dom.n > self.cod.n:
            raise TypingError("codomain truncation too small")
        for k in range(self.dom.n + 1):
            cod_cells = set(self.cod.cells[k])
            for c in self.dom.cells[k]:
                if c not in self.maps[k]:
                    raise TypingError(f"no image for {c!r}")
                if self.maps[k][c] not in cod_cells:
                    raise TypingError(f"image of {c!r} is not a cell")
        for k in range(1, self.dom.n + 1):
            here, below = self.maps[k], self.maps[k - 1]
            sides = (("src", self.dom.src[k], self.cod.src[k]), ("tgt", self.dom.tgt[k], self.cod.tgt[k]))
            for c in self.dom.cells[k]:
                x = here[c]
                for name, dom_side, cod_side in sides:
                    if cod_side[x] != below[dom_side[c]]:
                        raise TypingError(f"{name} not preserved at {c!r}")

    def __eq__(self, other):
        return (
            isinstance(other, GlobMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.maps == other.maps
        )

    def then(self, other: "GlobMap") -> "GlobMap":
        if other.dom != self.cod:
            raise TypingError("composition mismatch")
        maps = [
            {c: other.maps[k][v] for c, v in self.maps[k].items()}
            for k in range(self.dom.n + 1)
        ]
        return GlobMap(self.dom, other.cod, maps)


def identity_map(X: FinGlobSet) -> GlobMap:
    return GlobMap(X, X, [{c: c for c in X.cells[k]} for k in range(X.n + 1)])


# ---------------------------------------------------------------------------
# realization of trees

@functools.lru_cache(maxsize=None)
def realize(t: Tree) -> FinGlobSet:
    """The globular set pasted together according to the tree.

    The d-cells are the gaps of the height-d vertices: cell ids are pairs
    ``(vertex path, gap index)``, so identifiers are canonical.
    """
    n = tree_dim(t)
    cells = [[] for _ in range(n + 1)]
    src = [dict() for _ in range(n + 1)]
    tgt = [dict() for _ in range(n + 1)]
    for c in tree_cells(t):
        h = len(c[0])
        cells[h].append(c)
        if h >= 1:
            src[h][c] = face(c, h - 1, "s")
            tgt[h][c] = face(c, h - 1, "t")
    return FinGlobSet(n, cells, src, tgt)


def globe_set(k: int) -> FinGlobSet:
    return realize(globe(k))


def globe_face_map(k: int, side: str) -> GlobMap:
    """sigma_k (side "s") or tau_k (side "t") : D_k -> D_{k+1} on realizations."""
    Dk, Dk1 = globe_set(k), globe_set(k + 1)
    maps = [{c: c for c in Dk.cells[h]} for h in range(k)]
    (top,) = Dk.cells[k]
    maps.append({top: (top[0], 0 if side == "s" else 1)})
    return GlobMap(Dk, Dk1, maps)


# ---------------------------------------------------------------------------
# spheres

def sphere(k: int) -> FinGlobSet:
    """S^k: the globe D_{k+1} without its top cell, so S^{-1} is empty."""
    if k < -1:
        raise DomainError("sphere index must be >= -1")
    if k == -1:
        return EMPTY
    D = globe_set(k + 1)
    return FinGlobSet(k, D.cells[: k + 1], D.src[: k + 1], D.tgt[: k + 1])


def boundary_inclusion(k: int) -> GlobMap:
    """j_k : S^{k-1} -> D_k, the identity on the cells below the top one."""
    S = sphere(k - 1)
    return GlobMap(S, globe_set(k), [{c: c for c in layer} for layer in S.cells])


def sphere_collapse(k: int) -> GlobMap:
    """(1, 1) : S^k -> D_k, folding the two parallel top cells together."""
    S, D = sphere(k), globe_set(k)
    (top,) = D.cells[k]
    maps = [{c: c for c in layer} for layer in S.cells[:k]]
    return GlobMap(S, D, maps + [dict.fromkeys(S.cells[k], top)])


# ---------------------------------------------------------------------------
# the (bij_m, ff_m) factorization system

def pad_to(X: FinGlobSet, n: int) -> FinGlobSet:
    """The same globular set viewed at a higher truncation (empty on top)."""
    if n < X.n:
        raise DomainError("cannot pad downwards")
    extra = n - X.n
    return FinGlobSet(
        n,
        list(X.cells) + [()] * extra,
        list(X.src) + [{}] * extra,
        list(X.tgt) + [{}] * extra,
    )


def pad_map(f: GlobMap, n: int) -> GlobMap:
    return GlobMap(pad_to(f.dom, n), pad_to(f.cod, n), list(f.maps) + [{}] * (n - f.dom.n))


def is_m_bijective(f: GlobMap, m: int) -> bool:
    if f.dom.n < f.cod.n:
        f = pad_map(f, f.cod.n)
    for k in range(min(m, f.cod.n) + 1):
        image = set(f.maps[k].values())
        if len(image) != len(f.maps[k]) or image != set(f.cod.cells[k]):
            return False
    return True


def _pullback(Y: FinGlobSet, k: int, below, image: dict, src: dict, tgt: dict):
    """The triples (y, ws, wt): a k-cell y of Y with parallel (k-1)-cells
    ws, wt of ``below`` (boundaries ``src``/``tgt``) over its source and
    target under ``image``, in the order of Y's cells, then of ``below``.

    The pullback ranges over parallel pairs: with the bare product reading
    no factorization would exist at all (a non-parallel pair with equal
    images would demand a cell gluing them, breaking globularity).
    """
    fibres = {}
    for w in below:
        fibres.setdefault(image[w], []).append(w)
    for y in Y.cells[k]:
        for ws in fibres.get(Y.src[k][y], ()):
            for wt in fibres.get(Y.tgt[k][y], ()):
                if k == 1 or (src[ws] == src[wt] and tgt[ws] == tgt[wt]):
                    yield y, ws, wt


def is_m_fully_faithful(f: GlobMap, m: int) -> bool:
    """Cartesian boundary squares above m: each pullback triple over a
    k-cell of the codomain, k > m, is hit by exactly one k-cell."""
    if f.dom.n < f.cod.n:
        f = pad_map(f, f.cod.n)
    X, Y = f.dom, f.cod
    for k in range(m + 1, Y.n + 1):
        hits = {(f.maps[k][c], X.src[k][c], X.tgt[k][c]) for c in X.cells[k]}
        triples = set(_pullback(Y, k, X.cells[k - 1], f.maps[k - 1], X.src[k - 1], X.tgt[k - 1]))
        if len(hits) != len(X.cells[k]) or hits != triples:
            return False
    return True


def factor_bij_ff(f: GlobMap, m: int):
    """Factor f = g . h with h m-bijective and g m-fully faithful.

    The middle object keeps the domain's cells through dimension m and is
    the iterated pullback above it.
    """
    if f.dom.n < f.cod.n:
        f = pad_map(f, f.cod.n)
    X, Y = f.dom, f.cod
    low = min(m, X.n) + 1
    cells, src, tgt = list(X.cells[:low]), list(X.src[:low]), list(X.tgt[:low])
    h_maps = [{c: c for c in layer} for layer in cells]
    g_maps = list(f.maps[:low])
    for k in range(low, X.n + 1):
        layer = [("pb",) + w for w in _pullback(Y, k, cells[k - 1], g_maps[k - 1], src[k - 1], tgt[k - 1])]
        cells.append(layer)
        src.append({w: w[2] for w in layer})
        tgt.append({w: w[3] for w in layer})
        g_maps.append({w: w[1] for w in layer})
        h_maps.append({
            c: ("pb", f.maps[k][c], h_maps[k - 1][X.src[k][c]], h_maps[k - 1][X.tgt[k][c]])
            for c in X.cells[k]
        })
    W = FinGlobSet(X.n, cells, src, tgt)
    return GlobMap(X, W, h_maps), GlobMap(W, Y, g_maps)


def check_orthogonal(i: GlobMap, p: GlobMap, top: GlobMap, bottom: GlobMap) -> GlobMap:
    """The unique filler of a (bij_m, ff_m) lifting square.

    Diagonals d (d.i = top, p.d = bottom) are built level by level: a
    k-cell b of B may go to the k-cells x of X with p(x) = bottom(b) whose
    source and target are the images of b's, one bucket of X_k, or only to
    top(a) if b = i(a).  The choices within a level are independent, and
    the search stops at the second diagonal.  A free cell of B whose image
    under bottom has an empty fibre in X, or whose faces are both forced
    and whose one bucket is empty, refutes the square up front.
    """
    A, B, X = i.dom, i.cod, p.dom
    if top.dom != A or bottom.dom != B or top.cod != X or bottom.cod != p.cod:
        raise TypingError("square does not type-check")
    forced = [{} for _ in range(B.n + 1)]
    clash = False  # two cells of A with one image in B and two in X
    for k in range(A.n + 1):
        for c in A.cells[k]:
            b, x = i.maps[k][c], top.maps[k][c]
            if p.maps[k][x] != bottom.maps[k][b]:
                raise TypingError("square does not commute")
            clash = clash or forced[k].setdefault(b, x) != x
    buckets = [{} for _ in range(B.n + 1)]
    for k in range(B.n + 1):
        if len(forced[k]) < len(B.cells[k]):  # some k-cell of B is free
            for x in X.cells[k] if k <= X.n else ():
                ends = (X.src[k][x], X.tgt[k][x]) if k else ()
                buckets[k].setdefault((p.maps[k][x], *ends), []).append(x)
            # a diagonal sends each free b into the fibre of p over bottom(b),
            # and into the one bucket over its faces where both are forced
            free = [b for b in B.cells[k] if b not in forced[k]]
            clash = clash or not {bottom.maps[k][b] for b in free} <= {key[0] for key in buckets[k]}
            for b in free if k else ():
                s, t = B.src[k][b], B.tgt[k][b]
                if s in forced[k - 1] and t in forced[k - 1]:
                    clash = clash or (bottom.maps[k][b], forced[k - 1][s], forced[k - 1][t]) not in buckets[k]

    found = [] if clash else list(itertools.islice(_lifts(B, X, forced, buckets, bottom, []), 2))
    if not found:
        raise DomainError("no filler: orthogonality violated")
    if len(found) > 1:
        raise DomainError("filler is not unique: orthogonality violated")
    return found[0]


def _lifts(B: FinGlobSet, X: FinGlobSet, forced, buckets, bottom: GlobMap, layers):
    """The diagonals B -> X of ``check_orthogonal`` whose levels below
    len(layers) are ``layers``, in order: a forced cell goes to its image,
    and a free one to the bucket over its faces.  A forced image needs no
    face test once ``check_orthogonal`` has found no clash: the faces of
    b = i(a) are forced to top of a's faces, the faces of top(a)."""
    k = len(layers)
    if k > B.n:
        yield GlobMap(B, X, layers)
        return
    options = []
    for b in B.cells[k]:
        if b in forced[k]:  # b = i(a): top(a)
            options.append([forced[k][b]])
        else:
            ends = (layers[k - 1][B.src[k][b]], layers[k - 1][B.tgt[k][b]]) if k else ()
            options.append(buckets[k].get((bottom.maps[k][b], *ends), []))
    for choice in itertools.product(*options):
        yield from _lifts(B, X, forced, buckets, bottom, layers + [dict(zip(B.cells[k], choice))])


# ---------------------------------------------------------------------------
# loop space

def loopspace(X: FinGlobSet, a, b) -> FinGlobSet:
    """The loop space of X at (a, b): the 1-cells a -> b, then level by
    level the cells whose source lies one level below (by globularity so
    does their target), each one dimension down."""
    if X.n < 0 or a not in set(X.cells[0]) or b not in set(X.cells[0]):
        raise DomainError("loopspace needs two 0-cells of X")
    cells = [[f for f in X.cells[1] if X.src[1][f] == a and X.tgt[1][f] == b]] if X.n else []
    for k in range(2, X.n + 1):
        below = set(cells[-1])
        cells.append([x for x in X.cells[k] if X.src[k][x] in below])
    src, tgt = (
        [{x: side[k + 1][x] for x in layer} if k else {} for k, layer in enumerate(cells)]
        for side in (X.src, X.tgt)
    )
    return FinGlobSet(X.n - 1, cells, src, tgt)


# ---------------------------------------------------------------------------
# locally posetal bicategory checklist on a 2-truncated globular set

def chi_check(X: FinGlobSet, structure: dict) -> list:
    """Check the seven structure items for the inhabitation bicategory of X.

    ``structure`` provides the choice tables: ``comp1`` maps composable
    pairs (f, g) [f then g] to a 1-cell, ``id1`` maps 0-cells to 1-cells.
    Item (2), (3) and (5) are inhabitation conditions (at most one 2-cell
    between parallel 1-cells); items (6) and (7) are nonemptiness of the
    relevant 2-cell sets.
    """
    if X.n != 2:
        raise TypingError("chi_check needs a 2-truncated globular set")
    ones = set(X.cells[1])
    zeros = set(X.cells[0])
    comp1 = dict(structure.get("comp1", {}))
    id1 = dict(structure.get("id1", {}))
    for (f, g), h in comp1.items():
        if f not in ones or g not in ones or h not in ones:
            raise TypingError(f"comp1 entry {(f, g, h)!r} mentions unknown 1-cells")
    for a, f in id1.items():
        if a not in zeros or f not in ones:
            raise TypingError(f"id1 entry {(a, f)!r} is ill-typed")

    report = []

    def item(number, ok, witnesses, detail):
        report.append({"item": number, "ok": ok, "witnesses": witnesses, "detail": detail})

    starting = {}  # 0-cell -> the 1-cells out of it, in cell order
    for f in X.cells[1]:
        starting.setdefault(X.src[1][f], []).append(f)
    pairs = [(f, g) for f in X.cells[1] for g in starting.get(X.tgt[1][f], ())]
    # the 2-cell boundary pairs as an ordered set: witnesses follow the
    # order of the 2-cells, not of the hash
    rel = dict.fromkeys((X.src[2][c], X.tgt[2][c]) for c in X.cells[2])

    # (1) composition of 1-cells
    bad = []
    for f, g in pairs:
        h = comp1.get((f, g))
        if h is None:
            bad.append((f, g, "missing"))
        elif X.src[1][h] != X.src[1][f] or X.tgt[1][h] != X.tgt[1][g]:
            bad.append((f, g, "bad boundary"))
    item(1, not bad, bad, "composites for all composable pairs")

    # (2) vertical composition of 2-cells (transitivity of inhabitation)
    bad = []
    for (f, g) in rel:
        for (g2, h) in rel:
            if g2 == g and (f, h) not in rel:
                bad.append((f, g, h))
    item(2, not bad, bad, "2-cell inhabitation closed under vertical pasting")

    # (3) whiskerings on both sides
    bad = []
    for (f, g) in rel:
        for h in X.cells[1]:
            # right: f.h and g.h, left: h.f and h.g
            for side, near, far, order in (("right", X.src, X.tgt, 1), ("left", X.tgt, X.src, -1)):
                if near[1][h] == far[1][f]:
                    wf, wg = (comp1.get((x, h)[::order]) for x in (f, g))
                    if wf is not None and wg is not None and (wf, wg) not in rel:
                        bad.append((side, f, g, h))
    item(3, not bad, bad, "whiskered 2-cells exist")

    # (4) identity 1-cells
    bad = []
    for a in X.cells[0]:
        f = id1.get(a)
        if f is None:
            bad.append((a, "missing"))
        elif X.src[1][f] != a or X.tgt[1][f] != a:
            bad.append((a, "not an endo-cell"))
    item(4, not bad, bad, "identity 1-cells chosen for every object")

    # (5) identity 2-cells
    bad = [f for f in X.cells[1] if (f, f) not in rel]
    item(5, not bad, bad, "reflexive 2-cells on every 1-cell")

    # (6) unit constraints (nonemptiness)
    bad = []
    for f in X.cells[1]:
        # pre: id(src f).f, post: f.id(tgt f)
        for side, end, order in (("pre-unit", X.src, 1), ("post-unit", X.tgt, -1)):
            a = end[1][f]
            key = (id1.get(a), f)[::order]
            if a in id1 and key in comp1:
                c = comp1[key]
                bad += [(side, f, pair) for pair in ((c, f), (f, c)) if pair not in rel]
    item(6, not bad, bad, "unit constraint 2-cells inhabit both directions")

    # (7) associators (nonemptiness)
    bad = []
    for f, g in pairs:
        for h in starting.get(X.tgt[1][g], ()):
            fg = comp1.get((f, g))
            gh = comp1.get((g, h))
            if fg is None or gh is None:
                continue
            left = comp1.get((fg, h))
            right = comp1.get((f, gh))
            if left is None or right is None:
                continue
            if (left, right) not in rel or (right, left) not in rel:
                bad.append((f, g, h))
    item(7, not bad, bad, "associator 2-cells inhabit both directions")
    return report


# ---------------------------------------------------------------------------
# seeded random instances for the property suites

def random_finglobset(rng, n=2, max_cells=4) -> FinGlobSet:
    cells = [[("r", 0, i) for i in range(rng.randint(1, max_cells))]]
    src = [dict()]
    tgt = [dict()]
    for k in range(1, n + 1):
        layer = []
        src.append({})
        tgt.append({})
        # group (k-1)-cells by boundary so globularity can be respected
        groups = {}
        for c in cells[k - 1]:
            key = (src[k - 1].get(c), tgt[k - 1].get(c)) if k >= 2 else None
            groups.setdefault(key, []).append(c)
        wanted = rng.randint(0, max_cells) if groups else 0
        for i in range(wanted):
            group = groups[rng.choice(sorted(groups, key=repr))]
            c = ("r", k, i)
            layer.append(c)
            src[k][c] = rng.choice(group)
            tgt[k][c] = rng.choice(group)
        cells.append(layer)
    return FinGlobSet(n, cells, src, tgt)


def random_globmap(rng, X: FinGlobSet, Y: FinGlobSet):
    for _ in range(50):
        maps = []
        ok = True
        for k in range(X.n + 1):
            maps.append({})
            for c in X.cells[k]:
                if k == 0:
                    cands = list(Y.cells[0])
                else:
                    cands = [
                        y
                        for y in Y.cells[k]
                        if Y.src[k][y] == maps[k - 1][X.src[k][c]]
                        and Y.tgt[k][y] == maps[k - 1][X.tgt[k][c]]
                    ]
                if not cands:
                    ok = False
                    break
                maps[k][c] = rng.choice(cands)
            if not ok:
                break
        if ok:
            return GlobMap(X, Y, maps)
    return None
