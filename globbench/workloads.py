"""The four workloads: seeded input generation, text codecs, program set-up,
and the queries with their correctness checks.

Every workload is a closed loop: one caller issues the queries of a seeded
stream one after another, each after the last returns.  The stream is made
of blocks of ``BLOCK`` slots; each block holds a fixed number of queries of
every class, shuffled, so class shares are the same in every stretch of a
run and the latency percentiles stay inside one class (see NOTES.md).  Each
class walks its pool in successive seeded permutations, so a run covers the
pool evenly instead of sampling it with repeats and gaps.

Queries address maps the way the CLI does, by (source, target, index), so
hom enumeration stays inside the timed query.  Every query returns whether
its check held; checks are oracles and properties, never golden digests.

The queries reach the package only through ``P``, so that the traced run can
swap its modules for proxies that record spans.
"""

from __future__ import annotations

import array
import base64
import contextlib
import io
import json
import random
import types

from globwork import cli, computads, cylinders, globsets, steiner, theory, theta, trees

P = types.SimpleNamespace(
    trees=trees,
    globsets=globsets,
    steiner=steiner,
    theta=theta,
    theory=theory,
    computads=computads,
    cylinders=cylinders,
    cli=cli,
)

BLOCK = 20
STREAM_LEN = 40000


# ---------------------------------------------------------------------------
# stream construction


def _permutations(rng, n):
    """Indices 0..n-1 in one seeded order after another, forever."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


def build_stream(rng, pools, shares):
    """Class/item pairs: blocks of BLOCK slots with fixed per-class counts."""
    assert sum(shares.values()) == BLOCK
    classes = list(shares)
    walkers = {c: _permutations(rng, len(pools[c])) for c in classes}
    block = [ci for ci, c in enumerate(classes) for _ in range(shares[c])]
    stream = []
    while len(stream) < STREAM_LEN:
        rng.shuffle(block)
        stream.extend([ci, next(walkers[classes[ci]])] for ci in block)
    return {"classes": classes, "pools": pools, "stream": stream}


# ---------------------------------------------------------------------------
# codecs: trees as bracket literals, maps as their JSON


class Decoder:
    """Decodes text inputs; equal tree literals share one Tree object, as
    they would in a session that parsed each input once."""

    def __init__(self):
        self._trees = {}

    def tree(self, text):
        t = self._trees.get(text)
        if t is None:
            t = self._trees[text] = trees.parse_tree(text)
        return t

    def globset(self, d):
        n = d["n"]
        cells = [[("r", k, i) for i in range(c)] for k, c in enumerate(d["cells"])]
        src, tgt = [{}], [{}]
        for k in range(1, n + 1):
            src.append({("r", k, i): ("r", k - 1, j) for i, j in enumerate(d["src"][k - 1])})
            tgt.append({("r", k, i): ("r", k - 1, j) for i, j in enumerate(d["tgt"][k - 1])})
        return globsets.FinGlobSet(n, cells, src, tgt)

    def globmap(self, X, Y, layers):
        maps = [{("r", k, i): ("r", k, j) for i, j in enumerate(layer)} for k, layer in enumerate(layers)]
        return globsets.GlobMap(X, Y, maps)

    def term(self, d):
        target = self.tree(d["t"])
        cells = tuple(self.cell(c, target) for c in d["c"])
        return theory.Term(self.tree(d["s"]), target, cells)

    def cell(self, d, target):
        if "g" in d:
            return theory.TermCell(glob=theta.map_from_json(trees.globe(d["k"]), target, d["g"]))
        return theory.TermCell(op=d["op"], args=self.term(d["a"]))


def encode_globset(X):
    """Cells of ``globsets.random_finglobset`` are ("r", k, i), i < count."""
    def side(maps, k):
        return [maps[k][("r", k, i)][2] for i in range(len(X.cells[k]))]

    return {
        "n": X.n,
        "cells": [len(c) for c in X.cells],
        "src": [side(X.src, k) for k in range(1, X.n + 1)],
        "tgt": [side(X.tgt, k) for k in range(1, X.n + 1)],
    }


def encode_globmap(f):
    return [[f.maps[k][("r", k, i)][2] for i in range(len(f.dom.cells[k]))] for k in range(f.dom.n + 1)]


def encode_term(t):
    return {"s": str(t.source), "t": str(t.target), "c": [encode_cell(c) for c in t.cells]}


def encode_cell(c):
    if c.is_glob:
        return {"k": trees.dim(c.glob.source), "g": c.glob.to_json()}
    return {"op": c.op, "a": encode_term(c.args)}


# ---------------------------------------------------------------------------
# structural formulas used as independent checks


def n_sectors(t):
    """Number of one-vertex extensions: one per gap of every node."""
    return t.arity + 1 + sum(n_sectors(c) for c in t.children)


def cylinder_counts(k):
    """Generators per dimension of cyl(D_k): two k-globes, the seams f, g
    and E_2..E_k in pairs, and the filler C."""
    if k == 0:
        return (2, 1)
    return (4,) + (6,) * (k - 1) + (4, 1)


def sum_cylinder_counts(A):
    """Generators per dimension of cyl(A) for dim(A) <= 2, block by block:
    an edge block adds two edges and a seam; a suspension block with m
    cells adds m+1 edges per side, m 2-cells per side, m+1 seams and m
    fillers."""
    p = A.arity
    counts = [2 * (p + 1), p + 1, 0, 0]
    for child in A.children:
        m = child.arity
        if m == 0:
            counts[1] += 2
            counts[2] += 1
        else:
            counts[1] += 2 * (m + 1)
            counts[2] += 2 * m + m + 1
            counts[3] += m
    while counts[-1] == 0:
        counts.pop()
    return tuple(counts)


# ---------------------------------------------------------------------------
# oracle-sweep: Steiner bijection, globsets factorisations, boundary oracle

SWEEP_NODES = 6
FACTOR_POOL = 300
BOUNDARY_POOL = 300


def gen_oracle_sweep(rng):
    sweep = [[str(t), k] for t in trees.all_trees(SWEEP_NODES) for k in range(4)]
    factor = []
    while len(factor) < FACTOR_POOL:
        X = globsets.random_finglobset(rng, n=3, max_cells=3)
        Y = globsets.random_finglobset(rng, n=3, max_cells=3)
        f = globsets.random_globmap(rng, X, Y)
        if f is not None:
            factor.append(
                {"X": encode_globset(X), "Y": encode_globset(Y), "f": encode_globmap(f), "m": len(factor) % 4}
            )
    shapes = [str(t) for t in trees.all_trees(9) if t.n_nodes() >= 5 and trees.dim(t) >= 1]
    boundary = rng.sample(shapes, BOUNDARY_POOL)
    pools = {"steiner": sweep, "factor": factor, "boundary": boundary}
    return build_stream(rng, pools, {"steiner": 6, "factor": 7, "boundary": 7})


def dec_oracle_sweep(dec, cls, item):
    if cls == "steiner":
        return dec.tree(item[0]), item[1]
    if cls == "factor":
        X, Y = dec.globset(item["X"]), dec.globset(item["Y"])
        return dec.globmap(X, Y, item["f"]), item["m"]
    return dec.tree(item)


def q_steiner(ctx, item):
    T, k = item
    cells = P.steiner.enumerate_cells(T, k)
    maps = P.theta.hom(P.trees.globe(k), T)
    images = {P.theta.to_steiner_cell(f) for f in maps}
    return len(maps) == len(cells) == len(images) and images == set(cells)


def q_factor(ctx, item):
    f, m = item
    gs = P.globsets
    h, g = gs.factor_bij_ff(f, m)
    return (
        gs.is_m_bijective(h, m)
        and gs.is_m_fully_faithful(g, m)
        and h.then(g) == f
        and gs.check_orthogonal(h, g, h, g) == gs.identity_map(h.cod)
    )


def q_boundary(ctx, T):
    return P.trees.boundary(T) == P.trees.boundary_table_oracle(T)


# ---------------------------------------------------------------------------
# theta-search: fillers, admissibility, factorisations, globular monos
# into wide targets: a root with b copies of [[][][]]

WIDTHS = (2, 3, 4)
FILLER_STRATA = {2: 4, 3: 8, 4: 28}
ADMISSIBLE_POOL = 60
HG_PER_SHAPE = 20  # per (width, k): 120 in all, the hg queries of one sub-run


def wide_target(b):
    return "[" + "[[][][]]" * b + "]"


def gen_theta_search(rng):
    D1, D2 = trees.globe(1), trees.globe(2)
    s1, t1 = theta.sigma_theta(1), theta.tau_theta(1)
    filler, admissible, hg, monos = [], [], [], []
    for b in WIDTHS:
        text = wide_target(b)
        T = trees.parse_tree(text)
        edges = theta.hom(D1, T)
        where = {f: i for i, f in enumerate(edges)}
        cells = theta.hom(D2, T)
        # a known 2-cell h gives the parallel pair (sigma;h, tau;h); its
        # index is drawn from equal strata of hom(D2, T), so the scan
        # lengths cover the hom set evenly
        n = FILLER_STRATA[b]
        for j in range(n):
            h = cells[int((j + rng.random()) * len(cells) / n)]
            filler.append([text, where[theta.compose(s1, h)], where[theta.compose(t1, h)]])
        # pairs factoring homogeneously through the two boundary inclusions
        d_sigma, d_tau = theta.boundary_maps(T)
        homog = [h for h in theta.hom(D1, trees.boundary(T)) if theta.is_homogeneous(h)]
        for _ in range(ADMISSIBLE_POOL // len(WIDTHS)):
            f = theta.compose(rng.choice(homog), d_sigma)
            g = theta.compose(rng.choice(homog), d_tau)
            admissible.append([text, where[f], where[g]])
        # the same number of maps of each shape, so that the class's
        # latency distribution does not depend on the seed's draw of shapes
        for k in (1, 2):
            count = theta.hom_count(trees.globe(k), T)
            hg.extend([text, k, rng.randrange(count)] for _ in range(HG_PER_SHAPE))
        monos.extend([text, k] for k in (0, 1, 2))
    pools = {"filler": filler, "admissible": admissible, "hg": hg, "monos": monos}
    return build_stream(rng, pools, {"filler": 4, "admissible": 2, "hg": 12, "monos": 2})


def dec_theta_search(dec, cls, item):
    return (dec.tree(item[0]),) + tuple(item[1:])


def q_filler(ctx, item):
    T, i, j = item
    th_ = P.theta
    edges = th_.hom(P.trees.globe(1), T)
    f, g = edges[i], edges[j]
    h = th_.filler(f, g)
    return h is not None and th_.compose(th_.sigma_theta(1), h) == f and th_.compose(th_.tau_theta(1), h) == g


def q_admissible(ctx, item):
    T, i, j = item
    edges = P.theta.hom(P.trees.globe(1), T)
    return P.theta.is_admissible_categorical(edges[i], edges[j]) is True


def q_hg(ctx, item):
    T, k, i = item
    th_ = P.theta
    f = th_.hom(P.trees.globe(k), T)[i]
    fact = th_.hg_factorize(f)
    return (
        th_.compose(fact.homogeneous, fact.globular) == f
        and th_.is_globular(fact.globular)
        and th_.is_homogeneous(fact.homogeneous)
        and th_.is_homogeneous(f) == (fact.globular == th_.identity(T))
    )


def q_monos(ctx, item):
    T, k = item
    monos = P.theta.all_globular_monos(P.trees.globe(k), T)
    # one globular mono D_k -> T per k-cell of the realization
    cells = P.globsets.realize(T).cells[k]
    return len(monos) == len(cells) == len(set(monos)) and all(P.theta.is_globular(m) for m in monos)


# ---------------------------------------------------------------------------
# tower-terms: substitution/evaluation of term pairs, tower builds via the CLI

TERM_SOURCES = ("D1", "D2", "[[][]]")
TERM_TARGETS = TERM_SOURCES + ("[[[]][]]", "[[[][]][]]")
PAIR_POOL = 300
TERM_DEPTH = 2
CLI_POOL = (
    ("theory", "build", "--n", "3", "--json"),
    ("theory", "build", "--n", "4", "--json"),
    ("theory", "build", "--n", "3", "--groupoidalize", "--json"),
    ("theory", "build", "--n", "4", "--groupoidalize", "--json"),
    ("theory", "audit"),
    ("theory", "audit", "--groupoidalize"),
)


class TermGenerator:
    """Random well-typed terms that pick the symbol first, then build only
    that symbol's arguments.  Consecutive leaves must share their junction
    boundary; a candidate that does not is redrawn a few times and then
    replaced by a globular cell with that boundary, if the target has one."""

    def __init__(self, rng, th):
        self.rng = rng
        self.th = th
        self.symbols = {}
        for sym in th.operations():
            if sym.theta_image is not None:
                self.symbols.setdefault(sym.dim, []).append(sym)
        self.globs = {}

    def glob_cells(self, B, k):
        key = (B, k)
        if key not in self.globs:
            X = globsets.realize(B)
            cells = X.cells[k] if k <= X.n else ()
            self.globs[key] = [theory.glob_cell(theta.cell_inclusion(B, c)) for c in cells]
        return self.globs[key]

    def cell(self, k, B, depth):
        syms = self.symbols.get(k, ())
        if depth > 0 and syms and self.rng.random() < 0.5:
            sym = self.rng.choice(syms)
            args = self.term(sym.arity, B, depth - 1)
            if args is not None:
                return theory.app_cell(sym.name, args)
        pool = self.glob_cells(B, k)
        return self.rng.choice(pool) if pool else None

    def term(self, A, B, depth, tries=8):
        th = self.th
        paths = theta.leaf_paths(A)
        for _ in range(tries):
            cells = []
            for i, p in enumerate(paths):
                k = len(p)
                if i == 0:
                    c = self.cell(k, B, depth)
                else:
                    q = paths[i - 1]
                    join = next((h for h, (a, b) in enumerate(zip(p, q)) if a != b), min(len(p), len(q)))
                    prev = th.iterated_boundary_cell(cells[-1], len(q) - join, "t")

                    def fits(c):
                        return c is not None and th.iterated_boundary_cell(c, k - join, "s") == prev

                    c = next((c for c in (self.cell(k, B, depth) for _ in range(4)) if fits(c)), None)
                    if c is None:
                        fitting = [g for g in self.glob_cells(B, k) if fits(g)]
                        c = self.rng.choice(fitting) if fitting else None
                if c is None:
                    break
                cells.append(c)
            else:
                t = theory.Term(A, B, tuple(cells))
                th.validate_term(t)
                return t
        return None


def gen_tower_terms(rng):
    # the generator's own tower: the timed run starts from a cold one
    gen = TermGenerator(rng, theory.standard_library(3))
    pairs = []
    while len(pairs) < PAIR_POOL:
        A = trees.parse_tree(rng.choice(TERM_SOURCES))
        B = trees.parse_tree(rng.choice(TERM_TARGETS))
        C = trees.parse_tree(rng.choice(TERM_TARGETS))
        t = gen.term(A, B, TERM_DEPTH)
        u = gen.term(B, C, TERM_DEPTH)
        if t is not None and u is not None:
            pairs.append({"t": encode_term(t), "u": encode_term(u)})
    pools = {"pair": pairs, "cli": [list(argv) for argv in CLI_POOL]}
    return build_stream(rng, pools, {"pair": 16, "cli": 4})


def dec_tower_terms(dec, cls, item):
    if cls == "pair":
        return dec.term(item["t"]), dec.term(item["u"])
    return tuple(item)


def q_pair(ctx, item):
    t, u = item
    th = ctx["th"]
    tu = th.substitute(t, u)
    th.validate_term(tu)
    return th.eval_term(tu) == P.theta.compose(th.eval_term(t), th.eval_term(u))


def q_cli(ctx, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = P.cli.main(list(argv))
    if code != 0:
        return False
    if argv[1] == "audit":
        # the CLI prints "ok" exactly when audit() == []
        return out.getvalue().strip() == "ok"
    report = json.loads(out.getvalue())
    n = int(argv[argv.index("--n") + 1])
    kind = "groupoidal" if "--groupoidalize" in argv else "categorical"
    syms = [(int(k), s) for k, stage in report["stages"].items() for s in stage]
    return (
        report["n"] == n
        and report["kind"] == kind
        and bool(syms)
        and all(s["dim"] == k and s["equation"] == (k == n + 1) for k, s in syms)
        and all(s["image"] is not None for k, s in syms if kind == "categorical" and k <= n)
    )


def setup_tower_terms():
    return {"th": P.theory.standard_library(3)}


# ---------------------------------------------------------------------------
# cylinder-stacks: stacks over the criterion-9 family, presentations

FAMILY_NODES = 9
FAMILY_LEAVES = 5


def cylinder_family():
    return [t for t in trees.all_trees(FAMILY_NODES) if trees.dim(t) <= 2 and t.n_leaves() <= FAMILY_LEAVES]


def gen_cylinder_stacks(rng):
    family = cylinder_family()
    stacks = []
    for k in (1, 2):
        D = trees.globe(k)
        for A in family:
            count = sum(1 for f in theta.hom(D, A) if theta.is_homogeneous(f))
            stacks.extend([k, str(A), i] for i in range(count))
    present = [["cyl", k] for k in range(4)] + [["mod", k] for k in range(3)]
    sums = [str(A) for A in family]
    pools = {"stack": stacks, "present": present, "sum": sums}
    return build_stream(rng, pools, {"stack": 12, "present": 4, "sum": 4})


def dec_cylinder_stacks(dec, cls, item):
    if cls == "stack":
        return item[0], dec.tree(item[1]), item[2]
    if cls == "sum":
        return dec.tree(item)
    return tuple(item)


def q_stack(ctx, item):
    k, A, idx = item
    th_ = P.theta
    cands = [f for f in th_.hom(P.trees.globe(k), A) if th_.is_homogeneous(f)]
    squares = P.cylinders.stack(cands[idx], ctx["th"])
    meta = P.cylinders.vcompose_meta(squares)
    if meta["top"] != "C_t*rho(U)" or meta["bottom"] != "rho(V)*C_s" or len(squares) != n_sectors(A):
        return False
    for sq in squares:
        if sq.source_degenerate != (k == 2 and sq.case in ("H2-Max", "H2-Mid", "H3")):
            return False
        if sq.target_degenerate != (k == 2 and sq.case in ("H2-Min", "H2-Mid", "H3")):
            return False
    ps = [sq.p for sq in squares]
    qs = [sq.q for sq in squares]
    return meta["p"] == (None if all(v is None for v in ps) else 0) and meta["q"] == (
        None if all(v is None for v in qs) else 0
    )


def q_present(ctx, item):
    kind, k = item
    th = ctx["th"]
    cyl = P.cylinders.cyl_presentation(k, th)
    if kind == "cyl":
        if cyl.counts() != cylinder_counts(k):
            return False
        if k > 2:
            return True
        S = P.cylinders.cyl_glob_sum(P.trees.globe(k), th)
        return P.computads.find_computad_iso(S.presentation, cyl) is not None
    M, xi = P.cylinders.modification_presentation(k, th)
    for key in ("Xi0", "Xi1"):
        mapping = xi[key]
        if set(mapping) != set(cyl.order):
            return False
        if any(mapping[n] not in M.gens or M.gens[mapping[n]].dim != cyl.gens[n].dim for n in cyl.order):
            return False
    # the two cylinder copies share both globes and differ in the filler
    globes = [n for n in cyl.order if n[0] in "ABab"]
    return xi["Xi0"]["C"] != xi["Xi1"]["C"] and all(xi["Xi0"][n] == xi["Xi1"][n] for n in globes)


def q_sum(ctx, A):
    S = P.cylinders.cyl_glob_sum(A, ctx["th"])
    return S.presentation.counts() == sum_cylinder_counts(A) and len(S.inclusions) == n_sectors(A)


def setup_cylinder_stacks():
    return {"th": P.theory.groupoidalize(P.theory.standard_library(3))}


# ---------------------------------------------------------------------------


def _no_setup():
    return {}


WORKLOADS = {
    "oracle-sweep": types.SimpleNamespace(
        generate=gen_oracle_sweep,
        decode=dec_oracle_sweep,
        setup=_no_setup,
        queries={"steiner": q_steiner, "factor": q_factor, "boundary": q_boundary},
    ),
    "theta-search": types.SimpleNamespace(
        generate=gen_theta_search,
        decode=dec_theta_search,
        setup=_no_setup,
        queries={"filler": q_filler, "admissible": q_admissible, "hg": q_hg, "monos": q_monos},
    ),
    "tower-terms": types.SimpleNamespace(
        generate=gen_tower_terms,
        decode=dec_tower_terms,
        setup=setup_tower_terms,
        queries={"pair": q_pair, "cli": q_cli},
    ),
    "cylinder-stacks": types.SimpleNamespace(
        generate=gen_cylinder_stacks,
        decode=dec_cylinder_stacks,
        setup=setup_cylinder_stacks,
        queries={"stack": q_stack, "present": q_present, "sum": q_sum},
    ),
}


def generate(name, seed):
    """The workload's inputs as lines of text: a header with the class names
    and the stream of (class index, item index) pairs packed as base64
    uint16, then one JSON line per pool item.  Decoding line by line keeps
    the decoder's own memory small next to the program's."""
    data = WORKLOADS[name].generate(random.Random(seed))
    pairs = array.array("H", (v for pair in data["stream"] for v in pair))
    header = {"classes": data["classes"], "stream": base64.b64encode(pairs.tobytes()).decode()}
    yield json.dumps(header)
    for ci, c in enumerate(data["classes"]):
        for item in data["pools"][c]:
            yield json.dumps([ci, item], separators=(",", ":"))


def decode(name, lines):
    """Decoded inputs: (classes, query functions, pools, stream), the pools
    as lists of program objects per class and the stream as an array of
    alternating class and item indices."""
    wl = WORKLOADS[name]
    dec = Decoder()
    lines = iter(lines)
    header = json.loads(next(lines))
    classes = header["classes"]
    stream = array.array("H", base64.b64decode(header["stream"]))
    pools = [[] for _ in classes]
    for line in lines:
        ci, item = json.loads(line)
        pools[ci].append(wl.decode(dec, classes[ci], item))
    return classes, [wl.queries[c] for c in classes], pools, stream
