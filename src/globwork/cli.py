"""Command-line front end.

Subcommands mirror the package layout: tree operations, the ordered
extension list, operation-category queries, theory towers, cylinder
presentations and stacks, and the property-check suites.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .errors import GlobworkError
from . import globsets as gs
from . import steiner
from . import theta as th_mod
from . import theory as theory_mod
from . import cylinders as cyl_mod
from .trees import (
    all_trees,
    boundary,
    boundary_table_oracle,
    decompose,
    dim,
    globe,
    linearization,
    parse_tree,
    suspend,
    tree_to_dot,
    extension_to_dot,
    tree_to_table,
)
from .theta import hom, hom_count, is_homogeneous


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


def cmd_tree(args):
    t = parse_tree(args.literal)
    if args.action == "parse":
        _emit(args, t.to_json(), str(t))
    elif args.action == "table":
        tbl = tree_to_table(t)
        _emit(args, {"tops": list(tbl.tops), "joins": list(tbl.joins)}, str(tbl))
    elif args.action == "dim":
        _emit(args, dim(t), str(dim(t)))
    elif args.action == "boundary":
        b = boundary(t)
        _emit(args, b.to_json(), str(b))
    elif args.action == "suspend":
        s = suspend(t)
        _emit(args, s.to_json(), str(s))
    elif args.action == "decompose":
        blocks = decompose(t)
        _emit(args, [b.to_json() for b in blocks], " ".join(str(b) for b in blocks))
    if getattr(args, "dot", False):
        print(tree_to_dot(t))
    return 0


def _pick(items, index, flag):
    """items[index] for an index given on the command line."""
    if not 0 <= index < len(items):
        raise GlobworkError(f"need {flag} below {len(items)}, got {index}")
    return items[index]


def cmd_lins(args):
    t = parse_tree(args.literal)
    ext = linearization(t)
    if args.dot is not None:
        print(extension_to_dot(_pick(ext, args.dot, "--dot")))
        return 0
    records = [
        {
            "index": i,
            "klass": e.klass,
            "sector": {"path": list(e.sector.path), "gap": e.sector.gap},
            "result": str(e.result),
        }
        for i, e in enumerate(ext)
    ]
    if args.json:
        print(json.dumps(records, indent=1, sort_keys=True))
    else:
        for r in records:
            print(f"{r['index']}: {r['klass']:12s} {r['result']}")
    return 0


def _map_from_args(args, source, target):
    if args.map is not None:
        return th_mod.map_from_json(source, target, json.loads(args.map))
    if args.index is None:
        raise GlobworkError("need --index or --map")
    return _pick(hom(source, target, args.max_homs), args.index, "--index")


def cmd_theta(args):
    S = parse_tree(args.source)
    T = parse_tree(args.target)
    if args.action == "hom":
        if args.count:
            print(hom_count(S, T))
            return 0
        maps = hom(S, T, args.max_homs)
        payload = [m.to_json() for m in maps]
        if args.json:
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            for i, m in enumerate(maps):
                print(f"{i}: {th_mod.render(m)}")
        return 0
    f = _map_from_args(args, S, T)
    if args.action == "factor":
        fact = th_mod.hg_factorize(f)
        payload = {
            "middle": str(fact.middle),
            "homogeneous": fact.homogeneous.to_json(),
            "globular": fact.globular.to_json(),
        }
        _emit(args, payload, f"middle {fact.middle}")
        return 0
    if args.action == "homogeneous":
        _emit(args, is_homogeneous(f), str(is_homogeneous(f)))
        return 0
    # filler and admissible take a second map, by default f itself
    g = f if args.second is None else _pick(hom(S, T, args.max_homs), args.second, "--second")
    if args.action == "filler":
        h = th_mod.filler(f, g)
        if h is None:
            print("no filler")
            return 1
        _emit(args, h.to_json(), th_mod.render(h))
        return 0
    if args.action == "admissible":
        if args.kind == "groupoidal":
            ok = th_mod.is_admissible_groupoidal(f, g)
        else:
            ok = th_mod.is_admissible_categorical(f, g)
        _emit(args, ok, str(ok))
        return 0
    raise GlobworkError(f"unknown theta action {args.action!r}")


def _build_theory(args):
    th = theory_mod.standard_library(args.n)
    if args.groupoidalize:
        th = theory_mod.groupoidalize(th)
    return th


def cmd_theory(args):
    if args.action == "cofibs":
        I_n, J_n = theory_mod.generating_cofibrations(args.n)
        payload = {
            "I": [[f.dom.counts(), f.cod.counts()] for f in I_n],
            "J": [[f.dom.counts(), f.cod.counts()] for f in J_n],
        }
        _emit(args, payload, f"|I|={len(I_n)} |J|={len(J_n)}")
        return 0
    th = _build_theory(args)
    if args.file:
        with open(args.file) as fh:
            spec = json.load(fh)
        for batch in spec["batches"]:
            th = th.extend([theory_mod.batch_from_json(th, item) for item in batch])
    if args.action == "build":
        payload = tower_report(th)
        _emit(args, payload, render_tower(payload))
        return 0
    if args.action == "audit":
        problems = th.audit()
        _emit(args, problems, "ok" if not problems else str(problems))
        return 0 if not problems else 1
    if args.action == "interval":
        P = theory_mod.interval_presentation(th)
        _emit(args, P.to_json(), f"counts {P.counts()}")
        return 0
    raise GlobworkError(f"unknown theory action {args.action!r}")


def tower_report(th):
    return {
        "n": th.n,
        "kind": th.kind,
        "stages": {
            str(k): [
                {
                    "name": s.name,
                    "arity": str(s.arity),
                    "dim": s.dim,
                    "equation": s.is_equation,
                    "image": th_mod.render(s.theta_image) if s.theta_image else None,
                }
                for s in syms
            ]
            for k, syms in sorted(th.stages.items())
        },
    }


def render_tower(payload):
    lines = [f"{payload['kind']} tower, n={payload['n']}"]
    for k, syms in payload["stages"].items():
        names = ", ".join(
            s["name"] + ("(eq)" if s["equation"] else "") for s in syms
        )
        lines.append(f"  stage {k}: {names}")
    return "\n".join(lines)


def cmd_cyl(args):
    th = theory_mod.groupoidalize(theory_mod.standard_library(3))
    if args.action == "present":
        P = cyl_mod.cyl_presentation(args.k, th)
        _emit(args, P.to_json(), f"counts {P.counts()}")
        return 0
    if args.action == "boundary":
        P, data = cyl_mod.boundary_cyl(args.k, th)
        _emit(args, {"presentation": P.to_json(), "data": data}, f"counts {P.counts()}")
        return 0
    if args.action == "sum":
        S = cyl_mod.cyl_glob_sum(parse_tree(args.tree), th)
        _emit(
            args,
            {"counts": S.presentation.counts(), "inclusions": len(S.inclusions)},
            f"counts {S.presentation.counts()} with {len(S.inclusions)} inclusions",
        )
        return 0
    if args.action == "modification":
        P, xi = cyl_mod.modification_presentation(args.k, th)
        _emit(args, {"presentation": P.to_json(), "xi": {k: v for k, v in xi.items() if k != "equations"}}, f"counts {P.counts()}")
        return 0
    if args.action == "stack":
        A = parse_tree(args.tree)
        cands = [f for f in hom(globe(args.k), A, args.max_homs) if is_homogeneous(f)]
        if not cands:
            raise GlobworkError("no homogeneous operations into that sum")
        squares = cyl_mod.stack(_pick(cands, args.index, "--index"), th)
        if args.dot is not None:
            print(cyl_mod.stack_to_dot(squares))
            return 0
        if args.json:
            print(cyl_mod.stack_to_json(squares))
        else:
            for sq in squares:
                print(f"{sq.index}: {sq.case:12s} {sq.top}  =>  {sq.bottom}")
            meta = cyl_mod.vcompose_meta(squares)
            print(f"composite: {meta['top']} ~> {meta['bottom']} (p={meta['p']}, q={meta['q']})")
        return 0
    raise GlobworkError(f"unknown cyl action {args.action!r}")


def cmd_check(args):
    rng = random.Random(args.seed)
    failures = []

    def note(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    suite = args.suite
    if suite in ("trees", "all"):
        ok = True
        for t in all_trees(args.max_nodes):
            if len(linearization(t)) != 2 * t.n_nodes() - 1:
                ok = False
            if dim(t) >= 1 and boundary(t) != boundary_table_oracle(t):
                ok = False
        note("tree invariants", ok)
    if suite in ("theta", "all"):
        ok = True
        for T in all_trees(4):
            for k in range(4):
                if hom_count(globe(k), T) != steiner.count_cells(T, k):
                    ok = False
        note("operation/oracle equivalence", ok)
    if suite in ("factorization", "all"):
        ok = True
        count = 0
        while count < args.count:
            X = gs.random_finglobset(rng, n=2, max_cells=3)
            Y = gs.random_finglobset(rng, n=2, max_cells=3)
            f = gs.random_globmap(rng, X, Y)
            if f is None:
                continue
            m = rng.randint(0, 2)
            h, g = gs.factor_bij_ff(f, m)
            if not (gs.is_m_bijective(h, m) and gs.is_m_fully_faithful(g, m)):
                ok = False
            if h.then(g) != f:
                ok = False
            count += 1
        note("bijective/fully-faithful factorization", ok)
    if suite in ("tower", "all"):
        th = theory_mod.groupoidalize(theory_mod.standard_library(3))
        note("standard tower audit", th.audit() == [])
    if suite in ("stack", "all"):
        th = theory_mod.groupoidalize(theory_mod.standard_library(3))
        ok = True
        for A in all_trees(args.max_nodes):
            if dim(A) > 2 or A.n_leaves() > 5:
                continue
            for rho in hom(globe(2), A):
                if not is_homogeneous(rho):
                    continue
                squares = cyl_mod.stack(rho, th)
                meta = cyl_mod.vcompose_meta(squares)
                if meta["top"] != "C_t*rho(U)" or meta["bottom"] != "rho(V)*C_s":
                    ok = False
        note("stack composability", ok)
    return 0 if not failures else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="globwork", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", help="tree operations")
    p.add_argument("action", choices=["parse", "table", "dim", "boundary", "suspend", "decompose"])
    p.add_argument("literal")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("lins", help="ordered one-vertex extensions")
    p.add_argument("literal")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", type=int, default=None, metavar="INDEX")
    p.set_defaults(func=cmd_lins)

    p = sub.add_parser("theta", help="operation-category queries")
    p.add_argument("action", choices=["hom", "factor", "homogeneous", "filler", "admissible"])
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--count", action="store_true")
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--second", type=int, default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--kind", choices=["groupoidal", "categorical"], default="groupoidal")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-homs", type=int, default=th_mod.DEFAULT_HOM_BOUND)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("theory", help="theory towers")
    p.add_argument("action", choices=["build", "audit", "cofibs", "interval"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--groupoidalize", action="store_true")
    p.add_argument("--file", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("cyl", help="cylinder presentations and stacks")
    p.add_argument("action", choices=["present", "boundary", "sum", "stack", "modification"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tree", default="[[[][]][]]")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", type=int, default=None)
    p.add_argument("--max-homs", type=int, default=th_mod.DEFAULT_HOM_BOUND)
    p.set_defaults(func=cmd_cyl)

    p = sub.add_parser("check", help="property suites")
    p.add_argument("suite", choices=["trees", "theta", "factorization", "tower", "stack", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-nodes", type=int, default=6)
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GlobworkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (e.g. ``| head``): drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
