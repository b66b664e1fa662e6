"""Span tracing of the globwork layers, installed from outside the package.

``Tracer.install`` wraps every function that one globwork module imports
from another, the public methods of the package's classes, and the modules
the benchmark calls through (``workloads.P``).  A wrapper opens a span only
when control crosses into a different module: recursion inside a module
(``compose``, ``hom``, ``is_globular``) runs straight through.  Each query
is a root span of the pseudo-layer ``bench``.

Not seen as spans, so their time counts to the caller: constructors of the
package's dataclasses, and names a function imports inside its own body.

Counts are computed here, outside the package, by hooks on a few
functions; those hooks run on every call, in-module ones included, which is
why the functions they watch are also wrapped in their defining module.
"""

from __future__ import annotations

import functools
import json
import time
import types

LAYERS = ("trees", "globsets", "steiner", "theta", "theory", "computads", "cylinders", "cli")


def _layer_of(obj):
    mod = getattr(obj, "__module__", None) or ""
    head, _, tail = mod.rpartition(".")
    return tail if head == "globwork" and tail in LAYERS else None


def _is_routine(obj):
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class _ModuleProxy:
    """A module whose functions are replaced by their span wrappers."""

    def __init__(self, module, wrapped):
        self.__dict__.update(wrapped)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, query id)
        self.stack = []  # open spans: [layer, id, child time]
        self.self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.calls = dict.fromkeys(LAYERS + ("bench",), 0)
        self.counts = dict.fromkeys(
            (
                "steiner.vectors_tried",
                "steiner.cells_found",
                "theta.hom.maps",
                "theta.filler.scanned",
                "theta.filler.found",
                "theta.admissible.candidates",
                "theta.homogeneous.tested",
                "theta.homogeneous.found",
                "theory.term_cells",
                "cylinders.squares",
            ),
            0,
        )
        self.searches = []  # open filler / admissibility calls: [kind, hom result]
        self.fillers = []  # (filler result, the hom tuple it scanned)
        self.query = None
        self.caches = {}
        self._cache_start = {}
        self._hook_table = self._hooks()

    # -- spans --------------------------------------------------------------

    def _span(self, layer, label, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1][1] if stack else None
        sid = len(self.spans)
        self.spans.append(None)
        frame = [layer, sid, 0.0]
        stack.append(frame)
        self.calls[layer] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[layer] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            self.spans[sid] = (sid, parent, label, start, end, self.query)

    def run_query(self, qid, cls, fn, ctx, item):
        """Run one query as the root span ``bench.<class>``."""
        self.query = qid
        try:
            return self._span("bench", "bench." + cls, fn, (ctx, item), {})
        finally:
            self.query = None
            self._settle()

    def _wrap(self, layer, name, fn):
        stack = self.stack
        span = self._span
        label = f"{layer}.{name}"
        hook = self._hook_table.get(label)
        if hook is None:

            def call(*args, **kwargs):
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return span(layer, label, fn, args, kwargs)

        else:
            pre, post = hook

            def call(*args, **kwargs):
                token = pre(args, kwargs) if pre else None
                try:
                    if stack and stack[-1][0] == layer:
                        result = fn(*args, **kwargs)
                    else:
                        result = span(layer, label, fn, args, kwargs)
                finally:
                    if pre:
                        self.searches.pop()
                post(args, kwargs, result, token)
                return result

        functools.update_wrapper(call, fn)
        return call

    # -- counting hooks -----------------------------------------------------

    def _hooks(self):
        c = self.counts

        def open_search(kind):
            def pre(args, kwargs):
                token = [kind, None]
                self.searches.append(token)
                return token

            return pre

        def on_hom(args, kwargs, result, token):
            c["theta.hom.maps"] += len(result)
            if self.searches:
                search = self.searches[-1]
                if search[0] == "filler":
                    search[1] = result
                else:
                    c["theta.admissible.candidates"] += len(result)

        def on_filler(args, kwargs, result, token):
            self.fillers.append((result, token[1]))

        def on_homogeneous(args, kwargs, result, token):
            c["theta.homogeneous.tested"] += 1
            c["theta.homogeneous.found"] += bool(result)

        def on_solve(args, kwargs, result, token):
            complex_, k = args[0], args[1]
            bound = args[3] if len(args) > 3 else kwargs.get("bound", 2)
            atoms = complex_.atoms[k] if k <= complex_.n else ()
            c["steiner.vectors_tried"] += (bound + 1) ** len(atoms)

        def add(key, size):
            def post(args, kwargs, result, token):
                c[key] += size(result)

            return post

        return {
            "theta.hom": (None, on_hom),
            "theta.filler": (open_search("filler"), on_filler),
            "theta.is_admissible_categorical": (open_search("admissible"), lambda *a: None),
            "theta.is_homogeneous": (None, on_homogeneous),
            "steiner.solve": (None, on_solve),
            "steiner.enumerate_cells": (None, add("steiner.cells_found", len)),
            "theory.substitute": (None, add("theory.term_cells", lambda t: len(t.cells))),
            "cylinders.stack": (None, add("cylinders.squares", len)),
        }

    def _settle(self):
        """Scan lengths of the fillers of the last query: the position of
        the returned filler in hom(D_{k+1}, T) plus one, or |hom| if none."""
        c = self.counts
        for result, scanned in self.fillers:
            if scanned is None:
                continue
            if result is None:
                c["theta.filler.scanned"] += len(scanned)
            else:
                c["theta.filler.scanned"] += next(i for i, h in enumerate(scanned) if h is result) + 1
                c["theta.filler.found"] += 1
        self.fillers.clear()

    # -- installation -------------------------------------------------------

    def install(self, namespace):
        """Wrap the package reachable from ``namespace`` (layer -> module)."""
        modules = {layer: getattr(namespace, layer) for layer in LAYERS}
        wrappers = {}

        def wrapper(obj):
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(_layer_of(obj), obj.__name__, obj)
            return wrappers[id(obj)]

        own = {
            layer: {n: o for n, o in vars(mod).items() if _is_routine(o) and _layer_of(o) == layer}
            for layer, mod in modules.items()
        }
        for layer, routines in own.items():
            for name, obj in routines.items():
                if hasattr(obj, "cache_info"):
                    self.caches[f"{layer}.{name}"] = obj
        self._cache_start = {k: f.cache_info() for k, f in self.caches.items()}

        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.ModuleType) and obj in modules.values() and obj is not mod:
                    routines = own[obj.__name__.rpartition(".")[2]]
                    setattr(mod, name, _ModuleProxy(obj, {n: wrapper(o) for n, o in routines.items()}))
                elif _is_routine(obj) and _layer_of(obj) and (
                    _layer_of(obj) != layer or f"{layer}.{obj.__name__}" in self._hook_table
                ):
                    setattr(mod, name, wrapper(obj))
            for cls in [o for o in vars(mod).values() if isinstance(o, type) and _layer_of(o) == layer]:
                for name, fn in list(vars(cls).items()):
                    if isinstance(fn, types.FunctionType) and not name.startswith("_"):
                        setattr(cls, name, wrapper(fn))
        for layer, mod in modules.items():
            setattr(namespace, layer, _ModuleProxy(mod, {n: wrapper(o) for n, o in own[layer].items()}))

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as name -> (value, unit)."""
        c = self.counts
        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in LAYERS}
        for layer in ("trees", "globsets", "theta", "theory", "computads", "cli"):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for key in c:
            if not key.endswith(".found"):
                out[key] = (c[key], "count")
        out["steiner.yield"] = (_ratio(c["steiner.cells_found"], c["steiner.vectors_tried"]), "ratio")
        out["theta.filler.yield"] = (_ratio(c["theta.filler.found"], c["theta.filler.scanned"]), "ratio")
        out["theta.homogeneous.yield"] = (_ratio(c["theta.homogeneous.found"], c["theta.homogeneous.tested"]), "ratio")
        infos = {k: f.cache_info() for k, f in self.caches.items()}
        hits = sum(infos[k].hits - self._cache_start[k].hits for k in infos)
        misses = sum(infos[k].misses - self._cache_start[k].misses for k in infos)
        out["cache.entries"] = (sum(i.currsize for i in infos.values()), "count")
        out["cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        return out

    def write_spans(self, path, origin):
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start_s", "end_s", "query"]) + "\n")
            for sid, parent, name, start, end, query in self.spans:
                fh.write(json.dumps([sid, parent, name, round(start - origin, 9), round(end - origin, 9), query]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
