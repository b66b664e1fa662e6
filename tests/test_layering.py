"""The README's layering claims, and that no import goes unused, read off
the import statements of the package sources; that interning lives in one
place, ``trees.Hashed``; and that no package call leaves a reference cycle
behind, so its garbage is freed by reference counting alone."""

import ast
import gc
import pathlib

from globwork import cylinders, globsets as gs, steiner, theory, theta, trees
from globwork.errors import DomainError, ParseError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "globwork"


def package_imports(path):
    """The globwork modules a source file imports, at any depth in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name.partition(".")[2] for a in node.names if a.name.startswith("globwork.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "globwork"):
            # ``from .x import y`` names x; ``from . import x`` names x
            names = [node.module] if node.level and node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("globwork."):
            names = [node.module.partition(".")[2]]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found


def names_imported(path, module):
    """The names a source file imports from the sibling ``module``; the
    module's own name when the file imports the module whole."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == module:
                names.update(a.name for a in node.names)
            elif node.module is None:
                names.update(a.name for a in node.names if a.name == module)
    return names


def test_readme_layering_claims():
    imports = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert imports["theta"] == {"errors", "trees"}
    assert imports["globsets"] == {"errors", "trees"}
    # the isomorphism search on generators is the one search; it and the
    # trees stay at the bottom of the package
    assert imports["computads"] == {"errors"}
    assert imports["trees"] == {"errors"}
    # the chain-model oracle stays independent of the wreath encoding
    assert imports["steiner"] == {"errors", "globsets", "trees"}
    # the cylinders read the tower type alone from the term calculus, and
    # the term calculus three names from the formal cells
    assert names_imported(SRC / "cylinders.py", "theory") == {"TheoryPresentation"}
    assert names_imported(SRC / "theory.py", "computads") == {"Computad", "fop", "funit"}
    # the reader sees both import forms the package uses
    assert {"globsets", "theta", "theory", "cylinders", "trees"} <= imports["cli"]


def unused_imports(path):
    """The names a source file imports but never reads, at any depth in it,
    nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 1
    assert {path.stem: unused_imports(path) for path in sources if unused_imports(path)} == {}


# Package functions that only the tests call, each with the reason it stays
# in the package.
TEST_ONLY = {
    "degenerate_cyl": "it shares _globes and _glue with the cylinders; moved out, "
    "their same_c, same_d and merged options would be set only by a test",
    "chi_check": "the program side of chi_check_by_filter in tests/test_globsets.py",
    "loopspace": "the program side of loopspace_by_filter in tests/test_globsets.py",
}


def names_read(node):
    """The names a syntax tree reads: loaded names, attributes and the
    entries of ``__all__``."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read.add(sub.attr)
        elif isinstance(sub, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in sub.targets):
            read.update(ast.literal_eval(sub.value))
    return read


def parts(body):
    """A module body cut where a definition may sit: each top-level
    statement, but a class cut into its header and each statement of its
    body.  Each part is (statement, member or None, the names it reads)."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            header = stmt.bases + stmt.keywords + stmt.decorator_list
            yield stmt, None, set().union(*(names_read(node) for node in header))
            for member in stmt.body:
                yield stmt, member, names_read(member)
        else:
            yield stmt, None, names_read(stmt)


def public_definitions(body):
    """(statement, member or None): the public top-level functions and
    classes of a module body, and the public methods of its public classes,
    dunders skipped."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt, None
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield stmt, member


def uncalled_public_definitions():
    """The public top-level functions and classes of the package, and the
    public methods of its public classes, that no other package module, no
    part of their own module outside their own body and no benchmark module
    reads."""
    bodies = {path: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}
    modules = {path: list(parts(body)) for path, body in bodies.items()}
    bench = set()
    for path in sorted((SRC.parents[1] / "globbench").glob("*.py")):
        bench |= names_read(ast.parse(path.read_text()))
    uncalled = []
    for path, module in modules.items():
        elsewhere = bench.union(*(r for other, ps in modules.items() if other != path for _, _, r in ps))
        for stmt, member in public_definitions(bodies[path]):
            node = member or stmt
            # the module outside the definition's own body
            own = set().union(*(
                r for s, m, r in module if s is not stmt or (member is not None and m is not member)
            ))
            if node.name not in elsewhere | own:
                uncalled.append(node.name)
    return sorted(uncalled)


def test_every_public_function_has_a_caller():
    # the exceptions must still be uncalled, so the list cannot go stale
    assert uncalled_public_definitions() == sorted(TEST_ONLY)


def test_interning_lives_in_trees():
    # every interned class keeps its own table and is made by one step,
    # trees.Hashed._intern: no class fills or compares its fields itself
    def subclasses(cls):
        return {cls} | set().union(*(subclasses(sub) for sub in cls.__subclasses__()))

    hashed = subclasses(trees.Hashed) - {trees.Hashed}
    assert hashed == {trees.Tree, trees.DimensionTable, theory.TermCell, theory.Term}
    for cls in hashed:
        assert "_table" in cls.__dict__ and type(cls._table) is dict, cls
        assert not {"__init__", "__eq__", "__hash__"} & cls.__dict__.keys(), cls
    setters = {
        path.stem for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    }
    assert setters == {"trees"}


def self_referencing_closures(source):
    """The nested functions of a source text that name themselves in their
    body, or that ``functools.cache`` or ``lru_cache`` decorates.  Each call
    of the enclosing function makes such a function anew, and it refers to
    itself through its closure or its cache: a reference cycle that holds
    everything the closure and the cache hold until the cyclic collector
    runs."""
    found = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if nested and child.name in {n.id for stmt in child.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}:
                    found.append(f"{child.name} (line {child.lineno}) names itself")
                for d in child.decorator_list if nested else ():
                    d = d.func if isinstance(d, ast.Call) else d
                    if (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)) in ("cache", "lru_cache"):
                        found.append(f"{child.name} (line {child.lineno}) is cached")
                visit(child, True)
            else:
                visit(child, nested)

    visit(ast.parse(source), False)
    return found


def test_no_nested_function_refers_to_itself():
    sample = """
import functools
from functools import lru_cache
def top(n):
    return top(n - 1) if n else 0
class C:
    def method(self, n):
        def walk(m):
            return walk(m - 1) if m else 0
        return walk(n)
def outer():
    @functools.cache
    def memo(x):
        return x
    @lru_cache(maxsize=None)
    def memo2(x):
        return x
    def helper():
        return top(1)
    return memo, memo2, helper
"""
    assert self_referencing_closures(sample) == [
        "walk (line 8) names itself", "memo (line 13) is cached", "memo2 (line 16) is cached",
    ]
    found = {path.stem: self_referencing_closures(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}


def package_queries(th):
    """One pass of small queries in the shapes the benchmark issues, through
    every function that once used a self-referencing closure."""
    for t in trees.all_trees(5):
        trees.parse_tree(str(t))
        for k in range(4):
            cells = steiner.enumerate_cells(t, k)
            assert {theta.to_steiner_cell(f) for f in theta.hom(trees.globe(k), t)} == set(cells)
        for i in range(t.n_leaves()):
            theta.leaf_inclusion(t, i)
        if t.children:
            assert trees.boundary(t) is trees.boundary_table_oracle(t)
            theta.boundary_maps(t)
    try:
        trees.parse_tree("[[[]][]")
    except ParseError:
        pass
    for k in range(1, 4):
        for m in range(k + 1):
            h, g = gs.factor_bij_ff(gs.boundary_inclusion(k), m)
            assert gs.check_orthogonal(h, g, h, g) == gs.identity_map(h.cod)
    # a free loop over a loop, against an edge x -> y: the search finds no
    # diagonal; two free points over a point against two: it finds two
    Y = gs.FinGlobSet(1, [["pt"], ["loop"]], [{}, {"loop": "pt"}], [{}, {"loop": "pt"}])
    B = gs.FinGlobSet(1, [["b"], ["l"]], [{}, {"l": "b"}], [{}, {"l": "b"}])
    X = gs.FinGlobSet(1, [["x", "y"], ["e"]], [{}, {"e": "x"}], [{}, {"e": "y"}])
    squares = [(B, X, Y, [{"x": "pt", "y": "pt"}, {"e": "loop"}], [{"b": "pt"}, {"l": "loop"}], "no filler")]
    P0 = gs.FinGlobSet(0, [["x", "y"]], [{}], [{}])
    D0 = gs.globe_set(0)
    pt = D0.cells[0][0]
    squares.append((P0, P0, D0, [dict.fromkeys("xy", pt)], [dict.fromkeys("xy", pt)], "filler is not unique"))
    for B, X, Y, p, bottom, message in squares:
        try:
            gs.check_orthogonal(gs.GlobMap(gs.EMPTY, B, []), gs.GlobMap(X, Y, p), gs.GlobMap(gs.EMPTY, X, []),
                                gs.GlobMap(B, Y, bottom))
        except DomainError as e:
            assert str(e).startswith(message)
        else:
            raise AssertionError(f"no error {message!r}")
    for text in ("[]", "[[]]", "[[][]]", "[[[]]]", "[[[][]][]]", "[[[]][][[][]]]"):
        A = trees.parse_tree(text)
        S = cylinders.cyl_glob_sum(A, th)
        assert len(list(S.inclusions)) == len(S.inclusions) and S.inclusions[-1] is not None
        for k in range(1, trees.dim(A) + 1):
            for f in theta.hom(trees.globe(k), A):
                if theta.is_homogeneous(f):
                    cylinders.vcompose_meta(cylinders.stack(f, th))


def test_package_calls_leave_no_cyclic_garbage():
    th = theory.groupoidalize(theory.standard_library(3))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        # twice: once with the package's caches as the tests before left
        # them, once with them warm
        for _ in range(2):
            package_queries(th)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
