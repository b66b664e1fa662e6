"""The README's layering claims, and that no import goes unused, read off
the import statements of the package sources."""

import ast
import pathlib

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


def test_readme_layering_claims():
    imports = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert imports["theta"] == {"errors", "trees"}
    assert imports["globsets"] == {"errors", "trees"}
    # the isomorphism search on generators is the one search; it and the
    # trees stay at the bottom of the package
    assert imports["computads"] == {"errors"}
    assert imports["trees"] == {"errors"}
    # the chain-model oracle stays independent of the wreath encoding
    assert imports["steiner"] == {"globsets", "trees"}
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
