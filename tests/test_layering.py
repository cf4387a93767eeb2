"""The package's modules import each other at module top only, and
graphmodel, the layer every other module builds on, imports only errors and
rng (docs/notes.md, "Module layers")."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "factorcavity"


def _package_imports(node):
    """(line, module) for each package module an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = node.module or ""
            if base.split(".")[0] != "factorcavity":
                return []
            base = base.partition(".")[2]
        else:
            base = node.module or ""
        if base:
            return [(node.lineno, base.split(".")[0])]
        # from . import a, b: each name is a module or a package attribute
        return [(node.lineno, alias.name) for alias in node.names]
    if isinstance(node, ast.Import):
        return [(node.lineno, alias.name.partition(".")[2] or "factorcavity")
                for alias in node.names if alias.name.split(".")[0] == "factorcavity"]
    return []


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_package_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    found += [f"{name}.py:{line} imports {mod}"
                              for line, mod in _package_imports(node)]
    assert found == []


def test_graphmodel_imports_only_errors_and_rng():
    tree = _trees()["graphmodel"]
    imported = {mod for node in ast.walk(tree) for _, mod in _package_imports(node)}
    assert imported <= {"errors", "rng"}
