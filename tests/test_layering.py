"""The modules of the package form layers.  Every import sits at the top of
its file, where a reader sees what the module depends on, never inside a
function or class body; and the relative imports between the modules form
no cycle, so each module reads only modules below it."""

import ast
import graphlib
from pathlib import Path

import pytest

import fellbundles

PACKAGE = Path(fellbundles.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imports(path: Path):
    """(import node, name of the enclosing function or class, or None) of
    every import statement of one module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, scope))
            visit(child, child.name if isinstance(child, SCOPES) else scope)

    visit(ast.parse(path.read_text()), None)
    return found


def _package_modules(node: ast.ImportFrom) -> set[str]:
    """The package modules a relative import reads: `from .x import ...`
    reads x, and `from . import name` the module `name` or else `__init__`."""
    if node.module:
        return {node.module.split(".")[0]}
    return {a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__" for a in node.names}


def test_no_import_inside_a_function_or_class():
    nested = [f"{path.name}:{node.lineno} in {scope}"
              for path in MODULES for node, scope in _imports(path) if scope]
    assert not nested, nested


def test_relative_imports_form_no_cycle():
    graph = {path.stem: set().union(*(
        _package_modules(node) for node, scope in _imports(path)
        if scope is None and isinstance(node, ast.ImportFrom) and node.level))
        for path in MODULES}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
