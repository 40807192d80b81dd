"""Every PSD and definiteness rule is decided in one module: no module of the
package but numerics reads the tolerances those rules are written in.  The
report header (cli._emit) prints them, and docstrings may state a rule; a
read anywhere else restates the rule, which should call numerics.judge_psd
or numerics.judge_definite instead."""

import ast
from pathlib import Path

import fellbundles

PACKAGE = Path(fellbundles.__file__).resolve().parent
RULE_FIELDS = {"rel_psd", "rel_eq"}
ALLOWED = {("numerics.py", None), ("cli.py", "_emit")}


def _reads(path: Path):
    """(function, line) of every attribute read of a rule field in the code
    of one module; docstrings and comments are not code."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in RULE_FIELDS:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_numerics_reads_the_rule_tolerances():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, line in _reads(path):
            if (path.name, None) in ALLOWED or (path.name, function) in ALLOWED:
                continue
            offenders.append(f"{path.name}:{line} in {function}")
    assert not offenders, offenders


def test_the_scan_sees_a_read_in_code_but_not_in_a_docstring(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text('def f(tol):\n    """low >= -tol.rel_psd"""\n    return tol.rel_eq\n')
    assert _reads(module) == [("f", 3)]


def test_the_report_header_is_the_one_reader_outside_numerics():
    assert {f for f, _ in _reads(PACKAGE / "cli.py")} == {"_emit"}
    assert _reads(PACKAGE / "numerics.py")
