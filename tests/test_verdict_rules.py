"""Every verdict rule is decided in one module: no module of the package but
numerics reads the tolerances those rules are written in, states a bound
of its own as a float literal, or decides a rank by numpy's own cut
(matrix_rank).  The report header (cli._emit) prints the tolerances,
cmd_pd_check reports the bound of the target's decomposition, and docstrings
may state a rule; a read or a literal bound anywhere else restates a rule,
which should call a judge or a bound of numerics instead."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import fellbundles
from fellbundles import numerics
from fellbundles.bundles import dynamical_bundle, group_bundle
from fellbundles.groups import make_cyclic
from fellbundles.hilbundles import SemiInnerBundle, check_unitary_bundle_map
from fellbundles.numerics import DEFAULT_TOL, Tolerance

PACKAGE = Path(fellbundles.__file__).resolve().parent
RULE_FIELDS = {"rel_psd", "rel_eq", "rel_rank"}
ALLOWED = {("numerics.py", None), ("cli.py", "_emit"), ("cli.py", "cmd_pd_check")}
# literals that give no verdict: the floor that keeps a norm from dividing by
# zero, the test that keeps a fiber verbatim, and the default closeness of two
# objects; the CLI's default tolerances are the fields of numerics.Tolerance
LITERALS_ALLOWED = {("numerics.py", None),
                    ("pdmaps.py", "_unit_norm_scales"), ("bundles.py", "_hs_orthonormal"),
                    ("bundles.py", "bundles_equal"), ("crosssec.py", "allclose")}


def _scan(path: Path):
    """(function, line) of every attribute read of a rule field or of
    matrix_rank, and of every float literal in (0, 1e-3), in the code of one
    module; docstrings and comments are not code."""
    tree = ast.parse(path.read_text())
    reads, literals = [], []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in RULE_FIELDS | {"matrix_rank"}:
            reads.append((function, node.lineno))
        if isinstance(node, ast.Constant) and type(node.value) is float \
                and 0 < node.value < 1e-3:
            literals.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return reads, literals


def _reads(path: Path):
    return _scan(path)[0]


def _literals(path: Path):
    return _scan(path)[1]


def _offenders(found, allowed):
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, line in found(path):
            if (path.name, None) in allowed or (path.name, function) in allowed:
                continue
            out.append(f"{path.name}:{line} in {function}")
    return out


def test_only_numerics_reads_the_rule_tolerances():
    offenders = _offenders(_reads, ALLOWED)
    assert not offenders, offenders


def test_no_float_literal_bound_outside_numerics():
    offenders = _offenders(_literals, LITERALS_ALLOWED)
    assert not offenders, offenders


def test_the_scan_sees_a_read_in_code_but_not_in_a_docstring(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text('def f(tol):\n    """low >= -tol.rel_psd"""\n    return tol.rel_eq\n')
    assert _reads(module) == [("f", 3)]


def test_the_scan_sees_numpys_rank_cut(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text('import numpy as np\n\ndef f(m):\n    """np.linalg.matrix_rank"""\n'
                      '    return np.linalg.matrix_rank(m)\n')
    assert _reads(module) == [("f", 5)]


def test_the_scan_sees_a_literal_in_a_comparison_and_a_keyword_but_not_in_a_docstring(
        tmp_path):
    module = tmp_path / "probe.py"
    module.write_text('def f(x, g):\n    """judged at 1e-8"""\n    if x > 1e-8:\n'
                      '        return g(atol=1e-10)\n    return 0.0 < x < 1e-3\n')
    assert _literals(module) == [("f", 3), ("f", 4)]


def test_the_report_header_and_the_decomposition_bound_are_the_readers_outside_numerics():
    assert {f for f, _ in _reads(PACKAGE / "cli.py")} == {"_emit", "cmd_pd_check"}
    assert _reads(PACKAGE / "numerics.py")


# each rule at the default tolerance is the literal it replaced, bit for bit,
# so that reports print the same bounds
def test_the_rules_at_the_default_tolerance_are_the_old_literals():
    assert numerics.identity_bound(DEFAULT_TOL) == 1e-8
    assert numerics.product_bound(DEFAULT_TOL) == 1e-7
    assert numerics.grading_guard(DEFAULT_TOL) == 1e-6
    assert numerics.membership_bound(DEFAULT_TOL) == 1e-8
    for k in range(1, 65):
        assert numerics.unit_bound(k, DEFAULT_TOL) == 1e-10 * k
    assert numerics.identity_bound(DEFAULT_TOL) * (1.0 + 2.5) == 1e-8 * (1.0 + 2.5)


def test_the_rules_scale_with_their_tolerance():
    tol = Tolerance(rel_rank=1e-6, rel_eq=1e-8)
    assert math.isclose(numerics.identity_bound(tol), 1e-7)
    assert math.isclose(numerics.product_bound(tol), 1e-6)
    assert math.isclose(numerics.grading_guard(tol), 1e-5)
    assert math.isclose(numerics.unit_bound(3, tol), 3e-9)
    assert math.isclose(numerics.membership_bound(tol), 1e-5)


def test_the_rank_cut_is_elementwise():
    ok, residual = numerics.rank_cut([2.0, 1e-9, 5e-10, 0.0], 2.0)
    assert ok.tolist() == [True, False, False, False]
    assert residual[0] == 0.0 and residual[2] == pytest.approx(0.75) and residual[3] == 1.0
    stack = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    ok, residual = numerics.rank_check(stack, 2)
    assert ok.tolist() == [True, False, False] and residual.tolist() == [0.0, 1.0, 1.0]
    ok, _ = numerics.rank_check(stack, [1, 1, 1])
    assert ok.tolist() == [True, True, False]
    ok, residual = numerics.rank_check(stack[0], 3)  # more than the matrix can have
    assert not ok and residual == 1.0
    ok, residual = numerics.rank_check(np.zeros((0, 3)), 1)
    assert not ok and residual == 1.0


# -- the one rank cut at every site ----------------------------------------------
#
# Each input below has a singular value between numpy's cut (matrix_rank:
# largest * max(shape) * eps, about 1e-15 here) and the rank cut at the
# default tolerance (rel_rank * max(largest, 1) = 1e-9), so numpy's cut would
# count it and the rank cut does not; at rel_rank = 1e-13 the rank cut counts
# it too.

FINE = Tolerance(rel_rank=1e-13)


def test_dynamical_bundle_decides_independence_by_the_rank_cut():
    basis = np.array([np.eye(2), np.eye(2) + 1e-11 * np.diag([1.0, -1.0])])
    assert np.linalg.matrix_rank(basis.reshape(2, -1)) == 2
    system = basis, make_cyclic(2), [np.eye(2)] * 2
    with pytest.raises(ValueError, match="linearly independent"):
        dynamical_bundle(*system)
    assert dynamical_bundle(*system, FINE).dims == [2, 2]


def test_check_unitary_bundle_map_decides_bijectivity_by_the_rank_cut():
    # one fiber C^2 over the trivial group, the unit acting as 1 and the
    # second vector null, so U = diag(1, 1e-11) intertwines and is isometric
    x = SemiInnerBundle(group_bundle(make_cyclic(1)), [2], [[np.eye(2)[None]]],
                        [[np.diag([1.0, 0.0])[..., None]]])
    u = [np.diag([1.0, 1e-11])]
    assert np.linalg.matrix_rank(u[0]) == 2
    assert not check_unitary_bundle_map(u, x, x)
    assert check_unitary_bundle_map(u, x, x, FINE)


def test_orthonormal_basis_cuts_at_the_rank_cut():
    vectors = np.diag([1e-3, 1e-11])  # the cut of rel_rank * largest alone is 1e-12
    assert numerics.orthonormal_basis(vectors).shape == (1, 2)
    assert numerics.orthonormal_basis(vectors, Tolerance(rel_rank=1e-12 / 2)).shape == (2, 2)
    assert numerics.orthonormal_basis([[1e-10, 0.0]]).shape == (0, 2)
