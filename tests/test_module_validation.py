"""validate_module runs the bundle battery, against the per-element loops of
the module battery it replaced.

validate_module validates a module over B as a Hilbert bundle over the
one-point group, and a left action as the action of a one-point bundle, so
it reports the items of validate_hilbert_bundle and validate_action.
`loop_validate_module` keeps the old module battery's loops verbatim as the
verdict oracle; only its `definite` residual follows the shortfall rule.  On
passing modules and on modules that break one axiom each, both routes give
the same overall verdict, and every failing item of the oracle has its
counterparts in `MUST_FAIL_WITH` failing too.
"""

import numpy as np
import pytest

from fellbundles.actions import validate_module
from fellbundles.hilbundles import HilbertModule, algebra_coords_map, trivial_module
from fellbundles.numerics import DEFAULT_TOL, frob, relative
from fellbundles.reports import Report

from test_bundles import M2_BASIS, swap_system
from test_hilbundles import row_module
from test_numerics import definite_verdict, psd_verdict

# each item of the module battery, with the items of the bundle battery
# that must fail whenever it fails
MUST_FAIL_WITH = {
    "right action multiplicative": ["(xb)c = x(bc)"],
    "<x, y b> = <x,y> b": ["<x, yb> = <x,y>b"],
    "<x,y>* = <y,x>": ["<x,y>* = <y,x>"],
    "Gram PSD": ["fiber Grams PSD"],
    "definite": ["definiteness (localized Grams full rank)"],
    "left action multiplicative": ["multiplicativity rho(aa') = rho(a)rho(a')"],
    "left action adjointable": ["adjoint symmetry <rho(a)x,y> = <x,rho(a*)y>"],
    "left and right actions commute": ["right-module commutation (rho(a)x)b = rho(a)(xb)"],
}


def loop_validate_module(x, tol=None):
    """The per-element loops of validate_module."""
    tol = tol or DEFAULT_TOL
    rep = Report("hilbert-module axioms")
    basis = x.algebra_basis
    k = basis.shape[0]
    pinv = algebra_coords_map(basis)

    worst = 0.0
    for i in range(k):
        for j in range(k):
            prod_coords = pinv @ (basis[i] @ basis[j]).ravel()
            lhs = x.right[j] @ x.right[i]
            rhs = np.einsum("k,kuv->uv", prod_coords, x.right)
            worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("right action multiplicative", worst <= 1e-8, worst)

    worst = 0.0
    for i in range(k):
        lhs = np.einsum("uwk,wv->uvk", x.inner, x.right[i])
        prod = np.stack([
            np.stack([pinv @ (np.tensordot(x.inner[u, v], basis, axes=(0, 0)) @ basis[i]).ravel()
                      for v in range(x.dim)])
            for u in range(x.dim)
        ])
        worst = max(worst, relative(frob(lhs - prod), frob(lhs)))
    rep.add("<x, y b> = <x,y> b", worst <= 1e-8, worst)

    worst = 0.0
    for u in range(x.dim):
        for v in range(x.dim):
            a = np.tensordot(x.inner[u, v], basis, axes=(0, 0))
            b = np.tensordot(x.inner[v, u], basis, axes=(0, 0))
            worst = max(worst, relative(frob(a.conj().T - b), frob(a)))
    rep.add("<x,y>* = <y,x>", worst <= 1e-8, worst)

    m = basis.shape[1]
    big = np.zeros((x.dim * m, x.dim * m), dtype=np.complex128)
    for u in range(x.dim):
        for v in range(x.dim):
            big[u * m:(u + 1) * m, v * m:(v + 1) * m] = np.tensordot(
                x.inner[u, v], basis, axes=(0, 0))
    ok, residual, hermitian = psd_verdict(big, tol)
    rep.add("Gram PSD", ok, residual, "" if hermitian else "Gram not Hermitian")
    tg = np.einsum("uvk,k->uv", x.inner, np.array([np.trace(b) for b in basis]))
    ok, residual, _ = definite_verdict(tg, tol)
    rep.add("definite", ok, residual)

    if x.left is not None:
        kl = x.left_basis.shape[0]
        lpinv = algebra_coords_map(x.left_basis)
        worst = 0.0
        for i in range(kl):
            for j in range(kl):
                prod_coords = lpinv @ (x.left_basis[i] @ x.left_basis[j]).ravel()
                lhs = x.left[i] @ x.left[j]
                rhs = np.einsum("k,kuv->uv", prod_coords, x.left)
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
        rep.add("left action multiplicative", worst <= 1e-8, worst)
        worst = 0.0
        for i in range(kl):
            adj_coords = lpinv @ (x.left_basis[i].conj().T).ravel()
            adj = np.einsum("k,kuv->uv", adj_coords, x.left)
            lhs = np.einsum("wu,wvk->uvk", x.left[i].conj(), x.inner)
            rhs = np.einsum("uwk,wv->uvk", x.inner, adj)
            worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
        rep.add("left action adjointable", worst <= 1e-8, worst)
        worst = 0.0
        for i in range(kl):
            for j in range(k):
                lhs = x.right[j] @ x.left[i]
                rhs = x.left[i] @ x.right[j]
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
        rep.add("left and right actions commute", worst <= 1e-8, worst)
    return rep


C = np.ones((1, 1, 1), dtype=complex)  # the algebra C, basis {1}


def degenerate_module():
    """C^2 over C with <x, y> = conj(x_0) y_0: the vector e_1 has zero norm."""
    inner = np.zeros((2, 2, 1), dtype=complex)
    inner[0, 0, 0] = 1.0
    return HilbertModule(C, 2, np.eye(2)[None], inner)


def doubling_module():
    """C over C with x.1 = 2x, which is not multiplicative (2 * 2 != 2)."""
    return HilbertModule(C, 1, 2 * np.ones((1, 1, 1)), np.ones((1, 1, 1)))


def skew_module():
    """C^2 over C with <e_0, e_1> = 1 but <e_1, e_0> = 0."""
    inner = np.eye(2, dtype=complex)[:, :, None].copy()
    inner[0, 1, 0] = 1.0
    return HilbertModule(C, 2, np.eye(2)[None], inner)


def with_left(x, left):
    """x with its left action replaced by the operators `left`."""
    return HilbertModule(x.algebra_basis, x.dim, x.right, x.inner, x.left_basis, left)


def modules():
    basis, _, _ = swap_system()
    square = trivial_module(M2_BASIS)
    twisted = trivial_module(M2_BASIS)
    twisted.right = twisted.right[[0, 2, 1, 3]]  # x.E12 and x.E21 swapped
    pair = trivial_module(basis)
    skew = np.eye(4) + 0.5 * np.eye(4, k=1)  # invertible, not unitary
    return {"C2 trivial": pair, "M2 trivial": square,
            "M2 rows": row_module(M2_BASIS), "M2 twisted": twisted,
            "degenerate": degenerate_module(), "doubling": doubling_module(),
            "skew": skew_module(),
            "C2 doubled left": with_left(pair, 2 * pair.left),
            "M2 swapped left": with_left(square, square.left[[0, 2, 1, 3]]),
            "M2 conjugated left": with_left(square, skew @ square.left @ np.linalg.inv(skew)),
            "M2 right as left": with_left(square, square.right)}


@pytest.mark.parametrize("name", list(modules()))
def test_verdicts_match_the_loops(name):
    x = modules()[name]
    got, want = validate_module(x), loop_validate_module(x)
    assert got.ok == want.ok
    failed = {item.name for item in got.failures()}
    for item in want.failures():
        assert set(MUST_FAIL_WITH[item.name]) <= failed, (item.name, failed)
    assert got.subject == want.subject


def test_every_module_item_is_mapped_and_every_counterpart_is_reported():
    x = modules()["M2 trivial"]
    names = {item.name for item in validate_module(x).items}
    assert set(MUST_FAIL_WITH) == {item.name for item in loop_validate_module(x).items}
    assert set().union(*MUST_FAIL_WITH.values()) <= names


def _failures(rep):
    return {item.name: item.residual for item in rep.failures()}


def test_degenerate_gram_fails_definite_with_a_full_shortfall():
    rep = validate_module(degenerate_module())
    assert _failures(rep) == {"definiteness (localized Grams full rank)": 1.0}
    assert rep.as_dict()["worst_residual"] == 1.0


def test_non_multiplicative_right_action_is_reported():
    rep = validate_module(doubling_module())
    # x.1.1 = 4x against x.1 = 2x, <x, y.1> = 2 against <x, y> 1 = 1 and
    # <x.1, y> = 2 against 1* <x, y> = 1, each relative to the left-hand side;
    # ||x.1|| = 2 ||x|| exceeds ||x|| ||1|| by ||x||
    fails = _failures(rep)
    assert set(fails) == {"(xb)c = x(bc)", "<x, yb> = <x,y>b", "<xb, y> = b*<x,y>",
                          "||xb|| <= ||x|| ||b||"}
    assert fails["(xb)c = x(bc)"] == fails["<x, yb> = <x,y>b"] == fails["<xb, y> = b*<x,y>"] == 0.5
    assert fails["||xb|| <= ||x|| ||b||"] == pytest.approx(1.0, rel=1e-12)
    rep = validate_module(modules()["M2 twisted"])
    assert "(xb)c = x(bc)" in _failures(rep)


def test_non_hermitian_inner_product_is_reported():
    rep = validate_module(skew_module())
    fails = _failures(rep)
    assert set(fails) == {"<x,y>* = <y,x>", "fiber Grams PSD", "Cauchy-Schwarz"}
    # the Gram [[1, 1], [0, 1]] differs from its adjoint by sqrt(2) in norm,
    # relative to its norm sqrt(3), and has Hermitian defect sqrt(2) / sqrt(3)
    assert fails["<x,y>* = <y,x>"] == pytest.approx(np.sqrt(2 / 3), rel=1e-12)
    assert fails["fiber Grams PSD"] == pytest.approx(np.sqrt(2 / 3), rel=1e-12)


def test_zero_module_passes_every_item():
    # the loops fail on it: they stack an empty list of Gram rows
    rep = validate_module(HilbertModule(C, 0, np.zeros((1, 0, 0)), np.zeros((0, 0, 1))))
    assert rep.ok and rep.worst == 0.0


def test_an_algebra_that_is_not_a_star_algebra_is_refused():
    # the upper triangular matrices, as right and as left algebra, are not
    # closed under the adjoint: the adjoint of E12 leaves them
    upper, square = [0, 1, 3], trivial_module(M2_BASIS)
    for x in (trivial_module(M2_BASIS[upper]),
              HilbertModule(M2_BASIS, 4, square.right, square.inner, M2_BASIS[upper],
                            square.left[upper])):
        with pytest.raises(ValueError, match=r"^algebra basis is not \*-closed$"):
            validate_module(x)
