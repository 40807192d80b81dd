"""The crossed-product embedding, built once by `bundles.crossed_stack`,
against the per-element loops it replaced.

Each `loop_*` function keeps an old loop verbatim as the oracle: the
per-element `crossed_embed`, the `to_fiber` loop and the act and inner loops
of `module_bundle_from_dynsys`, and the `crossed_extract` +
`algebra_coords_map` route of `dynsys_action`.  The whole-array
constructions must agree with them within 1e-12 relative to max(1, |x|),
for |x| the Frobenius norm of the oracle's value.
"""

import numpy as np
import pytest

from fellbundles.actions import dynsys_action
from fellbundles.bundles import FellBundle, crossed_embed, crossed_stack, dynamical_bundle, \
    regular_unitary
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group
from fellbundles.hilbundles import NotModuleError, algebra_coords_map, crossed_coords, \
    module_bundle_from_dynsys, trivial_module
from fellbundles.numerics import membership_bound

from test_bundles import ad_diag_system, swap_system
from test_hilbundles import row_module


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


# -- the loop oracles ---------------------------------------------------------------

def loop_crossed_embed(group, algebra_basis, beta, b_coords, g):
    """Concrete matrix of the crossed-product element (b, g), one kron per
    group element."""
    basis = np.asarray(algebra_basis, dtype=np.complex128)
    k, m, _ = basis.shape
    n = group.order
    out = np.zeros((m * n, m * n), dtype=np.complex128)
    for t in group.elements():
        e_tt = np.zeros((n, n))
        e_tt[t, t] = 1.0
        twisted = np.tensordot(
            np.asarray(beta[group.inv(t)]) @ np.asarray(b_coords, dtype=np.complex128),
            basis, axes=(0, 0),
        )
        out += np.kron(twisted, e_tt)
    return out @ np.kron(np.eye(m), regular_unitary(group, g))


def loop_to_fiber(bundle, algebra_basis, beta):
    """Fiber coordinates of every (b_i, h), one projection per element."""
    grp = bundle.group
    k = len(algebra_basis)
    to_fiber = []
    for h in grp.elements():
        cols = []
        for i in range(k):
            mat = loop_crossed_embed(grp, algebra_basis, beta, np.eye(k)[i], h)
            c, res = bundle.coords(h, mat)
            if res > membership_bound(bundle.tolerance):
                raise NotModuleError("crossed-product embedding escaped its fiber")
            cols.append(c)
        to_fiber.append(np.stack(cols, axis=1))  # (d_h, k)
    return to_fiber


def loop_module_bundle(module, bundle, beta):
    """The act and inner blocks of module_bundle_from_dynsys, per element."""
    grp = bundle.group
    to_fiber = loop_to_fiber(bundle, module.algebra_basis, beta)
    from_fiber = [np.linalg.pinv(m) for m in to_fiber]
    act = [[None] * grp.order for _ in grp.elements()]
    inner = [[None] * grp.order for _ in grp.elements()]
    for g in grp.elements():
        for h in grp.elements():
            mats = []
            for i in range(bundle.dims[h]):
                bcoords = from_fiber[h] @ np.eye(bundle.dims[h])[i]
                twisted = beta[g] @ bcoords
                mats.append(np.einsum("k,kuv->uv", twisted, module.right))
            act[g][h] = np.stack(mats) if mats else np.zeros((0, module.dim, module.dim))
        for h in grp.elements():
            gh = grp.mul(grp.inv(g), h)
            out = np.zeros((module.dim, module.dim, bundle.dims[gh]), dtype=np.complex128)
            binv = beta[grp.inv(g)]
            for u in range(module.dim):
                twisted = (binv @ module.inner[u].T).T  # (dim, k)
                out[u] = twisted @ to_fiber[gh].T
            inner[g][h] = out
    return act, inner


def loop_crossed_extract(bundle, m, g, fiber_coords):
    """The algebra element b of a crossed-product fiber element (b, g), read
    off the identity block of its concrete matrix."""
    mat = bundle.element(g, fiber_coords)
    n = bundle.group.order
    ginv = bundle.group.inv(g)
    e = bundle.group.identity
    rows = [i * n + e for i in range(m)]
    cols = [j * n + ginv for j in range(m)]
    return mat[np.ix_(rows, cols)]


def loop_dynsys_ops(module, gamma, source, a_basis):
    """The operators of dynsys_action over each g, per fiber basis element."""
    m_a = np.asarray(a_basis).shape[1]
    pinv_a = algebra_coords_map(a_basis)
    ops = []
    for g in source.group.elements():
        mats = []
        for i in range(source.dims[g]):
            amat = loop_crossed_extract(source, m_a, g, np.eye(source.dims[g])[i])
            acoords = pinv_a @ amat.ravel()
            mats.append(np.einsum("k,kuv->uv", acoords, module.left) @ gamma[g])
        ops.append(np.stack(mats))
    return ops


# -- the systems --------------------------------------------------------------------

def ad_diag_crossed(k, m):
    """Z_m acting on M_k by Ad(diag(w^0, ..., w^(k-1))), w = exp(2 pi i / m),
    in the basis of matrix units."""
    i, j = np.divmod(np.arange(k * k), k)
    w = np.exp(2j * np.pi / m)
    alpha = [np.diag(w ** (g * (i - j))) for g in range(m)]
    return np.eye(k * k, dtype=complex).reshape(k * k, k, k), make_cyclic(m), alpha


def translation_system():
    """S3 acting on the diagonal functions C^S3 by left translation."""
    s3 = symmetric_group(3)
    basis = np.array([np.diag(row) for row in np.eye(6)], dtype=complex)
    return basis, s3, [regular_unitary(s3, g) for g in s3.elements()]


SYSTEMS = {"swap Z2": swap_system, "M2 ad Z2": ad_diag_system,
           "M3 ad Z3": lambda: ad_diag_crossed(3, 3), "C^S3 translation": translation_system}


@pytest.fixture(params=list(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


# -- the tests ----------------------------------------------------------------------

def test_crossed_embed_matches_its_loop(system):
    basis, grp, alpha = system
    stack = crossed_stack(grp, basis, alpha)
    rng = np.random.default_rng(3)
    for g in grp.elements():
        b = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        close(crossed_embed(grp, basis, alpha, b, g), loop_crossed_embed(grp, basis, alpha, b, g))
        for i in range(len(basis)):
            e_i = np.eye(len(basis))[i]
            assert np.array_equal(crossed_embed(grp, basis, alpha, e_i, g), stack[g, i])
            close(stack[g, i], loop_crossed_embed(grp, basis, alpha, e_i, g))


def test_dynamical_bundle_spans_the_loop_embedding(system):
    basis, grp, alpha = system
    n = len(basis[0]) * grp.order
    want = FellBundle(grp, n, [[loop_crossed_embed(grp, basis, alpha, e, g)
                                for e in np.eye(len(basis))] for g in grp.elements()])
    close(dynamical_bundle(basis, grp, alpha).fiber_array, want.fiber_array)


def test_crossed_coords_match_the_to_fiber_loop(system):
    basis, grp, alpha = system
    bundle = dynamical_bundle(basis, grp, alpha)
    coords = crossed_coords(bundle, basis, alpha)
    for h, want in enumerate(loop_to_fiber(bundle, basis, alpha)):
        close(coords[h, :bundle.dims[h]], want)
        assert not coords[h, bundle.dims[h]:].any()


def test_an_embedding_outside_the_bundle_is_refused_by_both_routes():
    # the fibers of the trivial action do not hold the swap's (b, g)
    basis, grp, alpha = swap_system()
    still = dynamical_bundle(basis, grp, [np.eye(2)] * 2)
    with pytest.raises(NotModuleError, match="escaped its fiber"):
        loop_to_fiber(still, basis, alpha)
    with pytest.raises(NotModuleError, match="escaped its fiber"):
        module_bundle_from_dynsys(trivial_module(basis), grp, alpha, bundle=still)


def test_module_bundle_matches_its_loops(system):
    basis, grp, alpha = system
    modules = [trivial_module(basis)]
    if len(basis) == len(basis[0]) ** 2:  # a full matrix algebra
        modules.append(row_module(basis))
    for module in modules:
        got = module_bundle_from_dynsys(module, grp, alpha)
        act, inner = loop_module_bundle(module, got.bundle, alpha)
        for g in grp.elements():
            for h in grp.elements():
                close(got.act[g][h], act[g][h])
                close(got.inner[g][h], inner[g][h])


def test_dynsys_operators_match_the_extract_route(system):
    # gamma = alpha on the algebra as a module over itself is equivariant
    basis, grp, alpha = system
    module = trivial_module(basis)
    rho = dynsys_action(module, alpha, (basis, grp, alpha), (basis, grp, alpha),
                        identity_hom(grp))
    want = loop_dynsys_ops(module, np.array(alpha), rho.source, basis)
    for g in grp.elements():
        for h in grp.elements():
            close(rho.ops[g][h], want[g])
