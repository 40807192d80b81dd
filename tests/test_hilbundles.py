import numpy as np

from fellbundles.actions import validate_module
from fellbundles.bundles import (
    FellBundle,
    crossed_embed,
    dynamical_bundle,
    group_bundle,
    projection_expectation,
)
from fellbundles.groups import make_cyclic, symmetric_group
from fellbundles.hilbundles import (
    HilbertBundle,
    HilbertModule,
    SemiInnerBundle,
    check_unitary_bundle_map,
    condexp_semibundle,
    l2_bundle,
    module_bundle_from_dynsys,
    regularize_bundle,
    separate,
    trivial_hilbert_bundle,
    trivial_module,
    validate_hilbert_bundle,
    validate_semi_inner_bundle,
)

from test_bundles import M2_BASIS, ad_diag_system, swap_system


def row_module(alg_basis):
    """Rows C^(1 x m) as a module over the full matrix algebra."""
    basis = np.asarray(alg_basis, dtype=complex)
    k, m, _ = basis.shape
    flat = basis.reshape(k, -1)
    pinv = np.linalg.pinv(flat.T)
    right = np.zeros((k, m, m), dtype=complex)
    for i in range(k):
        for u in range(m):
            right[i, :, u] = basis[i].T[:, u]  # e_u . a = row u of a
    inner = np.zeros((m, m, k), dtype=complex)
    for u in range(m):
        for v in range(m):
            e_uv = np.zeros((m, m), dtype=complex)
            e_uv[u, v] = 1.0
            inner[u, v] = pinv @ e_uv.ravel()
    return HilbertModule(basis, m, right, inner)


def test_trivial_bundle_over_group_bundle():
    b = group_bundle(make_cyclic(2))
    x = trivial_hilbert_bundle(b)
    assert x.dims == [1, 1]
    rep = validate_hilbert_bundle(x)
    assert rep.ok, str(rep)


def test_trivial_bundle_unit_inner_product():
    b = dynamical_bundle(*swap_system())
    x = trivial_hilbert_bundle(b)
    e = b.group.identity
    one = b.unit_coords
    val = x.inner_ambient(e, one, e, one)
    assert np.allclose(val, np.eye(b.ambient_dim))


def test_trivial_bundle_s3_validates():
    x = trivial_hilbert_bundle(group_bundle(symmetric_group(3)))
    assert validate_hilbert_bundle(x).ok


def test_perturbed_inner_tensor_flagged():
    b = group_bundle(make_cyclic(2))
    x = trivial_hilbert_bundle(b)
    rng = np.random.default_rng(0)
    inner = [list(row) for row in x.inner]
    inner[0][1] = inner[0][1] + 1e-3 * rng.standard_normal(inner[0][1].shape)
    rep = validate_hilbert_bundle(HilbertBundle(b, x.dims, x.act, inner))
    assert not rep.ok
    assert any("<x,y>*" in item.name for item in rep.failures())


def test_module_bundle_from_dynsys_validates():
    basis, grp, alpha = ad_diag_system()
    mod = row_module(basis)
    assert validate_module(mod).ok
    mb = module_bundle_from_dynsys(mod, grp, alpha)
    assert mb.dims == [2, 2]
    rep = validate_hilbert_bundle(mb)
    assert rep.ok, str(rep)


def test_module_bundle_trivial_module_is_trivial_bundle():
    basis, grp, alpha = swap_system()
    mod = trivial_module(basis)
    assert validate_module(mod).ok
    mb = module_bundle_from_dynsys(mod, grp, alpha)
    triv = trivial_hilbert_bundle(mb.bundle)
    # identification: algebra coordinates -> fiber coordinates, per fiber
    u_maps = []
    for h in grp.elements():
        cols = [
            mb.bundle.coords(h, crossed_embed(grp, basis, alpha, np.eye(2)[i], h))[0]
            for i in range(2)
        ]
        u_maps.append(np.stack(cols, axis=1))
    assert check_unitary_bundle_map(u_maps, mb, triv)


def test_module_bundle_fiber_is_twist():
    basis, grp, alpha = swap_system()
    mod = trivial_module(basis)
    mb = module_bundle_from_dynsys(mod, grp, alpha)
    r = 1
    rinv = grp.inv(r)
    for u in range(mod.dim):
        for v in range(mod.dim):
            got = mb.bundle.element(grp.identity, mb.inner[r][r][u, v])
            plain = mod.inner_ambient(np.eye(2)[u], np.eye(2)[v])
            twisted = np.tensordot(alpha[rinv] @ np.linalg.pinv(
                basis.reshape(2, -1).T) @ plain.ravel(), basis, axes=(0, 0))
            want = crossed_embed(grp, basis, alpha,
                                 np.linalg.pinv(basis.reshape(2, -1).T) @ twisted.ravel(),
                                 grp.identity)
            assert np.allclose(got, want, atol=1e-10)


def test_separate_identity_on_definite_input():
    x = trivial_hilbert_bundle(group_bundle(make_cyclic(3)))
    y, quotients = separate(x)
    assert y.dims == x.dims
    for q in quotients:
        assert q.shape[0] == q.shape[1]
        assert np.allclose(np.abs(np.linalg.eigvals(q @ q.conj().T)), 1.0)


def test_separate_collapses_zero_inner_product():
    b = group_bundle(make_cyclic(2))
    x = trivial_hilbert_bundle(b)
    zeroed = SemiInnerBundle(
        b, x.dims, x.act,
        [[np.zeros_like(x.inner[r][s]) for s in b.group.elements()]
         for r in b.group.elements()],
    )
    y, _ = separate(zeroed)
    assert y.dims == [0, 0]


def test_condexp_corner_collapse_matches_rank_oracle():
    triv = make_cyclic(1)
    sup = FellBundle(triv, 2, [M2_BASIS])
    sub = FellBundle(triv, 2, [np.array([np.diag([1.0, 0.0])])])
    exp = projection_expectation(sup, sub)
    semi_dims_before = sup.dims[0]
    hil, quotients = condexp_semibundle(exp)
    # oracle: rank of the localized Gram by row reduction
    from test_numerics import rank_by_row_reduction
    gram = np.zeros((4, 4), dtype=complex)
    for u in range(4):
        for v in range(4):
            gram[u, v] = np.trace(exp.apply_ambient(0, M2_BASIS[u].conj().T @ M2_BASIS[v]))
    assert hil.dims[0] == rank_by_row_reduction(gram) < semi_dims_before
    assert validate_hilbert_bundle(hil).ok


def test_condexp_identity_gives_trivial_bundle():
    b = group_bundle(make_cyclic(2))
    exp = projection_expectation(b, b)
    hil, quotients = condexp_semibundle(exp)
    assert hil.dims == b.dims
    assert validate_hilbert_bundle(hil).ok


def test_condexp_faithful_no_collapse():
    sup = dynamical_bundle(*swap_system())
    exp = projection_expectation(sup, sup)
    hil, _ = condexp_semibundle(exp)
    assert hil.dims == sup.dims


def test_regularize_dimensions_and_disjoint_support():
    b = group_bundle(make_cyclic(2))
    x = trivial_hilbert_bundle(b)
    reg = regularize_bundle(x)
    assert reg.dims == [2, 2]
    # sections supported at different points are orthogonal
    xi = np.array([1.0, 0.0])
    eta = np.array([0.0, 1.0])
    assert np.allclose(reg.inner_coords(0, xi, 0, eta), 0.0)
    assert validate_hilbert_bundle(reg).ok


def test_regularize_validates_on_dynamical_module_bundle():
    basis, grp, alpha = swap_system()
    mb = module_bundle_from_dynsys(trivial_module(basis), grp, alpha)
    reg = regularize_bundle(mb)
    assert reg.dims == [2 * d for d in mb.dims]
    assert validate_hilbert_bundle(reg).ok


def test_l2_bundle_dimensions_and_validation():
    b = group_bundle(make_cyclic(3))
    y = l2_bundle(b)
    assert y.dims == [3, 3, 3]
    rep = validate_hilbert_bundle(y)
    assert rep.ok, str(rep)


def test_l2_bundle_same_tag_inner_is_plain_sum():
    b = dynamical_bundle(*swap_system())
    y = l2_bundle(b)
    rng = np.random.default_rng(1)
    r = 1
    xi = y.random_vector(r, rng)
    eta = y.random_vector(r, rng)
    # <(xi,r),(eta,r)> = sum_t xi(tr)* eta(tr) = sum_t xi(t)* eta(t)
    offs = np.concatenate([[0], np.cumsum(b.dims)]).astype(int)
    want = np.zeros((b.ambient_dim, b.ambient_dim), dtype=complex)
    for t in b.group.elements():
        a = b.element(t, xi[offs[t]:offs[t + 1]])
        c = b.element(t, eta[offs[t]:offs[t + 1]])
        want += a.conj().T @ c
    assert np.allclose(y.inner_ambient(r, xi, r, eta), want, atol=1e-10)


def test_unitary_checker_identity_and_scaling():
    x = trivial_hilbert_bundle(group_bundle(make_cyclic(2)))
    eye_maps = [np.eye(d) for d in x.dims]
    assert check_unitary_bundle_map(eye_maps, x, x)
    assert not check_unitary_bundle_map([2 * m for m in eye_maps], x, x)


def test_identification_of_function_module_with_regularized_bundle():
    # the module of B-valued functions on the group, with pointwise
    # operations, is unitarily equivalent to the regularized trivial bundle
    basis, grp, alpha = swap_system()
    k = len(basis)
    n = grp.order
    pinv = np.linalg.pinv(basis.reshape(k, -1).T)

    mod = trivial_module(basis)
    fun_right = np.stack([np.kron(np.eye(n), mod.right[i]) for i in range(k)])
    fun_inner = np.zeros((n * k, n * k, k), dtype=complex)
    for t in range(n):
        fun_inner[t * k:(t + 1) * k, t * k:(t + 1) * k, :] = mod.inner
    fun_mod = HilbertModule(basis, n * k, fun_right, fun_inner)
    assert validate_module(fun_mod).ok

    lhs = module_bundle_from_dynsys(fun_mod, grp, alpha)
    rhs = regularize_bundle(trivial_hilbert_bundle(lhs.bundle))
    u_maps = []
    for r in grp.elements():
        to_fiber = np.stack(
            [lhs.bundle.coords(r, crossed_embed(grp, basis, alpha, np.eye(k)[i], r))[0]
             for i in range(k)], axis=1)
        u_maps.append(np.kron(np.eye(n), to_fiber))
    assert check_unitary_bundle_map(u_maps, lhs, rhs)


def test_separate_is_idempotent_up_to_unitary():
    triv = make_cyclic(1)
    sup = FellBundle(triv, 2, [M2_BASIS])
    sub = FellBundle(triv, 2, [np.array([np.diag([1.0, 0.0])])])
    hil, _ = condexp_semibundle(projection_expectation(sup, sub))
    again, quotients = separate(hil)
    assert again.dims == hil.dims
    assert check_unitary_bundle_map(quotients, hil, again)


def test_gram_block_matrices_of_fiber_tuples_are_positive():
    # tuples drawn from the fibers of an honest Hilbert bundle give positive
    # block matrices in the block matrix algebra over their index tuple
    from fellbundles.crosssec import matrix_alg
    b = dynamical_bundle(*swap_system())
    y = l2_bundle(b)
    rng = np.random.default_rng(3)
    for _ in range(10):
        hs = [int(rng.integers(b.group.order)) for _ in range(3)]
        xs = [y.random_vector(h, rng) for h in hs]
        blocks = [[y.inner_ambient(hs[i], xs[i], hs[j], xs[j]) for j in range(3)]
                  for i in range(3)]
        res = matrix_alg(b, hs, blocks).psd()
        assert res.margin >= -1e-9 * max(1.0, res.margin + 1.0)


def test_semi_inner_validator_skips_definiteness():
    b = group_bundle(make_cyclic(2))
    x = trivial_hilbert_bundle(b)
    zeroed = SemiInnerBundle(
        b, x.dims, x.act,
        [[np.zeros_like(x.inner[r][s]) for s in b.group.elements()]
         for r in b.group.elements()],
    )
    assert validate_semi_inner_bundle(zeroed).ok
    assert not validate_hilbert_bundle(zeroed).ok
