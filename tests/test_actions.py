import numpy as np
import pytest

from fellbundles.actions import (
    Action,
    CompatibilityViolationError,
    NotStarRepError,
    NotUnitaryError,
    action_to_star_rep,
    coefficient_map,
    dynsys_action,
    l2_action,
    regularize_action,
    rep_action,
    transport_action,
    trivial_action,
    validate_action,
)
from fellbundles.bundles import crossed_embed, dynamical_bundle, group_bundle, regular_unitary
from fellbundles.crosssec import matrix_alg
from fellbundles.groups import GroupHom, identity_hom, make_cyclic, symmetric_group, trivial_hom
from fellbundles.hilbundles import HilbertModule, trivial_module
from fellbundles.pdmaps import pd_check_exact

from test_bundles import swap_system


def hilbert_space_module(dim):
    """C^dim as a module over the scalars."""
    basis = np.array([[[1.0]]])
    right = np.eye(dim)[None]
    inner = np.eye(dim)[:, :, None].astype(complex)
    return HilbertModule(basis, dim, right, inner)


def z4_to_z2_rep_action():
    """The order-4 unitary diag(1, i) represented over the two-element group."""
    g4 = make_cyclic(4)
    src = group_bundle(g4)
    v = np.diag([1.0, 1j])
    mod = hilbert_space_module(2)
    # basis of A_g is u_g / 2, so pi(basis) = V^g / 2 keeps pi multiplicative
    pi = [np.array([np.linalg.matrix_power(v, g) / 2.0]) for g in range(4)]
    hom = GroupHom(g4, make_cyclic(2), [g % 2 for g in range(4)])
    return rep_action(src, pi, mod, hom)


def test_trivial_action_validates_and_unit_acts_as_identity():
    b = dynamical_bundle(*swap_system())
    rho = trivial_action(b)
    assert validate_action(rho).ok
    e = b.group.identity
    for h in b.group.elements():
        assert np.allclose(rho.op_matrix(e, b.unit_coords, h), np.eye(b.dims[h]))


def test_trivial_action_coefficient_at_unit_is_identity_map():
    b = group_bundle(make_cyclic(3))
    rho = trivial_action(b)
    t = coefficient_map(rho, b.unit_coords)
    for g in b.group.elements():
        assert np.allclose(t.mats[g], np.eye(b.dims[g]), atol=1e-12)


def test_trivial_action_coefficient_is_conjugation():
    b = dynamical_bundle(*swap_system())
    rng = np.random.default_rng(2)
    x = b.random_coords(b.group.identity, rng)
    t = coefficient_map(trivial_action(b), x)
    a = b.element(b.group.identity, x)
    for g in b.group.elements():
        for i in range(b.dims[g]):
            got = b.element(g, t.mats[g][:, i])
            want = a.conj().T @ b.fibers[g][i] @ a
            assert np.allclose(got, want, atol=1e-10)
    assert pd_check_exact(t).ok


def test_validator_flags_broken_adjoint():
    b = group_bundle(make_cyclic(2))
    rho = trivial_action(b)
    bad_ops = [[rho.ops[g][h].copy() for h in b.group.elements()]
               for g in b.group.elements()]
    bad_ops[1][0] = bad_ops[1][0] + 0.1
    bad = Action(b, rho.hom, rho.target, bad_ops)
    rep = validate_action(bad)
    assert not rep.ok
    assert any("adjoint" in item.name or "multiplicativity" in item.name
               for item in rep.failures())


def test_l2_action_validates_and_shifts_support():
    b = group_bundle(make_cyclic(3))
    rho = l2_action(b)
    assert validate_action(rho).ok
    # delta section at t moves to r t under rho(b_r)
    y = rho.target
    v = np.zeros(y.dims[0], dtype=complex)
    v[0] = 1.0  # delta at group element 0
    out = rho.apply(1, np.ones(1), 0, v)
    assert abs(out[1]) > 0.5 and abs(out[0]) < 1e-12 and abs(out[2]) < 1e-12


def test_l2_action_coefficient_at_unit_delta_is_identity_map():
    for b in (group_bundle(make_cyclic(3)), dynamical_bundle(*swap_system())):
        rho = l2_action(b)
        e = b.group.identity
        offs = np.concatenate([[0], np.cumsum(b.dims)]).astype(int)
        x = np.zeros(rho.target.dims[e], dtype=complex)
        x[offs[e]:offs[e + 1]] = b.unit_coords
        t = coefficient_map(rho, x)
        for g in b.group.elements():
            assert np.allclose(t.mats[g], np.eye(b.dims[g]), atol=1e-10)


def test_regular_action_coefficient_is_exel_formula():
    b = group_bundle(make_cyclic(3))
    grp = b.group
    rho = regularize_action(trivial_action(b))
    assert validate_action(rho).ok
    rng = np.random.default_rng(5)
    # xi in C_c(G, B_e): one unit-fiber coefficient per group element tag
    xi_vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    e = grp.identity
    x = np.zeros(rho.target.dims[e], dtype=complex)
    for tag in grp.elements():
        x[tag * b.dims[e]:(tag + 1) * b.dims[e]] = xi_vals[tag] * b.unit_coords
    t = coefficient_map(rho, x)
    # oracle: T_g(b) = sum_h xi(gh)* b xi(h)
    for g in grp.elements():
        for i in range(b.dims[g]):
            got = b.element(g, t.mats[g][:, i])
            want = sum(
                np.conj(xi_vals[grp.mul(g, h)]) * b.fibers[g][i] * xi_vals[h]
                for h in grp.elements()
            )
            assert np.allclose(got, want, atol=1e-10)
    assert pd_check_exact(t).ok


def test_regularized_action_block_structure():
    b = group_bundle(make_cyclic(2))
    rho = trivial_action(b)
    reg = regularize_action(rho)
    shift = regular_unitary(b.group, 1)
    for h in b.group.elements():
        assert np.allclose(reg.ops[1][h][0], np.kron(shift, rho.ops[1][h][0]))
    assert validate_action(reg).ok


def test_rep_action_z4_to_z2():
    rho = z4_to_z2_rep_action()
    assert validate_action(rho).ok
    rng = np.random.default_rng(7)
    x = rho.target.random_vector(rho.target.bundle.group.identity, rng)
    t = coefficient_map(rho, x)
    assert t.hom.map.tolist() == [0, 1, 0, 1]
    assert pd_check_exact(t).ok


def test_rep_action_round_trip_with_trivial_target_group():
    # over a one-point group, actions and *-representations biject
    g3 = make_cyclic(3)
    src = group_bundle(g3)
    mod = hilbert_space_module(3)
    w = np.exp(2j * np.pi / 3)
    v = np.diag([1.0, w, w * w])
    pi = [np.array([np.linalg.matrix_power(v, g) / np.sqrt(3)]) for g in range(3)]
    hom = trivial_hom(g3, make_cyclic(1))
    rho = rep_action(src, pi, mod, hom)
    assert validate_action(rho).ok
    back = action_to_star_rep(rho)
    for g in range(3):
        assert np.allclose(back[g], pi[g])
    with pytest.raises(NotStarRepError):
        rep_action(src, [2.0 * p for p in pi], mod, hom)


def test_rep_action_names_any_other_failing_item():
    # C^2 over C + C with the semi-inner product <x, y> = conj(x_0) y_0 E11:
    # T = [[1, 0], [1, 0]] is idempotent and symmetric for it, so multiplicative
    # and adjoint-compatible, but T(x.E11) != (Tx).E11
    basis = swap_system()[0]
    inner = np.zeros((2, 2, 2), dtype=complex)
    inner[0, 0, 0] = 1.0
    mod = HilbertModule(basis, 2, np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), inner)
    point = make_cyclic(1)
    with pytest.raises(NotStarRepError) as err:
        rep_action(group_bundle(point), [np.array([[[1.0, 0.0], [1.0, 0.0]]])], mod,
                   identity_hom(point))
    assert str(err.value) == "pi fails right-module commutation (rho(a)x)b = rho(a)(xb)"


def test_rep_action_from_regular_representation_over_unit_fiber():
    # the left convolution representation, viewed on the section space as a
    # module over the unit fiber, induces a valid action
    b = dynamical_bundle(*swap_system())
    grp = b.group
    e = grp.identity
    offs = np.concatenate([[0], np.cumsum(b.dims)]).astype(int)
    total = int(offs[-1])
    k_e = b.dims[e]
    right = np.zeros((k_e, total, total), dtype=complex)
    for i in range(k_e):
        for h in grp.elements():
            right[i, offs[h]:offs[h + 1], offs[h]:offs[h + 1]] = \
                b.right_mult_matrix(h, e, np.eye(k_e)[i])
    inner = np.zeros((total, total, k_e), dtype=complex)
    for h in grp.elements():
        tens = np.einsum("iw,wjk->ijk", b.star_tensor[h], b.prod[grp.inv(h)][h])
        inner[offs[h]:offs[h + 1], offs[h]:offs[h + 1], :] = tens
    mod = HilbertModule(b.fibers[e], total, right, inner)

    from fellbundles.crosssec import regular_rep
    lam = regular_rep(b)
    pi = [np.stack([lam.generators[(g, i)] for i in range(b.dims[g])])
          if b.dims[g] else np.zeros((0, total, total))
          for g in grp.elements()]
    rho = rep_action(b, pi, mod, trivial_hom(grp, make_cyclic(1)))
    assert validate_action(rho).ok


def test_dynsys_action_gamma_alpha_gives_trivial_like_action():
    basis, grp, alpha = swap_system()
    mod = trivial_module(basis)
    rho = dynsys_action(mod, [np.eye(2), alpha[1]], (basis, grp, alpha),
                        (basis, grp, alpha), identity_hom(grp))
    assert validate_action(rho).ok


def test_dynsys_action_group_bundle_projection_case():
    # scalars acting through a unitary representation with a projection cutoff
    g2 = make_cyclic(2)
    scalars = np.array([[[1.0]]])
    ident = [np.eye(1), np.eye(1)]
    u = np.array([[0.0, 1.0], [1.0, 0.0]])  # order-2 unitary
    mod = hilbert_space_module(2)
    mod = HilbertModule(scalars, 2, mod.right, mod.inner,
                        left_basis=scalars, left=np.eye(2)[None])
    rho = dynsys_action(mod, [np.eye(2), u], (scalars, g2, ident),
                        (scalars, g2, ident), identity_hom(g2))
    assert validate_action(rho).ok
    rng = np.random.default_rng(11)
    x = rho.target.random_vector(g2.identity, rng)
    t = coefficient_map(rho, x)
    assert pd_check_exact(t).ok


def test_dynsys_action_rejects_incompatible_gamma():
    basis, grp, alpha = swap_system()
    mod = trivial_module(basis)
    with pytest.raises(CompatibilityViolationError):
        dynsys_action(mod, [np.eye(2), np.eye(2)], (basis, grp, alpha),
                      (basis, grp, alpha), identity_hom(grp))


def test_transport_by_identity_and_phase():
    b = group_bundle(make_cyclic(2))
    rho = trivial_action(b)
    same = transport_action([np.eye(d) for d in rho.target.dims], rho)
    for g in b.group.elements():
        for h in b.group.elements():
            assert np.allclose(same.ops[g][h], rho.ops[g][h])
    with pytest.raises(NotUnitaryError):
        transport_action([2.0 * np.eye(d) for d in rho.target.dims], rho)


def test_transport_preserves_coefficient_maps():
    basis, grp, alpha = swap_system()
    mod = trivial_module(basis)
    mbd = dynsys_action(mod, [np.eye(2), alpha[1]], (basis, grp, alpha),
                        (basis, grp, alpha), identity_hom(grp))
    # diagonal phases on each fiber commute with nothing in general, so use
    # a global phase, which is always unitary for these tensors
    u_maps = [np.exp(0.7j) * np.eye(d) for d in mbd.target.dims]
    moved = transport_action(u_maps, mbd)
    assert validate_action(moved).ok
    rng = np.random.default_rng(3)
    x = mbd.target.random_vector(grp.identity, rng)
    t1 = coefficient_map(mbd, x)
    t2 = coefficient_map(moved, u_maps[grp.identity] @ x)
    for g in grp.elements():
        assert np.allclose(t1.mats[g], t2.mats[g], atol=1e-10)


@pytest.mark.parametrize("system", ["swap", "ad"])
def test_regularized_trivial_action_is_regular_equivariant_action(system):
    # the function-module picture and the regularized picture give unitarily
    # equivalent actions; transporting one yields the other
    from test_bundles import ad_diag_system
    basis, grp, alpha = swap_system() if system == "swap" else ad_diag_system()
    k, n = len(basis), grp.order
    mod = trivial_module(basis)
    fun_right = np.stack([np.kron(np.eye(n), mod.right[i]) for i in range(k)])
    fun_left = np.stack([np.kron(np.eye(n), mod.left[i]) for i in range(k)])
    fun_inner = np.zeros((n * k, n * k, k), dtype=complex)
    for t in range(n):
        fun_inner[t * k:(t + 1) * k, t * k:(t + 1) * k, :] = mod.inner
    fun_mod = HilbertModule(basis, n * k, fun_right, fun_inner,
                            left_basis=basis, left=fun_left)
    # regular equivariant family: (gamma_r xi)(s) = alpha_r(xi(r^-1 s))
    gamma = []
    for r in grp.elements():
        m = np.zeros((n * k, n * k), dtype=complex)
        for s in grp.elements():
            src = grp.mul(grp.inv(r), s)
            m[s * k:(s + 1) * k, src * k:(src + 1) * k] = alpha[r]
        gamma.append(m)
    lhs = dynsys_action(fun_mod, gamma, (basis, grp, alpha),
                        (basis, grp, alpha), identity_hom(grp))
    assert validate_action(lhs).ok

    rhs = regularize_action(trivial_action(lhs.source))
    # identification: function-module coords -> regularized-bundle coords
    u_maps = []
    for r in grp.elements():
        to_fiber = np.stack(
            [lhs.source.coords(r, crossed_embed(grp, basis, alpha, np.eye(k)[i], r))[0]
             for i in range(k)], axis=1)
        u_maps.append(np.kron(np.eye(n), to_fiber))
    moved = transport_action(u_maps, lhs, rhs.target)
    for g in grp.elements():
        for h in grp.elements():
            assert np.allclose(moved.ops[g][h], rhs.ops[g][h], atol=1e-10)


def test_pre_action_of_conditional_expectation_separates():
    # compressed left multiplication against an expectation: the pre-action
    # on the raw semi-inner bundle descends, and its diagonal coefficient is
    # T_g(a) = E_g(x* a x)
    from fellbundles.bundles import FellBundle, projection_expectation
    from fellbundles.hilbundles import condexp_raw_semibundle
    from fellbundles.actions import separate_pre_action
    from test_bundles import M2_BASIS

    triv = make_cyclic(1)
    sup = FellBundle(triv, 2, [M2_BASIS])
    sub = FellBundle(triv, 2, [np.array([np.diag([1.0, 0.0])])])
    exp = projection_expectation(sup, sub)
    raw = condexp_raw_semibundle(exp)
    ops = [[np.stack([sup.left_mult_matrix(0, np.eye(4)[i], 0) for i in range(4)])]]
    pre = Action(sup, identity_hom(triv), raw, ops)
    rho = separate_pre_action(pre)
    assert rho.target.dims == [2]  # the corner kernel collapses
    assert validate_action(rho).ok

    rng = np.random.default_rng(31)
    x0 = sup.random_coords(0, rng)
    quotient_x = None
    # recover the class of x0 through a fresh separation of the same bundle
    from fellbundles.hilbundles import separate
    _, quotients = separate(raw)
    quotient_x = quotients[0] @ x0
    t = coefficient_map(rho, quotient_x)
    amb_x = sup.element(0, x0)
    for i in range(4):
        got = sub.element(0, t.mats[0][:, i])
        want = exp.apply_ambient(0, amb_x.conj().T @ M2_BASIS[i] @ amb_x)
        assert np.allclose(got, want, atol=1e-10)
    assert pd_check_exact(t).ok


def test_pre_action_contractivity_violation_rejected():
    from fellbundles.bundles import FellBundle, projection_expectation
    from fellbundles.hilbundles import condexp_raw_semibundle
    from fellbundles.actions import separate_pre_action
    from test_bundles import M2_BASIS

    triv = make_cyclic(1)
    sup = FellBundle(triv, 2, [M2_BASIS])
    sub = FellBundle(triv, 2, [np.array([np.diag([1.0, 0.0])])])
    raw = condexp_raw_semibundle(projection_expectation(sup, sub))
    # doubling the operators breaks ||rho(a)x|| <= ||a|| ||x||
    ops = [[2.0 * np.stack([sup.left_mult_matrix(0, np.eye(4)[i], 0)
                            for i in range(4)])]]
    pre = Action(sup, identity_hom(triv), raw, ops)
    with pytest.raises(CompatibilityViolationError):
        separate_pre_action(pre)


def test_adjoint_consistency_wrt_localized_inner_products():
    # rho_{g,h}(a)* = rho_{g^-1, phi(g)h}(a*) against the localized Grams
    b = dynamical_bundle(*swap_system())
    rho = l2_action(b)
    x = rho.target
    grp = b.group
    rng = np.random.default_rng(13)
    for g in grp.elements():
        a = b.random_coords(g, rng)
        astar = b.star_coords(g, a)
        for h in grp.elements():
            out = grp.mul(g, h)
            m = rho.op_matrix(g, a, h)
            madj = rho.op_matrix(grp.inv(g), astar, out)
            gram_h = x.trace_gram(h)
            gram_out = x.trace_gram(out)
            assert np.allclose(m.conj().T @ gram_out, gram_h @ madj, atol=1e-9)


def test_gram_domination_over_random_tuples():
    b = group_bundle(symmetric_group(3))
    rho = l2_action(b)
    x = rho.target
    grp = b.group
    rng = np.random.default_rng(17)
    e = grp.identity
    for _ in range(20):
        a = b.random_coords(e, rng)
        na = b.fiber_norm(e, a)
        hs = [int(rng.integers(grp.order)) for _ in range(3)]
        xs = [x.random_vector(h, rng) for h in hs]
        blocks = [[na * na * x.inner_ambient(hs[i], xs[i], hs[j], xs[j])
                   - x.inner_ambient(hs[i], rho.apply(e, a, hs[i], xs[i]),
                                     hs[j], rho.apply(e, a, hs[j], xs[j]))
                   for j in range(3)] for i in range(3)]
        res = matrix_alg(b, hs, blocks).psd()
        assert res.margin >= -1e-9 * max(1.0, na * na)


def _gram_domination(rho):
    return next(i for i in validate_action(rho).items
                if i.name == "Gram domination S <= ||a||^2 R")


def test_gram_domination_is_judged_against_the_compared_blocks():
    """S <= ||a||^2 R is judged against max(1, ||a||^2 ||R||, ||S||), the size
    of the two blocks: scaling every inner product by 1e10 keeps a valid
    action valid, and doubling rho(a) still breaks the domination."""
    from fellbundles.hilbundles import HilbertBundle

    rho = l2_action(group_bundle(symmetric_group(3)))
    x = rho.target
    big = HilbertBundle(x.bundle, x.dims, x.act,
                        [[1e10 * t for t in row] for row in x.inner])
    item = _gram_domination(Action(rho.source, rho.hom, big, rho.ops))
    assert item.ok
    assert item.residual <= 1e-12
    doubled = [[2.0 * op for op in row] for row in rho.ops]
    assert not _gram_domination(Action(rho.source, rho.hom, big, doubled)).ok
