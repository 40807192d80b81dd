import numpy as np
import pytest

from fellbundles.actions import Action, coefficient_map, l2_action, regularize_action, trivial_action
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle
from fellbundles.correspondences import (
    ActionMismatchError,
    Correspondence,
    EquivalenceBundle,
    WrongFiberError,
    amplified_correspondence,
    amplified_is_star_rep,
    attach_left_action,
    build_module,
    check_cyclic,
    check_nondegenerate,
    left_inner_section,
    subcorrespondence,
    trivial_self_equivalence,
    verify_imprimitivity,
)
from fellbundles.crosssec import Section, convolve, cstar_norm, rep_matrix, star
from fellbundles.groups import make_cyclic, symmetric_group
from fellbundles.hilbundles import HilbertBundle, ShapeMismatchError, trivial_hilbert_bundle
from fellbundles.pdmaps import cached_rep, gelfand_raikov, identity_bundle_map, phi_t

from test_bundles import M2_BASIS, ad_diag_system, swap_system
from test_numerics import psd_ok


def trivial_correspondence(bundle):
    rho = trivial_action(bundle)
    y = build_module(rho.target)
    return attach_left_action(y, rho, seed=1)


def test_trivial_module_inner_is_convolution():
    b = group_bundle(symmetric_group(3))
    y = trivial_correspondence(b)
    grp = b.group
    rng = np.random.default_rng(0)
    for g in grp.elements():
        for g2 in grp.elements():
            a = b.random_coords(g, rng)
            a2 = b.random_coords(g2, rng)
            xi = y.embed(g, a)
            eta = y.embed(g2, a2)
            got = y.inner(xi, eta)
            # oracle: <a (+) g, a' (+) g'> = (a* a') (+) (g^-1 g'), exactly
            want = np.zeros_like(got.coeff_array)
            want[grp.mul(grp.inv(g), g2)] = b.product_coords(
                grp.inv(g), b.star_coords(g, a), g2, a2)
            assert got.allclose(Section(b, want), atol=1e-12)


def test_trivial_module_matches_section_convolution():
    b = dynamical_bundle(*swap_system())
    y = trivial_correspondence(b)
    rng = np.random.default_rng(1)
    f1, f2 = Section.random(b, rng), Section.random(b, rng)
    xi = np.concatenate(f1.coeffs)
    # <xi, eta> = f1* (star) f2 and f . xi = f (star) f1
    got = y.inner(xi, np.concatenate(f2.coeffs))
    want = convolve(star(f1), f2)
    assert got.allclose(want, atol=1e-10)
    moved = y.left_mul(f2, xi)
    want2 = np.concatenate(convolve(f2, f1).coeffs)
    assert np.allclose(moved, want2, atol=1e-10)


def test_single_fiber_sections_have_fiber_norm():
    b = dynamical_bundle(*ad_diag_system())
    rho = l2_action(b)
    y = attach_left_action(build_module(rho.target), rho, seed=2)
    rng = np.random.default_rng(3)
    for k in b.group.elements():
        w = rho.target.random_vector(k, rng)
        assert y.norm(y.embed(k, w)) == pytest.approx(rho.target.norm(k, w), rel=1e-9)


def test_inner_products_are_positive_in_the_cross_sectional_algebra():
    b = group_bundle(symmetric_group(3))
    rho = l2_action(b)
    y = build_module(rho.target)
    rep = cached_rep(b)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        xi = y.random(rng)
        gram = rep_matrix(rep, y.inner(xi, xi))
        assert psd_ok((gram + gram.conj().T) / 2)


def test_nondegenerate_action_gives_nondegenerate_left_module_action():
    # span{f . xi} must fill the whole module when the action is nondegenerate
    b = dynamical_bundle(*swap_system())
    rho = l2_action(b)
    y = attach_left_action(build_module(rho.target), rho, seed=30)
    assert check_nondegenerate(y)
    columns = []
    for g in b.group.elements():
        for i in range(b.dims[g]):
            columns.append(y.generator_matrix(g, i))
    stacked = np.hstack(columns)
    assert np.linalg.matrix_rank(stacked) == y.dim


def test_left_action_is_bounded_by_cstar_norm():
    b = dynamical_bundle(*swap_system())
    rho = l2_action(b)
    y = attach_left_action(build_module(rho.target), rho, seed=6)
    rng = np.random.default_rng(7)
    for _ in range(15):
        f = Section.random(b, rng)
        xi = y.random(rng)
        assert y.norm(y.left_mul(f, xi)) <= cstar_norm(f) * y.norm(xi) + 1e-8


def test_module_associativity_oracle():
    b = group_bundle(make_cyclic(3))
    y = trivial_correspondence(b)
    rng = np.random.default_rng(8)
    f = Section.random(b, rng)
    f2 = Section.random(b, rng)
    xi = y.random(rng)
    lhs = y.left_mul(f, y.right_mul(xi, f2))
    rhs = y.right_mul(y.left_mul(f, xi), f2)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_psi_equals_phi_t_identity():
    # <xi_x, f . xi_x> recovers the push-forward along the coefficient map
    for b in (group_bundle(make_cyclic(3)), dynamical_bundle(*swap_system())):
        rho = l2_action(b)
        y = attach_left_action(build_module(rho.target), rho, seed=9)
        rng = np.random.default_rng(10)
        e = b.group.identity
        x = rho.target.random_vector(e, rng)
        t = coefficient_map(rho, x)
        xi_x = y.embed(e, x)
        for _ in range(5):
            f = Section.random(b, rng)
            got = y.inner(xi_x, y.left_mul(f, xi_x))
            want = phi_t(t, f)
            assert got.allclose(want, atol=1e-10)


def test_gns_vector_is_cyclic():
    b = dynamical_bundle(*ad_diag_system())
    t = identity_bundle_map(b)
    hb, rho, xi = gelfand_raikov(t)
    y = attach_left_action(build_module(hb), rho, seed=11)
    assert check_cyclic(y, xi)
    assert check_nondegenerate(y)


def test_regular_action_cyclicity_on_saturated_bundle():
    for b in (group_bundle(make_cyclic(2)), group_bundle(symmetric_group(3)),
              dynamical_bundle(*swap_system())):
        rho = regularize_action(trivial_action(b))
        y = attach_left_action(build_module(rho.target), rho, seed=12)
        e = b.group.identity
        x = np.zeros(rho.target.dims[e], dtype=complex)
        x[e * b.dims[e]:(e + 1) * b.dims[e]] = b.unit_coords
        assert check_cyclic(y, x)


def test_regular_action_cyclicity_fails_without_saturation():
    g2 = make_cyclic(2)
    b = FellBundle(g2, 1, [np.eye(1)[None].reshape(1, 1, 1), np.zeros((0, 1, 1))])
    rho = regularize_action(trivial_action(b))
    y = attach_left_action(build_module(rho.target), rho, seed=13)
    e = g2.identity
    x = np.zeros(rho.target.dims[e], dtype=complex)
    x[e * b.dims[e]:(e + 1) * b.dims[e]] = b.unit_coords
    assert not check_cyclic(y, x)
    # nondegeneracy quantifies over the whole unit fiber and still holds here
    assert check_nondegenerate(y)


def test_zero_action_is_degenerate():
    b = group_bundle(make_cyclic(2))
    rho0 = trivial_action(b)
    zero_ops = [[np.zeros_like(rho0.ops[g][h]) for h in b.group.elements()]
                for g in b.group.elements()]
    zero = Action(b, rho0.hom, rho0.target, zero_ops)
    y = Correspondence(rho0.target, action=zero)
    assert not check_nondegenerate(y)


def direct_sum_of_trivial_actions(b):
    """Two copies of the trivial action, summed blockwise."""
    base = trivial_action(b)
    grp = b.group
    dims = [2 * d for d in b.dims]
    act = [[np.stack([np.kron(np.eye(2), base.target.act[r][h][i])
                      for i in range(b.dims[h])])
            if b.dims[h] else np.zeros((0, dims[grp.mul(r, h)], dims[r]))
            for h in grp.elements()] for r in grp.elements()]
    inner = [[np.kron(np.eye(2)[:, :, None], base.target.inner[r][s])
              for s in grp.elements()] for r in grp.elements()]
    hb = HilbertBundle(b, dims, act, inner)
    ops = [[np.stack([np.kron(np.eye(2), base.ops[g][h][i])
                      for i in range(b.dims[g])])
            if b.dims[g] else np.zeros((0, dims[grp.mul(g, h)], dims[h]))
            for h in grp.elements()] for g in grp.elements()]
    return Action(b, base.hom, hb, ops)


def test_subcorrespondence_of_direct_sum_picks_one_summand():
    b = group_bundle(make_cyclic(2))
    rho = direct_sum_of_trivial_actions(b)
    y = attach_left_action(build_module(rho.target), rho, seed=14)
    e = b.group.identity
    x = np.kron(np.eye(2)[0], b.unit_coords)  # unit of the first summand
    sub = subcorrespondence(y, x)
    assert sub.hbundle.dims == list(b.dims)  # one canonical copy
    assert sub.dim == y.dim // 2
    assert not check_cyclic(y, x)


def test_subcorrespondence_of_cyclic_vector_is_everything():
    b = group_bundle(make_cyclic(3))
    rho = trivial_action(b)
    y = attach_left_action(build_module(rho.target), rho, seed=15)
    sub = subcorrespondence(y, b.unit_coords)
    assert sub.hbundle.dims == y.hbundle.dims
    assert check_cyclic(y, b.unit_coords)


def test_subcorrespondence_of_zero_vector_is_zero():
    b = group_bundle(make_cyclic(2))
    y = trivial_correspondence(b)
    sub = subcorrespondence(y, np.zeros(b.dims[0]))
    assert sub.dim == 0


def test_subcorrespondence_rejects_wrong_fiber():
    b = group_bundle(make_cyclic(2))
    y = trivial_correspondence(b)
    with pytest.raises(WrongFiberError):
        subcorrespondence(y, np.zeros(17))


def test_amplified_correspondence_dimensions_and_star_property():
    b = dynamical_bundle(*swap_system())
    rho = l2_action(b)
    y = attach_left_action(build_module(rho.target), rho, seed=16)
    amp = amplified_correspondence(y)
    assert amp.dim == b.group.order * y.dim
    check = amplified_is_star_rep(amp, seed=17)
    assert check and check.residual <= check.bound
    # generator formula: a (+) g amplifies to lambda_g (x) pi_g(a), stored as
    # the blocks of pi_g(a), block r reading fiber g^-1 r (phi is the identity)
    grp = b.group
    for g in grp.elements():
        for i in range(b.dims[g]):
            f = Section.zero(b).coeff_array.copy()
            f[g, i] = 1.0
            blocks = amp.blocks(Section(b, f))
            assert not np.any(np.delete(blocks, g, axis=0))
            dense = np.zeros((y.dim, y.dim), dtype=complex)
            for r in grp.elements():
                s = grp.mul(grp.inv(g), r)
                dense[y.offsets[r]:y.offsets[r + 1], y.offsets[s]:y.offsets[s + 1]] = blocks[g, r]
            assert np.allclose(dense, y.generator_matrix(g, i))


def test_amplification_of_one_point_group_is_identity():
    triv = make_cyclic(1)
    b = FellBundle(triv, 2, [M2_BASIS])
    y = trivial_correspondence(b)
    amp = amplified_correspondence(y)
    assert amp.dim == y.dim


def test_imprimitivity_m2_over_c():
    triv = make_cyclic(1)
    a_bundle = FellBundle(triv, 2, [M2_BASIS])
    b_bundle = FellBundle(triv, 1, [np.array([[[1.0]]])])
    # column vectors C^2: right scalars, left matrices, [x,y] = x y*, <x,y> = x* y
    right = HilbertBundle(
        b_bundle, [2],
        [[np.eye(2)[None]]],
        [[np.eye(2)[:, :, None].astype(complex)]],
    )
    lact = [[np.stack([M2_BASIS[i] for i in range(4)])]]
    linner = [[np.zeros((2, 2, 4), dtype=complex)]]
    for u in range(2):
        for v in range(2):
            e_uv = np.zeros((2, 2), dtype=complex)
            e_uv[u, v] = 1.0
            linner[0][0][u, v] = a_bundle.coords(0, e_uv)[0]
    e = EquivalenceBundle(a_bundle, right, lact, linner)
    rep = verify_imprimitivity(e, seed=18)
    assert rep.ok, str(rep)


def test_equivalence_bundle_checks_its_groups_and_blocks():
    """Groups must agree and every lact/linner block must have its shape,
    since the stored form would zero-fill a block that is too small; the
    left action is built once and shares its stored operators."""
    b = group_bundle(make_cyclic(2))
    e = trivial_self_equivalence(b)
    assert e.left_action() is e.left_action()
    assert e.lact_array is e.left_action().ops_array
    with pytest.raises(ShapeMismatchError):
        EquivalenceBundle(group_bundle(make_cyclic(3)), e.right, e.lact, e.linner)
    for key in ("lact", "linner"):
        tensors = {"lact": [list(row) for row in e.lact],
                   "linner": [list(row) for row in e.linner]}
        tensors[key][1][0] = tensors[key][1][0][..., :0]
        with pytest.raises(ShapeMismatchError):
            EquivalenceBundle(b, e.right, tensors["lact"], tensors["linner"])


def test_imprimitivity_self_equivalence():
    for b in (group_bundle(make_cyclic(2)), group_bundle(symmetric_group(3)),
              dynamical_bundle(*swap_system())):
        e = trivial_self_equivalence(b)
        rep = verify_imprimitivity(e, seed=19)
        assert rep.ok, str(rep)


def test_imprimitivity_corner_fails_fullness():
    triv = make_cyclic(1)
    corner = np.zeros((4, 4, 4), dtype=complex)
    blocks = []
    for i, base in enumerate(M2_BASIS):
        top = np.zeros((4, 4), dtype=complex)
        top[:2, :2] = base
        bot = np.zeros((4, 4), dtype=complex)
        bot[2:, 2:] = base
        blocks.extend([top, bot])
    a_bundle = FellBundle(triv, 4, [np.array(blocks)])
    b_bundle = FellBundle(triv, 1, [np.array([[[1.0]]])])
    right = HilbertBundle(
        b_bundle, [2],
        [[np.eye(2)[None]]],
        [[np.eye(2)[:, :, None].astype(complex)]],
    )
    # the left algebra is M2 (+) M2 but only the first block acts
    lact_mats = []
    for blk in blocks:
        lact_mats.append(blk[:2, :2])
    lact = [[np.stack(lact_mats)]]
    linner = [[np.zeros((2, 2, 8), dtype=complex)]]
    for u in range(2):
        for v in range(2):
            e_uv = np.zeros((4, 4), dtype=complex)
            e_uv[u, v] = 1.0
            linner[0][0][u, v] = a_bundle.coords(0, e_uv)[0]
    e = EquivalenceBundle(a_bundle, right, lact, linner)
    rep = verify_imprimitivity(e, seed=20)
    assert not rep.ok
    failed = [item.name for item in rep.failures()]
    assert "left fullness" in failed
    assert all("fullness" in name for name in failed), failed


def test_left_inner_section_matches_elementary_formula():
    # [x (+) g, y (+) g'] = [x, y] (+) (g g'^-1)
    b = group_bundle(symmetric_group(3))
    e = trivial_self_equivalence(b)
    y = Correspondence(e.right, action=e.left_action())
    grp = b.group
    rng = np.random.default_rng(21)
    for g in (1, 4):
        for g2 in (2, 5):
            xv = e.right.random_vector(g, rng)
            yv = e.right.random_vector(g2, rng)
            got = left_inner_section(e, y, y.embed(g, xv), y.embed(g2, yv))
            want = np.zeros_like(got.coeff_array)
            want[grp.mul(g, grp.inv(g2))] = e.left_inner_coords(g, xv, g2, yv)
            assert got.allclose(Section(b, want), atol=1e-12)


def test_attach_rejects_foreign_action():
    b1 = group_bundle(make_cyclic(2))
    b2 = group_bundle(make_cyclic(3))
    y = build_module(trivial_hilbert_bundle(b1))
    with pytest.raises(ActionMismatchError):
        attach_left_action(y, trivial_action(b2), seed=22)


def test_right_mul_rejects_foreign_sections():
    """A section over another bundle, of the same group or of a larger one,
    is refused rather than multiplied in or broadcast against."""
    b = group_bundle(make_cyclic(2))
    y = Correspondence(trivial_hilbert_bundle(b))
    rng = np.random.default_rng(5)
    xi = y.random(rng)
    y.right_mul(xi, Section.random(b, rng))
    for other in (group_bundle(make_cyclic(2)), group_bundle(make_cyclic(3))):
        with pytest.raises(ActionMismatchError, match="target bundle"):
            y.right_mul(xi, Section.random(other, rng))
