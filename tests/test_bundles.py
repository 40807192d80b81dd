import json

import numpy as np
import pytest

from fellbundles import serialize as sz
from fellbundles.bundles import (
    BundleMap,
    FellBundle,
    NotActionError,
    NotAutomorphismError,
    bundles_equal,
    check_saturated,
    dynamical_bundle,
    group_bundle,
    projection_expectation,
    regular_unitary,
    validate_bundle,
)
from fellbundles.cli import main
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group, trivial_hom
from fellbundles.pdmaps import check_subbundle_and_expectation

E11 = np.diag([1.0, 0.0])
E22 = np.diag([0.0, 1.0])
M2_BASIS = np.array(
    [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]],
    dtype=complex,
)


def swap_system():
    """Z/2 acting on C + C by coordinate swap."""
    basis = np.array([E11, E22])
    alpha = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    return basis, make_cyclic(2), alpha


def ad_diag_system():
    """Z/2 acting on M2 by Ad(diag(1,-1))."""
    alpha_g = np.diag([1.0, -1.0, -1.0, 1.0])
    return M2_BASIS, make_cyclic(2), [np.eye(4), alpha_g]


def test_group_bundle_z2():
    b = group_bundle(make_cyclic(2))
    assert b.dims == [1, 1]
    u_g = regular_unitary(b.group, 1)
    assert np.allclose(u_g @ u_g, np.eye(2))
    assert validate_bundle(b).ok
    assert b.unital


def test_huge_fibers_are_rescaled_not_dropped():
    """Fibers with entries near the float maximum: their row norms overflow,
    so they are divided by a power of two before the SVD and keep their
    span, instead of vanishing."""
    grp = make_cyclic(2)
    u = [regular_unitary(grp, g) for g in grp.elements()]
    b = FellBundle(grp, 2, [-1.7e308 * u[0][None], (1.7e308 + 1.7e308j) * u[1][None]])
    assert b.dims == [1, 1]
    assert bundles_equal(b, group_bundle(grp))
    assert validate_bundle(b).ok


def test_bundle_of_zero_fibers_is_valid(tmp_path, capsys):
    """Every fiber empty: construction, the structure tensors and both
    decompositions handle total_dim 0, and `validate` passes (exit 0)."""
    b = FellBundle(make_cyclic(2), 2, [np.zeros((0, 2, 2))] * 2)
    assert b.dims == [0, 0] and b.total_dim == 0
    assert b.prod_array.shape == (2, 2, 0, 0, 0) and b.star_array.shape == (2, 0, 0)
    assert not b.unital
    assert b.blocks.types == b.unit_blocks.types == [(2, 1)]
    assert validate_bundle(b).ok
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(sz.bundle_to_json(b)))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_group_bundle_z3_order():
    g = make_cyclic(3)
    u = regular_unitary(g, 1)
    assert np.allclose(np.linalg.matrix_power(u, 3), np.eye(3))


def test_group_bundle_s3_table():
    g = symmetric_group(3)
    bundle = group_bundle(g)
    assert validate_bundle(bundle).ok
    for a in g.elements():
        for b in g.elements():
            lhs = regular_unitary(g, a) @ regular_unitary(g, b)
            assert np.allclose(lhs, regular_unitary(g, g.mul(a, b)))


def test_matrix_algebra_over_trivial_group():
    b = FellBundle(make_cyclic(1), 2, [M2_BASIS])
    assert b.dims == [4]
    assert validate_bundle(b).ok


def test_perturbed_bundle_reports_grading_failure():
    g = make_cyclic(2)
    rng = np.random.default_rng(1)
    bad = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    fibers = [regular_unitary(g, 0)[None], bad[None]]
    rep = validate_bundle(FellBundle(g, 2, fibers))
    assert not rep.ok
    assert any("grading" in item.name for item in rep.failures())


def test_products_vanishing_up_to_rounding_keep_the_grading():
    # M2 x Z2 in a random unitary conjugate of the matrix-unit basis: many
    # basis products are zero only up to rounding, and the grading residual
    # must stay at that level instead of being judged against their own norm
    for seed in range(3):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        basis, grp, alpha = ad_diag_system()
        b = dynamical_bundle(u @ basis @ u.conj().T, grp, alpha)
        rep = validate_bundle(b)
        assert rep.ok, str(rep)
        assert b.grading_residual.max() <= 1e-14


def test_cstar_identity_on_basis():
    for bundle in (group_bundle(symmetric_group(3)), dynamical_bundle(*ad_diag_system())):
        for g in bundle.group.elements():
            for a in bundle.fibers[g]:
                na = np.linalg.norm(a, 2)
                assert np.linalg.norm(a.conj().T @ a, 2) == pytest.approx(na * na, rel=1e-10)


def test_star_lands_in_inverse_fiber():
    bundle = dynamical_bundle(*swap_system())
    grp = bundle.group
    for g in grp.elements():
        for h in grp.elements():
            for a in bundle.fibers[g]:
                for b in bundle.fibers[h]:
                    prod_star = (a @ b).conj().T
                    _, res = bundle.coords(grp.inv(grp.mul(g, h)), prod_star)
                    assert res < 1e-10


def test_dynamical_trivial_action_matches_group_bundle_dims():
    b = dynamical_bundle(np.array([[[1.0]]]), make_cyclic(2), [np.eye(1), np.eye(1)])
    assert b.dims == group_bundle(make_cyclic(2)).dims
    assert validate_bundle(b).ok


def test_dynamical_swap():
    b = dynamical_bundle(*swap_system())
    assert b.ambient_dim == 4
    assert b.dims == [2, 2]
    assert validate_bundle(b).ok
    assert b.unital


def test_dynamical_ad():
    b = dynamical_bundle(*ad_diag_system())
    assert b.dims == [4, 4]
    assert validate_bundle(b).ok


def test_dynamical_fiber_dims_equal_algebra_dim():
    for basis, grp, alpha in (swap_system(), ad_diag_system()):
        b = dynamical_bundle(basis, grp, alpha)
        assert all(d == len(basis) for d in b.dims)


def test_dynamical_rejects_non_automorphism():
    basis = np.array([E11, E22])
    # not multiplicative on the diagonal algebra
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotAutomorphismError):
        dynamical_bundle(basis, make_cyclic(2), [np.eye(2), shear])


def test_dynamical_rejects_non_action():
    basis = np.array([E11, E22])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotActionError):
        # swap has order 2 but we pretend the group is Z/3
        dynamical_bundle(basis, make_cyclic(3), [np.eye(2), swap, swap])


def test_saturated_group_bundle():
    assert check_saturated(group_bundle(symmetric_group(3)))


def test_not_saturated_with_zero_fiber():
    g = make_cyclic(2)
    fibers = [np.eye(1)[None].reshape(1, 1, 1), np.zeros((0, 1, 1))]
    b = FellBundle(g, 1, fibers)
    assert validate_bundle(b).ok
    assert not check_saturated(b)


def test_saturated_dynamical():
    assert check_saturated(dynamical_bundle(*ad_diag_system()))


def test_expectation_identity():
    b = group_bundle(make_cyclic(2))
    exp = projection_expectation(b, b)
    rep = check_subbundle_and_expectation(exp)
    assert rep.ok, str(rep)


def test_expectation_group_subbundle_of_swap_crossed_product():
    sup = dynamical_bundle(*swap_system())
    grp = sup.group
    sub_fibers = [
        np.eye(4)[None],
        np.kron(np.eye(2), regular_unitary(grp, 1))[None],
    ]
    sub = FellBundle(grp, 4, sub_fibers)
    assert validate_bundle(sub).ok
    exp = projection_expectation(sup, sub)
    rep = check_subbundle_and_expectation(exp)
    assert rep.ok, str(rep)


def test_non_idempotent_expectation_flagged():
    b = group_bundle(make_cyclic(2))
    exp = projection_expectation(b, b)
    shrunk = BundleMap(b, b, identity_hom(b.group), [0.5 * m for m in exp.mats])
    rep = check_subbundle_and_expectation(shrunk)
    assert not rep.ok
    assert any("idempotence" in item.name for item in rep.failures())


def test_expectation_into_another_algebra_or_over_another_hom_is_refused():
    point = make_cyclic(1)
    into_m3 = BundleMap(FellBundle(point, 2, [np.eye(2)[None]]),
                        FellBundle(point, 3, [np.eye(3)[None]]), identity_hom(point), [np.eye(1)])
    b = group_bundle(make_cyclic(2))
    collapsing = BundleMap(b, b, trivial_hom(b.group, b.group), [np.eye(1)] * 2)
    for exp in (into_m3, collapsing):
        with pytest.raises(ValueError, match="same ambient algebra, over the identity"):
            check_subbundle_and_expectation(exp)
