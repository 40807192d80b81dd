"""The caller's Tolerance governs every verdict: each validator and guard is
given one input whose residual lies between its bound at the default
tolerance and its bound at Tolerance(rel_eq=1e-8), ten times looser.  It
must fail (or raise) at the default and pass at the looser tolerance."""

import numpy as np
import pytest

from fellbundles.actions import Action, CompatibilityViolationError, NotStarRepError, \
    dynsys_action, rep_action, trivial_action, validate_action
from fellbundles.actions import validate_module
from fellbundles.bundles import BundleMap, group_bundle, projection_expectation
from fellbundles.correspondences import ActionMismatchError, AmplifiedCorrespondence, \
    Correspondence, EquivalenceBundle, amplified_is_star_rep, attach_left_action, build_module, \
    trivial_self_equivalence, verify_imprimitivity
from fellbundles.groups import GroupHom, identity_hom, make_cyclic
from fellbundles.hilbundles import HilbertBundle, HilbertModule, check_unitary_bundle_map, \
    trivial_hilbert_bundle, trivial_module, validate_hilbert_bundle
from fellbundles.numerics import DEFAULT_TOL, Tolerance, identity_bound, product_bound
from fellbundles.pdmaps import check_subbundle_and_expectation

from test_actions import hilbert_space_module
from test_bundles import swap_system

LOOSE = Tolerance(rel_eq=1e-8)
EPS = 5e-8  # a relative perturbation above identity_bound(DEFAULT_TOL)


@pytest.fixture(scope="module")
def z3():
    return group_bundle(make_cyclic(3))


def scaled(blocks, eps=EPS):
    """A nested list of blocks with block [1][0] scaled by 1 + eps."""
    out = [list(row) for row in blocks]
    out[1][0] = out[1][0] * (1 + eps)
    return out


def in_window(residual, bound=identity_bound):
    return bound(DEFAULT_TOL) < residual < bound(LOOSE)


def test_validate_action(z3):
    rho = trivial_action(z3)
    bent = Action(z3, rho.hom, rho.target, scaled(rho.ops))
    rep = validate_action(bent)
    assert not rep.ok and in_window(rep.worst)
    assert validate_action(bent, LOOSE).ok


def test_validate_hilbert_bundle(z3):
    hb = trivial_hilbert_bundle(z3)
    bent = HilbertBundle(z3, hb.dims, scaled(hb.act), hb.inner)
    rep = validate_hilbert_bundle(bent)
    assert not rep.ok and in_window(rep.worst)
    assert validate_hilbert_bundle(bent, LOOSE).ok


def test_verify_imprimitivity(z3):
    e = trivial_self_equivalence(z3)
    bent = EquivalenceBundle(z3, e.right, e.lact, scaled(e.linner))
    rep = verify_imprimitivity(bent)
    assert not rep.ok and in_window(rep.worst)
    assert verify_imprimitivity(bent, LOOSE).ok


def test_validate_module():
    mod = trivial_module(swap_system()[0])
    right = mod.right.copy()
    right[1] *= 1 + EPS
    bent = HilbertModule(mod.algebra_basis, mod.dim, right, mod.inner, mod.left_basis, mod.left)
    rep = validate_module(bent)
    assert not rep.ok and in_window(rep.worst)
    assert validate_module(bent, LOOSE).ok


def test_check_subbundle_and_expectation(z3):
    maps = projection_expectation(z3, z3).mats
    bent = BundleMap(z3, z3, identity_hom(z3.group),
                     [m * (1 + EPS) if g == 1 else m for g, m in enumerate(maps)])
    rep = check_subbundle_and_expectation(bent)
    assert not rep.ok and in_window(rep.worst)
    assert check_subbundle_and_expectation(bent, LOOSE).ok


def _bent_action(z3):
    """The left multiplication of Z3 on its module, one block bent."""
    y = build_module(trivial_hilbert_bundle(z3))
    rho = trivial_action(z3)
    return y, Action(z3, rho.hom, y.hbundle, scaled(rho.ops))


def test_amplified_is_star_rep(z3):
    y, bent = _bent_action(z3)
    amp = AmplifiedCorrespondence(Correspondence(y.hbundle, action=bent))
    strict = amplified_is_star_rep(amp)
    assert not strict and in_window(strict.residual) and strict.bound == 1e-8
    loose = amplified_is_star_rep(amp, tol=LOOSE)
    assert loose and loose.residual == strict.residual and loose.bound == identity_bound(LOOSE)


def test_attach_left_action(z3):
    y, bent = _bent_action(z3)
    with pytest.raises(ActionMismatchError):
        attach_left_action(y, bent)
    assert attach_left_action(y, bent, LOOSE).action is bent


def test_rep_action():
    g4 = make_cyclic(4)
    v = np.diag([1.0, 1j])
    pi = [np.array([np.linalg.matrix_power(v, g) / 2.0]) for g in range(4)]
    pi[1] = pi[1] * (1 + EPS)
    args = (group_bundle(g4), pi, hilbert_space_module(2),
            GroupHom(g4, make_cyclic(2), [g % 2 for g in range(4)]))
    with pytest.raises(NotStarRepError, match="multiplicative"):
        rep_action(*args)
    assert rep_action(*args, LOOSE).target.dims == [2, 2]


def test_dynsys_action():
    basis, grp, alpha = swap_system()
    gamma = [np.eye(2), alpha[1] * (1 + 3e-8)]
    args = (trivial_module(basis), gamma, (basis, grp, alpha), (basis, grp, alpha),
            identity_hom(grp))
    with pytest.raises(CompatibilityViolationError, match="homomorphism"):
        dynsys_action(*args)
    assert validate_action(dynsys_action(*args, LOOSE), LOOSE).ok


def test_check_unitary_bundle_map(z3):
    hb = trivial_hilbert_bundle(z3)
    eps = 3e-7  # above product_bound(DEFAULT_TOL), the bound of this check
    assert in_window(2 * eps, product_bound)
    u = [np.eye(d) * (1 + eps) for d in hb.dims]
    assert not check_unitary_bundle_map(u, hb, hb)
    assert check_unitary_bundle_map(u, hb, hb, LOOSE)
