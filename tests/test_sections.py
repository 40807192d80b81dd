"""Sections stored as one padded array, against the per-fiber loops they replaced.

`loop_convolve`, `loop_star` and `loop_phi_t` keep the removed loops over
group elements of `crosssec.convolve`, `crosssec.star` and `pdmaps.phi_t`
verbatim, writing into a padded array instead of a list of fibers; the
module arithmetic is checked against the loops of
test_correspondences_blocks.  Every route must agree within 1e-12 relative
to max(1, |value|) on Z12, S4, M2xZ2 and a bundle whose fibers are all zero,
where every array has a zero-size axis.
"""

import numpy as np
import pytest

from fellbundles.actions import l2_action, trivial_action
from fellbundles.bundles import FellBundle, group_bundle
from fellbundles.correspondences import Correspondence
from fellbundles.crosssec import Section, convolve, star
from fellbundles.groups import GroupHom, make_cyclic, symmetric_group
from fellbundles.pdmaps import identity_bundle_map, perturb_bundle_map, phi_t, \
    scalar_bundle_map

from test_correspondences_blocks import loop_inner, loop_left_mul, loop_right_mul


def loop_convolve(f1, f2):
    """(f1 * f2)(h) = sum_g f1(g) f2(g^-1 h), through the product tensors."""
    bundle = f1.bundle
    grp = bundle.group
    out = Section.zero(bundle).coeff_array.copy()
    for g in grp.elements():
        if not np.any(f1.coeffs[g]):
            continue
        for h in grp.elements():
            k = grp.mul(grp.inv(g), h)
            if not np.any(f2.coeffs[k]):
                continue
            out[h, :bundle.dims[h]] += bundle.product_coords(g, f1.coeffs[g], k, f2.coeffs[k])
    return Section(bundle, out)


def loop_star(f):
    """f*(h) = f(h^-1)*."""
    bundle = f.bundle
    grp = bundle.group
    out = Section.zero(bundle).coeff_array.copy()
    for h in grp.elements():
        out[h, :bundle.dims[h]] = bundle.star_coords(grp.inv(h), f.coeffs[grp.inv(h)])
    return Section(bundle, out)


def loop_phi_t(t, f):
    """Graded push-forward of sections: sum_g T_g(f(g)) placed at phi(g)."""
    out = Section.zero(t.target).coeff_array.copy()
    for g in t.source.group.elements():
        h = t.hom(g)
        out[h, :t.target.dims[h]] += t.apply(g, f.coeffs[g])
    return Section(t.target, out)


def assert_agrees(got, want):
    got, want = (getattr(v, "coeff_array", v) for v in (got, want))
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


def empty_bundle():
    return FellBundle(make_cyclic(2), 2, [np.zeros((0, 2, 2))] * 2)


@pytest.fixture(scope="module")
def bundles(corpus_bundles):
    return {"Z12": group_bundle(make_cyclic(12)), "S4": group_bundle(symmetric_group(4)),
            "M2xZ2": corpus_bundles["m2_ad"], "empty": empty_bundle()}


NAMES = ("Z12", "S4", "M2xZ2", "empty")


@pytest.mark.parametrize("name", NAMES)
def test_convolve_and_star_match_the_loops(bundles, name):
    b = bundles[name]
    rng = np.random.default_rng(1)
    for _ in range(3):
        f1, f2 = Section.random(b, rng), Section.random(b, rng)
        assert_agrees(convolve(f1, f2), loop_convolve(f1, f2))
        assert_agrees(star(f1), loop_star(f1))
    # a sparse section, which the loop skips fiber by fiber
    f = Section.unit(b) if b.unital else Section.zero(b)
    assert_agrees(convolve(f, f2), loop_convolve(f, f2))


@pytest.mark.parametrize("name", NAMES)
def test_phi_t_matches_the_loop(bundles, name):
    b = bundles[name]
    rng = np.random.default_rng(2)
    t = perturb_bundle_map(identity_bundle_map(b), 0.3, rng)
    f = Section.random(b, rng)
    assert_agrees(phi_t(t, f), loop_phi_t(t, f))


def test_phi_t_sums_the_fibers_a_homomorphism_merges():
    src, tgt = group_bundle(make_cyclic(12)), group_bundle(make_cyclic(6))
    rng = np.random.default_rng(3)
    t = scalar_bundle_map(src, tgt, GroupHom(src.group, tgt.group, np.arange(12) % 6),
                          rng.standard_normal(12) + 1j * rng.standard_normal(12))
    f = Section.random(src, rng)
    assert_agrees(phi_t(t, f), loop_phi_t(t, f))


@pytest.mark.parametrize("name", NAMES)
def test_module_arithmetic_matches_the_loops(bundles, name):
    b = bundles[name]
    actions = [trivial_action(b)] + ([l2_action(b)] if name == "M2xZ2" else [])
    rng = np.random.default_rng(4)
    for rho in actions:
        y = Correspondence(rho.target, action=rho)
        xi, eta = y.random(rng), y.random(rng)
        f, fr = Section.random(b, rng), Section.random(y.bundle, rng)
        assert_agrees(y.right_mul(xi, fr), loop_right_mul(y, xi, fr))
        assert_agrees(y.left_mul(f, xi), loop_left_mul(y, f, xi))
        assert_agrees(y.inner(xi, eta), loop_inner(y, xi, eta))


def test_random_draws_the_fibers_in_turn():
    b = FellBundle(make_cyclic(2), 2, [np.eye(2)[None], np.zeros((0, 2, 2))])
    for bundle in (b, group_bundle(symmetric_group(3))):
        f = Section.random(bundle, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for g in bundle.group.elements():
            assert np.array_equal(f.coeffs[g], bundle.random_coords(g, rng))


def test_section_is_stored_once_and_read_only(bundles):
    f = Section.random(bundles["M2xZ2"], np.random.default_rng(6))
    assert not f.coeff_array.flags.writeable
    assert isinstance(f.coeffs, tuple)
    assert all(np.shares_memory(c, f.coeff_array) for c in f.coeffs)
    with pytest.raises(ValueError):
        f.coeffs[0][0] = 1.0
    with pytest.raises(TypeError):
        f.coeffs[0] = np.zeros(4)


def test_constructor_copies_its_array():
    b = group_bundle(make_cyclic(2))
    arr = np.ones((2, 1), dtype=complex)
    f = Section(b, arr)
    arr[0, 0] = 5.0
    assert f.coeffs[0][0] == 1.0 and arr.flags.writeable


def test_constructor_refuses_a_wrong_shape():
    b = group_bundle(make_cyclic(3))
    for bad in (np.zeros((2, 1)), np.zeros((4, 1)), np.zeros((3, 2)), np.zeros(3),
                [np.zeros(1), np.zeros(2), np.zeros(1)]):
        with pytest.raises(ValueError):
            Section(b, bad)
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        Section(empty_bundle(), np.zeros((2, 1)))


def test_constructor_refuses_nonzero_padding():
    b = FellBundle(make_cyclic(2), 2, [np.eye(2)[None], np.zeros((0, 2, 2))])
    assert b.dims == [1, 0]
    Section(b, [[1.0], [0.0]])
    for bad in (1.0, np.nan):
        with pytest.raises(ValueError, match="fiber 1"):
            Section(b, [[1.0], [bad]])
