import functools

import numpy as np
import pytest

from fellbundles.actions import coefficient_map, l2_action, validate_action
from fellbundles.bundles import dynamical_bundle, group_bundle, regular_unitary
from fellbundles.crosssec import Section, ambient_image, convolve, rep_matrix, star
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group
from fellbundles.hilbundles import validate_hilbert_bundle
from fellbundles.numerics import opnorm
from fellbundles.pdmaps import (
    BundleMapMismatchError,
    NotPositiveDefiniteError,
    NotUnitalError,
    cached_rep,
    conjugation_bundle_map,
    gelfand_raikov,
    identity_bundle_map,
    pd_check_exact,
    pd_check_sampled,
    perturb_bundle_map,
    phi_t,
    roundtrip_residual,
    scalar_bundle_map,
)

from oracles import ambient_sum, witness_value
from test_bundles import ad_diag_system
from test_numerics import psd_ok


def scalar_map_z(n, values):
    b = group_bundle(make_cyclic(n))
    return scalar_bundle_map(b, b, identity_hom(b.group), values)


def hermitian_symmetric_function(rng, n):
    """Random f with f(-g) = conj(f(g)), the symmetry positivity forces."""
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = np.zeros(n, dtype=complex)
    for g in range(n):
        out[g] = (f[g] + np.conj(f[(-g) % n])) / 2
    return out


def choi_via_sections(t, image=None):
    """Oracle route for the certificate: push basis sections through the
    convolution algebra and the graded map, then through `image` (by
    default the regular image over the target)."""
    src, tgt = t.source, t.target
    if image is None:
        rep = cached_rep(tgt)
        image = functools.partial(rep_matrix, rep)
    pairs = [(g, i) for g in src.group.elements() for i in range(src.dims[g])]
    deltas = []
    for g, i in pairs:
        scale = 1.0 / np.linalg.norm(src.fibers[g][i], 2)
        deltas.append(Section.delta(src, g, scale * src.fibers[g][i]))
    return np.block([[image(phi_t(t, convolve(star(dp), dq))) for dq in deltas]
                     for dp in deltas])


def test_phi_t_identity_map_is_identity():
    b = group_bundle(symmetric_group(3))
    t = identity_bundle_map(b)
    rng = np.random.default_rng(0)
    f = Section.random(b, rng)
    assert phi_t(t, f).allclose(f)


def test_phi_t_unit_supported_map():
    b = group_bundle(make_cyclic(3))
    mats = [np.eye(1) if g == 0 else np.zeros((1, 1)) for g in range(3)]
    from fellbundles.pdmaps import BundleMap
    t = BundleMap(b, b, identity_hom(b.group), mats)
    rng = np.random.default_rng(1)
    out = phi_t(t, Section.random(b, rng))
    assert out.support() == [0]


def test_phi_t_linearity():
    b = dynamical_bundle(*ad_diag_system())
    t = conjugation_bundle_map(b, b.random_coords(0, np.random.default_rng(2)))
    rng = np.random.default_rng(3)
    f1, f2 = Section.random(b, rng), Section.random(b, rng)
    z = 0.3 - 1.7j
    lhs = phi_t(t, f1 + (z * f2))
    rhs = phi_t(t, f1) + (z * phi_t(t, f2))
    assert lhs.allclose(rhs, atol=1e-12)


def test_phi_t_rejects_wrong_bundle():
    b1, b2 = group_bundle(make_cyclic(2)), group_bundle(make_cyclic(2))
    with pytest.raises(BundleMapMismatchError):
        phi_t(identity_bundle_map(b1), Section.zero(b2))


def test_identity_map_is_positive_definite():
    for b in (group_bundle(symmetric_group(3)), dynamical_bundle(*ad_diag_system())):
        cert = pd_check_exact(identity_bundle_map(b))
        assert cert.ok


def test_scalar_map_threshold():
    for t_val, expect in ((0.5, True), (1.0, True), (2.0, False), (-1.5, False)):
        cert = pd_check_exact(scalar_map_z(2, [1.0, t_val]))
        assert cert.ok is expect
        assert cert.margin == pytest.approx(1.0 - abs(t_val), abs=1e-9)


def test_bochner_margins_match_dft_oracle():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8, 12):
        b = group_bundle(make_cyclic(n))
        for _ in range(5):
            f = hermitian_symmetric_function(rng, n)
            cert = pd_check_exact(scalar_bundle_map(b, b, identity_hom(b.group), f))
            dft = np.fft.fft(f)
            assert np.abs(dft.imag).max() < 1e-9
            want = float(dft.real.min())
            assert cert.margin == pytest.approx(want, abs=1e-8)
            assert cert.ok == bool(want >= -1e-8 * max(1.0, float(np.abs(dft.real).max())))


def test_exact_certificate_matches_section_route():
    rng = np.random.default_rng(7)
    b = dynamical_bundle(*ad_diag_system())
    rho = l2_action(b)
    x = rho.target.random_vector(b.group.identity, rng)
    t = coefficient_map(rho, x)
    cert = pd_check_exact(t)
    assert cert.ok
    assert np.allclose(cert.gram, choi_via_sections(t, ambient_image), atol=1e-9)
    regular = choi_via_sections(t)
    margin = float(np.linalg.eigvalsh((regular + regular.conj().T) / 2)[0])
    assert cert.margin == pytest.approx(margin, abs=1e-12 * max(1.0, opnorm(cert.gram)))


def test_failed_certificate_carries_valid_witness():
    t = scalar_map_z(2, [1.0, 2.0])
    cert = pd_check_exact(t)
    assert not cert.ok
    witness_sum = ambient_sum(t, cert)
    evs = np.linalg.eigvalsh((witness_sum + witness_sum.conj().T) / 2)
    assert evs[0] <= cert.margin + 1e-9
    # the witness tuple, expanded to ambient matrices, re-evaluates to the
    # stored sum
    s = witness_value(t, cert.witness)
    assert np.allclose(s, witness_sum, atol=1e-9)


def test_sampled_consistent_with_exact_pass():
    rng = np.random.default_rng(9)
    b = group_bundle(make_cyclic(3))
    rho = l2_action(b)
    x = rho.target.random_vector(0, rng)
    t = coefficient_map(rho, x)
    assert pd_check_exact(t).ok
    assert pd_check_sampled(t, samples=1000, seed=1).ok


def test_sampled_finds_witness_on_z2_value_two():
    t = scalar_map_z(2, [1.0, 2.0])
    b = t.source
    u_e, u_g = np.eye(2), regular_unitary(b.group, 1)
    # tuple (e, g) with unit elements: the block Gram [T(a_i* a_j)] is the
    # [[1, 2], [2, 1]] pattern, with eigenvalue -1
    from fellbundles.crosssec import matrix_alg
    blocks = [[u_e, 2.0 * u_g], [2.0 * u_g, u_e]]
    op = matrix_alg(b, [0, 1], blocks)
    assert np.allclose(op.matrix, [[1.0, 2.0], [2.0, 1.0]])
    assert op.psd().margin == pytest.approx(-1.0)
    # contracting with coefficients (u_e, -u_g) exposes it in the tuple sum
    s = np.zeros((2, 2), dtype=complex)
    for g1, a1, b1 in ((0, u_e, u_e), (1, u_g, -u_g)):
        for g2, a2, b2 in ((0, u_e, u_e), (1, u_g, -u_g)):
            k = b.group.mul(b.group.inv(g1), g2)
            s += b1 @ t.apply_ambient(k, a1.conj().T @ a2) @ b2.conj().T
    assert np.linalg.eigvalsh(s)[0] == pytest.approx(-2.0)
    res = pd_check_sampled(t, samples=500, seed=0)
    assert not res.ok
    assert res.witness is not None
    s = witness_value(t, res.witness)
    assert np.linalg.eigvalsh((s + s.conj().T) / 2)[0] < 0


def test_sampled_passes_zero_map():
    b = group_bundle(make_cyclic(2))
    from fellbundles.pdmaps import BundleMap
    zero = BundleMap(b, b, identity_hom(b.group), [np.zeros((1, 1))] * 2)
    assert pd_check_sampled(zero, samples=200, seed=0).ok
    assert pd_check_exact(zero).ok


def test_gns_one_dimensional():
    triv = make_cyclic(1)
    from fellbundles.bundles import FellBundle
    b = FellBundle(triv, 1, [np.array([[[1.0]]])])
    from fellbundles.pdmaps import BundleMap
    c = 2.5
    t = BundleMap(b, b, identity_hom(triv), [np.array([[c]])])
    hb, rho, xi = gelfand_raikov(t)
    assert hb.dims == [1]
    assert hb.inner_ambient(0, xi, 0, xi) == pytest.approx(c)
    assert rho.op_matrix(0, np.ones(1), 0)[0, 0] == pytest.approx(1.0)


def test_gns_identity_map_on_z2_and_brute_force_gram():
    b = group_bundle(make_cyclic(2))
    t = identity_bundle_map(b)
    hb, rho, xi = gelfand_raikov(t)
    assert roundtrip_residual(t, hb, rho, xi) <= 1e-12
    # brute-force Gram of the construction for fiber r: slots (k approx),
    # [a (x) b, a' (x) b'] = b* T(a* a') b' localized at the trace
    grp = b.group
    for r in grp.elements():
        slots = [(k, regular_unitary(grp, k) / np.sqrt(2),
                  regular_unitary(grp, grp.mul(grp.inv(k), r)) / np.sqrt(2))
                 for k in grp.elements()]
        gram = np.zeros((2, 2), dtype=complex)
        for p, (k, a, bb) in enumerate(slots):
            for q, (k2, a2, bb2) in enumerate(slots):
                kk = grp.mul(grp.inv(k), k2)
                val = bb.conj().T @ t.apply_ambient(kk, a.conj().T @ a2) @ bb2
                gram[p, q] = np.trace(val)
        rank = int(np.sum(np.linalg.eigvalsh(gram) > 1e-9))
        assert hb.dims[r] == rank == 1


def test_gns_conjugation_map():
    b = dynamical_bundle(*ad_diag_system())
    rng = np.random.default_rng(11)
    # invertible unit-fiber element: identity plus a small random element
    a = b.unit_coords + 0.2 * b.random_coords(b.group.identity, rng)
    t = conjugation_bundle_map(b, a)
    assert pd_check_exact(t).ok
    hb, rho, xi = gelfand_raikov(t)
    assert roundtrip_residual(t, hb, rho, xi) <= 1e-8 * (1 + t.norm())
    # invertible conjugator: same fiber dimensions as the trivial bundle
    assert hb.dims == b.dims
    assert validate_hilbert_bundle(hb).ok
    assert validate_action(rho).ok


def test_gns_rejects_non_pd_and_non_unital():
    t = scalar_map_z(2, [1.0, 2.0])
    with pytest.raises(NotPositiveDefiniteError):
        gelfand_raikov(t)
    from fellbundles.bundles import FellBundle
    g2 = make_cyclic(2)
    nonunital = FellBundle(g2, 2, [np.array([np.diag([1.0, 0.0])]),
                                   np.zeros((0, 2, 2))])
    from fellbundles.pdmaps import BundleMap
    t2 = BundleMap(nonunital, nonunital, identity_hom(g2), [np.eye(1), np.zeros((0, 0))])
    with pytest.raises(NotUnitalError):
        gelfand_raikov(t2)


def test_gns_across_sign_homomorphism_of_s3():
    # non-abelian source mapped onto the two-element group by parity, with
    # the two-dimensional standard representation driving the action
    from fellbundles.actions import rep_action, validate_action
    from fellbundles.hilbundles import HilbertModule
    from fellbundles.groups import GroupHom, check_hom, kernel
    from itertools import permutations

    s3 = symmetric_group(3)
    src = group_bundle(s3)
    perms = list(permutations(range(3)))
    signs = []
    reps = []
    # orthonormal basis of the sum-zero plane carries the permutation action
    v = np.array([[1 / np.sqrt(2), 1 / np.sqrt(6)],
                  [-1 / np.sqrt(2), 1 / np.sqrt(6)],
                  [0.0, -2 / np.sqrt(6)]])
    for p in perms:
        pm = np.zeros((3, 3))
        for k in range(3):
            pm[p[k], k] = 1.0
        reps.append(v.T @ pm @ v)
        inversions = sum(1 for a in range(3) for c in range(a + 1, 3) if p[a] > p[c])
        signs.append(inversions % 2)
    hom = GroupHom(s3, make_cyclic(2), signs)
    assert check_hom(hom)
    assert len(kernel(hom)) == 3  # the rotations

    mod = HilbertModule(np.array([[[1.0]]]), 2, np.eye(2)[None],
                        np.eye(2)[:, :, None].astype(complex))
    pi = [np.array([reps[g] / np.sqrt(6)]) for g in s3.elements()]
    rho0 = rep_action(src, pi, mod, hom)
    assert validate_action(rho0).ok
    rng = np.random.default_rng(23)
    x = rho0.target.random_vector(rho0.target.bundle.group.identity, rng)
    t = coefficient_map(rho0, x)
    assert pd_check_exact(t).ok
    hb, rho, xi = gelfand_raikov(t)
    assert roundtrip_residual(t, hb, rho, xi) <= 1e-8 * (1 + t.norm())
    assert validate_hilbert_bundle(hb).ok
    assert validate_action(rho).ok


def test_gns_handles_zero_fibers():
    # unital bundle with a zero fiber: the reconstructed bundle has a zero
    # fiber too, and every validator still goes through
    from fellbundles.bundles import FellBundle
    g2 = make_cyclic(2)
    flat = FellBundle(g2, 1, [np.eye(1)[None].reshape(1, 1, 1), np.zeros((0, 1, 1))])
    t = identity_bundle_map(flat)
    hb, rho, xi = gelfand_raikov(t)
    assert hb.dims == [1, 0]
    assert roundtrip_residual(t, hb, rho, xi) <= 1e-12
    assert validate_hilbert_bundle(hb).ok
    assert validate_action(rho).ok


def test_gns_round_trip_across_hom():
    from test_actions import z4_to_z2_rep_action
    rho0 = z4_to_z2_rep_action()
    rng = np.random.default_rng(13)
    x = rho0.target.random_vector(rho0.target.bundle.group.identity, rng)
    t = coefficient_map(rho0, x)
    hb, rho, xi = gelfand_raikov(t)
    assert roundtrip_residual(t, hb, rho, xi) <= 1e-8 * (1 + t.norm())
    assert validate_hilbert_bundle(hb).ok
    assert validate_action(rho).ok


def test_exact_and_sampled_never_contradict():
    rng = np.random.default_rng(17)
    b = group_bundle(make_cyclic(3))
    rho = l2_action(b)
    for k in range(30):
        x = rho.target.random_vector(0, rng)
        t = coefficient_map(rho, x)
        if k % 2:
            t = perturb_bundle_map(t, 0.5, rng)
        exact = pd_check_exact(t)
        sampled = pd_check_sampled(t, samples=100, seed=k)
        if exact.ok:
            assert sampled.ok


def test_perturbed_coefficient_maps_fail_both_routes():
    rng = np.random.default_rng(19)
    b = group_bundle(make_cyclic(4))
    rho = l2_action(b)
    x = rho.target.random_vector(0, rng)
    base = coefficient_map(rho, x)
    broken = perturb_bundle_map(base, 5.0 * (1 + base.norm()), rng)
    exact = pd_check_exact(broken)
    assert not exact.ok
    gram2 = choi_via_sections(broken)
    herm = (gram2 + gram2.conj().T) / 2
    defect = np.linalg.norm(gram2 - gram2.conj().T)
    assert defect > 1e-6 or not psd_ok(herm)
    assert not pd_check_sampled(broken, samples=300, seed=3).ok
