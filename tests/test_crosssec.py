import numpy as np
import pytest

from fellbundles.bundles import (
    FellBundle,
    FiberEscapeError,
    dynamical_bundle,
    group_bundle,
    regular_unitary,
)
from fellbundles.crosssec import (
    BlockEscapeError,
    BundleMismatchError,
    Section,
    convolve,
    cstar_norm,
    matrix_alg,
    regular_rep,
    rep_is_faithful,
    rep_matrix,
    star,
)
from fellbundles.groups import make_cyclic, symmetric_group

from hypothesis import given, settings
from hypothesis import strategies as st

from test_bundles import ad_diag_system
from test_numerics import psd_ok


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_convolution_algebra_laws(n, seed):
    grp = make_cyclic(n)
    b = group_bundle(grp)
    rng = np.random.default_rng(seed)
    f1, f2, f3 = (Section.random(b, rng) for _ in range(3))
    assoc_l = convolve(convolve(f1, f2), f3)
    assoc_r = convolve(f1, convolve(f2, f3))
    assert assoc_l.allclose(assoc_r, atol=1e-10 * (1 + f1.l2_norm() * f2.l2_norm() * f3.l2_norm()))
    # involution is an anti-homomorphism
    lhs = star(convolve(f1, f2))
    rhs = convolve(star(f2), star(f1))
    assert lhs.allclose(rhs, atol=1e-10 * (1 + f1.l2_norm() * f2.l2_norm()))


def ambient_convolve(f1, f2):
    """Oracle: convolution evaluated directly in the ambient algebra."""
    grp = f1.bundle.group
    out = {}
    for h in grp.elements():
        acc = np.zeros((f1.bundle.ambient_dim,) * 2, dtype=complex)
        for g in grp.elements():
            acc += f1.ambient(g) @ f2.ambient(grp.mul(grp.inv(g), h))
        out[h] = acc
    return out


def test_delta_convolution_z2():
    b = group_bundle(make_cyclic(2))
    u = regular_unitary(b.group, 1)
    dg = Section.delta(b, 1, u)
    prod = convolve(dg, dg)
    assert np.allclose(prod.ambient(0), np.eye(2))
    assert not np.any(prod.coeffs[1])


def test_unit_section_is_two_sided_unit():
    for b in (group_bundle(symmetric_group(3)), dynamical_bundle(*ad_diag_system())):
        one = Section.unit(b)
        rng = np.random.default_rng(0)
        f = Section.random(b, rng)
        assert convolve(one, f).allclose(f)
        assert convolve(f, one).allclose(f)


def test_convolution_associativity_against_ambient_oracle():
    rng = np.random.default_rng(42)
    b = dynamical_bundle(*ad_diag_system())
    for _ in range(5):
        f1, f2, f3 = (Section.random(b, rng) for _ in range(3))
        left = convolve(convolve(f1, f2), f3)
        right = convolve(f1, convolve(f2, f3))
        assert all(
            np.allclose(left.coeffs[g], right.coeffs[g], atol=1e-10)
            for g in b.group.elements()
        )
        oracle = ambient_convolve(f1, f2)
        got = convolve(f1, f2)
        for g in b.group.elements():
            assert np.allclose(got.ambient(g), oracle[g], atol=1e-10)


def test_star_matches_ambient_adjoint():
    rng = np.random.default_rng(3)
    b = group_bundle(symmetric_group(3))
    f = Section.random(b, rng)
    fs = star(f)
    for g in b.group.elements():
        assert np.allclose(fs.ambient(g), f.ambient(b.group.inv(g)).conj().T)


def test_convolve_rejects_mismatched_bundles():
    b1 = group_bundle(make_cyclic(2))
    b2 = group_bundle(make_cyclic(2))
    with pytest.raises(BundleMismatchError):
        convolve(Section.zero(b1), Section.zero(b2))


def test_convolve_refuses_broken_grading():
    g = make_cyclic(2)
    rng = np.random.default_rng(5)
    bad = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    broken = FellBundle(g, 2, [np.eye(2)[None], bad[None]])
    f = Section(broken, np.ones((2, 1)))
    with pytest.raises(FiberEscapeError):
        convolve(f, f)


def test_regular_rep_hand_computed_circulant():
    b = group_bundle(make_cyclic(2))
    rep = regular_rep(b)
    f = Section.delta(b, 0, np.eye(2)) + Section.delta(b, 1, regular_unitary(b.group, 1))
    assert np.allclose(rep_matrix(rep, f), np.ones((2, 2)))


def test_regular_rep_unit_is_identity():
    for b in (group_bundle(make_cyclic(3)), dynamical_bundle(*ad_diag_system())):
        rep = regular_rep(b)
        assert np.allclose(rep_matrix(rep, Section.unit(b)), np.eye(rep.dim))


def test_rep_of_gram_sections_is_psd():
    rng = np.random.default_rng(7)
    b = dynamical_bundle(*ad_diag_system())
    rep = regular_rep(b)
    for _ in range(5):
        f = Section.random(b, rng)
        assert psd_ok(rep_matrix(rep, convolve(star(f), f)))


def test_rep_is_star_homomorphism_on_random_sections():
    rng = np.random.default_rng(11)
    b = group_bundle(symmetric_group(3))
    rep = regular_rep(b)
    f1, f2 = Section.random(b, rng), Section.random(b, rng)
    assert np.allclose(
        rep_matrix(rep, convolve(f1, f2)), rep_matrix(rep, f1) @ rep_matrix(rep, f2),
        atol=1e-10,
    )
    assert np.allclose(rep_matrix(rep, star(f1)), rep_matrix(rep, f1).conj().T, atol=1e-10)


def test_cstar_norm_z2_hand_value():
    b = group_bundle(make_cyclic(2))
    f = Section.delta(b, 0, np.eye(2)) + Section.delta(b, 1, regular_unitary(b.group, 1))
    assert cstar_norm(f) == pytest.approx(2.0, abs=1e-12)
    assert cstar_norm(Section.unit(b)) == pytest.approx(1.0, abs=1e-12)


def test_cstar_norm_matches_dft_oracle():
    rng = np.random.default_rng(13)
    for n in (3, 5, 8):
        grp = make_cyclic(n)
        b = group_bundle(grp)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = Section(b, vals[:, None] * np.sqrt(n))
        # coefficient sqrt(n) converts the HS-normalized basis u_g/sqrt(n)
        # back to the permutation matrix u_g, so f(g) = vals[g] u_g
        want = np.abs(np.fft.fft(vals)).max()
        assert cstar_norm(f) == pytest.approx(want, rel=1e-9)


def test_cstar_identity():
    rng = np.random.default_rng(17)
    b = dynamical_bundle(*ad_diag_system())
    for _ in range(5):
        f = Section.random(b, rng)
        n1 = cstar_norm(convolve(star(f), f))
        n2 = cstar_norm(f)
        assert abs(n1 - n2 * n2) <= 1e-9 * (1 + n2 * n2)


def test_rep_faithful():
    for b in (group_bundle(symmetric_group(3)), dynamical_bundle(*ad_diag_system())):
        assert rep_is_faithful(regular_rep(b))


def test_matrix_alg_identity_blocks():
    b = group_bundle(make_cyclic(3))
    grp = b.group
    gtuple = [0, 1, 2]
    eye = np.eye(3, dtype=complex)
    zero = np.zeros((3, 3), dtype=complex)
    blocks = [[eye if i == j else zero for j in range(3)] for i in range(3)]
    op = matrix_alg(b, gtuple, blocks)
    assert np.allclose(op.matrix, np.eye(3))
    res = op.psd()
    assert res.ok and res.margin == pytest.approx(1.0)


def test_matrix_alg_gram_blocks_are_psd():
    rng = np.random.default_rng(19)
    b = dynamical_bundle(*ad_diag_system())
    grp = b.group
    gtuple = [0, 1, 1, 0]
    xs = [b.element(g, b.random_coords(g, rng)) for g in gtuple]
    blocks = [[xs[i].conj().T @ xs[j] for j in range(4)] for i in range(4)]
    assert matrix_alg(b, gtuple, blocks).psd().ok


def test_matrix_alg_is_star_homomorphism():
    rng = np.random.default_rng(23)
    b = group_bundle(symmetric_group(3))
    grp = b.group
    gtuple = [0, 1, 3]

    def random_blocks():
        return [
            [
                b.element(grp.mul(grp.inv(gi), gj),
                          b.random_coords(grp.mul(grp.inv(gi), gj), rng))
                for gj in gtuple
            ]
            for gi in gtuple
        ]

    r, s = random_blocks(), random_blocks()
    prod = [
        [sum(r[i][k] @ s[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    radj = [[r[j][i].conj().T for j in range(3)] for i in range(3)]
    lr = matrix_alg(b, gtuple, r)
    ls = matrix_alg(b, gtuple, s)
    assert np.allclose(matrix_alg(b, gtuple, prod).matrix, lr.matrix @ ls.matrix, atol=1e-10)
    assert np.allclose(matrix_alg(b, gtuple, radj).matrix, lr.matrix.conj().T, atol=1e-10)


def test_matrix_alg_norm_matches_concrete_block_norm():
    # the localized operator and the concrete block matrix represent the
    # same element, so their norms and PSD verdicts agree
    rng = np.random.default_rng(29)
    b = dynamical_bundle(*ad_diag_system())
    grp = b.group
    gtuple = [0, 1, 1]
    for _ in range(5):
        blocks = [
            [
                b.element(grp.mul(grp.inv(gi), gj),
                          b.random_coords(grp.mul(grp.inv(gi), gj), rng))
                for gj in gtuple
            ]
            for gi in gtuple
        ]
        op = matrix_alg(b, gtuple, blocks)
        concrete = np.block(blocks)
        assert op.norm == pytest.approx(np.linalg.norm(concrete, 2), rel=1e-9)
        herm = [[(blocks[i][j] + blocks[j][i].conj().T) / 2 for j in range(3)]
                for i in range(3)]
        op_h = matrix_alg(b, gtuple, herm)
        want = float(np.linalg.eigvalsh(np.block(herm))[0])
        got = op_h.psd().margin
        # spectra agree up to padding by zeros from the two localizations
        if want < -1e-9:
            assert got == pytest.approx(want, rel=1e-9)
        else:
            assert got >= -1e-9


def test_matrix_alg_rejects_block_escape():
    b = group_bundle(make_cyclic(2))
    blocks = [[np.eye(2, dtype=complex), np.eye(2, dtype=complex)],
              [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]]
    # off-diagonal blocks must live over g, not e
    with pytest.raises(BlockEscapeError):
        matrix_alg(b, [0, 1], blocks)
