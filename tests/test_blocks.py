"""Irreducible blocks: the decomposition of a bundle's algebras, the
structure tensors built on it, and the certificate, its witness and the
fiber Grams judged per block.

The oracle is the same routine with the trivial decomposition
(`numerics.one_block`), which reads every matrix in the ambient M_n: for
the structure tensors, `FellBundle._structure` on it.  The witness's oracle
is read in the ambient certificate (`reference_witness`, with the ambient
localized form kept here as `reference_localized_form`).
"""

import tracemalloc

import numpy as np
import pytest

from fellbundles import bundles, pdmaps
from fellbundles.actions import Action, trivial_action
from fellbundles.bundles import FellBundle, group_bundle, regular_unitaries, validate_bundle
from fellbundles.correspondences import EquivalenceBundle, trivial_self_equivalence
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group
from fellbundles.hilbundles import block_grams_psd, l2_bundle, trivial_hilbert_bundle
from fellbundles.numerics import DEFAULT_TOL, Blocks, Tolerance, canonical_min_vector, \
    decompose_algebra, hermitian_defect, membership_bound, one_block
from fellbundles.pdmaps import NotPositiveDefiniteError, conjugation_bundle_map, gelfand_raikov, \
    identity_bundle_map, pd_check_exact, pd_check_sampled, perturb_bundle_map, scalar_bundle_map

from test_pdmaps_batched import crossed, indefinite_identity, indefinite_maps, s4_indefinite_scalar

LADDER = {f"Z{n}": make_cyclic(n) for n in (2, 3, 4, 6, 8, 12)}
LADDER.update(S3=symmetric_group(3), S4=symmetric_group(4))
CROSSED = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))


def ad_diag(k, m):
    """M_k x Z_m with Z_m acting by Ad(diag(1, w, .., w^(k-1))), w = e^(2 pi i/m)."""
    return crossed(k, m, [np.exp(2j * np.pi * i / m) for i in range(k)])


def scalar_map(bundle, off):
    """f(e) = 1 and f(g) = off elsewhere."""
    grp = bundle.group
    values = [1.0 if g == grp.identity else off for g in grp.elements()]
    return scalar_bundle_map(bundle, bundle, identity_hom(grp), values)


def corner(group, size):
    """The group bundle of `group` in the top-left corner of M_size."""
    u = group_bundle(group).fiber_array
    fibers = np.zeros((group.order, 1, size, size), dtype=complex)
    fibers[..., :group.order, :group.order] = u
    return FellBundle(group, size, fibers)


def c_plus_m2():
    """The diagonal C + M_2 in M_3 as a bundle over the trivial group."""
    units = np.zeros((5, 3, 3))
    units[0, 0, 0] = 1.0
    for i, (r, c) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
        units[i + 1, r, c] = 1.0
    return FellBundle(make_cyclic(1), 3, units[None])


@pytest.fixture(scope="module")
def maps(corpus_bundles):
    """The maps of the benchmark's group ladder and crossed products, the
    refuted maps of its refutations and the tests' indefinite maps."""
    rng = np.random.default_rng(23)
    out = {}
    for label, group in LADDER.items():
        b = group_bundle(group)
        out[f"{label} scalar"] = scalar_map(b, 0.3 / group.order)
        out[f"{label} indefinite scalar"] = scalar_map(b, 2.0)
        # a random f with f(g^-1) = conj(f(g)): its extreme eigenvalues sit
        # in single irreducible types
        c = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        out[f"{label} random scalar"] = scalar_bundle_map(
            b, b, identity_hom(group), c + c[group.inverse].conj())
    for k, m in CROSSED:
        b = ad_diag(k, m)
        out[f"M{k}xZ{m} identity"] = identity_bundle_map(b)
    # C + M_2 in M_3 over the trivial group: its two types see different
    # spectra, where a graded map over a group bundle or these crossed
    # products reads the same one in every type
    b = c_plus_m2()
    out["C+M2 conjugation"] = conjugation_bundle_map(b, b.random_coords(0, rng))
    out["C+M2 perturbed"] = perturb_bundle_map(identity_bundle_map(b), 0.5, rng)
    out["M3xZ3 indefinite"] = indefinite_identity(ad_diag(3, 3), 5)
    out["M4xZ2 indefinite"] = indefinite_identity(ad_diag(4, 2), 7)
    out.update(indefinite_maps(corpus_bundles))
    return out


# -- the decomposition ---------------------------------------------------------

def test_type_lists():
    assert sorted(group_bundle(symmetric_group(4)).blocks.types) == [
        (1, 1), (1, 1), (2, 2), (3, 3), (3, 3)]
    assert group_bundle(make_cyclic(12)).blocks.types == [(1, 1)] * 12
    assert ad_diag(3, 3).blocks.types == [(3, 1)] * 3
    # the unit fibers: C.1 in M_|G|, and M_3 with one copy per group element
    assert group_bundle(symmetric_group(4)).unit_blocks.types == [(1, 24)]
    assert ad_diag(3, 3).unit_blocks.types == [(3, 3)]
    assert sorted(c_plus_m2().blocks.types) == [(1, 1), (2, 1)]


def test_compression_is_a_faithful_star_representation():
    rng = np.random.default_rng(3)
    for b in (group_bundle(symmetric_group(4)), group_bundle(make_cyclic(6)), ad_diag(3, 3),
              ad_diag(2, 4), corner(make_cyclic(3), 4)):
        for basis, blocks in ((np.concatenate(b.fibers), b.blocks),
                              (b.fibers[b.group.identity], b.unit_blocks)):
            n = b.ambient_dim
            assert sum(k * m for k, m in blocks.types) <= n
            x, y = (np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
                    for _ in range(2))
            for (_, cx), (_, cy), (mult, cxy), (_, cs) in zip(*(
                    blocks.compress(a) for a in (x, y, x @ y, x.conj().T))):
                assert np.allclose(cx @ cy, cxy, atol=1e-12)
                assert np.allclose(cx.conj().swapaxes(-1, -2), cs, atol=1e-12)
            # the Frobenius norm, its blocks weighted by the multiplicities
            weighted = sum(float(np.linalg.norm(c, axis=(-2, -1)) ** 2 @ mult)
                           for mult, c in blocks.compress(x))
            assert weighted == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)


def test_types_of_a_rotated_algebra():
    """U (M_2 (x) 1_3 + M_3 + C (x) 1_2 + 0_2) U* for a random unitary U,
    spanned by random combinations of its matrix units."""
    rng = np.random.default_rng(17)
    n, units, offset = 13, [], 0
    for k, m in ((2, 3), (3, 1), (1, 2)):
        for i in range(k):
            for j in range(k):
                e = np.zeros((k, k))
                e[i, j] = 1.0
                u = np.zeros((n, n), dtype=complex)
                u[offset:offset + k * m, offset:offset + k * m] = np.kron(e, np.eye(m))
                units.append(u)
        offset += k * m
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    units = q @ np.array(units) @ q.conj().T
    mix = rng.standard_normal((len(units), len(units)))
    blocks = decompose_algebra(np.tensordot(mix, units, axes=1))
    assert sorted(blocks.types) == [(1, 2), (2, 3), (3, 1)]
    x = np.tensordot(rng.standard_normal(len(units)), units, axes=1)
    weighted = sum(float(np.linalg.norm(c, axis=(-2, -1)) ** 2 @ mult)
                   for mult, c in blocks.compress(x))
    assert weighted == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)


def test_decomposition_is_reproducible():
    first, second = (group_bundle(symmetric_group(4)).blocks for _ in range(2))
    assert first.types == second.types
    for w1, w2 in zip(first.isometries, second.isometries):
        assert w1.tobytes() == w2.tobytes()


def test_perturbed_bundle_falls_back_to_one_block():
    rng = np.random.default_rng(11)
    grp = symmetric_group(3)
    fibers = group_bundle(grp).fiber_array.copy()
    fibers[1, 0] += 1e-3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    # the span is not closed under products: the self-check refuses it
    assert decompose_algebra(fibers.reshape(-1, 6, 6)).types == [(6, 1)]
    b = FellBundle(grp, 6, fibers)
    assert not validate_bundle(b).ok
    assert b.blocks.types == [(6, 1)]


def test_one_block_is_the_ambient_algebra():
    blocks = one_block(3)
    x = np.arange(9.0).reshape(3, 3)
    [(mult, comp)] = blocks.compress(x)
    assert list(mult) == [1] and comp[0].tobytes() == x.tobytes()
    assert decompose_algebra(np.zeros((0, 3, 3))).types == [(3, 1)]
    assert blocks.residual == 0.0


def test_decomposition_records_its_self_check():
    for b in (group_bundle(symmetric_group(4)), group_bundle(make_cyclic(12)), ad_diag(3, 3),
              c_plus_m2(), corner(make_cyclic(3), 4)):
        for blocks in (b.blocks, b.unit_blocks):
            assert 0.0 <= blocks.residual <= DEFAULT_TOL.rel_rank
    # a looser bound that the residual still meets keeps the same types
    basis = np.concatenate(group_bundle(symmetric_group(3)).fibers)
    exact = decompose_algebra(basis)
    loose = decompose_algebra(basis, Tolerance(rel_rank=10 * exact.residual))
    assert loose.types == exact.types and loose.residual == exact.residual


def test_decomposition_is_built_once_and_only_when_read(monkeypatch):
    calls = []
    real = bundles.decompose_algebra
    monkeypatch.setattr(bundles, "decompose_algebra",
                        lambda *args: calls.append(1) or real(*args))
    b = group_bundle(symmetric_group(3))
    t = scalar_map(b, 0.1)
    validate_bundle(b)
    assert "blocks" not in vars(b) and not calls
    # the sampled check and the certificate share one decomposition
    pd_check_sampled(t, samples=5)
    blocks = b.blocks
    pd_check_exact(t)
    pd_check_sampled(t, samples=5)
    assert b.blocks is blocks and len(calls) == 1 and "unit_blocks" not in vars(b)


# -- the certificate per block -------------------------------------------------

def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _close_arrays(a, b):
    return bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))))


def reference_localized_form(gram, beta):
    """Compress the n x n blocks G_pq of the ambient certificate by the
    bases beta[p] (padded, shape (P, dbm, n, n)): entry ((p, z), (q, w)) is
    tr(beta_pz* G_pq beta_qw)."""
    size, dbm, n = beta.shape[:3]
    right = gram.reshape(size, n, size, n).transpose(2, 0, 1, 3).reshape(size, size * n, n) \
        @ beta.transpose(0, 2, 1, 3).reshape(size, n, dbm * n)  # (q, (p, b), (w, a))
    right = right.reshape(size, size, n, dbm, n).transpose(1, 2, 4, 0, 3)  # (p, b, a, q, w)
    local = beta.conj().reshape(size, dbm, n * n) @ right.reshape(size, n * n, size * dbm)
    return local.reshape(size * dbm, size * dbm)


def reference_witness(t, tol=DEFAULT_TOL):
    """The witness read in the ambient certificate: the certificate
    compressed by the fiber bases of B_{phi(g_p)^-1} is the localized form,
    whose canonical lowest eigenvector is folded back into the tuple, and
    the tuple's sum is sum_pq c_p* M_pq c_q with the ambient M.  Returns the
    tuple and its sum."""
    src, tgt = t.source, t.target
    pairs = pdmaps._basis_pairs(src)
    gram, mu = pdmaps._ambient_certificate(t)
    n = tgt.ambient_dim
    labels = tgt.group.inverse[t.hom.map[[g for g, _ in pairs]]]
    dbm = max(tgt.dims[h] for h in labels)
    cols = np.flatnonzero(np.arange(dbm) < np.asarray(tgt.dims)[labels][:, None])
    size = len(pairs)
    beta = tgt.fiber_array[labels, :dbm]
    local = reference_localized_form(gram, beta)[np.ix_(cols, cols)]
    coeffs = np.zeros(size * dbm, dtype=np.complex128)
    coeffs[cols] = canonical_min_vector((local + local.conj().T) / 2, tol, 1 / mu) * np.sqrt(n)
    cs = (coeffs.reshape(size, 1, dbm) @ beta.reshape(size, dbm, n * n)).reshape(size * n, n)
    scales = 1.0 / np.maximum(np.linalg.norm(np.concatenate(src.fibers), 2, axis=(1, 2)), 1e-300)
    witness = [(g, scales[p] * src.fibers[g][i], c.conj().T)
               for p, ((g, i), c) in enumerate(zip(pairs, cs.reshape(size, n, n)))]
    return witness, (cs.conj().T @ gram @ cs) * mu


def test_certificate_matches_the_one_block_route(maps):
    refuted = 0
    for name, t in maps.items():
        got = pd_check_exact(t)
        want = pd_check_exact(t, blocks=one_block(t.target.ambient_dim))
        assert got.ok == want.ok, name
        assert _close(got.margin, want.margin), (name, got.margin, want.margin)
        assert _close(got.scale, want.scale), name
        assert _close(got.hermitian_defect, want.hermitian_defect), name
        # both routes give the witness read in the ambient certificate
        assert (got.witness is None) == (want.witness is None), name
        if want.witness is not None:
            refuted += 1
            witness, witness_sum = reference_witness(t)
            for cert in (got, want):
                for (g1, a1, b1), (g2, a2, b2) in zip(cert.witness, witness, strict=True):
                    assert g1 == g2 and _close_arrays(a1, a2) and _close_arrays(b1, b2), name
                assert _close_arrays(cert.witness_sum, witness_sum), name
        assert got.gram.tobytes() == want.gram.tobytes(), name
    assert refuted >= 10


def test_sampled_check_matches_the_one_block_route(maps):
    """The same verdicts and margins as the sampled check in the ambient
    M_n, and a witness whose tuple sum fails the check."""
    refuted = 0
    for name, t in maps.items():
        for seed in (0, 5):
            got = pd_check_sampled(t, seed=seed)
            want = pd_check_sampled(t, seed=seed, blocks=one_block(t.target.ambient_dim))
            assert got.ok == want.ok, (name, seed)
            assert _close(got.worst_margin, want.worst_margin), (name, seed)
            if not got.ok:
                refuted += 1
                s = got.witness_sum
                assert s.shape == (t.target.ambient_dim,) * 2
                assert (np.linalg.eigvalsh((s + s.conj().T) / 2)[0] < 0
                        or hermitian_defect(s) > 100 * DEFAULT_TOL.rel_eq), (name, seed)
    assert refuted >= 20


def test_corner_embedded_target_reads_the_intrinsic_sampled_margin():
    """The sampled sums of the Z3 bundle in a corner of M_4 vanish on the
    unused corner: the blocks leave it out, the ambient M_4 reads its 0."""
    b = corner(make_cyclic(3), 4)
    for off, verdict in ((0.3, True), (2.0, False)):
        t = scalar_map(b, off)
        for seed in (0, 5):
            got = pd_check_sampled(t, seed=seed)
            want = pd_check_sampled(t, seed=seed, blocks=one_block(4))
            assert got.ok is want.ok is verdict
            if verdict:
                assert got.worst_margin > 1e-9 and want.worst_margin <= 1e-12
            else:
                assert _close(got.worst_margin, want.worst_margin)


def test_block_certificate_is_smaller():
    t = scalar_map(group_bundle(symmetric_group(4)), 0.01)
    sides = [form.shape[-1] for form in pdmaps._certificate_forms(
        t, [f for _, f in t.target.blocks.compress(t.target.fiber_array)])[0]]
    assert sides == [24, 48, 72]


def test_corner_embedded_target_keeps_its_verdicts():
    b = corner(make_cyclic(3), 4)
    assert b.blocks.types == [(1, 1)] * 3
    for off, verdict in ((0.3, True), (2.0, False)):
        t = scalar_map(b, off)
        got = pd_check_exact(t)
        want = pd_check_exact(t, blocks=one_block(4))
        assert got.ok is want.ok is verdict
    # the margin is the intrinsic one: the smallest Fourier coefficient of
    # f, not clipped at the zero eigenvalues of the unused corner
    got = pd_check_exact(scalar_map(b, 0.3))
    assert got.margin == pytest.approx(0.7, abs=1e-12)
    assert pd_check_exact(scalar_map(b, 0.3), blocks=one_block(4)).margin <= 1e-12
    assert pd_check_exact(identity_bundle_map(b)).ok


def test_refuted_certificate_forms_the_ambient_certificate_only_when_read(monkeypatch, maps):
    def refuse(*args):
        raise AssertionError("the witness reads the block forms")

    for name in ("S4 indefinite scalar", "M3xZ3 indefinite", "C+M2 perturbed"):
        t = maps[name]
        with monkeypatch.context() as m:
            m.setattr(pdmaps, "_ambient_gram", refuse)
            m.setattr(pdmaps, "_ambient_certificate", refuse)
            cert = pd_check_exact(t)
        assert not cert.ok and cert.witness, name
        assert cert.gram.tobytes() == pdmaps._ambient_gram(t).tobytes(), name


def test_refuted_s4_certificate_stays_small():
    """The S4 certificate of side 576 is never formed: its blocks have side
    at most 72 (10.6 MiB peak when the witness read the ambient one)."""
    t = s4_indefinite_scalar()
    tracemalloc.start()
    try:
        cert = pd_check_exact(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not cert.ok and cert.witness
    assert peak <= 3 * 2 ** 20


def test_s5_rung_refutes_with_a_witness():
    """S5, one rung past the ladder (|G| = n = 120): f = 1 at e and 2
    elsewhere is refuted with an explicit tuple.  Every a_p and b_p is a
    multiple of the permutation matrix u_{g_p}, so the tuple's sum
    sum_pq b_p T(a_p* a_q) b_q* is w* F w times the identity, with
    w_p = alpha_p conj(beta_p) and F_pq = f(g_p^-1 g_q): re-evaluated from
    the map's definition, not from the certificate."""
    grp = symmetric_group(5)
    b = group_bundle(grp)
    t = scalar_map(b, 2.0)
    tracemalloc.start()
    try:
        cert = pd_check_exact(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2 ** 20
    assert not cert.ok and len(cert.witness) == grp.order
    u, n = regular_unitaries(grp), grp.order
    labels, w = [], []
    for g, a, bp in cert.witness:
        alpha, beta = np.vdot(u[g], a) / n, np.vdot(u[g], bp) / n
        assert np.abs(a - alpha * u[g]).max() <= 1e-12
        assert np.abs(bp - beta * u[g]).max() <= 1e-12
        labels.append(g)
        w.append(alpha * np.conj(beta))
    labels, w = np.array(labels), np.array(w)
    f = np.where(np.arange(n) == grp.identity, 1.0, 2.0)
    value = w.conj() @ f[grp.table[grp.inverse[labels][:, None], labels[None, :]]] @ w
    assert value.real < -0.5 and cert.margin < 0
    assert np.abs(cert.witness_sum - value * np.eye(n)).max() <= 1e-9 * max(1.0, abs(value))


def test_gns_refuses_from_the_verdict_alone(monkeypatch, maps):
    def no_witness(*args):
        raise AssertionError("the reconstruction reads no witness")

    monkeypatch.setattr(pdmaps, "_attach_witness", no_witness)
    monkeypatch.setattr(pdmaps, "_ambient_certificate", no_witness)
    for name in ("S4 indefinite scalar", "Z12 indefinite scalar", "M3xZ3 indefinite"):
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            gelfand_raikov(maps[name])


# -- the structure tensors per block ------------------------------------------

def _ambient_structure(b):
    """The ambient build: the structure on the trivial decomposition."""
    return b._structure(one_block(b.ambient_dim).compress(b.fiber_array))


def _perturbed(b, scale, seed):
    """b with one basis element of its first non-identity nonzero fiber
    moved by `scale` times a random matrix."""
    rng = np.random.default_rng(seed)
    grp, n = b.group, b.ambient_dim
    g = next(h for h in grp.elements() if h != grp.identity and b.dims[h])
    fibers = [b.fibers[h].copy() for h in grp.elements()]
    fibers[g][0] += scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return FellBundle(grp, n, fibers)


def _structure_corpus():
    bases = {label: group_bundle(group) for label, group in LADDER.items()}
    bases.update({f"M{k}xZ{m}": ad_diag(k, m) for k, m in CROSSED})
    bases.update({"Z16": group_bundle(make_cyclic(16)), "M4xZ4": ad_diag(4, 4),
                  "Z3 in M_4": corner(make_cyclic(3), 4),
                  "Z12 in M_16": corner(make_cyclic(12), 16), "C+M2": c_plus_m2()})
    out = dict(bases)
    for i, (label, b) in enumerate(bases.items()):
        if b.group.order > 1:
            for scale in (1e-3, 1e-9, 1e-13):
                out[f"{label} moved {scale:g}"] = _perturbed(b, scale, i)
    return out


def _verdicts(grading, involution, tol=DEFAULT_TOL):
    bound = membership_bound(tol)
    return grading.max(initial=0.0) <= bound, involution.max(initial=0.0) <= bound


def test_block_structure_matches_the_ambient_build():
    """Wherever the block build stands, it gives the ambient build's
    structure tensors and residuals within 1e-12 max(1, |x|), and so its
    verdicts; wherever it does not, or the decomposition fails, the bundle
    keeps the ambient build bit for bit.  The build reads the blocks from
    ambient side 16 on; below it the block build is checked directly."""
    stood, refused = [], []
    for name, b in _structure_corpus().items():
        want = _ambient_structure(b)
        blocks = b._span_blocks
        split = blocks.types != [(b.ambient_dim, 1)]
        got = b._structure(blocks.compress(b.fiber_array)) if split else None
        if got is not None and b._stands_in_blocks(got[2], got[4]):
            stood.append(name)
            for x, y in zip(got[1:], want[1:]):
                assert _close_arrays(x, y), name
            assert _verdicts(got[2], got[4]) == _verdicts(want[2], want[4]), name
        else:
            refused.append(name)
        # the structure is built on this first read
        got = (b.prod_array, b.grading_residual, b.star_array, b.involution_residual)
        if b.ambient_dim >= bundles._BLOCK_SIDE and name in stood:
            assert "_block_fibers" in vars(b), name
            for x, y in zip(got, want[1:]):
                assert _close_arrays(x, y), name
            sv = np.linalg.svd(np.concatenate(b.fibers).reshape(b.total_dim, -1),
                               compute_uv=False)
            assert _close_arrays(np.array(b.directness_sv), np.array([sv[-1], sv[0]])), name
        else:
            assert "_block_fibers" not in vars(b), name
            for x, y in zip(got, want[1:]):
                assert x.tobytes() == y.tobytes(), name
    # every valid bundle stands; moved beyond rounding, none does
    assert not [name for name in refused if "moved" not in name]
    assert not [name for name in stood if "moved 0.001" in name or "moved 1e-09" in name]
    assert len(stood) >= 25 and len(refused) >= 40


def test_a_large_bundle_is_built_on_its_decomposition(monkeypatch):
    """From ambient side 16 on the decomposition comes first, when the
    structure is first read; the certificate and the sampled check share
    it."""
    calls = []
    real = bundles.decompose_algebra
    monkeypatch.setattr(bundles, "decompose_algebra",
                        lambda *args: calls.append(1) or real(*args))
    b = group_bundle(symmetric_group(4))
    assert not calls and "prod_array" not in vars(b)
    b.prod_array
    assert len(calls) == 1 and "_block_fibers" in vars(b)
    t = scalar_map(b, 0.1)
    pd_check_exact(t)
    pd_check_sampled(t, samples=5)
    assert b.blocks is b._span_blocks and len(calls) == 1 and "unit_blocks" not in vars(b)


# -- the fiber Grams per block -------------------------------------------------

def test_block_grams_match_the_one_block_route():
    rng = np.random.default_rng(13)
    for b in (group_bundle(make_cyclic(3)), group_bundle(symmetric_group(3)), ad_diag(2, 2),
              ad_diag(3, 2), corner(make_cyclic(3), 4)):
        e = b.group.identity
        x = l2_bundle(b)
        diag = x.inner_array[np.arange(b.group.order), np.arange(b.group.order), :, :, :b.dims[e]]
        noise = rng.standard_normal(diag.shape) + 1j * rng.standard_normal(diag.shape)
        for tensor in (diag, diag + 0.5 * noise, diag - 3 * diag[:1]):
            got = block_grams_psd(tensor, b.fibers[e], b.unit_blocks, DEFAULT_TOL)
            want = block_grams_psd(tensor, b.fibers[e], one_block(b.ambient_dim), DEFAULT_TOL)
            assert got[0] == want[0]
            assert _close(got[1], want[1]), (got, want)


# -- constructions ---------------------------------------------------------------

def test_self_equivalence_builds_one_action(monkeypatch):
    b = group_bundle(symmetric_group(3))
    grp = b.group
    rho = trivial_action(b)
    linner = [[np.einsum("vw,uwk->uvk", b.star_tensor[s], b.prod[r][grp.inv(s)])
               for s in grp.elements()] for r in grp.elements()]
    want = EquivalenceBundle(b, rho.target, rho.ops, linner)
    builds = []
    init = Action.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(Action, "__init__", counted)
    got = trivial_self_equivalence(b)
    assert len(builds) == 1
    assert got.lact_array.tobytes() == want.lact_array.tobytes()
    assert got.linner_array.tobytes() == want.linner_array.tobytes()
    right = trivial_hilbert_bundle(b)
    assert got.right.act_array.tobytes() == right.act_array.tobytes()
    assert got.right.inner_array.tobytes() == right.inner_array.tobytes()


def test_blocks_of_a_type_list():
    w = np.eye(3, dtype=complex)
    blocks = Blocks((w[:, :1], w[:, 1:]), (1, 1))
    assert blocks.types == [(1, 1), (2, 1)]
    sizes = [(k, len(mult)) for k, _, mult in blocks.by_size()]
    assert sizes == [(1, 1), (2, 1)]
