"""The batched positivity form against the per-pair loops it replaced.

`reference_pd_check_sampled` and `reference_raw_inner` keep the loop
implementations of the sampled tuple check and of the GNS raw Gram as
oracles: the batched routes must draw the same tuples, reach the same
verdicts, and agree with them to rounding level.
"""

import tracemalloc

import numpy as np
import pytest

from fellbundles import pdmaps
from fellbundles.actions import coefficient_map, l2_action
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group
from fellbundles.numerics import DEFAULT_TOL, dagger, hermitian_defect, one_block, opnorm
from fellbundles.pdmaps import (
    SampledCheck,
    conjugation_bundle_map,
    gns_raw_gram,
    identity_bundle_map,
    pd_check_exact,
    pd_check_sampled,
    perturb_bundle_map,
    scalar_bundle_map,
)

from oracles import witness_value
from test_actions import z4_to_z2_rep_action
from test_pdmaps import scalar_map_z


def star_prod_tensor(bundle, g, g2):
    """coords of a_i^{g*} a_j^{g2} in A_{g^-1 g2}, shape (d_g, d_g2, d)."""
    ginv = bundle.group.inv(g)
    return np.einsum("iw,wjk->ijk", bundle.star_tensor[g], bundle.prod[ginv][g2])


def reference_t_values(t):
    """tt[k][k2][i, j] = ambient value of T(a_i^{k*} a_j^{k2})."""
    src, tgt = t.source, t.target
    grp = src.group
    tt = [[None] * grp.order for _ in grp.elements()]
    for k in grp.elements():
        for k2 in grp.elements():
            kk = grp.mul(grp.inv(k), k2)
            spt = star_prod_tensor(src, k, k2)
            coords = np.einsum("ijk,lk->ijl", spt, t.mats[kk])
            tt[k][k2] = np.einsum("ijl,lab->ijab", coords, tgt.fibers[t.hom(kk)]) \
                if tgt.dims[t.hom(kk)] else np.zeros(
                    (src.dims[k], src.dims[k2], tgt.ambient_dim, tgt.ambient_dim),
                    dtype=np.complex128)
    return tt


def reference_pd_check_sampled(t, samples=200, seed=0, tol=DEFAULT_TOL):
    """The per-sample, per-pair loop of the sampled tuple check, on the
    tuples the sampler draws: one call each for the tuple lengths, the
    labels of all positions, and the real and imaginary parts of all a's,
    then of all b's, as (positions, 2, width) arrays read up to each fiber's
    dimension.  Its witness holds ambient matrices."""
    src, tgt, hom = t.source, t.target, t.hom
    grp = src.group
    rng = np.random.default_rng(seed)
    dm = max(src.dims, default=0)
    dbm = max((tgt.dims[hom(g)] for g in grp.elements()), default=0)
    lengths = rng.integers(1, max(1, grp.order * dm) + 1, size=samples)
    labels = rng.integers(grp.order, size=int(lengths.sum()))
    za = rng.standard_normal((len(labels), 2, dm))
    zb = rng.standard_normal((len(labels), 2, dbm))
    tt = reference_t_values(t)
    worst = np.inf
    bad = None
    for start, size in zip(np.cumsum(lengths) - lengths, lengths):
        pos = range(start, start + size)
        gs = [int(labels[i]) for i in pos]
        if any(src.dims[g] == 0 or tgt.dims[hom(g)] == 0 for g in gs):
            continue
        a_coords = [za[i, 0, :src.dims[g]] + 1j * za[i, 1, :src.dims[g]] for i, g in zip(pos, gs)]
        bs = [tgt.element(hom(g), zb[i, 0, :tgt.dims[hom(g)]] + 1j * zb[i, 1, :tgt.dims[hom(g)]])
              for i, g in zip(pos, gs)]
        s = np.zeros((tgt.ambient_dim, tgt.ambient_dim), dtype=np.complex128)
        for i in range(size):
            for j in range(size):
                val = np.einsum("x,y,xyab->ab", a_coords[i].conj(), a_coords[j],
                                tt[gs[i]][gs[j]])
                s += bs[i] @ val @ dagger(bs[j])
        scale = max(1.0, opnorm(s))
        defect = hermitian_defect(s)
        ev_min = float(np.linalg.eigvalsh((s + dagger(s)) / 2)[0])
        margin = ev_min / scale
        if defect > 100 * tol.rel_eq:
            margin = min(margin, -defect)
        if margin < worst:
            worst = margin
            if margin < -10 * tol.rel_psd:
                bad = [(g, src.element(g, a), b) for g, a, b in zip(gs, a_coords, bs)]
    ok = bad is None
    return SampledCheck(ok, float(worst) if np.isfinite(worst) else 0.0, bad)


def reference_raw_inner(t):
    """raw_inner(r, s) = ip0[r][s]: the GNS raw Gram by one three-operand
    einsum per (k, k2)."""
    src, tgt, hom = t.source, t.target, t.hom
    grp, tgrp = src.group, tgt.group

    def bleg(r, k):
        return tgrp.mul(tgrp.inv(hom(k)), r)

    offsets, dims0 = [], []
    for r in tgrp.elements():
        off_r, count = {}, 0
        for k in grp.elements():
            off_r[k] = count
            count += src.dims[k] * tgt.dims[bleg(r, k)]
        offsets.append(off_r)
        dims0.append(count)
    tt = reference_t_values(t)

    def raw_inner(r, s):
        rs = tgrp.mul(tgrp.inv(r), s)
        out = np.zeros((dims0[r], dims0[s], tgt.dims[rs]), dtype=np.complex128)
        brs = tgt.fibers[rs].conj()
        for k in grp.elements():
            f1 = bleg(r, k)
            if src.dims[k] == 0 or tgt.dims[f1] == 0:
                continue
            for k2 in grp.elements():
                f2 = bleg(s, k2)
                if src.dims[k2] == 0 or tgt.dims[f2] == 0:
                    continue
                vals = np.einsum("jba,xybc,Jcd->xjyJad",
                                 tgt.fibers[f1].conj(), tt[k][k2], tgt.fibers[f2])
                coords = np.einsum("kad,xjyJad->xjyJk", brs, vals)
                blk = coords.reshape(src.dims[k] * tgt.dims[f1],
                                     src.dims[k2] * tgt.dims[f2], tgt.dims[rs])
                o1, o2 = offsets[r][k], offsets[s][k2]
                out[o1:o1 + blk.shape[0], o2:o2 + blk.shape[1], :] = blk
        return out

    return raw_inner


def m3_z3():
    """M_3 x Z_3 with Z_3 acting by Ad(diag(1, w, w^2)) on matrix units."""
    basis = np.zeros((9, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            basis[3 * i + j, i, j] = 1.0
    w = np.exp(2j * np.pi / 3)
    autos = [np.diag([w ** ((i - j) * g) for i in range(3) for j in range(3)])
             for g in range(3)]
    return dynamical_bundle(basis, make_cyclic(3), autos)


def crossed(k, m, phases):
    """M_k x Z_m with Z_m acting by Ad(diag(phases ** g)) on matrix units."""
    basis = np.zeros((k * k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            basis[k * i + j, i, j] = 1.0
    autos = [np.diag([(phases[i] * np.conj(phases[j])) ** g for i in range(k) for j in range(k)])
             for g in range(m)]
    return dynamical_bundle(basis, make_cyclic(m), autos)


def m2_z4():
    return crossed(2, 4, [1.0, 1j])


def indefinite_identity(bundle, seed):
    """The identity map with T_e(a) = -a for one positive a in A_e."""
    rng = np.random.default_rng(seed)
    t = identity_bundle_map(bundle)
    e = bundle.group.identity
    shape = (bundle.ambient_dim,) * 2
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v, _ = bundle.coords(e, x @ x.conj().T)
    v = v / np.linalg.norm(v)
    t.mats[e] = t.mats[e] - 2 * np.outer(v, v.conj())
    return t


def s4_indefinite_scalar():
    """f(e) = 1 and f(g) = 2 elsewhere: not positive definite."""
    b = group_bundle(symmetric_group(4))
    values = [1.0 if g == b.group.identity else 2.0 for g in b.group.elements()]
    return scalar_bundle_map(b, b, identity_hom(b.group), values)


def positive_maps(corpus):
    rng = np.random.default_rng(29)
    maps = {name: identity_bundle_map(b) for name, b in corpus.items()}
    m2 = corpus["m2_ad"]
    maps["m2_ad conjugation"] = conjugation_bundle_map(
        m2, m2.unit_coords + 0.3 * m2.random_coords(m2.group.identity, rng))
    rho = z4_to_z2_rep_action()
    maps["z4 to z2"] = coefficient_map(
        rho, rho.target.random_vector(rho.target.bundle.group.identity, rng))
    # a zero fiber: sampled tuples touching it are dropped
    maps["zero fiber"] = identity_bundle_map(
        FellBundle(make_cyclic(2), 1, [np.ones((1, 1, 1)), np.zeros((0, 1, 1))]))
    maps["m3_z3"] = identity_bundle_map(m3_z3())
    # both sides of the sampled check's fold rule (d_B < n folds): M2 x Z4
    # folds with d_B = 4 < n = 8, M3 x Z2 keeps the dense product (9 > 6),
    # and Z2 in M_2 with an empty fiber folds with d_B = 1 < n = 2
    maps["m2_z4"] = identity_bundle_map(m2_z4())
    maps["m3_z2"] = identity_bundle_map(crossed(3, 2, [1.0, -1.0, 1.0]))
    maps["zero fiber in M_2"] = identity_bundle_map(FellBundle(
        make_cyclic(2), 2, [np.eye(2)[None] / np.sqrt(2), np.zeros((0, 2, 2))]))
    # entries over 2: the sums are judged on T over a power of two, whose
    # max(1, .) floors must be rescaled to match
    maps["z3 large values"] = scalar_map_z(3, [40.0, 10.0, 10.0])
    return maps


def indefinite_maps(corpus):
    rng = np.random.default_rng(19)
    rho = l2_action(group_bundle(make_cyclic(4)))
    base = coefficient_map(rho, rho.target.random_vector(0, rng))
    return {
        "z4 perturbed coefficient map": perturb_bundle_map(base, 5.0 * (1 + base.norm()), rng),
        "z2 value two": scalar_map_z(2, [1.0, 2.0]),
        "z3 value two": scalar_map_z(3, [1.0, 2.0, 2.0]),
        "z4 non-hermitian": scalar_map_z(4, [1.0, 0.5j, 0.0, 0.5j]),
        "m2_ad indefinite": indefinite_identity(corpus["m2_ad"], 31),
        "s3 indefinite": indefinite_identity(corpus["s3"], 37),
        "m3_z3 indefinite": indefinite_identity(m3_z3(), 41),
        "s4 indefinite scalar": s4_indefinite_scalar(),
    }


# the loop oracle over S4's 24-element tuples is slow: fewer samples there
SAMPLES = {"s4 indefinite scalar": 12}


def _assert_matches_reference(t, samples, seed):
    got = pd_check_sampled(t, samples=samples, seed=seed)
    want = reference_pd_check_sampled(t, samples=samples, seed=seed)
    assert got.ok == want.ok
    # margins are already relative to max(1, ||S||)
    assert got.worst_margin == pytest.approx(want.worst_margin, rel=1e-12, abs=1e-12)
    if not got.ok:
        # the witness tuple re-evaluates, in ambient matrices, to a sum that
        # attains the worst margin, in the loop's rule, and fails the check:
        # a negative eigenvalue, or (for a non-Hermitian map) a Hermitian defect
        s = witness_value(t, got.witness)
        margin = np.linalg.eigvalsh((s + s.conj().T) / 2)[0] / max(1.0, opnorm(s))
        if hermitian_defect(s) > 100 * DEFAULT_TOL.rel_eq:
            margin = min(margin, -hermitian_defect(s))
        assert margin == pytest.approx(got.worst_margin, rel=1e-9, abs=1e-9)
        assert (np.linalg.eigvalsh((s + s.conj().T) / 2)[0] < 0
                or hermitian_defect(s) > 100 * DEFAULT_TOL.rel_eq)
    return got


def test_sampled_check_matches_reference_on_positive_maps(corpus_bundles):
    for name, t in positive_maps(corpus_bundles).items():
        for seed in (0, 5):
            got = _assert_matches_reference(t, samples=60, seed=seed)
            assert got.ok, name


def test_sampled_check_matches_reference_on_indefinite_maps(corpus_bundles):
    for name, t in indefinite_maps(corpus_bundles).items():
        got = _assert_matches_reference(t, samples=SAMPLES.get(name, 100), seed=0)
        assert not got.ok, name
        assert not pd_check_exact(t).ok, name


def test_sampled_check_rejects_non_positive_sample_counts():
    t = scalar_map_z(2, [1.0, 0.5])
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            pd_check_sampled(t, samples=samples)


def test_raw_gram_matches_reference(corpus_bundles):
    for name, t in positive_maps(corpus_bundles).items():
        got, raw_inner = gns_raw_gram(t), reference_raw_inner(t)
        order = t.target.group.order
        # the reference einsum is slow on the larger crossed products: check
        # one off-diagonal pair
        pairs = [(0, 1)] if name in ("m3_z3", "m2_z4", "m3_z2") else [
            (r, s) for r in range(order) for s in range(order)]
        for r, s in pairs:
            want = raw_inner(r, s)
            assert got[r][s].shape == want.shape, name
            assert np.allclose(got[r][s], want, rtol=0, atol=1e-12), name


# S4 is judged on blocks of side at most 72: its forms and chunks stay under
# 6 MiB, where the ambient form of side 576 peaks at about 10.3 MiB
@pytest.mark.parametrize("make, mib", [
    (lambda: identity_bundle_map(m3_z3()), 20),
    (s4_indefinite_scalar, 6),
], ids=["m3_z3", "s4 indefinite scalar"])
def test_sampled_check_memory_is_chunk_bounded(make, mib):
    t = make()
    tracemalloc.start()
    try:
        pd_check_sampled(t, samples=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2 ** 20


def _sampled_peak(t, **kwargs):
    tracemalloc.start()
    try:
        result = pd_check_sampled(t, samples=200, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _witness_bytes(result):
    return [(g, a.tobytes(), b.tobytes()) for g, a, b in result.witness or ()]


def test_sampled_chunks_count_the_coefficients_and_outer_products(monkeypatch):
    """M3 x Z3 splits into three blocks of side 3, so the block route's
    chunks hold three times the ambient route's samples: its per-sample
    coefficients, outer products and their copy in key order must count, or
    its peak exceeds the ambient route's.  Chunking leaves the margins and
    the witness as they are."""
    t = perturb_bundle_map(identity_bundle_map(m3_z3()), 0.5, np.random.default_rng(3))
    assert t.target.blocks.types == [(3, 1)] * 3
    blocked, peak = _sampled_peak(t)
    _, ambient_peak = _sampled_peak(t, blocks=one_block(t.target.ambient_dim))
    assert peak <= ambient_peak
    assert not blocked.ok and blocked.witness
    monkeypatch.setattr(pdmaps, "CHUNK_BYTES", 1 << 40)  # one chunk
    whole = pd_check_sampled(t, samples=200)
    assert whole.worst_margin == blocked.worst_margin
    assert _witness_bytes(whole) == _witness_bytes(blocked)
