"""GNS through the shared separation rule against a dense-loop oracle.

`reference_gelfand_raikov` keeps an earlier reconstruction, with its own
trace localization, eigh, rank cut, dense raw action and shift, and
compression einsums, as an oracle: the blockwise quotient through the
separation rule of `hilbundles.separate` must give the same fiber
dimensions, inner products, right and left actions and cyclic vector.
"""

import json
import tracemalloc

import numpy as np
import pytest

from fellbundles import pdmaps
from fellbundles import serialize as sz
from fellbundles.actions import Action, coefficient_map
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle
from fellbundles.cli import main
from fellbundles.groups import make_cyclic
from fellbundles.hilbundles import HilbertBundle, InvariantViolationError
from fellbundles.numerics import DEFAULT_TOL, Tolerance, dagger
from fellbundles.pdmaps import (
    BundleMap,
    NotPositiveDefiniteError,
    NotUnitalError,
    gelfand_raikov,
    gns_raw_gram,
    identity_bundle_map,
    pd_check_exact,
    roundtrip_residual,
)

from test_actions import z4_to_z2_rep_action
from test_validators_batched import _c3_s3


def reference_gelfand_raikov(t: BundleMap, tol: Tolerance | None = None):
    """Reconstruct (Hilbert bundle, action, cyclic vector) from a positive
    definite map between unital bundles, so that T_g(a) = <xi, rho(a) xi>.

    Construction: the fiber over r is the span of elementary tensors
    a (x) b with a in A_k and b in B_{phi(k)^-1 r}, carrying the semi-inner
    product  [a(x)b, a'(x)b'] = b* T_{k^-1 k'}(a* a') b'.  The form is
    localized at the ambient trace, separated by its Gram kernel (the trace
    is faithful, so the kernels agree), and the left tensor shift descends
    to the quotient as the action.  Completion is vacuous here.
    """
    tol = tol or DEFAULT_TOL
    src, tgt, hom = t.source, t.target, t.hom
    if not (src.unital and tgt.unital):
        raise NotUnitalError("both bundles must be unital")
    cert = pd_check_exact(t, tol)
    if not cert.ok:
        raise NotPositiveDefiniteError(
            f"map is not positive definite (margin {cert.margin:.3e})")
    grp, tgrp = src.group, tgt.group

    # slot (k, i, j) = a_i^{(k)} (x) b_j^{(phi(k)^-1 r)}, ordered by k, i, j
    def bleg(r, k):
        return tgrp.mul(tgrp.inv(hom(k)), r)

    slots = []
    offsets = []
    for r in tgrp.elements():
        slot_r = []
        off_r = {}
        for k in grp.elements():
            off_r[k] = len(slot_r)
            f = bleg(r, k)
            slot_r.extend((k, i, j) for i in range(src.dims[k])
                          for j in range(tgt.dims[f]))
        slots.append(slot_r)
        offsets.append(off_r)
    dims0 = [len(s) for s in slots]

    ip0 = gns_raw_gram(t)

    e_t = tgrp.identity
    traces = np.array([np.trace(b) for b in tgt.fibers[e_t]])
    keep = []
    for r in tgrp.elements():
        g_r = np.einsum("pqk,k->pq", ip0[r][r], traces)
        if g_r.shape[0] == 0:
            keep.append(np.zeros((0, 0), dtype=np.complex128))
            continue
        w, v = np.linalg.eigh((g_r + dagger(g_r)) / 2)
        scale = max(float(w[-1]), 0.0)
        if float(w[0]) < -tol.rel_psd * max(1.0, scale) * 100:
            raise NotPositiveDefiniteError("localized Gram is not PSD")
        keep.append(v[:, w > tol.rel_rank * max(scale, 1.0)])
    dims = [k.shape[1] for k in keep]

    inner = [[np.einsum("pw,pqk,qz->wzk", keep[r].conj(), ip0[r][s], keep[s])
              for s in tgrp.elements()] for r in tgrp.elements()]

    # right action: (xi . b)(k) = xi(k) . b on the second tensor leg
    act = [[None] * tgrp.order for _ in tgrp.elements()]
    for r in tgrp.elements():
        for h in tgrp.elements():
            rh = tgrp.mul(r, h)
            mats = np.zeros((tgt.dims[h], dims0[rh], dims0[r]), dtype=np.complex128)
            for k in grp.elements():
                f1 = bleg(r, k)
                f2 = bleg(rh, k)
                da, d1, d2 = src.dims[k], tgt.dims[f1], tgt.dims[f2]
                if da == 0 or d1 == 0:
                    continue
                tens = tgt.prod[f1][h]  # (d1, d_h, d2)
                o_in, o_out = offsets[r][k], offsets[rh][k]
                for i in range(da):
                    mats[:, o_out + i * d2:o_out + (i + 1) * d2,
                         o_in + i * d1:o_in + (i + 1) * d1] = tens.transpose(1, 2, 0)
            act[r][h] = np.einsum("uw,iuv,vz->iwz", keep[rh].conj(), mats, keep[r])

    hbundle = HilbertBundle(tgt, dims, act, inner)

    # left action: (rho(a) xi)(k) = a . xi(g^-1 k) on the first tensor leg
    ops = [[None] * tgrp.order for _ in grp.elements()]
    for g in grp.elements():
        hg = hom(g)
        for r in tgrp.elements():
            out_r = tgrp.mul(hg, r)
            mats = np.zeros((src.dims[g], dims0[out_r], dims0[r]), dtype=np.complex128)
            for k in grp.elements():
                gk = grp.mul(g, k)
                f = bleg(r, k)  # equals bleg(out_r, gk)
                da_in, da_out, db = src.dims[k], src.dims[gk], tgt.dims[f]
                if da_in == 0 or db == 0:
                    continue
                tens = src.prod[g][k]  # (d_g, da_in, da_out)
                o_in, o_out = offsets[r][k], offsets[out_r][gk]
                for u in range(src.dims[g]):
                    for i in range(da_in):
                        for i2 in range(da_out):
                            mats[u, o_out + i2 * db:o_out + (i2 + 1) * db,
                                 o_in + i * db:o_in + (i + 1) * db] = \
                                tens[u, i, i2] * np.eye(db)
            ops[g][r] = np.einsum("uw,iuv,vz->iwz", keep[out_r].conj(), mats, keep[r])

    rho = Action(src, hom, hbundle, ops)

    v0 = np.zeros(dims0[e_t], dtype=np.complex128)
    e_s = grp.identity
    db_e = tgt.dims[e_t]
    o = offsets[e_t][e_s]
    outer = np.outer(src.unit_coords, tgt.unit_coords).ravel()
    v0[o:o + src.dims[e_s] * db_e] = outer
    xi = keep[e_t].conj().T @ v0
    return hbundle, rho, xi



def m3_z2():
    """M_3 x Z_2 with Z_2 acting by Ad(diag(1, -1, 1)) on matrix units."""
    basis = np.zeros((9, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            basis[3 * i + j, i, j] = 1.0
    signs = [1.0, -1.0, 1.0]
    autos = [np.eye(9), np.diag([signs[i] * signs[j] for i in range(3) for j in range(3)])]
    return dynamical_bundle(basis, make_cyclic(2), autos)


def oracle_maps(corpus):
    maps = {name: identity_bundle_map(corpus[name]) for name in ("z2", "z3", "s3", "m2_ad")}
    maps["m3_z2"] = identity_bundle_map(m3_z2())
    maps["z2 zero fiber"] = identity_bundle_map(
        FellBundle(make_cyclic(2), 1, [np.eye(1)[None], np.zeros((0, 1, 1))]))
    maps["c3 s3"] = identity_bundle_map(_c3_s3())
    rho = z4_to_z2_rep_action()
    rng = np.random.default_rng(13)
    maps["z4 to z2"] = coefficient_map(
        rho, rho.target.random_vector(rho.target.bundle.group.identity, rng))
    return maps


def _close(a, b):
    assert a.shape == b.shape
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_gns_matches_inline_separation(corpus_bundles):
    for name, t in oracle_maps(corpus_bundles).items():
        hb, rho, xi = gelfand_raikov(t)
        want_hb, want_rho, want_xi = reference_gelfand_raikov(t)
        assert hb.dims == want_hb.dims, name
        tgrp, sgrp = t.target.group, t.source.group
        for r in tgrp.elements():
            for s in tgrp.elements():
                _close(hb.act[r][s], want_hb.act[r][s])
                _close(hb.inner[r][s], want_hb.inner[r][s])
        for g in sgrp.elements():
            for r in tgrp.elements():
                _close(rho.ops[g][r], want_rho.ops[g][r])
        _close(xi, want_xi)
        assert roundtrip_residual(t, hb, rho, xi) <= 1e-12 * (1 + t.norm()), name


def test_gns_memory_holds_no_dense_raw_tensors():
    """The raw Gram of M3 x Z2 is 15 MiB; the dense raw action and shift
    next to it took the peak to 45 MiB."""
    t = identity_bundle_map(m3_z2())
    tracemalloc.start()
    try:
        gelfand_raikov(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20


def _refuse(x, tol=None):
    raise InvariantViolationError("fiber 0: localized Gram is not PSD")


def test_separation_refusal_is_not_positive_definite(monkeypatch, tmp_path, capsys):
    t = identity_bundle_map(group_bundle(make_cyclic(2)))
    monkeypatch.setattr(pdmaps, "separating_bases", _refuse)
    with pytest.raises(NotPositiveDefiniteError, match="localized Gram is not PSD"):
        gelfand_raikov(t)
    path = tmp_path / "id.json"
    path.write_text(json.dumps(sz.bundle_map_to_json(t)))
    assert main(["gns", str(path), "-o", str(tmp_path / "out")]) == 1
    assert "not positive definite" in json.loads(capsys.readouterr().out)["error"]
