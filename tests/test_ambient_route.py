"""The ambient route against the oracle representations it replaced.

Certificates, witnesses, Gram domination and C*-norms are read in the
target's ambient algebra.  `reference_pd_check_exact` keeps the certificate
assembled through the regular representation (RegRep) and the witness
through the block matrix algebra over tuples (matrix_alg);
`reference_gram_domination` keeps the Gram-domination check of
`validate_action` through matrix_alg.  Verdicts must agree exactly and
numbers to rounding level.
"""

import json

import numpy as np
import pytest

from fellbundles import serialize as sz
from fellbundles.actions import Action, coefficient_map, l2_action, trivial_action, \
    validate_action
from fellbundles.bundles import FellBundle, group_bundle, validate_bundle
from fellbundles.cli import main
from fellbundles.crosssec import NotDirectError, Section, ambient_image, convolve, \
    cstar_norm, matrix_alg, regular_rep, rep_matrix, star
from fellbundles.groups import identity_hom, make_cyclic
from fellbundles.numerics import DEFAULT_TOL, canonical_min_vector, dagger, hermitian_defect, \
    opnorm
from fellbundles.pdmaps import BundleMap, PdCertificate, cached_rep, identity_bundle_map, \
    pd_check_exact, perturb_bundle_map

from oracles import ambient_sum, ambient_witness, tuple_sum
from test_actions import z4_to_z2_rep_action
from test_gns_separation import m3_z2
from test_pdmaps_batched import indefinite_identity, indefinite_maps, m2_z4, star_prod_tensor


def reference_pd_check_exact(t, tol=DEFAULT_TOL):
    """The certificate through the regular representation over the target,
    one (D x D) block per pair of source basis elements, and the witness
    through matrix_alg.  Returns the certificate and, on failure, the
    Hermitian part of the localized form whose lowest eigenvector is the
    witness (None on a pass)."""
    src, tgt, hom = t.source, t.target, t.hom
    grp, tgrp = src.group, tgt.group
    rep = cached_rep(tgt)
    pairs = [(g, i) for g in grp.elements() for i in range(src.dims[g])]
    scales = np.array([1.0 / max(opnorm(src.fibers[g][i]), 1e-300) for g, i in pairs])
    n = len(pairs)
    db = rep.dim
    gram = np.zeros((n * db, n * db), dtype=np.complex128)
    tcoords = {}
    for p, (g, i) in enumerate(pairs):
        for q, (g2, j) in enumerate(pairs):
            k = grp.mul(grp.inv(g), g2)
            c = scales[p] * scales[q] * star_prod_tensor(src, g, g2)[i, j]
            bc = t.apply(k, c)
            tcoords[(p, q)] = bc
            gram[p * db:(p + 1) * db, q * db:(q + 1) * db] = rep.of_element(hom(k), bc)
    defect = hermitian_defect(gram) if gram.size else 0.0
    herm = (gram + dagger(gram)) / 2
    margin = float(np.linalg.eigvalsh(herm)[0]) if gram.size else 0.0
    ok = defect <= 100 * tol.rel_eq and margin >= -tol.rel_psd * max(1.0, opnorm(herm))
    cert = PdCertificate(ok, margin, gram, defect)
    if ok or n == 0:
        return cert, None
    htuple = [hom(g) for g, _ in pairs]
    blocks = [[tgt.element(tgrp.mul(tgrp.inv(htuple[p]), htuple[q]), tcoords[(p, q)])
               for q in range(n)] for p in range(n)]
    op = matrix_alg(tgt, htuple, blocks, tol)
    lherm = (op.matrix + dagger(op.matrix)) / 2
    if lherm.size:
        v = canonical_min_vector(lherm, tol)
        cs = op.vector_to_tuple(v * np.sqrt(tgt.ambient_dim))
        cert.witness = [(g, scales[p] * src.fibers[g][i], cs[p].conj().T)
                        for p, (g, i) in enumerate(pairs)]
        cert.witness_sum = sum(cert.witness[p][2] @ blocks[p][q] @ dagger(cert.witness[q][2])
                               for p in range(n) for q in range(n))
    return cert, lherm


def reference_gram_domination(rho, tol=DEFAULT_TOL, samples=8):
    """(ok, residual) of validate_action's Gram domination through matrix_alg,
    drawing the same random data from the same fixed seed (the contractivity
    samples draw first), judged against the size of the two compared
    blocks."""
    src, x = rho.source, rho.target
    bundle = x.bundle
    grp, tgt = src.group, bundle.group
    rng = np.random.default_rng(0)
    for _ in range(samples):
        g = int(rng.integers(grp.order))
        h = int(rng.integers(tgt.order))
        if src.dims[g] == 0 or x.dims[h] == 0:
            continue
        src.random_coords(g, rng)
        x.random_vector(h, rng)
    ok, worst = True, 0.0
    e = grp.identity
    if src.dims[e] and bundle.total_dim:
        for _ in range(samples):
            a = src.random_coords(e, rng)
            na = src.fiber_norm(e, a)
            hs = [rho.hom(int(rng.integers(grp.order))) for _ in range(3)]
            xs = [x.random_vector(h, rng) for h in hs]
            ys = [rho.apply(e, a, h, v) for h, v in zip(hs, xs)]
            r_blocks, s_blocks = ([[x.inner_ambient(hs[i], vs[i], hs[j], vs[j])
                                    for j in range(3)] for i in range(3)] for vs in (xs, ys))
            blocks = [[na * na * r_blocks[i][j] - s_blocks[i][j] for j in range(3)]
                      for i in range(3)]
            op = matrix_alg(bundle, hs, blocks, tol)
            res = op.psd(tol)
            scale = max(1.0, na * na * matrix_alg(bundle, hs, r_blocks, tol).norm,
                        matrix_alg(bundle, hs, s_blocks, tol).norm)
            ok = ok and res.margin >= -1e-8 * scale
            worst = max(worst, max(-res.margin, 0.0) / scale)
    return ok, worst


def non_direct_z2():
    """Z_2 in M_1 with A_0 = A_1 = C 1: a Fell bundle whose fiber sum is not direct."""
    return FellBundle(make_cyclic(2), 1, [np.ones((1, 1, 1)), np.ones((1, 1, 1))])


def oracle_bundles(corpus):
    bundles = dict(corpus)
    bundles["z5"] = group_bundle(make_cyclic(5))
    bundles["m2_z4"] = m2_z4()
    bundles["m3_z2"] = m3_z2()
    return bundles


def oracle_maps(corpus):
    maps = {name: identity_bundle_map(b) for name, b in oracle_bundles(corpus).items()}
    rho = z4_to_z2_rep_action()
    rng = np.random.default_rng(23)
    maps["z4 to z2"] = coefficient_map(
        rho, rho.target.random_vector(rho.target.bundle.group.identity, rng))
    maps["m2_z4 indefinite"] = indefinite_identity(m2_z4(), 43)
    maps["m3_z2 indefinite"] = indefinite_identity(m3_z2(), 47)
    # generic perturbations; over abelian groups the lowest eigenvector of the
    # localized form, hence the witness, is unique (a crossed product by M_k
    # repeats every eigenvalue at least k times)
    for name in ("z3", "z5", "s3", "m2_ad"):
        maps[f"{name} perturbed"] = perturb_bundle_map(maps[name], 0.5, rng)
    # the regular route of the S4 group bundle is too large for an oracle
    maps.update((name, t) for name, t in indefinite_maps(corpus).items()
                if name != "s4 indefinite scalar")
    return maps


def _assert_same_certificate(t, got, want, lherm, name):
    """Same verdict and margin; on failure, the witness is a lowest
    eigenvector of the reference's localized form and equals the reference
    witness, both the canonical vector of that eigenspace
    (`numerics.canonical_min_vector`), degenerate or not."""
    assert got.ok == want.ok, name
    scale = max(1.0, opnorm(got.gram))
    assert abs(got.margin - want.margin) <= 1e-12 * scale, name
    assert (got.witness is None) == (want.witness is None), name
    if want.witness is None:
        return
    tgt = t.target
    # the witness, expanded to ambient matrices, re-evaluates to its stored
    # sum, which is at least as negative as the margin
    witness, witness_sum = ambient_witness(t, got.witness), ambient_sum(t, got)
    s = tuple_sum(t, witness)
    assert np.allclose(s, witness_sum, rtol=0, atol=1e-10 * scale), name
    herm_sum = (s + dagger(s)) / 2
    assert np.linalg.eigvalsh(herm_sum)[0] <= got.margin + 1e-10 * scale, name
    # its coefficients over the fiber bases are a lowest eigenvector of the
    # reference form
    inv = tgt.group.inverse
    vec = np.concatenate([tgt.coords(inv[t.hom(g)], dagger(b))[0] for g, _, b in witness])
    vec = vec / np.sqrt(tgt.ambient_dim)
    ev = np.linalg.eigvalsh(lherm)
    lscale = max(1.0, float(np.abs(ev).max()))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12), name
    assert np.linalg.norm(lherm @ vec - ev[0] * vec) <= 1e-10 * lscale, name
    for (g1, a1, b1), (g2, a2, b2) in zip(witness, want.witness, strict=True):
        assert g1 == g2, name
        assert np.allclose(a1, a2, rtol=0, atol=1e-12), name
        assert np.allclose(b1, b2, rtol=0, atol=1e-12), name
    assert np.allclose(witness_sum, want.witness_sum, rtol=0, atol=1e-12 * scale), name


def test_certificate_matches_regular_route(corpus_bundles):
    simple = 0
    for name, t in oracle_maps(corpus_bundles).items():
        got = pd_check_exact(t)
        want, lherm = reference_pd_check_exact(t)
        _assert_same_certificate(t, got, want, lherm, name)
        # the certificate side is (source dimension) x (target ambient dimension)
        assert got.gram.shape == (t.source.total_dim * t.target.ambient_dim,) * 2, name
        if lherm is not None:
            ev = np.linalg.eigvalsh(lherm)
            simple += bool(ev[1] - ev[0] >= 1e-8 * max(1.0, float(np.abs(ev).max())))
    assert simple >= 3  # witnesses compared entry by entry on several maps


def test_cstar_norm_matches_regular_image(corpus_bundles):
    rng = np.random.default_rng(31)
    for name, b in oracle_bundles(corpus_bundles).items():
        rep = regular_rep(b)
        for _ in range(5):
            f = Section.random(b, rng)
            want = opnorm(rep_matrix(rep, f))
            assert cstar_norm(f) == pytest.approx(want, rel=1e-12), name


def _doubled(rho):
    """rho(a) scaled by two: no longer contractive, so Gram domination fails."""
    ops = [[2.0 * op for op in row] for row in rho.ops]
    return Action(rho.source, rho.hom, rho.target, ops)


def test_gram_domination_matches_block_algebra(corpus_bundles):
    actions = {
        "z3 l2": l2_action(corpus_bundles["z3"]),
        "s3 l2": l2_action(corpus_bundles["s3"]),
        "m2_ad trivial": trivial_action(corpus_bundles["m2_ad"]),
        "m2_z4 trivial": trivial_action(m2_z4()),
        "z4 to z2": z4_to_z2_rep_action(),
    }
    actions.update({f"{name} doubled": _doubled(rho) for name, rho in list(actions.items())})
    for name, rho in actions.items():
        item = next(i for i in validate_action(rho).items
                    if i.name == "Gram domination S <= ||a||^2 R")
        ok, residual = reference_gram_domination(rho)
        assert item.ok == ok, name
        assert item.residual == pytest.approx(residual, rel=1e-9, abs=1e-12), name
        assert item.ok == ("doubled" not in name), name


def test_non_direct_bundle_refuses_the_ambient_image(tmp_path, capsys):
    b = non_direct_z2()
    assert not b.direct
    rep = validate_bundle(b)
    assert [i.name for i in rep.failures()] == ["directness of fiber sum"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(sz.bundle_to_json(b)))
    assert main(["validate", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == ["directness of fiber sum"]

    f = Section.random(b, np.random.default_rng(0))
    with pytest.raises(NotDirectError, match="directness of fiber sum"):
        cstar_norm(f)
    with pytest.raises(NotDirectError):
        ambient_image(f)

    # the module checks and the imprimitivity check take norms of sections:
    # malformed input
    for kind, command in (("trivial_action", "correspond"), ("self_equivalence", "morita")):
        spec, built = tmp_path / f"{kind}.spec.json", tmp_path / f"{kind}.json"
        spec.write_text(json.dumps({"kind": kind, "bundle": sz.bundle_to_json(b)}))
        assert main(["build", str(spec), "-o", str(built)]) == 0
        capsys.readouterr()
        assert main([command, str(built)]) == 2, command
        out = capsys.readouterr()
        assert "directness of fiber sum" in json.loads(out.out)["error"], command
        assert "Traceback" not in out.out + out.err, command


def test_certificate_into_a_non_direct_bundle_matches_regular_route():
    b = non_direct_z2()
    hom = identity_hom(b.group)
    maps = {
        "identity": identity_bundle_map(b),
        "value two": BundleMap(b, b, hom, [np.eye(1), 2.0 * np.eye(1)]),
        "value half": BundleMap(b, b, hom, [np.eye(1), 0.5 * np.eye(1)]),
    }
    for name, t in maps.items():
        _assert_same_certificate(t, pd_check_exact(t), *reference_pd_check_exact(t), name)
    assert not pd_check_exact(maps["value two"]).ok


def test_ambient_image_is_a_star_homomorphism(corpus_bundles):
    rng = np.random.default_rng(37)
    for name, b in oracle_bundles(corpus_bundles).items():
        f1, f2 = Section.random(b, rng), Section.random(b, rng)
        m1, m2 = ambient_image(f1), ambient_image(f2)
        assert np.allclose(ambient_image(convolve(f1, f2)), m1 @ m2, atol=1e-10), name
        assert np.allclose(ambient_image(star(f1)), m1.conj().T, atol=1e-10), name
