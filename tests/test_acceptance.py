"""Acceptance battery.

Each criterion prints one pass/fail line (run with pytest -s, or read the
captured output).  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from fellbundles.actions import (
    Action,
    coefficient_map,
    l2_action,
    regularize_action,
    rep_action,
    trivial_action,
    validate_action,
)
from fellbundles.bundles import FellBundle, group_bundle, projection_expectation
from fellbundles.correspondences import (
    EquivalenceBundle,
    attach_left_action,
    build_module,
    check_cyclic,
    trivial_self_equivalence,
    verify_imprimitivity,
)
from fellbundles.crosssec import Section, cstar_norm, matrix_alg, rep_matrix
from fellbundles.groups import GroupHom, identity_hom, make_cyclic
from fellbundles.hilbundles import (
    HilbertBundle,
    HilbertModule,
    condexp_semibundle,
    l2_bundle,
    module_bundle_from_dynsys,
    regularize_bundle,
    trivial_hilbert_bundle,
    validate_hilbert_bundle,
)
from fellbundles.pdmaps import (
    cached_rep,
    gelfand_raikov,
    pd_check_exact,
    pd_check_sampled,
    perturb_bundle_map,
    phi_t,
    roundtrip_residual,
    scalar_bundle_map,
)

from test_numerics import psd_ok
from test_validators_batched import retired_imprimitivity_items

M2_BASIS = np.array(
    [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]],
    dtype=complex,
)


def announce(num, name, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def hermitian_symmetric_function(rng, n):
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = np.zeros(n, dtype=complex)
    for g in range(n):
        out[g] = (f[g] + np.conj(f[(-g) % n])) / 2
    return out


def z4_to_z2_rep_action():
    g4 = make_cyclic(4)
    src = group_bundle(g4)
    v = np.diag([1.0, 1j])
    mod = HilbertModule(np.array([[[1.0]]]), 2, np.eye(2)[None],
                        np.eye(2)[:, :, None].astype(complex))
    pi = [np.array([np.linalg.matrix_power(v, g) / 2.0]) for g in range(4)]
    hom = GroupHom(g4, make_cyclic(2), [g % 2 for g in range(4)])
    return rep_action(src, pi, mod, hom)


def test_criterion_1_bochner_agreement():
    def body():
        rng = np.random.default_rng(0)
        bundles = {n: group_bundle(make_cyclic(n)) for n in range(2, 13)}
        start = time.perf_counter()
        checked = 0
        while checked < 200:
            n = 2 + checked % 11
            b = bundles[n]
            f = hermitian_symmetric_function(rng, n)
            if checked % 3 == 0:
                # guaranteed positive: sample a nonnegative spectrum
                spectrum = rng.random(n)
                f = np.fft.ifft(spectrum)
            t = scalar_bundle_map(b, b, identity_hom(b.group), f)
            cert = pd_check_exact(t)
            dft = np.fft.fft(f)
            assert np.abs(dft.imag).max() < 1e-9
            want_margin = float(dft.real.min())
            assert abs(cert.margin - want_margin) <= 1e-8
            threshold = -1e-8 * max(1.0, float(np.abs(dft.real).max()))
            if abs(want_margin - threshold) > 1e-7:  # skip knife-edge verdicts
                assert cert.ok == bool(want_margin >= threshold)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    announce(1, "Bochner agreement on cyclic group bundles", body)


def test_criterion_2_gns_round_trip(corpus_bundles):
    def body():
        rng = np.random.default_rng(1)
        runs = []
        for name in ("z2", "z3", "s3", "m2_ad"):
            b = corpus_bundles[name]
            rho = l2_action(b)
            e = b.group.identity
            for _ in range(10):
                x = rho.target.random_vector(e, rng)
                runs.append(coefficient_map(rho, x))
        hom_action = z4_to_z2_rep_action()
        e2 = hom_action.target.bundle.group.identity
        for _ in range(10):
            x = hom_action.target.random_vector(e2, rng)
            runs.append(coefficient_map(hom_action, x))
        assert len(runs) == 50
        for t in runs:
            start = time.perf_counter()
            hb, rho, xi = gelfand_raikov(t)
            residual = roundtrip_residual(t, hb, rho, xi)
            elapsed = time.perf_counter() - start
            assert residual <= 1e-8 * (1.0 + t.norm())
            assert elapsed < 2.0, f"run took {elapsed:.2f}s"

    announce(2, "reconstruction round-trip over the corpus", body)


def test_criterion_3_certificate_closure(corpus_bundles):
    def body():
        rng = np.random.default_rng(2)
        sources = [corpus_bundles["z2"], corpus_bundles["z3"]]
        rep_cache = {id(b): cached_rep(b) for b in sources}
        checked = 0
        for round_idx in range(100):
            b = sources[round_idx % 2]
            rho = l2_action(b)
            x = rho.target.random_vector(b.group.identity, rng)
            good = coefficient_map(rho, x)
            bad = perturb_bundle_map(good, 3.0 * (1.0 + good.norm()), rng)
            for t, expect_pd in ((good, True), (bad, None)):
                exact = pd_check_exact(t)
                if expect_pd is True:
                    assert exact.ok
                # route 2: concrete push-forward of basis sections
                gram2 = _choi_via_sections(t)
                herm_ok = np.linalg.norm(gram2 - gram2.conj().T) <= 1e-8 * max(
                    1.0, np.linalg.norm(gram2))
                psd2 = herm_ok and psd_ok((gram2 + gram2.conj().T) / 2)
                assert psd2 == exact.ok
                # route 3: sampled tuples never contradict an exact pass
                sampled = pd_check_sampled(t, samples=1000, seed=round_idx)
                if exact.ok:
                    assert sampled.ok
                else:
                    assert not sampled.ok  # perturbations are far from the cone
                checked += 1
        assert checked >= 200

    announce(3, "positivity certificate closure (three routes)", body)


def _choi_via_sections(t):
    src, tgt = t.source, t.target
    from fellbundles.crosssec import convolve, star
    rep = cached_rep(tgt)
    pairs = [(g, i) for g in src.group.elements() for i in range(src.dims[g])]
    deltas = []
    for g, i in pairs:
        scale = 1.0 / np.linalg.norm(src.fibers[g][i], 2)
        deltas.append(Section.delta(src, g, scale * src.fibers[g][i]))
    n, db = len(pairs), rep.dim
    gram = np.zeros((n * db, n * db), dtype=complex)
    for p in range(n):
        for q in range(n):
            sec = phi_t(t, convolve(star(deltas[p]), deltas[q]))
            gram[p * db:(p + 1) * db, q * db:(q + 1) * db] = rep_matrix(rep, sec)
    return gram


def _perturb_hilbert(x, rng, scale=1e-3):
    inner = [[x.inner[r][s].copy() for s in x.bundle.group.elements()]
             for r in x.bundle.group.elements()]
    r = int(rng.integers(x.bundle.group.order))
    shape = inner[r][r].shape
    if np.prod(shape):
        inner[r][r] = inner[r][r] + scale * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    cls = type(x)
    return cls(x.bundle, x.dims, x.act, inner)


def test_criterion_4_axiom_suites(corpus_bundles):
    def body():
        rng = np.random.default_rng(3)
        b = corpus_bundles["m2_ad"]
        z3 = corpus_bundles["z3"]
        swap_basis = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        swap_alpha = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
        from fellbundles.hilbundles import trivial_module
        mod = trivial_module(swap_basis)

        hilberts = {
            "trivial": trivial_hilbert_bundle(b),
            "regular": regularize_bundle(trivial_hilbert_bundle(z3)),
            "l2": l2_bundle(z3),
            "dynamical": module_bundle_from_dynsys(mod, make_cyclic(2), swap_alpha),
            "condexp": condexp_semibundle(projection_expectation(b, b))[0],
        }
        from fellbundles.pdmaps import identity_bundle_map
        gns_hb, gns_rho, _ = gelfand_raikov(identity_bundle_map(z3))
        hilberts["gns"] = gns_hb

        for name, x in hilberts.items():
            rep = validate_hilbert_bundle(x)
            assert rep.ok, f"{name}: {rep}"
            assert rep.worst <= 1e-9, f"{name} residual {rep.worst:.2e}"
            broken = _perturb_hilbert(x, rng)
            assert not validate_hilbert_bundle(broken).ok, name

        actions = {
            "trivial": trivial_action(b),
            "regular": regularize_action(trivial_action(z3)),
            "l2": l2_action(z3),
            "rep": z4_to_z2_rep_action(),
            "gns": gns_rho,
        }
        for name, rho in actions.items():
            rep = validate_action(rho)
            assert rep.ok, f"{name}: {rep}"
            assert rep.worst <= 1e-9, f"{name} residual {rep.worst:.2e}"
            bad_ops = [[arr.copy() for arr in row] for row in rho.ops]
            g = int(rng.integers(rho.source.group.order))
            h = int(rng.integers(rho.target.bundle.group.order))
            if np.prod(bad_ops[g][h].shape):
                bad_ops[g][h] = bad_ops[g][h] + 1e-3 * (
                    rng.standard_normal(bad_ops[g][h].shape)
                    + 1j * rng.standard_normal(bad_ops[g][h].shape))
                broken = Action(rho.source, rho.hom, rho.target, bad_ops)
                assert not validate_action(broken).ok, name

        for name, x in hilberts.items():
            build_module(x)  # raises when the module axioms fail

    announce(4, "axiom suites on constructors and perturbations", body)


def test_criterion_5_inequality_suite(corpus_bundles):
    def body():
        rng = np.random.default_rng(5)
        setups = [l2_action(corpus_bundles["z3"]),
                  trivial_action(corpus_bundles["m2_ad"]),
                  regularize_action(trivial_action(corpus_bundles["z2"]))]
        modules = [attach_left_action(build_module(rho.target),
                                      rho) for rho in setups]
        contractivity = gram_domination = bounded = 0
        while min(contractivity, gram_domination, bounded) < 500:
            pick = int(rng.integers(len(setups)))
            rho = setups[pick]
            b = rho.source
            grp = b.group
            x = rho.target
            # contractivity
            g = int(rng.integers(grp.order))
            h = int(rng.integers(grp.order))
            a = b.random_coords(g, rng)
            v = x.random_vector(h, rng)
            na, nv = b.fiber_norm(g, a), x.norm(h, v)
            out = grp.mul(rho.hom(g), h)
            slack = na * nv - x.norm(out, rho.apply(g, a, h, v))
            assert slack >= -1e-9 * max(1.0, na * nv)
            contractivity += 1
            # unit-fiber Gram domination
            e = grp.identity
            a_e = b.random_coords(e, rng)
            na = b.fiber_norm(e, a_e)
            hs = [int(rng.integers(grp.order)) for _ in range(2)]
            xs = [x.random_vector(hh, rng) for hh in hs]
            blocks = [[na * na * x.inner_ambient(hs[i], xs[i], hs[j], xs[j])
                       - x.inner_ambient(hs[i], rho.apply(e, a_e, hs[i], xs[i]),
                                         hs[j], rho.apply(e, a_e, hs[j], xs[j]))
                       for j in range(2)] for i in range(2)]
            op = matrix_alg(b, hs, blocks)
            assert op.psd().margin >= -1e-9 * max(1.0, na * na * op.norm)
            gram_domination += 1
            # module bound for the left action on sections
            y = modules[pick]
            f = Section.random(b, rng)
            xi = y.random(rng)
            bound = cstar_norm(f) * y.norm(xi)
            assert y.norm(y.left_mul(f, xi)) <= bound + 1e-9 * max(1.0, bound)
            bounded += 1

    announce(5, "contractivity and Gram-domination inequalities", body)


def test_criterion_6_correspondence_identities(corpus_bundles):
    def body():
        rng = np.random.default_rng(7)
        for name in ("z2", "s3"):
            b = corpus_bundles[name]
            grp = b.group
            rho = trivial_action(b)
            y = attach_left_action(build_module(rho.target), rho)
            for g in grp.elements():
                for g2 in grp.elements():
                    a = b.random_coords(g, rng)
                    a2 = b.random_coords(g2, rng)
                    got = y.inner(y.embed(g, a), y.embed(g2, a2))
                    want = np.zeros_like(got.coeff_array)
                    want[grp.mul(grp.inv(g), g2)] = b.product_coords(
                        grp.inv(g), b.star_coords(g, a), g2, a2)
                    assert got.allclose(Section(b, want), atol=0.0)  # exact identity
        # matrix-coefficient identity on random actions, vectors and sections
        for name in ("z3", "m2_ad"):
            b = corpus_bundles[name]
            rho = l2_action(b)
            y = attach_left_action(build_module(rho.target), rho)
            e = b.group.identity
            for _ in range(10):
                x = rho.target.random_vector(e, rng)
                t = coefficient_map(rho, x)
                xi_x = y.embed(e, x)
                f = Section.random(b, rng)
                got = y.inner(xi_x, y.left_mul(f, xi_x))
                assert got.allclose(phi_t(t, f), atol=1e-10)

    announce(6, "crossed-product identities", body)


def test_criterion_7_morita(corpus_bundles):
    def body():
        # full matrices against the scalars via the column module
        triv = make_cyclic(1)
        a_bundle = FellBundle(triv, 2, [M2_BASIS])
        b_bundle = FellBundle(triv, 1, [np.array([[[1.0]]])])
        right = HilbertBundle(b_bundle, [2], [[np.eye(2)[None]]],
                              [[np.eye(2)[:, :, None].astype(complex)]])
        linner = [[np.zeros((2, 2, 4), dtype=complex)]]
        for u in range(2):
            for v in range(2):
                e_uv = np.zeros((2, 2), dtype=complex)
                e_uv[u, v] = 1.0
                linner[0][0][u, v] = a_bundle.coords(0, e_uv)[0]
        e = EquivalenceBundle(a_bundle, right, [[np.stack(list(M2_BASIS))]], linner)
        rep = verify_imprimitivity(e)
        assert rep.ok, str(rep)
        # the two induced norms agree, a consequence the library does not re-check
        norm_item = [i for i in retired_imprimitivity_items(e, seed=10).items
                     if "norm equality" in i.name][0]
        assert norm_item.residual <= 1e-8

        for name in ("z2", "z3", "s3", "m2_ad"):
            e = trivial_self_equivalence(corpus_bundles[name])
            rep = verify_imprimitivity(e)
            assert rep.ok, f"{name}: {rep}"
            norm_item = [i for i in retired_imprimitivity_items(e, seed=11).items
                         if "norm equality" in i.name][0]
            assert norm_item.residual <= 1e-8

        # corner-broken: the left algebra is two blocks but only one acts
        blocks = []
        for base in M2_BASIS:
            top = np.zeros((4, 4), dtype=complex)
            top[:2, :2] = base
            bot = np.zeros((4, 4), dtype=complex)
            bot[2:, 2:] = base
            blocks.extend([top, bot])
        corner_a = FellBundle(triv, 4, [np.array(blocks)])
        lact = [[np.stack([blk[:2, :2] for blk in blocks])]]
        linner2 = [[np.zeros((2, 2, 8), dtype=complex)]]
        for u in range(2):
            for v in range(2):
                e_uv = np.zeros((4, 4), dtype=complex)
                e_uv[u, v] = 1.0
                linner2[0][0][u, v] = corner_a.coords(0, e_uv)[0]
        broken = EquivalenceBundle(corner_a, right, lact, linner2)
        rep = verify_imprimitivity(broken)
        assert not rep.ok
        assert all("fullness" in item.name for item in rep.failures())

    announce(7, "imprimitivity bimodule verification", body)


def test_criterion_8_cyclicity(corpus_bundles):
    def body():
        for name in ("z2", "z3", "s3", "m2_ad"):
            b = corpus_bundles[name]
            rho = regularize_action(trivial_action(b))
            y = attach_left_action(build_module(rho.target), rho)
            e = b.group.identity
            x = np.zeros(rho.target.dims[e], dtype=complex)
            x[e * b.dims[e]:(e + 1) * b.dims[e]] = b.unit_coords
            assert check_cyclic(y, x), name
        # a bundle with a zero fiber is not saturated; the same vector fails
        g2 = make_cyclic(2)
        flat = FellBundle(g2, 1, [np.eye(1)[None].reshape(1, 1, 1),
                                  np.zeros((0, 1, 1))])
        rho = regularize_action(trivial_action(flat))
        y = attach_left_action(build_module(rho.target), rho)
        e = g2.identity
        x = np.zeros(rho.target.dims[e], dtype=complex)
        x[e * flat.dims[e]:(e + 1) * flat.dims[e]] = flat.unit_coords
        assert not check_cyclic(y, x)

    announce(8, "regular-action cyclicity and its failure", body)
