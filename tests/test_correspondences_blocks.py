"""The block-monomial correspondence arithmetic against the dense routes it replaced.

`DenseAmplifiedCorrespondence` and `dense_is_star_rep` keep the Kronecker
amplification (`kron(lambda_g, pi_g(a))` at dimension |G| dim Y, with its
localized Gram `kron(1, localized_gram(y))`), and `loop_right_mul`,
`loop_inner`, `loop_left_mul` and `loop_left_inner_section` keep the per-pair
loops of the module arithmetic, and `loop_generating_vectors` and
`loop_span_fills_fibers` the per-vector loops of the cyclicity and
nondegeneracy checks, all verbatim as oracles.  `loop_build_module`,
`loop_attach_left_action` and `loop_separate_pre_action` keep the sampled
guards those functions ran before they called the Hilbert-bundle and action
batteries: wherever a loop refuses, the battery route must refuse with the
same exception class, and both must accept every valid input.
`dense_star_residual` is the same dense check reporting the worst relative
residual over all draws instead of stopping at the first failure, which is
what `amplified_is_star_rep` reports.  The block route must give the same
verdicts, and residuals and module values within 1e-12 relative to
max(1, |value|).
"""

import json

import numpy as np
import pytest

from fellbundles import serialize as sz
from fellbundles.actions import Action, CompatibilityViolationError, compress_action, \
    l2_action, regularize_action, separate_pre_action, trivial_action
from fellbundles.bundles import FellBundle, bundles_equal, dynamical_bundle, group_bundle, \
    projection_expectation, regular_unitary
from fellbundles.cli import main
from fellbundles.correspondences import ActionMismatchError, Correspondence, \
    InvalidBundleError, _generating_vectors, _span_fills_fibers, amplified_correspondence, \
    amplified_is_star_rep, attach_left_action, build_module, check_nondegenerate, \
    left_inner_section, subcorrespondence, trivial_self_equivalence
from fellbundles.crosssec import Section, ambient_image, convolve, cstar_norm, star
from fellbundles.groups import identity_hom, make_cyclic
from fellbundles.hilbundles import HilbertBundle, condexp_raw_semibundle, condexp_semibundle, \
    l2_bundle, module_bundle_from_dynsys, regularize_bundle, separate, trace_gram_stacks, \
    trivial_hilbert_bundle, trivial_module
from fellbundles.numerics import DEFAULT_TOL, block_spectra, dagger, frob, identity_bound, \
    judge_definite, judge_psd, orthonormal_basis, relative, stack_spectra
from fellbundles.pdmaps import gelfand_raikov, identity_bundle_map

from test_acceptance import _perturb_hilbert
from test_actions import z4_to_z2_rep_action
from test_bundles import M2_BASIS
from test_bundles_batched import crossed_system
from test_numerics import definite_verdict, numerical_rank
from test_pdmaps_batched import m2_z4
from test_tolerance_governs import LOOSE, scaled
from test_validators_batched import _c3_s3, _condexp_raw, _gns_zero_fiber, _m2_z3


# -- the dense oracles ------------------------------------------------------------

def localized_gram(y):
    """Block-diagonal trace Grams: the scalar product tau(<xi, eta>(e))."""
    blocks = [y.hbundle.trace_gram(r) for r in y.bundle.group.elements()]
    out = np.zeros((y.dim, y.dim), dtype=np.complex128)
    for r, blk in enumerate(blocks):
        o = y.offsets[r]
        out[o:o + blk.shape[0], o:o + blk.shape[1]] = blk
    return out


class DenseAmplifiedCorrespondence:
    """Tensor amplification by the left regular representation of the source
    group: the generator of (a, g) acts as  lambda_g (x) pi_g(a)."""

    def __init__(self, y: Correspondence):
        y._need_action()
        self.base = y
        self.src = y.action.source
        self.group = self.src.group
        self.dim = self.group.order * y.dim
        self.generators = {}
        for g in self.group.elements():
            lam = regular_unitary(self.group, g)
            for i in range(self.src.dims[g]):
                self.generators[(g, i)] = np.kron(lam, y.generator_matrix(g, i))

    def rep_of(self, f: Section) -> np.ndarray:
        if f.bundle is not self.src:
            raise ActionMismatchError("section does not live over the source bundle")
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for g in self.group.elements():
            for i in range(self.src.dims[g]):
                if f.coeffs[g][i] != 0:
                    out += f.coeffs[g][i] * self.generators[(g, i)]
        return out

    def localized_gram(self) -> np.ndarray:
        return np.kron(np.eye(self.group.order), localized_gram(self.base))


def dense_is_star_rep(amp, seed=0, checks=5) -> bool:
    """Multiplicativity as matrices plus adjointability against the
    localized Gram of the amplified module."""
    rng = np.random.default_rng(seed)
    gram = amp.localized_gram()
    for _ in range(checks):
        f1 = Section.random(amp.src, rng)
        f2 = Section.random(amp.src, rng)
        m1, m2 = amp.rep_of(f1), amp.rep_of(f2)
        prod = amp.rep_of(convolve(f1, f2))
        if frob(m1 @ m2 - prod) > 1e-8 * max(1.0, frob(prod)):
            return False
        madj = amp.rep_of(star(f1))
        if frob(dagger(m1) @ gram - gram @ madj) > 1e-8 * max(1.0, frob(gram)):
            return False
    return True


def dense_star_residual(amp, seed=0, checks=5):
    """dense_is_star_rep's residuals, worst over all draws, with the floor
    of the product's scale: (worst, whether max(1, frob(prod)) reached 1)."""
    rng = np.random.default_rng(seed)
    gram = amp.localized_gram()
    worst, floored = 0.0, False
    for _ in range(checks):
        f1 = Section.random(amp.src, rng)
        f2 = Section.random(amp.src, rng)
        m1, m2 = amp.rep_of(f1), amp.rep_of(f2)
        prod = amp.rep_of(convolve(f1, f2))
        floored = floored or frob(prod) < 1.0
        worst = max(worst, relative(frob(m1 @ m2 - prod), frob(prod)))
        madj = amp.rep_of(star(f1))
        worst = max(worst, relative(frob(dagger(m1) @ gram - gram @ madj), frob(gram)))
    return worst, floored


def loop_right_mul(y, xi, f):
    """(xi . f)(h) = sum_k xi(k) f(k^-1 h)."""
    grp = y.bundle.group
    out = np.zeros(y.dim, dtype=np.complex128)
    for h in grp.elements():
        acc = out[y.offsets[h]:y.offsets[h + 1]]
        for k in grp.elements():
            c = f.coeffs[grp.mul(grp.inv(k), h)]
            if not np.any(c):
                continue
            acc += y.hbundle.act_matrix(k, grp.mul(grp.inv(k), h), c) \
                @ y.component(xi, k)
    return out


def loop_inner(y, xi, eta):
    """<xi, eta>(h) = sum_k <xi(k), eta(k h)>, a section of the target."""
    grp = y.bundle.group
    out = Section.zero(y.bundle).coeff_array.copy()
    for h in grp.elements():
        acc = out[h, :y.bundle.dims[h]]
        for k in grp.elements():
            kh = grp.mul(k, h)
            acc += y.hbundle.inner_coords(
                k, y.component(xi, k), kh, y.component(eta, kh))
    return Section(y.bundle, out)


def loop_left_mul(y, f, xi):
    """(f . xi)(h) = sum_g rho(f(g)) xi(phi(g)^-1 h)."""
    y._need_action()
    src = y.action.source
    if f.bundle is not src:
        raise ActionMismatchError("section does not live over the acting bundle")
    grp = y.bundle.group
    out = np.zeros(y.dim, dtype=np.complex128)
    for g in src.group.elements():
        c = f.coeffs[g]
        if not np.any(c):
            continue
        phi_g = y.action.hom(g)
        for h in grp.elements():
            pos = grp.mul(phi_g, h)
            out[y.offsets[pos]:y.offsets[pos + 1]] += \
                y.action.op_matrix(g, c, h) @ y.component(xi, h)
    return out


def loop_left_inner_section(e, y, xi, eta):
    """[xi, eta](h) = sum_k [xi(h k), eta(k)], a section of the left bundle."""
    grp = e.left_bundle.group
    out = Section.zero(e.left_bundle).coeff_array.copy()
    for h in grp.elements():
        acc = out[h, :e.left_bundle.dims[h]]
        for k in grp.elements():
            hk = grp.mul(h, k)
            acc += e.left_inner_coords(hk, y.component(xi, hk), k, y.component(eta, k))
    return Section(e.left_bundle, out)


def loop_generating_vectors(y, k, x):
    """Vectors (rho(a)w)b in X_k over all (g, h) with phi(g)h = k."""
    y._need_action()
    rho = y.action
    src = rho.source
    grp = y.bundle.group
    e = grp.identity
    hb = y.hbundle
    vecs = []
    seeds = [x] if x is not None else list(np.eye(hb.dims[e], dtype=np.complex128))
    for g in src.group.elements():
        phi_g = rho.hom(g)
        h = grp.mul(grp.inv(phi_g), k)
        for i in range(src.dims[g]):
            for w in seeds:
                mid = rho.ops[g][e][i] @ w
                for j in range(y.bundle.dims[h]):
                    vecs.append(hb.act[phi_g][h][j] @ mid)
    return vecs


def loop_span_fills_fibers(y, x, tol=None) -> bool:
    tol = tol or DEFAULT_TOL
    for k in y.bundle.group.elements():
        mk = y.hbundle.dims[k]
        if mk == 0:
            continue
        vecs = loop_generating_vectors(y, k, x)
        if not vecs:
            return False
        if numerical_rank(np.array(vecs), tol) < mk:
            return False
    return True


def loop_build_module(hbundle, tol=None, seed=0, checks=6):
    """The sampled module guard build_module ran before it called the
    Hilbert-bundle battery."""
    tol = tol or DEFAULT_TOL
    bound = identity_bound(tol)
    y = Correspondence(hbundle)
    rng = np.random.default_rng(seed)
    for _ in range(checks):
        xi, eta = y.random(rng), y.random(rng)
        f = Section.random(y.bundle, rng)
        lhs = y.inner(xi, y.right_mul(eta, f))
        rhs = convolve(y.inner(xi, eta), f)
        if not lhs.allclose(rhs, atol=bound * (1 + f.l2_norm())):
            raise InvalidBundleError("<xi, eta.f> = <xi,eta>*f fails")
        ok, _, _ = judge_psd(*stack_spectra(ambient_image(y.inner(xi, xi))[None]), tol,
                             hermitian_bound=bound)
        if not ok[0]:
            raise InvalidBundleError("module Gram is not PSD")
    # the localized Gram is block diagonal with the fiber trace Grams as blocks
    _, low, high = block_spectra([(np.ones(len(a)), a[None]) for a in trace_gram_stacks(hbundle)])
    if not judge_definite(low, high, tol)[0][0]:
        raise InvalidBundleError("module inner product is degenerate")
    return y


def loop_attach_left_action(y, rho, tol=None, seed=0, checks=6):
    """The sampled left-action guard attach_left_action ran before it called
    the action battery."""
    tol = tol or DEFAULT_TOL
    bound = identity_bound(tol)
    if rho.target is not y.hbundle:
        same = (bundles_equal(rho.target.bundle, y.bundle)
                and rho.target.dims == y.hbundle.dims)
        if not same:
            raise ActionMismatchError("action acts on a different Hilbert bundle")
    out = Correspondence(y.hbundle, action=rho)
    rng = np.random.default_rng(seed)
    for _ in range(checks):
        xi, eta = out.random(rng), out.random(rng)
        f = Section.random(rho.source, rng)
        fr = Section.random(y.bundle, rng)
        lhs = out.inner(out.left_mul(f, xi), eta)
        rhs = out.inner(xi, out.left_mul(star(f), eta))
        scale = (1 + f.l2_norm()) * (1 + out.norm(xi)) * (1 + out.norm(eta))
        if not lhs.allclose(rhs, atol=bound * scale):
            raise ActionMismatchError("left action is not adjointable")
        assoc1 = out.left_mul(f, out.right_mul(xi, fr))
        assoc2 = out.right_mul(out.left_mul(f, xi), fr)
        if np.linalg.norm(assoc1 - assoc2) > bound * (1 + np.linalg.norm(assoc1)):
            raise ActionMismatchError("left and right actions do not commute")
        limit = cstar_norm(f) * out.norm(xi)
        if out.norm(out.left_mul(f, xi)) > limit + bound * (1 + limit):
            raise ActionMismatchError("left action exceeds its C*-norm bound")
    return out


def loop_separate_pre_action(rho0, tol=None, seed=0, checks=12):
    """The sampled contractivity guard separate_pre_action ran before it
    called the action battery."""
    tol = tol or DEFAULT_TOL
    x = rho0.target
    src = rho0.source
    grp, tgt = src.group, x.bundle.group
    rng = np.random.default_rng(seed)
    for _ in range(checks):
        g = int(rng.integers(grp.order))
        h = int(rng.integers(tgt.order))
        if src.dims[g] == 0 or x.dims[h] == 0:
            continue
        a = src.random_coords(g, rng)
        v = x.random_vector(h, rng)
        na = src.fiber_norm(g, a)
        out = tgt.mul(rho0.hom(g), h)
        w = rho0.apply(g, a, h, v)
        diff = na * na * x.inner_ambient(h, v, h, v) - x.inner_ambient(out, w, out, w)
        # the Hermitian part of diff, judged against ||a||^2 alone
        ok, _, _ = judge_psd(*stack_spectra(diff[None]), tol, hermitian_bound=np.inf,
                             bound=identity_bound(tol) * max(1.0, na * na))
        if not ok[0]:
            raise CompatibilityViolationError(
                "pre-action violates the contractivity inequality")
    hil, quotients = separate(x, tol)
    return compress_action(rho0, [q.conj().T for q in quotients], hil)


# -- the corpus ----------------------------------------------------------------------

def _regular(bundle):
    return regularize_action(trivial_action(bundle))


def _scaled(rho, scale):
    """rho with every operator multiplied by `scale`: not multiplicative."""
    return Action(rho.source, rho.hom, rho.target, [[scale * op for op in row] for row in rho.ops])


def _bumped(rho, g, h, rng):
    """rho with ops[g][h] moved by a random tensor of Frobenius norm 0.3."""
    ops = [[np.array(op) for op in row] for row in rho.ops]
    noise = rng.standard_normal(ops[g][h].shape) + 1j * rng.standard_normal(ops[g][h].shape)
    ops[g][h] = ops[g][h] + 0.3 * noise / np.linalg.norm(noise)
    return Action(rho.source, rho.hom, rho.target, ops)


@pytest.fixture(scope="module")
def correspondences(corpus_bundles):
    """Correspondences with verified left actions, and (name "... perturbed")
    bare ones whose actions are not *-representations."""
    valid = {f"Z{n} regular": _regular(group_bundle(make_cyclic(n))) for n in range(2, 9)}
    valid["S3 regular"] = _regular(corpus_bundles["s3"])
    valid["M2xZ2 regular"] = _regular(corpus_bundles["m2_ad"])
    valid["M2xZ3 regular"] = _regular(_m2_z3())
    valid["M2xZ4 regular"] = _regular(m2_z4())
    valid["M2xZ2 l2"] = l2_action(corpus_bundles["m2_ad"])
    valid["Z4 to Z2"] = z4_to_z2_rep_action()
    valid["C3xS3 trivial"] = trivial_action(_c3_s3())
    out = {name: attach_left_action(build_module(rho.target), rho)
           for name, rho in valid.items()}
    zero = np.zeros(out["S3 regular"].hbundle.dims[0])
    out["S3 zero subcorrespondence"] = subcorrespondence(out["S3 regular"], zero)
    assert out["S3 zero subcorrespondence"].dim == 0
    rng = np.random.default_rng(7)
    s3_l2 = l2_action(corpus_bundles["s3"])
    bad = {"S3 l2 scaled perturbed": _scaled(s3_l2, 0.05),
           "S3 l2 bumped perturbed": _bumped(s3_l2, 1, 4, rng),
           "Z4 to Z2 bumped perturbed": _bumped(z4_to_z2_rep_action(), 3, 1, rng),
           "M2xZ3 regular bumped perturbed": _bumped(valid["M2xZ3 regular"], 2, 0, rng)}
    out.update({name: Correspondence(rho.target, action=rho) for name, rho in bad.items()})
    return out


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


# -- the block route agrees with the dense one ----------------------------------------

def test_star_rep_check_matches_the_dense_amplification(correspondences):
    rejected = set()
    floored = set()
    for name, y in correspondences.items():
        amp = amplified_correspondence(y)
        dense = DenseAmplifiedCorrespondence(y)
        assert amp.dim == dense.dim == amp.group.order * y.dim
        for seed in (0, 5) if amp.dim <= 256 else (0,):
            got = amplified_is_star_rep(amp, seed=seed)
            want, low = dense_star_residual(dense, seed=seed)
            assert got.ok == dense_is_star_rep(dense, seed=seed) == (want <= 1e-8), (name, seed)
            assert bool(got) == got.ok and got.bound == 1e-8
            assert close(got.residual, want), (name, seed, got.residual, want)
            if not got.ok:
                rejected.add(name)
            if low:
                floored.add(name)
    assert rejected == {n for n in correspondences if n.endswith("perturbed")}
    # the product scale falls under the floor of max(1, .) somewhere, so the
    # |G| of the Frobenius norms is seen in a residual
    assert "S3 l2 scaled perturbed" in floored


def test_amplified_blocks_expand_to_the_dense_generators(correspondences):
    for name in ("S3 regular", "Z4 to Z2", "M2xZ2 l2", "C3xS3 trivial"):
        y = correspondences[name]
        amp, dense = amplified_correspondence(y), DenseAmplifiedCorrespondence(y)
        src, tgt = amp.src, y.bundle.group
        for g in src.group.elements():
            for i in range(src.dims[g]):
                f = Section.zero(src).coeff_array.copy()
                f[g, i] = 1.0
                blocks = amp.blocks(Section(src, f))
                pi = np.zeros((y.dim, y.dim), dtype=complex)
                for r in tgt.elements():
                    s = tgt.mul(tgt.inv(y.action.hom(g)), r)
                    m_r, m_s = y.hbundle.dims[r], y.hbundle.dims[s]
                    pi[y.offsets[r]:y.offsets[r + 1], y.offsets[s]:y.offsets[s + 1]] = \
                        blocks[g, r, :m_r, :m_s]
                want = dense.generators[(g, i)]
                assert np.array_equal(np.kron(regular_unitary(src.group, g), pi), want), name
        with pytest.raises(ActionMismatchError):
            amp.blocks(Section.zero(group_bundle(make_cyclic(1))))


def test_module_arithmetic_matches_the_loops(correspondences):
    rng = np.random.default_rng(11)
    for name, y in correspondences.items():
        for _ in range(2):
            xi, eta = y.random(rng), y.random(rng)
            f = Section.random(y.bundle, rng)
            fa = Section.random(y.action.source, rng)
            for got, want in ((y.right_mul(xi, f), loop_right_mul(y, xi, f)),
                              (y.left_mul(fa, xi), loop_left_mul(y, fa, xi))):
                scale = max(1.0, np.abs(want).max(initial=0.0))
                assert np.allclose(got, want, rtol=0, atol=1e-12 * scale), name
            got, want = y.inner(xi, eta), loop_inner(y, xi, eta)
            scale = max(1.0, max(np.abs(c).max(initial=0.0) for c in want.coeffs))
            assert got.allclose(want, atol=1e-12 * scale), name
        with pytest.raises(ActionMismatchError):
            y.left_mul(Section.random(group_bundle(make_cyclic(1)), rng), xi)


def test_generating_vectors_match_the_loop(correspondences):
    """Per fiber, the same vectors in the same order within 1e-12, and the
    same verdicts, for every correspondence of the corpus and the regular
    actions of the benchmark's crossed products, seeded by the standard
    basis of X_e (nondegeneracy), a random, a basis and a zero vector
    (cyclicity), and the same subcorrespondence dimensions."""
    bench = {f"M{k}xZ{m} regular (bench)": _regular(dynamical_bundle(*crossed_system(k, m)))
             for k, m in ((2, 2), (2, 3), (2, 4))}
    ys = {**correspondences,
          **{name: attach_left_action(build_module(rho.target), rho)
             for name, rho in bench.items()}}
    rng = np.random.default_rng(11)
    verdicts = set()
    for name, y in ys.items():
        me = y.hbundle.dims[y.bundle.group.identity]
        seeds = {"basis": None, "zero": np.zeros(me), "first": np.eye(1, me)[0],
                 "random": rng.standard_normal(me) + 1j * rng.standard_normal(me)}
        for label, x in seeds.items():
            for k, got in enumerate(_generating_vectors(y, x)):
                vecs = loop_generating_vectors(y, k, x)
                want = np.array(vecs, dtype=np.complex128).reshape(len(vecs), y.hbundle.dims[k])
                assert got.shape == want.shape, (name, label, k)
                scale = max(1.0, np.abs(want).max(initial=0.0))
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale, (name, label, k)
            verdict = _span_fills_fibers(y, x, None)
            assert verdict == loop_span_fills_fibers(y, x), (name, label)
            verdicts.add(verdict)
            if "perturbed" not in name and x is not None:
                sub = subcorrespondence(y, x)
                want = [len(orthonormal_basis(np.array(loop_generating_vectors(y, k, x))))
                        for k in y.bundle.group.elements()]
                assert sub.hbundle.dims == want, (name, label)
        assert check_nondegenerate(y) == loop_span_fills_fibers(y, None), name
    assert verdicts == {True, False}


def test_left_inner_section_matches_the_loop(corpus_bundles):
    rng = np.random.default_rng(12)
    for b in (corpus_bundles["s3"], corpus_bundles["m2_ad"], _c3_s3(), m2_z4()):
        e = trivial_self_equivalence(b)
        y = Correspondence(e.right, action=e.left_action())
        for _ in range(3):
            xi, eta = y.random(rng), y.random(rng)
            got, want = left_inner_section(e, y, xi, eta), loop_left_inner_section(e, y, xi, eta)
            scale = max(1.0, max(np.abs(c).max(initial=0.0) for c in want.coeffs))
            assert got.allclose(want, atol=1e-12 * scale)


def test_module_definiteness_matches_the_localized_gram(correspondences):
    """build_module judges the block-diagonal localized Gram from its fiber
    blocks: same verdict and margin, zero fibers and padding left out."""
    hbs = {name: y.hbundle for name, y in correspondences.items()}
    hbs["gns zero fiber"] = _gns_zero_fiber()[0]
    hbs["condexp raw"] = _condexp_raw()
    hbs["all fibers empty"] = trivial_hilbert_bundle(
        FellBundle(make_cyclic(2), 2, [np.zeros((0, 2, 2))] * 2))
    for name, hb in hbs.items():
        y = Correspondence(hb)
        want = definite_verdict(localized_gram(y))
        stacks = trace_gram_stacks(hb)
        assert sum(map(len, stacks)) == len(hb.dims), name
        _, low, high = block_spectra([(np.ones(len(a)), a[None]) for a in stacks])
        assert judge_definite(low, high)[0][0] == want[0], name
        assert low[0] == want[2] or close(low[0], want[2]), name
    assert definite_verdict(localized_gram(Correspondence(hbs["all fibers empty"])))[0]
    assert build_module(hbs["all fibers empty"]).dim == 0
    assert not definite_verdict(localized_gram(Correspondence(hbs["condexp raw"])))[0]
    with pytest.raises(InvalidBundleError, match=r"definiteness \(localized Grams full rank\)"):
        build_module(hbs["condexp raw"])


def test_correspond_reports_the_star_residual_and_its_bound(tmp_path, capsys, corpus_bundles):
    rho = _regular(corpus_bundles["s3"])
    path = tmp_path / "action.json"
    path.write_text(json.dumps(sz.action_to_json(rho)))
    assert main(["correspond", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    y = attach_left_action(build_module(rho.target), rho)
    want, _ = dense_star_residual(DenseAmplifiedCorrespondence(y))
    assert payload["amplified_star_representation"] is True
    assert payload["amplified_dimension"] == 6 * payload["module_dimension"]
    assert payload["amplified_star_bound"] == 1e-8
    assert close(payload["amplified_star_residual"], want)
    assert 0.0 < payload["amplified_star_residual"] <= payload["amplified_star_bound"]


# -- the module guards against their sampled loops ----------------------------------

def refusal(guard, *args):
    """The exception class a guard raises, or None when it accepts."""
    try:
        guard(*args)
    except ValueError as exc:
        return type(exc)
    return None


def _axiom_suite(corpus_bundles):
    """The Hilbert bundles and actions of test_acceptance's axiom suite, each
    followed by its perturbation there (same generator, same order): names
    ending in "perturbed" are broken."""
    rng = np.random.default_rng(3)
    b, z3 = corpus_bundles["m2_ad"], corpus_bundles["z3"]
    swap_basis = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    swap_alpha = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    gns_hb, gns_rho, _ = gelfand_raikov(identity_bundle_map(z3))
    hilberts = {
        "trivial": trivial_hilbert_bundle(b),
        "regular": regularize_bundle(trivial_hilbert_bundle(z3)),
        "l2": l2_bundle(z3),
        "dynamical": module_bundle_from_dynsys(trivial_module(swap_basis), make_cyclic(2),
                                               swap_alpha),
        "condexp": condexp_semibundle(projection_expectation(b, b))[0],
        "gns": gns_hb,
    }
    for name in list(hilberts):
        hilberts[f"{name} perturbed"] = _perturb_hilbert(hilberts[name], rng)
    actions = {
        "trivial": trivial_action(b),
        "regular": regularize_action(trivial_action(z3)),
        "l2": l2_action(z3),
        "rep": z4_to_z2_rep_action(),
        "gns": gns_rho,
    }
    for name in list(actions):
        rho = actions[name]
        bad_ops = [[arr.copy() for arr in row] for row in rho.ops]
        g = int(rng.integers(rho.source.group.order))
        h = int(rng.integers(rho.target.bundle.group.order))
        if np.prod(bad_ops[g][h].shape):
            bad_ops[g][h] = bad_ops[g][h] + 1e-3 * (
                rng.standard_normal(bad_ops[g][h].shape)
                + 1j * rng.standard_normal(bad_ops[g][h].shape))
            actions[f"{name} perturbed"] = Action(rho.source, rho.hom, rho.target, bad_ops)
    return hilberts, actions


def _guard_fixtures(corpus_bundles):
    """(Hilbert bundles, actions), each a name -> (object, tolerance) dict:
    the corpus's trivial, l2 and regular constructions, the axiom suite and
    its perturbations, and the inputs test_tolerance_governs bends by
    5e-8, at the default and at the ten times looser tolerance."""
    hilberts, actions = _axiom_suite(corpus_bundles)
    hbs = {name: (hb, DEFAULT_TOL) for name, hb in hilberts.items()}
    rhos = {name: (rho, DEFAULT_TOL) for name, rho in actions.items()}
    for label, b in corpus_bundles.items():
        for kind, rho in (("trivial", trivial_action(b)), ("l2", l2_action(b)),
                          ("regular", _regular(b))):
            hbs[f"{label} {kind}"] = (rho.target, DEFAULT_TOL)
            rhos[f"{label} {kind}"] = (rho, DEFAULT_TOL)
    z3 = group_bundle(make_cyclic(3))
    hb, rho = trivial_hilbert_bundle(z3), trivial_action(z3)
    bent_hb = HilbertBundle(z3, hb.dims, scaled(hb.act), hb.inner)
    bent_rho = Action(z3, rho.hom, rho.target, scaled(rho.ops))
    for tol, label in ((DEFAULT_TOL, "bent"), (LOOSE, "bent, loose")):
        hbs[label] = (bent_hb, tol)
        rhos[label] = (bent_rho, tol)
    return hbs, rhos


def _valid(name):
    return "perturbed" not in name and name != "bent"


def _pre_actions(corpus_bundles):
    """The actions of _guard_fixtures plus the compressed left multiplication
    of M2 on the raw semi-inner bundle of the corner expectation, as it is
    and with its operators doubled (perturbed)."""
    _, rhos = _guard_fixtures(corpus_bundles)
    triv = make_cyclic(1)
    sup = FellBundle(triv, 2, [M2_BASIS])
    sub = FellBundle(triv, 2, [np.array([np.diag([1.0, 0.0])])])
    raw = condexp_raw_semibundle(projection_expectation(sup, sub))
    ops = np.stack([sup.left_mult_matrix(0, np.eye(4)[i], 0) for i in range(4)])
    rhos["corner pre-action"] = (Action(sup, identity_hom(triv), raw, [[ops]]), DEFAULT_TOL)
    rhos["corner pre-action doubled perturbed"] = (
        Action(sup, identity_hom(triv), raw, [[2.0 * ops]]), DEFAULT_TOL)
    return rhos


def _assert_battery_covers_loop(cases, loop, guard):
    """Where the loop refuses the guard refuses with the same class; both
    accept every valid case.  Returns the names the loop refused."""
    refused = set()
    for name, args in cases.items():
        want, got = refusal(loop, *args), refusal(guard, *args)
        if want is not None:
            refused.add(name)
            assert got is want, (name, got, want)
        if _valid(name):
            assert want is None and got is None, (name, got, want)
    return refused


def test_module_guard_refuses_where_its_loop_does(corpus_bundles):
    hbs, _ = _guard_fixtures(corpus_bundles)
    assert _assert_battery_covers_loop(hbs, loop_build_module, build_module)


def test_left_action_guard_refuses_where_its_loop_does(corpus_bundles, correspondences):
    _, rhos = _guard_fixtures(corpus_bundles)
    cases = {name: (Correspondence(rho.target), rho, tol) for name, (rho, tol) in rhos.items()}
    cases.update({name: (Correspondence(y.hbundle), y.action, DEFAULT_TOL)
                  for name, y in correspondences.items()})
    assert _assert_battery_covers_loop(cases, loop_attach_left_action, attach_left_action)


def test_pre_action_guard_refuses_where_its_loop_does(corpus_bundles):
    refused = _assert_battery_covers_loop(_pre_actions(corpus_bundles),
                                          loop_separate_pre_action, separate_pre_action)
    assert "corner pre-action doubled perturbed" in refused, refused
