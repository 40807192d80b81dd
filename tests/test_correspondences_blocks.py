"""The block-monomial correspondence arithmetic against the dense routes it replaced.

`DenseAmplifiedCorrespondence` and `dense_is_star_rep` keep the Kronecker
amplification (`kron(lambda_g, pi_g(a))` at dimension |G| dim Y, with its
localized Gram `kron(1, localized_gram(y))`), and `loop_right_mul`,
`loop_inner`, `loop_left_mul` and `loop_left_inner_section` keep the per-pair
loops of the module arithmetic, and `loop_generating_vectors` and
`loop_span_fills_fibers` the per-vector loops of the cyclicity and
nondegeneracy checks, all verbatim as oracles.
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
from fellbundles.actions import Action, l2_action, regularize_action, trivial_action
from fellbundles.bundles import FellBundle, dynamical_bundle, group_bundle, regular_unitary
from fellbundles.cli import main
from fellbundles.correspondences import ActionMismatchError, Correspondence, \
    InvalidBundleError, _generating_vectors, _span_fills_fibers, amplified_correspondence, \
    amplified_is_star_rep, attach_left_action, build_module, check_nondegenerate, \
    left_inner_section, subcorrespondence, trivial_self_equivalence
from fellbundles.crosssec import Section, convolve, star
from fellbundles.groups import make_cyclic
from fellbundles.hilbundles import trace_gram_stacks, trivial_hilbert_bundle
from fellbundles.numerics import DEFAULT_TOL, block_spectra, dagger, frob, judge_definite, \
    orthonormal_basis, relative

from test_actions import z4_to_z2_rep_action
from test_bundles_batched import crossed_system
from test_numerics import definite_verdict, numerical_rank
from test_pdmaps_batched import m2_z4
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
    out = {name: attach_left_action(build_module(rho.target, seed=3), rho, seed=3)
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
    with pytest.raises(InvalidBundleError, match="degenerate"):
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
