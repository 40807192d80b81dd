"""Crossed-product modules over cross-sectional algebras.

The section space of a Hilbert bundle carries a convolution-style right
action of the target's section algebra and an algebra-valued inner
product; attaching a left action of another bundle turns it into a
correspondence between the two cross-sectional C*-algebras.  Norms are
operator norms of the ambient image sum_g <xi, xi>(g) of the
algebra-valued Gram (exact at finite dimension when the fiber sum is
direct; crosssec.ambient_image refuses other bundles).  Module vectors are
coordinatized on the direct sum of the fibers.

Because the groups here are finite, the full and reduced module
completions coincide, so the delicate extension questions for the reduced
left action trivialize; the cyclicity criterion and the generated
subcorrespondence are still implemented since they carry the construction.

The module arithmetic reads the Hilbert bundle and the action through the
padded graded layout of `hilbundles` (act, inner and ops as single arrays
indexed by group elements, zero-padded to the largest fiber dimensions),
built once per Correspondence at first use: a vector is a (|G|, dm) array
of fiber components, and each of right_mul, inner and left_mul is one
batched matmul over all pairs of group elements plus one gather through the
Cayley table.  The left action of a section is block-monomial on the
section space (row fiber r reads column fiber phi(g)^-1 r), so the
amplification lambda_g (x) pi_g(a) is never formed densely: its
residuals are sums over the |G| disjoint supports of the lambda_k (see
amplified_is_star_rep).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actions import Action, WrongFiberError, compress_action, trivial_action
from .bundles import FellBundle, bundles_equal, padded_structure
from .crosssec import Section, ambient_image, convolve, cstar_norm, star
from .hilbundles import SemiInnerBundle, block_grams_psd, compress_bundle, padded_module
from .numerics import DEFAULT_TOL, Tolerance, chunks, dagger, definite_blocks, frob, \
    numerical_rank, orthonormal_basis, padded, psd_check, rank_check, relative, worst_relative
from .reports import Report


class InvalidBundleError(ValueError):
    pass


class ActionMismatchError(ValueError):
    pass


class Correspondence:
    """Section space of a Hilbert bundle as a right module over the section
    algebra of its target bundle, with an optional left bundle action."""

    def __init__(self, hbundle: SemiInnerBundle, action: Action | None = None):
        self.hbundle = hbundle
        self.bundle = hbundle.bundle
        self.offsets = np.concatenate([[0], np.cumsum(hbundle.dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self.action = action
        # coordinate j of a vector is component _slots[1][j] of fiber _slots[0][j]
        fiber = np.repeat(np.arange(len(hbundle.dims)), hbundle.dims)
        self._slots = (fiber, np.arange(self.dim) - self.offsets[fiber])

    # -- coordinates --------------------------------------------------------

    def embed(self, h: int, x) -> np.ndarray:
        """The section x (+) h supported at a single fiber."""
        out = np.zeros(self.dim, dtype=np.complex128)
        out[self.offsets[h]:self.offsets[h + 1]] = np.asarray(x)
        return out

    def component(self, xi, h: int) -> np.ndarray:
        return np.asarray(xi)[self.offsets[h]:self.offsets[h + 1]]

    def random(self, rng) -> np.ndarray:
        return rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)

    def blocks(self, xi) -> np.ndarray:
        """xi as a (|G|, dm) array: row r holds the component in X_r,
        zero-padded."""
        out = np.zeros((len(self.hbundle.dims), max(self.hbundle.dims, default=0)),
                       dtype=np.complex128)
        out[self._slots] = xi
        return out

    def _flat(self, blocks) -> np.ndarray:
        """The vector of a (|G|, dm) array of fiber components."""
        return blocks[self._slots]

    @cached_property
    def _module(self):
        """The padded (act, inner) of the Hilbert bundle, read at first use."""
        return padded_module(self.hbundle)

    @cached_property
    def _ops(self) -> np.ndarray:
        """The padded action, ops[g, h] of shape (da, dm, dm), read at first use."""
        self._need_action()
        da = max(self.action.source.dims, default=0)
        dm = max(self.hbundle.dims, default=0)
        return padded(self.action.ops, (da, dm, dm))

    # -- module structure ----------------------------------------------------

    def right_mul(self, xi, f: Section) -> np.ndarray:
        """(xi . f)(h) = sum_k xi(k) f(k^-1 h)."""
        grp = self.bundle.group
        act = self._module[0]
        c = padded([f.coeffs], (act.shape[2],))[0]
        # y[k, q] = xi(k) f(q) in X_{kq}
        y = (act @ self.blocks(xi)[:, None, None, :, None])[..., 0]
        y = (c[None, :, None, :] @ y)[:, :, 0]
        quot = grp.table[grp.inverse]  # quot[k, h] = k^-1 h
        return self._flat(y[np.arange(grp.order)[:, None], quot].sum(axis=0))

    def inner(self, xi, eta) -> Section:
        """<xi, eta>(h) = sum_k <xi(k), eta(k h)>, a section of the target."""
        grp = self.bundle.group
        # w[k, s] = <xi(k), eta(s)> in B_{k^-1 s}
        w = _pairings(self._module[1], self.blocks(xi).conj(), self.blocks(eta))
        out = w[np.arange(grp.order)[:, None], grp.table].sum(axis=0)
        return Section(self.bundle, [out[h, :d] for h, d in enumerate(self.bundle.dims)])

    def norm(self, xi) -> float:
        return float(np.sqrt(max(cstar_norm(self.inner(xi, xi)), 0.0)))

    # -- left action ----------------------------------------------------------

    def _need_action(self):
        if self.action is None:
            raise ActionMismatchError("no left action attached")

    def generator_matrix(self, g: int, i: int) -> np.ndarray:
        """Operator of the i-th basis element of A_g on the section space:
        (pi_g(a) xi)(h) = rho(a) xi(phi(g)^-1 h)."""
        self._need_action()
        grp = self.bundle.group
        phi_g = self.action.hom(g)
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for h in grp.elements():
            src = grp.mul(grp.inv(phi_g), h)
            blk = self.action.ops[g][src][i]
            out[self.offsets[h]:self.offsets[h + 1],
                self.offsets[src]:self.offsets[src + 1]] = blk
        return out

    def left_mul(self, f: Section, xi) -> np.ndarray:
        """(f . xi)(h) = sum_g rho(f(g)) xi(phi(g)^-1 h)."""
        self._need_action()
        if f.bundle is not self.action.source:
            raise ActionMismatchError("section does not live over the acting bundle")
        ops = self._ops
        c = padded([f.coeffs], (ops.shape[2],))[0]
        # y[g, h] = rho(f(g)) xi(h) in X_{phi(g)h}
        y = (ops @ self.blocks(xi)[None, :, None, :, None])[..., 0]
        y = (c[:, None, None, :] @ y)[:, :, 0]
        src = _sources(self)
        return self._flat(y[np.arange(len(ops))[:, None], src].sum(axis=0))


def _sources(y: Correspondence) -> np.ndarray:
    """src[g, r] = phi(g)^-1 r, the fiber pi_g reads into fiber r."""
    grp = y.bundle.group
    return grp.table[grp.inverse[y.action.hom.map]]


def _pairings(tensor, x, y) -> np.ndarray:
    """w[r, s, :] = sum_uv x[r, u] tensor[r, s, u, v, :] y[s, v] for padded
    (|G|, dm) arrays x, y and a padded (|G|, |G|, dm, dm, d) tensor."""
    order, dm = x.shape
    d = tensor.shape[-1]
    w = x[:, None, None, :] @ tensor.reshape(order, order, dm, dm * d)
    return (y[None, :, None, :] @ w.reshape(order, order, dm, d))[:, :, 0]


def build_module(hbundle: SemiInnerBundle, tol: Tolerance | None = None,
                 seed: int = 0, checks: int = 6) -> Correspondence:
    """Wrap a Hilbert bundle's section space as a right module and verify
    the module identities on random data (raises InvalidBundleError)."""
    tol = tol or DEFAULT_TOL
    y = Correspondence(hbundle)
    rng = np.random.default_rng(seed)
    for _ in range(checks):
        xi, eta = y.random(rng), y.random(rng)
        f = Section.random(y.bundle, rng)
        lhs = y.inner(xi, y.right_mul(eta, f))
        rhs = convolve(y.inner(xi, eta), f)
        if not lhs.allclose(rhs, atol=1e-8 * (1 + f.l2_norm())):
            raise InvalidBundleError("<xi, eta.f> = <xi,eta>*f fails")
        gram = ambient_image(y.inner(xi, xi))
        res = psd_check((gram + dagger(gram)) / 2, tol)
        if frob(gram - dagger(gram)) > 1e-8 * max(1.0, frob(gram)) or not res.ok:
            raise InvalidBundleError("module Gram is not PSD")
    # the localized Gram is block diagonal with the fiber trace Grams as blocks
    if not definite_blocks([hbundle.trace_gram(r) for r in y.bundle.group.elements()], tol).ok:
        raise InvalidBundleError("module inner product is degenerate")
    return y


def attach_left_action(y: Correspondence, rho: Action,
                       tol: Tolerance | None = None, seed: int = 0,
                       checks: int = 6) -> Correspondence:
    """Attach a left action and verify on random data that it is adjointable
    against the module inner product, commutes with the right action, and is
    bounded by the C*-norm of the acting section."""
    tol = tol or DEFAULT_TOL
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
        if not lhs.allclose(rhs, atol=1e-8 * (1 + f.l2_norm()) * (1 + out.norm(xi)) * (1 + out.norm(eta))):
            raise ActionMismatchError("left action is not adjointable")
        assoc1 = out.left_mul(f, out.right_mul(xi, fr))
        assoc2 = out.right_mul(out.left_mul(f, xi), fr)
        if np.linalg.norm(assoc1 - assoc2) > 1e-8 * (1 + np.linalg.norm(assoc1)):
            raise ActionMismatchError("left and right actions do not commute")
        bound = cstar_norm(f) * out.norm(xi)
        if out.norm(out.left_mul(f, xi)) > bound + 1e-8 * (1 + bound):
            raise ActionMismatchError("left action exceeds its C*-norm bound")
    return out


def check_nondegenerate(y: Correspondence, tol: Tolerance | None = None) -> bool:
    """span{ (rho(a) w) b : phi(g) h = k, w in X_e } must fill every fiber."""
    return _span_fills_fibers(y, None, tol)


def check_cyclic(y: Correspondence, x, tol: Tolerance | None = None) -> bool:
    """Like nondegeneracy with the unit-fiber vector pinned to x."""
    e = y.bundle.group.identity
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (y.hbundle.dims[e],):
        raise WrongFiberError("cyclic candidate must lie in the unit fiber")
    return _span_fills_fibers(y, x, tol)


def _generating_vectors(y: Correspondence, k: int, x):
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


def _span_fills_fibers(y: Correspondence, x, tol: Tolerance | None) -> bool:
    tol = tol or DEFAULT_TOL
    for k in y.bundle.group.elements():
        mk = y.hbundle.dims[k]
        if mk == 0:
            continue
        vecs = _generating_vectors(y, k, x)
        if not vecs:
            return False
        if numerical_rank(np.array(vecs), tol) < mk:
            return False
    return True


def subcorrespondence(y: Correspondence, x, tol: Tolerance | None = None) -> Correspondence:
    """The subcorrespondence generated by a unit-fiber vector: per fiber k,
    the span of (rho(a)x)b over phi(g)h = k, compressed to new coordinates.

    The span is invariant under both actions by construction; the result
    equals y exactly when x is cyclic (dimension equality per fiber)."""
    tol = tol or DEFAULT_TOL
    y._need_action()
    e = y.bundle.group.identity
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (y.hbundle.dims[e],):
        raise WrongFiberError("generator must lie in the unit fiber")
    grp = y.bundle.group
    hb = y.hbundle
    rho = y.action
    basis = []
    for k in grp.elements():
        vecs = _generating_vectors(y, k, x)
        rows = orthonormal_basis(np.array(vecs), tol) if vecs else \
            np.zeros((0, hb.dims[k]), dtype=np.complex128)
        basis.append(rows.T)  # columns span S_k
    sub_h = compress_bundle(hb, basis)
    # invariance check: both actions must stay inside the span
    for r in grp.elements():
        for h in grp.elements():
            rh = grp.mul(r, h)
            for i in range(y.bundle.dims[h]):
                img = hb.act[r][h][i] @ basis[r]
                res = img - basis[rh] @ (basis[rh].conj().T @ img)
                if frob(res) > 1e-7 * max(1.0, frob(img)):
                    raise InvalidBundleError("span is not right-invariant")
    src = rho.source
    for g in src.group.elements():
        for h in grp.elements():
            out_f = grp.mul(rho.hom(g), h)
            for i in range(src.dims[g]):
                img = rho.ops[g][h][i] @ basis[h]
                res = img - basis[out_f] @ (basis[out_f].conj().T @ img)
                if frob(res) > 1e-7 * max(1.0, frob(img)):
                    raise InvalidBundleError("span is not left-invariant")
    return Correspondence(sub_h, action=compress_action(rho, basis, sub_h))


class AmplifiedCorrespondence:
    """Tensor amplification by the left regular representation of the source
    group: the generator of (a, g) acts as  lambda_g (x) pi_g(a)  on
    C^|G| (x) Y, of dimension |G| dim Y.

    It is held in block-monomial form, never as dense matrices: a section f
    amplifies to sum_g lambda_g (x) pi_g(f(g)), and `blocks(f)` stores each
    pi_g(f(g)) as its |G_B| nonzero blocks, out[g, r] from the column fiber
    phi(g)^-1 r to the row fiber r."""

    def __init__(self, y: Correspondence):
        y._need_action()
        self.base = y
        self.src = y.action.source
        self.group = self.src.group
        self.dim = self.group.order * y.dim
        # gen[g, r, i]: block of pi_g(a_i) in row fiber r
        self._gen = y._ops[np.arange(self.group.order)[:, None], _sources(y)]

    def blocks(self, f: Section) -> np.ndarray:
        """pi_g(f(g)) for every g: shape (|G_A|, |G_B|, dm, dm)."""
        if f.bundle is not self.src:
            raise ActionMismatchError("section does not live over the source bundle")
        ga, gb, da, dm = self._gen.shape[:4]
        c = padded([f.coeffs], (da,))[0]
        return (c[:, None, None, :] @ self._gen.reshape(ga, gb, da, dm * dm)).reshape(
            ga, gb, dm, dm)


def amplified_correspondence(y: Correspondence) -> AmplifiedCorrespondence:
    return AmplifiedCorrespondence(y)


@dataclass(frozen=True)
class StarRepCheck:
    """Verdict of amplified_is_star_rep: the worst relative residual over all
    draws and the bound it was judged against; truthy when it passed."""

    ok: bool
    residual: float
    bound: float

    def __bool__(self):
        return self.ok


def amplified_is_star_rep(amp: AmplifiedCorrespondence, seed: int = 0,
                          checks: int = 5) -> StarRepCheck:
    """Multiplicativity as matrices plus adjointability against the
    localized Gram kron(1, G0) of the amplified module, G0 the block-diagonal
    matrix of the fiber trace Grams, on `checks` pairs of random sections.

    Each defect is a sum over k of lambda_k (x) D_k, and the lambda_k have
    disjoint supports with |G| ones each, so its Frobenius norm is
    sqrt(|G| sum_k ||D_k||^2); D_k is block-monomial, with blocks

      multiplicativity  sum_g B1_g[r] B2_{g^-1 k}[phi(g)^-1 r] - B_{f1*f2}(k)[r]
      adjointability    B1_{k^-1}[phi(k)^-1 s]^* G0[phi(k)^-1 s] - G0[s] B_{f1*}(k)[s]

    in the layout of AmplifiedCorrespondence.blocks.  Each residual is
    measured against max(1, ||.||_F) of the product and of the localized
    Gram, as in the dense matrices, and judged at 1e-8."""
    y = amp.base
    grp, tgt = amp.group, y.bundle.group
    ga, gb = grp.order, tgt.order
    inv = grp.inverse
    div = grp.table[inv]  # div[g, k] = g^-1 k
    src = _sources(y)
    dm = amp._gen.shape[-1]
    gram = padded([[y.hbundle.trace_gram(r) for r in tgt.elements()]], (dm, dm))[0]
    gram_scale = max(1.0, np.sqrt(ga * _sum_sq(gram)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(checks):
        f1 = Section.random(amp.src, rng)
        f2 = Section.random(amp.src, rng)
        b1, b2 = amp.blocks(f1), amp.blocks(f2)
        prod = amp.blocks(convolve(f1, f2))

        def product_defect(idx):
            k, r = np.unravel_index(idx, (ga, gb))
            row = b1[:, r].transpose(1, 2, 0, 3).reshape(len(idx), dm, ga * dm)
            col = b2[div[:, k].T, src[:, r].T].reshape(len(idx), ga * dm, dm)
            return row @ col - prod[k, r]

        defect = _chunked_sum_sq(ga * gb, ga * dm * dm, product_defect)
        worst = max(worst, np.sqrt(ga * defect) / max(1.0, np.sqrt(ga * _sum_sq(prod))))
        adj = amp.blocks(star(f1))

        def adjoint_defect(idx):
            k, s = np.unravel_index(idx, (ga, gb))
            t = src[k, s]
            return b1[inv[k], t].conj().swapaxes(-1, -2) @ gram[t] - gram[s] @ adj[k, s]

        defect = _chunked_sum_sq(ga * gb, dm * dm, adjoint_defect)
        worst = max(worst, np.sqrt(ga * defect) / gram_scale)
    return StarRepCheck(bool(worst <= 1e-8), float(worst), 1e-8)


def _sum_sq(a) -> float:
    """Squared Frobenius norm of an array of any shape."""
    return float(np.vdot(a, a).real)


def _chunked_sum_sq(count: int, entries: int, defect) -> float:
    """Sum over items t < count of the squared Frobenius norm of defect_t,
    where defect(idx) stacks the items idx of one chunk."""
    return sum(_sum_sq(defect(idx)) for idx in chunks(count, entries))


# -- imprimitivity -----------------------------------------------------------

@dataclass
class EquivalenceBundle:
    """Two-sided equivalence data over one group: a right Hilbert bundle over
    the right-hand bundle, plus a left action and a left-hand-valued inner
    product [x, y] in A_{r s^-1} (linear in the first slot)."""

    left_bundle: FellBundle
    right: SemiInnerBundle
    lact: list  # lact[g][r]: (dim A_g, m_{gr}, m_r)
    linner: list  # linner[r][s]: (m_r, m_s, dim A_{r s^-1})

    def left_inner_coords(self, r: int, x, s: int, y) -> np.ndarray:
        return np.einsum("u,uvk,v->k", np.asarray(x), self.linner[r][s],
                         np.conj(np.asarray(y)))

    def left_action(self) -> Action:
        from .groups import identity_hom
        return Action(self.left_bundle, identity_hom(self.left_bundle.group),
                      self.right, self.lact)


def trivial_self_equivalence(bundle: FellBundle) -> EquivalenceBundle:
    """A unital bundle as an equivalence between itself and itself:
    [x, y] = x y* on the left, <x, y> = x* y on the right."""
    grp = bundle.group
    rho = trivial_action(bundle)
    linner = [[np.einsum("vw,uwk->uvk", bundle.star_tensor[s],
                         bundle.prod[r][grp.inv(s)])
               for s in grp.elements()] for r in grp.elements()]
    return EquivalenceBundle(bundle, rho.target, rho.ops, linner)


def left_inner_section(e: EquivalenceBundle, y: Correspondence, xi, eta) -> Section:
    """[xi, eta](h) = sum_k [xi(h k), eta(k)], a section of the left bundle."""
    grp = e.left_bundle.group
    dm = max(e.right.dims, default=0)
    linner = padded(e.linner, (dm, dm, max(e.left_bundle.dims, default=0)))
    # w[r, s] = [xi(r), eta(s)] in A_{r s^-1}
    w = _pairings(linner, y.blocks(xi), y.blocks(eta).conj())
    out = w[grp.table, np.arange(grp.order)].sum(axis=1)
    return Section(e.left_bundle, [out[h, :d] for h, d in enumerate(e.left_bundle.dims)])


def verify_imprimitivity(e: EquivalenceBundle, tol: Tolerance | None = None,
                         seed: int = 0, checks: int = 6) -> Report:
    """Full two-sided verification: both module structures, the compatibility
    identity, fullness on both sides, the section-level imprimitivity
    identity, and equality of the two induced norms."""
    from .actions import validate_action
    from .hilbundles import validate_hilbert_bundle

    tol = tol or DEFAULT_TOL
    rep = Report("imprimitivity bimodule")
    grp = e.left_bundle.group
    a_bundle = e.left_bundle
    hb = e.right

    right_rep = validate_hilbert_bundle(hb, tol)
    rep.add("right Hilbert bundle axioms", right_rep.ok, right_rep.worst)

    act_rep = validate_action(e.left_action(), tol)
    rep.add("left action axioms", act_rep.ok, act_rep.worst)

    # the left structure through the padded layout of hilbundles, built per call
    order, tab, inv = grp.order, grp.table, grp.inverse
    prod_a, star_a, _ = padded_structure(a_bundle)
    act, inner = padded_module(hb)
    da, db, dm = star_a.shape[-1], act.shape[2], act.shape[-1]
    lact = padded(e.lact, (da, dm, dm))
    linner = padded(e.linner, (dm, dm, da))
    div = tab[:, inv]  # div[r, s] = r s^-1

    # left inner product: hermitian symmetry and left-linearity
    def symmetric(idx):
        r, s = np.unravel_index(idx, (order, order))
        starred = linner[r, s].conj().reshape(-1, dm * dm, da) @ star_a[div[r, s]]
        return linner[s, r].transpose(0, 2, 1, 3), starred

    worst = worst_relative(order ** 2, dm * dm * da, symmetric)
    rep.add("[x,y]* = [y,x]", worst <= 1e-8, worst)

    def left_linear(idx):
        g, r, s = np.unravel_index(idx, (order,) * 3)
        lhs = lact[g, r].transpose(0, 1, 3, 2) @ linner[tab[g, r], s].reshape(-1, 1, dm, dm * da)
        rhs = linner[r, s].reshape(-1, dm * dm, da) \
            @ prod_a[g, div[r, s]].transpose(0, 2, 1, 3).reshape(-1, da, da * da)
        return lhs, rhs.reshape(-1, dm, dm, da, da).transpose(0, 3, 1, 2, 4)  # (i, u, v, m)

    worst = worst_relative(order ** 3, (da * dm) ** 2, left_linear)
    rep.add("[ax, y] = a[x,y]", worst <= 1e-8, worst)

    # left positivity and definiteness via the fiber Grams
    unit = grp.identity
    diag = linner[np.arange(order), np.arange(order), :, :, :a_bundle.dims[unit]]
    ok_pos, worst = block_grams_psd(diag, a_bundle.fibers[unit], tol)
    rep.add("left fiber Grams PSD", ok_pos, worst)

    # compatibility [x, y] z = x <y, z>, both sides indexed
    # [u, v, out-component, z-coordinate]
    def compatible(idx):
        r, s, tt = np.unravel_index(idx, (order,) * 3)
        lhs = linner[r, s].reshape(-1, dm * dm, da) @ lact[div[r, s], tt].reshape(-1, da, dm * dm)
        rhs = inner[s, tt].reshape(-1, dm * dm, db) \
            @ act[r, tab[inv[s], tt]].reshape(-1, db, dm * dm)  # (v, z, w, u)
        return lhs, rhs.reshape(-1, dm, dm, dm, dm).transpose(0, 4, 1, 3, 2)

    worst = worst_relative(order ** 3, dm ** 4, compatible)
    rep.add("[x,y]z = x<y,z>", worst <= 1e-8, worst)

    # fullness on both sides: the rows pairing into each fiber span it; the
    # residual is the worst relative rank shortfall (numerics.rank_check)
    def fullness(dims, blocks):
        checks = [rank_check(np.concatenate([blk.reshape(-1, dk) for blk in blocks(k)]), dk, tol)
                  for k, dk in enumerate(dims) if dk]
        return all(ok for ok, _ in checks), max((res for _, res in checks), default=0.0)

    rep.add("right fullness", *fullness(
        hb.bundle.dims, lambda k: [hb.inner[s][grp.mul(s, k)] for s in grp.elements()]))
    rep.add("left fullness", *fullness(
        a_bundle.dims, lambda k: [e.linner[grp.mul(k, s)][s] for s in grp.elements()]))

    # section-level identity and norm equality
    y = Correspondence(hb, action=e.left_action())
    rng = np.random.default_rng(seed)
    worst_id, worst_norm = 0.0, 0.0
    for _ in range(checks):
        xi, eta, zeta = y.random(rng), y.random(rng), y.random(rng)
        lhs = y.left_mul(left_inner_section(e, y, xi, eta), zeta)
        rhs = y.right_mul(xi, y.inner(eta, zeta))
        worst_id = max(worst_id, relative(float(np.linalg.norm(lhs - rhs)),
                                      float(np.linalg.norm(lhs))))
        na = cstar_norm(left_inner_section(e, y, xi, xi))
        nb = cstar_norm(y.inner(xi, xi))
        worst_norm = max(worst_norm, relative(abs(na - nb), max(na, nb)))
    rep.add("imprimitivity identity on sections", worst_id <= 1e-8, worst_id)
    rep.add("norm equality of the two inner products", worst_norm <= 1e-8, worst_norm)
    return rep
