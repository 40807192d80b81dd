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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import Action, WrongFiberError, compress_action, trivial_action
from .bundles import FellBundle, bundles_equal, padded_structure, regular_unitary
from .crosssec import Section, ambient_image, convolve, cstar_norm, star
from .hilbundles import SemiInnerBundle, block_grams_psd, compress_bundle, padded_module
from .numerics import DEFAULT_TOL, Tolerance, dagger, definite_check, frob, numerical_rank, \
    orthonormal_basis, padded, psd_check, relative, worst_relative
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
        grp = self.bundle.group
        self.offsets = np.concatenate([[0], np.cumsum(hbundle.dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self.action = action

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

    # -- module structure ----------------------------------------------------

    def right_mul(self, xi, f: Section) -> np.ndarray:
        """(xi . f)(h) = sum_k xi(k) f(k^-1 h)."""
        grp = self.bundle.group
        out = np.zeros(self.dim, dtype=np.complex128)
        for h in grp.elements():
            acc = out[self.offsets[h]:self.offsets[h + 1]]
            for k in grp.elements():
                c = f.coeffs[grp.mul(grp.inv(k), h)]
                if not np.any(c):
                    continue
                acc += self.hbundle.act_matrix(k, grp.mul(grp.inv(k), h), c) \
                    @ self.component(xi, k)
        return out

    def inner(self, xi, eta) -> Section:
        """<xi, eta>(h) = sum_k <xi(k), eta(k h)>, a section of the target."""
        grp = self.bundle.group
        out = Section.zero(self.bundle)
        for h in grp.elements():
            acc = out.coeffs[h]
            for k in grp.elements():
                kh = grp.mul(k, h)
                acc += self.hbundle.inner_coords(
                    k, self.component(xi, k), kh, self.component(eta, kh))
        return out

    def norm(self, xi) -> float:
        return float(np.sqrt(max(cstar_norm(self.inner(xi, xi)), 0.0)))

    def localized_gram(self) -> np.ndarray:
        """Block-diagonal trace Grams: the scalar product tau(<xi, eta>(e))."""
        blocks = [self.hbundle.trace_gram(r) for r in self.bundle.group.elements()]
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for r, blk in enumerate(blocks):
            o = self.offsets[r]
            out[o:o + blk.shape[0], o:o + blk.shape[1]] = blk
        return out

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
        src = self.action.source
        if f.bundle is not src:
            raise ActionMismatchError("section does not live over the acting bundle")
        grp = self.bundle.group
        out = np.zeros(self.dim, dtype=np.complex128)
        for g in src.group.elements():
            c = f.coeffs[g]
            if not np.any(c):
                continue
            phi_g = self.action.hom(g)
            for h in grp.elements():
                pos = grp.mul(phi_g, h)
                out[self.offsets[pos]:self.offsets[pos + 1]] += \
                    self.action.op_matrix(g, c, h) @ self.component(xi, h)
        return out


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
    if not definite_check(y.localized_gram(), tol).ok:
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
        return np.kron(np.eye(self.group.order), self.base.localized_gram())


def amplified_correspondence(y: Correspondence) -> AmplifiedCorrespondence:
    return AmplifiedCorrespondence(y)


def amplified_is_star_rep(amp: AmplifiedCorrespondence, seed: int = 0,
                          checks: int = 5) -> bool:
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
    out = Section.zero(e.left_bundle)
    for h in grp.elements():
        acc = out.coeffs[h]
        for k in grp.elements():
            hk = grp.mul(h, k)
            acc += e.left_inner_coords(hk, y.component(xi, hk), k, y.component(eta, k))
    return out


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

    # fullness on both sides
    def full_right():
        for k in grp.elements():
            dk = hb.bundle.dims[k]
            if dk == 0:
                continue
            rows = []
            for s in grp.elements():
                tt = grp.mul(s, k)
                rows.extend(hb.inner[s][tt].reshape(-1, dk))
            if numerical_rank(np.array(rows), tol) < dk:
                return False
        return True

    def full_left():
        for k in grp.elements():
            dk = a_bundle.dims[k]
            if dk == 0:
                continue
            rows = []
            for s in grp.elements():
                r = grp.mul(k, s)
                rows.extend(e.linner[r][s].reshape(-1, dk))
            if numerical_rank(np.array(rows), tol) < dk:
                return False
        return True

    rep.add("right fullness", full_right(), 0.0)
    rep.add("left fullness", full_left(), 0.0)

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
