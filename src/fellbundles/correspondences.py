"""Crossed-product modules over cross-sectional algebras.

The section space of a Hilbert bundle carries a convolution-style right
action of the target's section algebra and an algebra-valued inner
product; attaching a left action of another bundle turns it into a
correspondence between the two cross-sectional C*-algebras.  Norms are
operator norms of the ambient image sum_g <xi, xi>(g) of the
algebra-valued Gram (exact at finite dimension when the fiber sum is
direct; Correspondence refuses other bundles by crosssec.require_direct,
the rule of crosssec.ambient_image).  Module vectors are coordinatized on
the direct sum of the fibers.

build_module and attach_left_action judge their inputs with the fiberwise
batteries, hilbundles.validate_hilbert_bundle and actions.validate_action,
and raise on the first failing item.  The section-level identities follow
from the fiberwise ones by linearity, and the bound ||f . xi|| <=
||f|| ||xi|| from multiplicativity and adjointability, as for any
*-homomorphism into adjointable operators.  verify_imprimitivity judges
the fiberwise identities and one section-level identity.  The two induced
norms agree in every imprimitivity bimodule (Raeburn and Williams, Morita
Equivalence and Continuous-Trace C*-Algebras, 1998, ch. 3), so their
equality is not re-checked.  The imprimitivity identity on sections is the
fiberwise compatibility [x,y]z = x<y,z> summed over the group, but is kept:
within a factor of three of the identity bound, one perturbed act or lact
block can break it while every fiberwise identity passes.  It and
`amplified_is_star_rep` draw their sections from one fixed seed.

Because the groups here are finite, the full and reduced module
completions coincide, so the delicate extension questions for the reduced
left action trivialize; the cyclicity criterion and the generated
subcorrespondence are still implemented since they carry the construction.

The module arithmetic reads the stored padded arrays of the Hilbert bundle
and the action (act_array, inner_array and ops_array, indexed by group
elements and zero-padded to the largest fiber dimensions): a vector is a
(|G|, dm) array of fiber components, a section is read and built as its
padded coefficient array (Section.coeff_array), and each of right_mul,
inner and left_mul is one batched matmul over all pairs of group elements
plus one gather through the Cayley table; right_mul and left_mul share that
kernel with crosssec.convolve (crosssec._diagonal_sum).  The left action of
a section is block-monomial on the section space (row fiber r reads column
fiber phi(g)^-1 r), so the amplification lambda_g (x) pi_g(a) is never
formed densely: its residuals are sums over the |G| disjoint supports of
the lambda_k (see amplified_is_star_rep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import Action, WrongFiberError, compress_action, left_multiplication, \
    validate_action
from .bundles import FellBundle, bundles_equal
from .crosssec import Section, _diagonal_sum, convolve, cstar_norm, require_direct, star
from .groups import identity_hom
from .hilbundles import SemiInnerBundle, ShapeMismatchError, block_grams_psd, check_shapes, \
    compress_bundle, trace_localize, trivial_hilbert_bundle, validate_hilbert_bundle
from .numerics import DEFAULT_TOL, Tolerance, chunks, direct_sum_slots, identity_bound, \
    orthonormal_basis, padded, product_bound, rank_check, relative, stored, worst_relative
from .reports import Report

STAR_REP_CHECKS = 5  # the pairs of random sections amplified_is_star_rep draws
IMPRIMITIVITY_CHECKS = 6  # the triples of random sections verify_imprimitivity draws

class InvalidBundleError(ValueError):
    pass


class ActionMismatchError(ValueError):
    pass


class Correspondence:
    """Section space of a Hilbert bundle as a right module over the section
    algebra of its target bundle, with an optional left bundle action."""

    def __init__(self, hbundle: SemiInnerBundle, action: Action | None = None):
        # norm is the ambient C*-norm: both bundles need a direct fiber sum
        require_direct(hbundle.bundle)
        if action is not None:
            require_direct(action.source)
        self.hbundle = hbundle
        self.bundle = hbundle.bundle
        self.offsets = np.concatenate([[0], np.cumsum(hbundle.dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self.action = action
        # coordinate j of a vector is component _slots[1][j] of fiber _slots[0][j]
        self._slots = direct_sum_slots(hbundle.dims)

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

    # -- module structure ----------------------------------------------------

    def right_mul(self, xi, f: Section) -> np.ndarray:
        """(xi . f)(h) = sum_k xi(k) f(k^-1 h)."""
        if f.bundle is not self.bundle:
            raise ActionMismatchError("section does not live over the module's target bundle")
        grp = self.bundle.group
        # pair xi(k) f(q) in X_{kq}, then sum over k at q = k^-1 h
        return self._flat(_diagonal_sum(self.hbundle.act_array, self.blocks(xi)[:, None],
                                        f.coeff_array[None], grp.table[grp.inverse]))

    def inner(self, xi, eta) -> Section:
        """<xi, eta>(h) = sum_k <xi(k), eta(k h)>, a section of the target."""
        grp = self.bundle.group
        # w[k, s] = <xi(k), eta(s)> in B_{k^-1 s}
        w = _pairings(self.hbundle.inner_array, self.blocks(xi).conj(), self.blocks(eta))
        return Section(self.bundle, w[np.arange(grp.order)[:, None], grp.table].sum(axis=0))

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
        # pair rho(f(g)) xi(h) in X_{phi(g)h}, then sum over g at h = phi(g)^-1 r
        return self._flat(_diagonal_sum(self.action.ops_array, self.blocks(xi)[None],
                                        f.coeff_array[:, None], _sources(self)))


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


def build_module(hbundle: SemiInnerBundle, tol: Tolerance | None = None) -> Correspondence:
    """Wrap a Hilbert bundle's section space as a right module.  The module
    identities follow fiberwise from validate_hilbert_bundle, whose first
    failing item raises InvalidBundleError."""
    y = Correspondence(hbundle)
    validate_hilbert_bundle(hbundle, tol).refuse(InvalidBundleError, "module")
    return y


def attach_left_action(y: Correspondence, rho: Action, tol: Tolerance | None = None) \
        -> Correspondence:
    """Attach a left action of another bundle.  Adjointability, commutation
    with the right action and the C*-norm bound on sections follow from the
    fiberwise identities of validate_action, whose first failing item raises
    ActionMismatchError."""
    if rho.target is not y.hbundle:
        same = (bundles_equal(rho.target.bundle, y.bundle)
                and rho.target.dims == y.hbundle.dims)
        if not same:
            raise ActionMismatchError("action acts on a different Hilbert bundle")
    out = Correspondence(y.hbundle, action=rho)
    validate_action(rho, tol).refuse(ActionMismatchError, "left action")
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


def _generating_vectors(y: Correspondence, x):
    """For each fiber k in turn, the vectors (rho(a) w) b in X_k over all
    (g, h) with phi(g) h = k, a over the basis of A_g, w over the seeds (x,
    or the standard basis of X_e) and b over the basis of B_h, as the rows of
    one array in the order (g, a, w, b).

    rho(a) w is one batched matmul over (g, a) for every fiber; each fiber
    then gathers the blocks of B_h on X_phi(g) and applies them in one more."""
    y._need_action()
    rho, hb, grp = y.action, y.hbundle, y.bundle.group
    e = grp.identity
    ops, act = rho.ops_array, hb.act_array
    na, da, dm = ops.shape[0], ops.shape[2], ops.shape[-1]
    db = act.shape[2]
    seeds = np.eye(hb.dims[e], dm, dtype=np.complex128) if x is None \
        else padded([[x]], (dm,))[0]
    # mid[g, i, s] = rho(a_i^g) w_s in X_phi(g)
    mid = (ops[:, e] @ seeds.T).swapaxes(-1, -2).reshape(na, da * len(seeds), dm)
    phi, sources = rho.hom.map, _sources(y)
    live_a = np.arange(da) < np.asarray(rho.source.dims)[:, None]
    for k in grp.elements():
        h = sources[:, k]
        blocks = act[phi, h].reshape(na, db * dm, dm)
        vecs = (mid @ blocks.swapaxes(-1, -2)).reshape(na, da, len(seeds), db, dm)
        live_b = np.arange(db) < np.asarray(y.bundle.dims)[h][:, None]
        live = live_a[:, :, None, None] & live_b[:, None, None, :]
        yield vecs[np.broadcast_to(live, vecs.shape[:4])][:, :hb.dims[k]]


def _span_fills_fibers(y: Correspondence, x, tol: Tolerance | None) -> bool:
    tol = tol or DEFAULT_TOL
    return all(rank_check(vecs, mk, tol)[0]
               for mk, vecs in zip(y.hbundle.dims, _generating_vectors(y, x)) if mk)


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
    # the columns of basis[k] span S_k
    basis = [orthonormal_basis(vecs, tol).T for vecs in _generating_vectors(y, x)]
    sub_h = compress_bundle(y.hbundle, basis)
    _check_invariant(y, basis, tol)
    return Correspondence(sub_h, action=compress_action(y.action, basis, sub_h))


def _check_invariant(y: Correspondence, basis, tol: Tolerance | None = None) -> None:
    """Both actions must keep the fiber spans of the orthonormal columns of
    basis[k] (raises InvalidBundleError): the part of op_i K_src outside the
    span of K_dst, relative to max(1, ||op_i K_src||_F), over every operator
    op_i = ops[a, b, i] of a family from fiber src[a, b] into dst[a, b]."""
    tab, phi = y.bundle.group.table, y.action.hom.map
    dm = y.hbundle.act_array.shape[-1]
    bases = padded([basis], (dm, max((k.shape[1] for k in basis), default=0)))[0]
    fibers = np.arange(len(tab))

    def escape(ops, src, dst) -> float:
        items = ops.shape[:3]
        src, dst = np.broadcast_to(src, items[:2]), np.broadcast_to(dst, items[:2])

        def sides(t):
            a, b, i = np.unravel_index(t, items)
            img, kd = ops[a, b, i] @ bases[src[a, b]], bases[dst[a, b]]
            return img, kd @ (kd.conj().swapaxes(-1, -2) @ img)
        return worst_relative(int(np.prod(items)), dm * (dm + 4 * bases.shape[-1]), sides)

    bound = product_bound(tol or DEFAULT_TOL)
    if escape(y.hbundle.act_array, fibers[:, None], tab) > bound:
        raise InvalidBundleError("span is not right-invariant")
    if escape(y.action.ops_array, fibers, tab[phi]) > bound:
        raise InvalidBundleError("span is not left-invariant")


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
        self._gen = y.action.ops_array[np.arange(self.group.order)[:, None], _sources(y)]

    def blocks(self, f: Section) -> np.ndarray:
        """pi_g(f(g)) for every g: shape (|G_A|, |G_B|, dm, dm)."""
        if f.bundle is not self.src:
            raise ActionMismatchError("section does not live over the source bundle")
        ga, gb, da, dm = self._gen.shape[:4]
        return (f.coeff_array[:, None, None, :] @ self._gen.reshape(ga, gb, da, dm * dm)).reshape(
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


def amplified_is_star_rep(amp: AmplifiedCorrespondence,
                          tol: Tolerance | None = None) -> StarRepCheck:
    """Multiplicativity as matrices plus adjointability against the
    localized Gram kron(1, G0) of the amplified module, G0 the block-diagonal
    matrix of the fiber trace Grams, on STAR_REP_CHECKS pairs of sections from seed 0.

    Each defect is a sum over k of lambda_k (x) D_k, and the lambda_k have
    disjoint supports with |G| ones each, so its Frobenius norm is
    sqrt(|G| sum_k ||D_k||^2); D_k is block-monomial, with blocks

      multiplicativity  sum_g B1_g[r] B2_{g^-1 k}[phi(g)^-1 r] - B_{f1*f2}(k)[r]
      adjointability    B1_{k^-1}[phi(k)^-1 s]^* G0[phi(k)^-1 s] - G0[s] B_{f1*}(k)[s]

    in the layout of AmplifiedCorrespondence.blocks.  Each residual is
    measured against max(1, ||.||_F) of the product and of the localized
    Gram, as in the dense matrices, and judged at `numerics.identity_bound`."""
    y = amp.base
    grp, tgt = amp.group, y.bundle.group
    ga, gb = grp.order, tgt.order
    inv = grp.inverse
    div = grp.table[inv]  # div[g, k] = g^-1 k
    src = _sources(y)
    dm = amp._gen.shape[-1]
    # the fiber trace Grams, zero-padded to (|G_B|, dm, dm)
    diag = np.arange(gb)
    gram = trace_localize(y.bundle, y.hbundle.inner_array[
        diag, diag, :, :, :y.bundle.dims[tgt.identity]])
    gram_scale = max(1.0, np.sqrt(ga * _sum_sq(gram)))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(STAR_REP_CHECKS):
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
    bound = identity_bound(tol or DEFAULT_TOL)
    return StarRepCheck(bool(worst <= bound), float(worst), bound)


def _sum_sq(a) -> float:
    """Squared Frobenius norm of an array of any shape."""
    return float(np.vdot(a, a).real)


def _chunked_sum_sq(count: int, entries: int, defect) -> float:
    """Sum over items t < count of the squared Frobenius norm of defect_t,
    where defect(idx) stacks the items idx of one chunk."""
    return sum(_sum_sq(defect(idx)) for idx in chunks(count, entries))


# -- imprimitivity -----------------------------------------------------------

class EquivalenceBundle:
    """Two-sided equivalence data over one group: a right Hilbert bundle over
    the right-hand bundle, plus a left action and a left-hand-valued inner
    product [x, y] in A_{r s^-1} (linear in the first slot).

    lact[g][r] has shape (dim A_g, m_{gr}, m_r) and linner[r][s] shape
    (m_r, m_s, dim A_{r s^-1}).  Both are stored as read-only zero-padded
    arrays, lact_array (the ops_array of the left action, built once) and
    linner_array (|G|, |G|, dm, dm, da); lact and linner are tuples of
    views of their blocks."""

    def __init__(self, left_bundle: FellBundle, right: SemiInnerBundle, lact, linner):
        grp = left_bundle.group
        if grp != right.bundle.group:
            raise ShapeMismatchError("the left and right bundles must share one group")
        dims, size = right.dims, (grp.order, grp.order)
        check_shapes(lact, size, lambda g, r: (
            left_bundle.dims[g], dims[grp.mul(g, r)], dims[r]), "lact")
        check_shapes(linner, size, lambda r, s: (
            dims[r], dims[s], left_bundle.dims[grp.mul(r, grp.inv(s))]), "linner")
        self.left_bundle = left_bundle
        self.right = right
        self._action = Action(left_bundle, identity_hom(grp), right, lact)
        self.lact_array, self.lact = self._action.ops_array, self._action.ops
        dm = max(dims, default=0)
        self.linner_array, self.linner = stored(
            linner, (dm, dm, max(left_bundle.dims, default=0)))

    def left_inner_coords(self, r: int, x, s: int, y) -> np.ndarray:
        return np.einsum("u,uvk,v->k", np.asarray(x), self.linner[r][s],
                         np.conj(np.asarray(y)))

    def left_action(self) -> Action:
        """The left action on the right Hilbert bundle, built once."""
        return self._action


def trivial_self_equivalence(bundle: FellBundle) -> EquivalenceBundle:
    """A unital bundle as an equivalence between itself and itself:
    [x, y] = x y* on the left, <x, y> = x* y on the right."""
    grp = bundle.group
    linner = [[np.einsum("vw,uwk->uvk", bundle.star_tensor[s],
                         bundle.prod[r][grp.inv(s)])
               for s in grp.elements()] for r in grp.elements()]
    return EquivalenceBundle(bundle, trivial_hilbert_bundle(bundle), left_multiplication(bundle),
                             linner)


def left_inner_section(e: EquivalenceBundle, y: Correspondence, xi, eta) -> Section:
    """[xi, eta](h) = sum_k [xi(h k), eta(k)], a section of the left bundle."""
    grp = e.left_bundle.group
    # w[r, s] = [xi(r), eta(s)] in A_{r s^-1}
    w = _pairings(e.linner_array, y.blocks(xi), y.blocks(eta).conj())
    return Section(e.left_bundle, w[grp.table, np.arange(grp.order)].sum(axis=1))


def verify_imprimitivity(e: EquivalenceBundle, tol: Tolerance | None = None) -> Report:
    """Full two-sided verification: both module structures, the compatibility
    identity, fullness on both sides and the section-level imprimitivity
    identity."""
    tol = tol or DEFAULT_TOL
    bound = identity_bound(tol)
    rep = Report("imprimitivity bimodule")
    grp = e.left_bundle.group
    a_bundle = e.left_bundle
    hb = e.right

    right_rep = validate_hilbert_bundle(hb, tol)
    rep.add("right Hilbert bundle axioms", right_rep.ok, right_rep.worst)

    act_rep = validate_action(e.left_action(), tol)
    rep.add("left action axioms", act_rep.ok, act_rep.worst)

    # the left structure through the stored padded arrays
    order, tab, inv = grp.order, grp.table, grp.inverse
    prod_a, star_a = a_bundle.prod_array, a_bundle.star_array
    act, inner, lact, linner = hb.act_array, hb.inner_array, e.lact_array, e.linner_array
    da, db, dm = star_a.shape[-1], act.shape[2], act.shape[-1]
    div = tab[:, inv]  # div[r, s] = r s^-1

    # left inner product: hermitian symmetry and left-linearity
    def symmetric(idx):
        r, s = np.unravel_index(idx, (order, order))
        starred = linner[r, s].conj().reshape(-1, dm * dm, da) @ star_a[div[r, s]]
        return linner[s, r].transpose(0, 2, 1, 3), starred

    worst = worst_relative(order ** 2, dm * dm * da, symmetric)
    rep.add("[x,y]* = [y,x]", worst <= bound, worst)

    def left_linear(idx):
        g, r, s = np.unravel_index(idx, (order,) * 3)
        lhs = lact[g, r].transpose(0, 1, 3, 2) @ linner[tab[g, r], s].reshape(-1, 1, dm, dm * da)
        rhs = linner[r, s].reshape(-1, dm * dm, da) \
            @ prod_a[g, div[r, s]].transpose(0, 2, 1, 3).reshape(-1, da, da * da)
        return lhs, rhs.reshape(-1, dm, dm, da, da).transpose(0, 3, 1, 2, 4)  # (i, u, v, m)

    worst = worst_relative(order ** 3, (da * dm) ** 2, left_linear)
    rep.add("[ax, y] = a[x,y]", worst <= bound, worst)

    # left positivity and definiteness via the fiber Grams
    unit = grp.identity
    diag = linner[np.arange(order), np.arange(order), :, :, :a_bundle.dims[unit]]
    ok_pos, worst = block_grams_psd(diag, a_bundle.fibers[unit], a_bundle.unit_blocks, tol)
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
    rep.add("[x,y]z = x<y,z>", worst <= bound, worst)

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

    # section-level identity, on sections drawn from one fixed seed
    y = Correspondence(hb, action=e.left_action())
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(IMPRIMITIVITY_CHECKS):
        xi, eta, zeta = y.random(rng), y.random(rng), y.random(rng)
        lhs = y.left_mul(left_inner_section(e, y, xi, eta), zeta)
        rhs = y.right_mul(xi, y.inner(eta, zeta))
        worst = max(worst, relative(float(np.linalg.norm(lhs - rhs)), float(np.linalg.norm(lhs))))
    rep.add("imprimitivity identity on sections", worst <= bound, worst)
    return rep
