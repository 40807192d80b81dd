"""Fibered right modules over a bundle, with bundle-valued inner products.

A (semi-)inner-product bundle over a Fell bundle B = (B_h) stores, per
fiber index r, an abstract coordinate space C^{m_r} together with two
tensor families:

  act[r][h]   : (d_h, m_rh, m_r)   right action of each basis element of B_h
  inner[r][s] : (m_r, m_s, d_{r^-1 s})   inner products in fiber coordinates

All module axioms then become finite tensor identities, checked with
relative residuals.  Fiber norms use ||x|| = ||<x,x>||^(1/2) with the
ambient operator norm, so the norm axiom holds by construction and the
validator tests definiteness instead.  Completion is vacuous at finite
dimension.  Cross-fiber inner products are required input: they are not
reconstructed from unit-fiber data.

The validator reads the nested lists through a padded graded layout,
built afresh by every call (the lists stay the stored form and may be
edited in place): act, inner and the bundle's prod, star_tensor and fiber
bases become single arrays indexed by group elements, each block
zero-padded to the largest bundle fiber dimension db and module fiber
dimension dm (`padded_module`, `bundles.padded_structure`).  A tensor
identity over all tuples (r, s, h) is then one gather through grp.table
and grp.inverse plus one batched matmul, and the random-data inequalities
draw their vectors in the order of the per-tuple loop, then evaluate them
together.  Batches are chunked so their intermediates stay near
numerics.CHUNK_BYTES (4 MiB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import FellBundle, crossed_embed, dynamical_bundle, padded_structure
from .numerics import DEFAULT_TOL, Tolerance, chunks, definite_check, frob, hermitian_defect, \
    hermitian_psd_check, hermitian_psd_checks, opnorm, opnorms, padded, relative, \
    shortfall, split_draws, worst_relative
from .reports import Report


class InvariantViolationError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


class NotModuleError(ValueError):
    pass


class SemiInnerBundle:
    """Semi-inner-product bundle: all Hilbert-bundle data, definiteness not
    promised.  separate() quotients it to an honest Hilbert bundle."""

    def __init__(self, bundle: FellBundle, dims, act, inner):
        self.bundle = bundle
        self.dims = [int(d) for d in dims]
        grp = bundle.group
        if len(self.dims) != grp.order:
            raise ShapeMismatchError("need one fiber dimension per group element")
        self.act = act
        self.inner = inner
        for r in grp.elements():
            for h in grp.elements():
                want = (bundle.dims[h], self.dims[grp.mul(r, h)], self.dims[r])
                if act[r][h].shape != want:
                    raise ShapeMismatchError(f"act[{r}][{h}] must have shape {want}")
            for s in grp.elements():
                k = grp.mul(grp.inv(r), s)
                want = (self.dims[r], self.dims[s], bundle.dims[k])
                if inner[r][s].shape != want:
                    raise ShapeMismatchError(f"inner[{r}][{s}] must have shape {want}")

    # -- elementwise operations -------------------------------------------

    def inner_coords(self, r: int, x, s: int, y) -> np.ndarray:
        """<x, y> for x in X_r, y in X_s, as coordinates in B_{r^-1 s}."""
        return np.einsum("u,uvk,v->k", np.conj(x), self.inner[r][s], np.asarray(y))

    def inner_ambient(self, r: int, x, s: int, y) -> np.ndarray:
        k = self.bundle.group.mul(self.bundle.group.inv(r), s)
        return self.bundle.element(k, self.inner_coords(r, x, s, y))

    def act_matrix(self, r: int, h: int, bcoords) -> np.ndarray:
        """Matrix of x -> x.b from X_r to X_rh for b = element(h, bcoords)."""
        return np.einsum("i,iuv->uv", np.asarray(bcoords), self.act[r][h])

    def trace_gram(self, r: int) -> np.ndarray:
        """Fiber Gram localized at the ambient trace (faithful, so its null
        space equals the null space of the module inner product)."""
        return trace_localize(self.bundle, self.inner[r][r])

    def norm(self, r: int, x) -> float:
        val = self.inner_ambient(r, x, r, x)
        return float(np.sqrt(max(opnorm(val), 0.0)))

    def random_vector(self, r: int, rng) -> np.ndarray:
        return rng.standard_normal(self.dims[r]) + 1j * rng.standard_normal(self.dims[r])


class HilbertBundle(SemiInnerBundle):
    """Semi-inner bundle whose fiber inner products are definite."""


def trace_localize(bundle: FellBundle, tens) -> np.ndarray:
    """Inner products tens (m, m', d_e) in unit-fiber coordinates, localized
    at the ambient trace: (m, m')."""
    traces = np.array([np.trace(b) for b in bundle.fibers[bundle.group.identity]])
    return np.einsum("uvk,k->uv", tens, traces)


def padded_module(x: SemiInnerBundle):
    """(act, inner) of x as zero-padded arrays: act[r, h] of shape
    (db, dm, dm) and inner[r, s] of shape (dm, dm, db)."""
    db, dm = max(x.bundle.dims, default=0), max(x.dims, default=0)
    return padded(x.act, (db, dm, dm)), padded(x.inner, (dm, dm, db))


def ambient_inners(inner, fibers, quot, r, u, s, v) -> np.ndarray:
    """Ambient values of <u_t, v_t> for padded vectors u_t in X_{r_t} and
    v_t in X_{s_t}, from the padded inner products and fiber bases
    (quot[r, s] = r^-1 s): shape (T, n, n)."""
    coords = (inner[r, s].transpose(0, 3, 1, 2) @ v[:, None, :, None])[..., 0] \
        @ u.conj()[:, :, None]  # (T, db, 1)
    n = fibers.shape[-1]
    return (coords.transpose(0, 2, 1) @ fibers[quot[r, s]].reshape(len(r), -1, n * n)) \
        .reshape(len(r), n, n)


def block_grams_psd(diag, basis, tol: Tolerance) -> tuple[bool, float]:
    """hermitian_psd_check of the ambient block Grams [ element(e, diag[r, u, v]) ]_uv
    of every fiber r, with basis the (d_e, n, n) unit-fiber basis: (all ok,
    worst residual).  Zero padding of a Gram adds zero eigenvalues only, so
    it changes neither verdict nor residual."""
    count, m = diag.shape[:2]
    n = basis.shape[-1]
    ok, worst = True, 0.0
    for idx in chunks(count, (m * n) ** 2):
        grams = (diag[idx] @ basis.reshape(len(basis), n * n)).reshape(len(idx), m, m, n, n)
        grams = grams.transpose(0, 1, 3, 2, 4).reshape(len(idx), m * n, m * n)
        good, residual, _ = hermitian_psd_checks(grams, tol)
        ok = ok and bool(good.all())
        worst = max(worst, float(residual.max(initial=0.0)))
    return ok, worst


def _validate(x: SemiInnerBundle, tol: Tolerance, definite: bool, subject: str) -> Report:
    bundle = x.bundle
    grp = bundle.group
    order, tab, inv = grp.order, grp.table, grp.inverse
    quot = tab[inv]  # quot[r, s] = r^-1 s
    prod, star, fibers = padded_structure(bundle)
    act, inner = padded_module(x)
    db, dm, n = fibers.shape[1], act.shape[-1], bundle.ambient_dim
    rep = Report(subject)

    def tuples(idx, k):
        return np.unravel_index(idx, (order,) * k)

    # (1)+(d): action composes with the bundle product, (xb)c = x(bc)
    def composition(idx):
        r, h, h2 = tuples(idx, 3)
        comp = act[tab[r, h], h2][:, None] @ act[r, h][:, :, None]  # (i, j, a, c)
        via = prod[h, h2].reshape(-1, db * db, db) @ act[r, tab[h, h2]].reshape(-1, db, dm * dm)
        return comp, via

    worst = worst_relative(order ** 3, (db * dm) ** 2, composition)
    rep.add("(xb)c = x(bc)", worst <= 1e-8, worst)

    # (3) first part: <x, yb> = <x,y> b
    def right_linear(idx):
        r, s, h = tuples(idx, 3)
        lhs = inner[r, tab[s, h]].transpose(0, 1, 3, 2).reshape(-1, 1, dm * db, dm) @ act[s, h]
        rhs = inner[r, s].reshape(-1, dm * dm, db) @ prod[quot[r, s], h].reshape(-1, db, db * db)
        # lhs is (i, (u, k), v): bring rhs, ((u, v), (i, k)), to that order
        return lhs, rhs.reshape(-1, dm, dm, db, db).transpose(0, 3, 1, 4, 2)

    worst = worst_relative(order ** 3, (db * dm) ** 2, right_linear)
    rep.add("<x, yb> = <x,y>b", worst <= 1e-8, worst)

    # (3) second part: <x,y>* = <y,x>
    def symmetric(idx):
        r, s = tuples(idx, 2)
        starred = inner[r, s].conj().reshape(-1, dm * dm, db) @ star[quot[r, s]]
        return inner[s, r].transpose(0, 2, 1, 3), starred

    worst = worst_relative(order ** 2, dm * dm * db, symmetric)
    rep.add("<x,y>* = <y,x>", worst <= 1e-8, worst)

    # derived (a): <xb, y> = b* <x,y>; sp[h, q] holds the coordinates of
    # b_i^{h*} c_k for c_k in A_q, in A_{h^-1 q}
    sp = (star[:, None] @ prod[inv].reshape(order, order, db, db * db)).reshape(
        order, order, db, db, db)

    def left_adjoint(idx):
        r, s, h = tuples(idx, 3)
        lhs = act[r, h].conj().transpose(0, 1, 3, 2) \
            @ inner[tab[r, h], s].reshape(-1, 1, dm, dm * db)
        rhs = inner[r, s].reshape(-1, dm * dm, db) \
            @ sp[h, quot[r, s]].transpose(0, 2, 1, 3).reshape(-1, db, db * db)
        return lhs, rhs.reshape(-1, dm, dm, db, db).transpose(0, 3, 1, 2, 4)

    worst = worst_relative(order ** 3, (db * dm) ** 2, left_adjoint)
    rep.add("<xb, y> = b*<x,y>", worst <= 1e-8, worst)

    # (4) positivity of each fiber Gram, in block form
    e = grp.identity
    diag = inner[np.arange(order), np.arange(order), :, :, :bundle.dims[e]]
    ok_pos, worst = block_grams_psd(diag, bundle.fibers[e], tol)
    rep.add("fiber Grams PSD", ok_pos, worst)

    # definiteness: localized Gram of each fiber has full rank; the residual
    # is the worst shortfall of a smallest eigenvalue below its bound,
    # relative to the bound (1 for a singular Gram; an empty Gram is definite
    # and falls short of nothing)
    if definite:
        grams = [definite_check(x.trace_gram(r), tol) for r in grp.elements()]
        rep.add("definiteness (localized Grams full rank)", all(c.ok for c in grams),
                max((shortfall(c.margin, c.scale, tol.rel_rank) for c in grams if not c.ok),
                    default=0.0))

    # derived (b) and (c): ||xb|| <= ||x|| ||b||, Cauchy-Schwarz, random data:
    # three draws (u in X_r, v in X_s, b in B_s) per pair (r, s) of nonzero
    # fibers, in loop order, decoded from one draw
    dims, bdims = np.asarray(x.dims), np.asarray(bundle.dims)
    r, s = np.indices((order, order)).reshape(2, -1)
    keep = (dims[r] > 0) & (dims[s] > 0)
    r, s = np.repeat(r[keep], 3), np.repeat(s[keep], 3)
    lengths = np.stack([dims[r], dims[s], bdims[s]], axis=1).ravel()
    z = np.random.default_rng(0).standard_normal(2 * int(lengths.sum()))
    draws = split_draws(z, lengths, max(dm, db)).reshape(len(r), 3, -1)
    worst_b = worst_c = 0.0
    # per tuple: five ambient n x n values and five gathered (dm, dm, db) blocks
    for idx in chunks(len(r), 5 * (n * n + dm * dm * db)):
        ri, si, u, v, b = r[idx], s[idx], draws[idx, 0, :dm], draws[idx, 1, :dm], draws[idx, 2, :db]
        xb = ((b[:, None] @ act[ri, si].reshape(-1, db, dm * dm)).reshape(-1, dm, dm)
              @ u[:, :, None])[..., 0]
        rs = tab[ri, si]
        stack = np.concatenate([
            ambient_inners(inner, fibers, quot, ri, u, ri, u),
            ambient_inners(inner, fibers, quot, si, v, si, v),
            ambient_inners(inner, fibers, quot, ri, u, si, v),
            (b[:, None] @ fibers[si].reshape(-1, db, n * n)).reshape(-1, n, n),
            ambient_inners(inner, fibers, quot, rs, xb, rs, xb),
        ])
        nuu, nvv, nuv, nb, nxbxb = opnorms(stack).reshape(5, -1)
        nu, nv, nxb = np.sqrt(nuu), np.sqrt(nvv), np.sqrt(nxbxb)
        cs = (nuv - nu * nv) / np.maximum(nu * nv, 1.0)
        slack = (nxb - nu * nb) / np.maximum(nu * nb, 1.0)
        worst_c = max(worst_c, float(cs.max(initial=0.0)))
        worst_b = max(worst_b, float(slack[bdims[si] > 0].max(initial=0.0)))
    rep.add("||xb|| <= ||x|| ||b||", worst_b <= 1e-8, worst_b)
    rep.add("Cauchy-Schwarz", worst_c <= 1e-8, worst_c)
    return rep


def validate_hilbert_bundle(x: SemiInnerBundle, tol: Tolerance | None = None) -> Report:
    return _validate(x, tol or DEFAULT_TOL, True, "hilbert-bundle axioms")


def validate_semi_inner_bundle(x: SemiInnerBundle, tol: Tolerance | None = None) -> Report:
    return _validate(x, tol or DEFAULT_TOL, False, "semi-inner-bundle axioms")


# -- constructors ----------------------------------------------------------

def trivial_hilbert_bundle(bundle: FellBundle) -> HilbertBundle:
    """The bundle as a module over itself, <b, c> = b*c."""
    grp = bundle.group
    dims = list(bundle.dims)
    act = [[None] * grp.order for _ in grp.elements()]
    inner = [[None] * grp.order for _ in grp.elements()]
    for r in grp.elements():
        for h in grp.elements():
            act[r][h] = np.stack([
                bundle.right_mult_matrix(r, h, np.eye(bundle.dims[h])[i])
                for i in range(bundle.dims[h])
            ]) if bundle.dims[h] else np.zeros((0, dims[grp.mul(r, h)], dims[r]))
        for s in grp.elements():
            rinv = grp.inv(r)
            # <b_u, b_v> = b_u* b_v via the star and product tensors
            inner[r][s] = np.einsum("uw,wvk->uvk",
                                    bundle.star_tensor[r], bundle.prod[rinv][s])
    return HilbertBundle(bundle, dims, act, inner)


def compress_bundle(x: SemiInnerBundle, bases) -> HilbertBundle:
    """Restrict x to the fiber subspaces spanned by the orthonormal columns
    of bases[r]: act becomes K_rh* act K_r and inner K_r* inner K_s, as
    batched matmuls.  The caller vouches that the result is definite (a
    separation, or a subspace of a Hilbert bundle)."""
    grp = x.bundle.group
    act = [[bases[grp.mul(r, h)].conj().T @ x.act[r][h] @ bases[r] for h in grp.elements()]
           for r in grp.elements()]
    return HilbertBundle(x.bundle, [k.shape[1] for k in bases], act,
                         compress_inner(x.inner, bases))


def compress_inner(inner, bases):
    """The inner products inner[r][s] restricted to the columns of bases:
    K_r* inner[r][s] K_s, as batched matmuls."""
    return [[(kr.conj().T @ row[s].transpose(2, 0, 1) @ ks).transpose(1, 2, 0)
             for s, ks in enumerate(bases)] for kr, row in zip(bases, inner)]


def separate(x: SemiInnerBundle, tol: Tolerance | None = None):
    """Quotient each fiber by the null space of its localized Gram.

    Returns (HilbertBundle, quotient maps), where quotient[r] sends old
    fiber coordinates to new ones.  The trace localization is faithful, so
    this kills exactly the module-null vectors; Cauchy-Schwarz makes every
    structure tensor descend.
    """
    keep = separating_bases([x.trace_gram(r) for r in x.bundle.group.elements()], tol)
    return compress_bundle(x, keep), [k.conj().T for k in keep]


def separating_bases(grams, tol: Tolerance | None = None) -> list[np.ndarray]:
    """The separation rule: K_r holds the orthonormal eigenvectors of the
    trace-localized Gram of fiber r above the rank cut.  A Gram that is not
    Hermitian or not PSD raises InvariantViolationError."""
    tol = tol or DEFAULT_TOL
    keep: list[np.ndarray] = []
    for r, g in enumerate(grams):
        if g.shape[0] == 0:
            keep.append(np.zeros((0, 0), dtype=np.complex128))
            continue
        if hermitian_defect(g) > 100 * tol.rel_eq:
            raise InvariantViolationError(f"fiber {r}: localized Gram is not Hermitian")
        w, v = np.linalg.eigh((g + g.conj().T) / 2)
        scale = max(float(w[-1]), 0.0)
        if float(w[0]) < -tol.rel_psd * max(1.0, scale):
            raise InvariantViolationError(f"fiber {r}: localized Gram is not PSD")
        keep.append(v[:, w > tol.rel_rank * max(scale, 1.0)])
    return keep


def regularize_bundle(x: SemiInnerBundle) -> HilbertBundle:
    """|H|-fold direct sum per fiber with summed inner product and pointwise
    right action (fiber over r holds functions H -> X_r)."""
    grp = x.bundle.group
    n = grp.order
    dims = [n * m for m in x.dims]
    act = [[None] * n for _ in grp.elements()]
    inner = [[None] * n for _ in grp.elements()]
    eye = np.eye(n)
    for r in grp.elements():
        for h in grp.elements():
            base = x.act[r][h]
            act[r][h] = np.stack([np.kron(eye, base[i]) for i in range(base.shape[0])]) \
                if base.shape[0] else np.zeros((0, dims[grp.mul(r, h)], dims[r]))
        for s in grp.elements():
            k = x.inner[r][s].shape[2]
            out = np.zeros((dims[r], dims[s], k), dtype=np.complex128)
            mr, ms = x.dims[r], x.dims[s]
            for t in range(n):
                out[t * mr:(t + 1) * mr, t * ms:(t + 1) * ms, :] = x.inner[r][s]
            inner[r][s] = out
    return HilbertBundle(x.bundle, dims, act, inner)


def l2_bundle(bundle: FellBundle) -> HilbertBundle:
    """The canonical square-summable bundle: every fiber is the full section
    space tagged by its index, with twisted right action and inner product

        (xi . b)(t) = xi(t s^-1) b,   <(xi,r),(eta,s)> = sum_t xi(tr)* eta(ts).
    """
    grp = bundle.group
    n = grp.order
    d = bundle.dims
    offs = np.concatenate([[0], np.cumsum(d)]).astype(int)
    total = int(offs[-1])
    dims = [total] * n
    act = [[None] * n for _ in grp.elements()]
    inner = [[None] * n for _ in grp.elements()]
    for r in grp.elements():
        for s in grp.elements():
            mats = np.zeros((d[s], total, total), dtype=np.complex128)
            for i in range(d[s]):
                unit = np.eye(d[s])[i]
                for t in grp.elements():
                    tsrc = grp.mul(t, grp.inv(s))
                    blk = bundle.right_mult_matrix(tsrc, s, unit)
                    mats[i, offs[t]:offs[t + 1], offs[tsrc]:offs[tsrc + 1]] = blk
            act[r][s] = mats
        for s in grp.elements():
            k = grp.mul(grp.inv(r), s)
            out = np.zeros((total, total, d[k]), dtype=np.complex128)
            for t in grp.elements():
                t2 = grp.mul(grp.mul(t, grp.inv(r)), s)
                tinv = grp.inv(t)
                # <delta_t b_i (tag r), delta_t2 b_j (tag s)> = b_i* b_j
                tensor = np.einsum("iw,wjk->ijk", bundle.star_tensor[t], bundle.prod[tinv][t2])
                out[offs[t]:offs[t + 1], offs[t2]:offs[t2 + 1], :] = tensor
            inner[r][s] = out
    return HilbertBundle(bundle, dims, act, inner)


# -- Hilbert modules over a concrete C*-algebra ----------------------------

@dataclass
class HilbertModule:
    """Right Hilbert module over a concrete algebra B = span(algebra_basis).

    right[i] is the matrix of x -> x.b_i; inner[u, v] holds <e_u, e_v>_B in
    algebra coordinates (conjugate-linear in the first slot).  An optional
    left action by a second algebra makes it a correspondence.
    """

    algebra_basis: np.ndarray  # (k, m, m)
    dim: int
    right: np.ndarray          # (k, dim, dim)
    inner: np.ndarray          # (dim, dim, k)
    left_basis: np.ndarray | None = None   # (kA, mA, mA)
    left: np.ndarray | None = None         # (kA, dim, dim)

    def __post_init__(self):
        self.algebra_basis = np.asarray(self.algebra_basis, dtype=np.complex128)
        self.right = np.asarray(self.right, dtype=np.complex128)
        self.inner = np.asarray(self.inner, dtype=np.complex128)
        k = self.algebra_basis.shape[0]
        if self.right.shape != (k, self.dim, self.dim):
            raise NotModuleError("right action tensor has wrong shape")
        if self.inner.shape != (self.dim, self.dim, k):
            raise NotModuleError("inner product tensor has wrong shape")

    def inner_ambient(self, x, y) -> np.ndarray:
        c = np.einsum("u,uvk,v->k", np.conj(x), self.inner, np.asarray(y))
        return np.tensordot(c, self.algebra_basis, axes=(0, 0))


def algebra_coords_map(basis) -> np.ndarray:
    """The matrix sending a flattened matrix to its coordinates over a
    linearly independent algebra basis (k, m, m): the pseudo-inverse of the
    basis as columns."""
    basis = np.asarray(basis, dtype=np.complex128)
    return np.linalg.pinv(basis.reshape(len(basis), -1).T)


def trivial_module(algebra_basis) -> HilbertModule:
    """The algebra as a module over itself, <a, b> = a*b, with left action."""
    basis = np.asarray(algebra_basis, dtype=np.complex128)
    k = basis.shape[0]
    pinv = algebra_coords_map(basis)

    def coords(mat):
        return pinv @ mat.ravel()

    right = np.stack([
        np.stack([coords(basis[u] @ basis[i]) for u in range(k)], axis=1)
        for i in range(k)
    ])
    left = np.stack([
        np.stack([coords(basis[i] @ basis[u]) for u in range(k)], axis=1)
        for i in range(k)
    ])
    inner = np.zeros((k, k, k), dtype=np.complex128)
    for u in range(k):
        for v in range(k):
            inner[u, v] = coords(basis[u].conj().T @ basis[v])
    return HilbertModule(basis, k, right, inner, left_basis=basis, left=left)


def validate_module(x: HilbertModule, tol: Tolerance | None = None) -> Report:
    tol = tol or DEFAULT_TOL
    rep = Report("hilbert-module axioms")
    basis = x.algebra_basis
    k = basis.shape[0]
    pinv = algebra_coords_map(basis)

    worst = 0.0
    for i in range(k):
        for j in range(k):
            prod_coords = pinv @ (basis[i] @ basis[j]).ravel()
            lhs = x.right[j] @ x.right[i]
            rhs = np.einsum("k,kuv->uv", prod_coords, x.right)
            worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
    rep.add("right action multiplicative", worst <= 1e-8, worst)

    worst = 0.0
    for i in range(k):
        lhs = np.einsum("uwk,wv->uvk", x.inner, x.right[i])
        prod = np.stack([
            np.stack([pinv @ (np.tensordot(x.inner[u, v], basis, axes=(0, 0)) @ basis[i]).ravel()
                      for v in range(x.dim)])
            for u in range(x.dim)
        ])
        worst = max(worst, relative(frob(lhs - prod), frob(lhs)))
    rep.add("<x, y b> = <x,y> b", worst <= 1e-8, worst)

    worst = 0.0
    for u in range(x.dim):
        for v in range(x.dim):
            a = np.tensordot(x.inner[u, v], basis, axes=(0, 0))
            b = np.tensordot(x.inner[v, u], basis, axes=(0, 0))
            worst = max(worst, relative(frob(a.conj().T - b), frob(a)))
    rep.add("<x,y>* = <y,x>", worst <= 1e-8, worst)

    m = basis.shape[1]
    big = np.zeros((x.dim * m, x.dim * m), dtype=np.complex128)
    for u in range(x.dim):
        for v in range(x.dim):
            big[u * m:(u + 1) * m, v * m:(v + 1) * m] = np.tensordot(
                x.inner[u, v], basis, axes=(0, 0))
    ok, residual, hermitian = hermitian_psd_check(big, tol)
    rep.add("Gram PSD", ok, residual, "" if hermitian else "Gram not Hermitian")
    tg = np.einsum("uvk,k->uv", x.inner, np.array([np.trace(b) for b in basis]))
    res = definite_check(tg, tol)
    rep.add("definite", res.ok, max(-res.margin, 0.0))

    if x.left is not None:
        kl = x.left_basis.shape[0]
        lpinv = algebra_coords_map(x.left_basis)
        worst = 0.0
        for i in range(kl):
            for j in range(kl):
                prod_coords = lpinv @ (x.left_basis[i] @ x.left_basis[j]).ravel()
                lhs = x.left[i] @ x.left[j]
                rhs = np.einsum("k,kuv->uv", prod_coords, x.left)
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
        rep.add("left action multiplicative", worst <= 1e-8, worst)
        worst = 0.0
        for i in range(kl):
            adj_coords = lpinv @ (x.left_basis[i].conj().T).ravel()
            adj = np.einsum("k,kuv->uv", adj_coords, x.left)
            lhs = np.einsum("wu,wvk->uvk", x.left[i].conj(), x.inner)
            rhs = np.einsum("uwk,wv->uvk", x.inner, adj)
            worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
        rep.add("left action adjointable", worst <= 1e-8, worst)
        worst = 0.0
        for i in range(kl):
            for j in range(k):
                lhs = x.right[j] @ x.left[i]
                rhs = x.left[i] @ x.right[j]
                worst = max(worst, relative(frob(lhs - rhs), frob(lhs)))
        rep.add("left and right actions commute", worst <= 1e-8, worst)
    return rep


def module_bundle_from_dynsys(module: HilbertModule, group, beta,
                              bundle: FellBundle | None = None) -> HilbertBundle:
    """Hilbert bundle over the crossed-product bundle of (B, H, beta) whose
    fiber over h is the module tagged by h, with twisted operations

        (x, g).(b, h) = (x beta_g(b), gh)
        <(x, g), (y, h)> = (beta_g^-1(<x, y>_B), g^-1 h).
    """
    beta = [np.asarray(b, dtype=np.complex128) for b in beta]
    if bundle is None:
        bundle = dynamical_bundle(module.algebra_basis, group, beta)
    grp = bundle.group
    k = module.algebra_basis.shape[0]
    # pair (algebra coords, h) <-> fiber coordinates of B_h
    to_fiber = []
    for h in grp.elements():
        cols = []
        for i in range(k):
            mat = crossed_embed(grp, module.algebra_basis, beta, np.eye(k)[i], h)
            c, res = bundle.coords(h, mat)
            if res > 1e-8:
                raise NotModuleError("crossed-product embedding escaped its fiber")
            cols.append(c)
        to_fiber.append(np.stack(cols, axis=1))  # (d_h, k)
    from_fiber = [np.linalg.pinv(m) for m in to_fiber]

    dims = [module.dim] * grp.order
    act = [[None] * grp.order for _ in grp.elements()]
    inner = [[None] * grp.order for _ in grp.elements()]
    for g in grp.elements():
        for h in grp.elements():
            mats = []
            for i in range(bundle.dims[h]):
                bcoords = from_fiber[h] @ np.eye(bundle.dims[h])[i]
                twisted = beta[g] @ bcoords
                mats.append(np.einsum("k,kuv->uv", twisted, module.right))
            act[g][h] = np.stack(mats) if mats else np.zeros((0, module.dim, module.dim))
        for h in grp.elements():
            gh = grp.mul(grp.inv(g), h)
            out = np.zeros((module.dim, module.dim, bundle.dims[gh]), dtype=np.complex128)
            binv = beta[grp.inv(g)]
            for u in range(module.dim):
                twisted = (binv @ module.inner[u].T).T  # (dim, k)
                out[u] = twisted @ to_fiber[gh].T
            inner[g][h] = out
    return HilbertBundle(bundle, dims, act, inner)


def condexp_raw_semibundle(exp) -> SemiInnerBundle:
    """The semi-inner bundle of a conditional expectation before separation:
    the expecting bundle's own fibers with <a, a'> = E_{g^-1 g'}(a* a')."""
    sup, sub = exp.sup, exp.sub
    grp = sup.group
    dims = list(sup.dims)
    act = [[None] * grp.order for _ in grp.elements()]
    inner = [[None] * grp.order for _ in grp.elements()]
    for g in grp.elements():
        for h in grp.elements():
            mats = []
            for i in range(sub.dims[h]):
                c, _ = sup.coords(h, sub.fibers[h][i])
                mats.append(sup.right_mult_matrix(g, h, c))
            act[g][h] = np.stack(mats) if mats else np.zeros(
                (0, dims[grp.mul(g, h)], dims[g]))
        for g2 in grp.elements():
            k = grp.mul(grp.inv(g), g2)
            emap = np.asarray(exp.maps[k])
            star_prod = np.einsum("uw,wvk->uvk", sup.star_tensor[g], sup.prod[grp.inv(g)][g2])
            inner[g][g2] = np.einsum("uvk,lk->uvl", star_prod, emap)
    return SemiInnerBundle(sub, dims, act, inner)


def condexp_semibundle(exp, tol: Tolerance | None = None):
    """Semi-inner bundle of a conditional expectation, <a, a'> =
    E_{g^-1 g'}(a* a'), followed by separation.

    Returns (HilbertBundle, quotient maps); the quotients are identities
    exactly when E_e is faithful.
    """
    tol = tol or DEFAULT_TOL
    return separate(condexp_raw_semibundle(exp), tol)


def check_unitary_bundle_map(u_maps, x: SemiInnerBundle, x2: SemiInnerBundle,
                             tol: Tolerance | None = None) -> bool:
    """Unitary equivalence: each U_g bijective, U intertwines the right
    actions, and U preserves all cross-fiber inner products."""
    tol = tol or DEFAULT_TOL
    from .bundles import bundles_equal
    if not bundles_equal(x.bundle, x2.bundle):
        raise ShapeMismatchError("bundles must agree")
    grp = x.bundle.group
    u = [np.asarray(m, dtype=np.complex128) for m in u_maps]
    for g in grp.elements():
        if u[g].shape != (x2.dims[g], x.dims[g]):
            raise ShapeMismatchError(f"U_{g} has the wrong shape")
        if x.dims[g] != x2.dims[g]:
            return False
        if x.dims[g] and np.linalg.matrix_rank(u[g]) < x.dims[g]:
            return False
    for g in grp.elements():
        for h in grp.elements():
            gh = grp.mul(g, h)
            lhs = np.einsum("iuv,vw->iuw", x2.act[g][h], u[g])
            rhs = np.einsum("uv,ivw->iuw", u[gh], x.act[g][h])
            if relative(frob(lhs - rhs), frob(rhs)) > 1e-7:
                return False
        for s in grp.elements():
            lhs = np.einsum("wu,wzk,zv->uvk", u[g].conj(), x2.inner[g][s], u[s])
            if relative(frob(lhs - x.inner[g][s]), frob(x.inner[g][s])) > 1e-7:
                return False
    return True
