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

Both families are stored once, in a padded graded layout: act_array and
inner_array are read-only arrays indexed by group elements, each block
zero-padded to the largest bundle fiber dimension db and module fiber
dimension dm, and act[r][h], inner[r][s] are tuples of read-only views of
their blocks (`numerics.stored`).  The validator reads these arrays next to
the bundle's prod_array, star_array and fiber_array.  A tensor identity
over all tuples (r, s, h) is then one gather through grp.table and
grp.inverse plus one batched matmul, and the random-data inequalities draw
their vectors in the order of the per-tuple loop, then evaluate them
together.  Batches are chunked so their intermediates stay near
numerics.CHUNK_BYTES (4 MiB).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import FellBundle, bundles_equal, crossed_embed, dynamical_bundle
from .numerics import DEFAULT_TOL, Blocks, Tolerance, block_spectra, chunks, hermitian_defect, \
    identity_bound, judge_definite, judge_psd, membership_bound, opnorm, opnorms, padded, \
    product_bound, rank_check, rank_cut, split_draws, stack_spectra, stored, worst_relative
from .reports import Report


class InvariantViolationError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


class NotModuleError(ValueError):
    pass


def check_shapes(blocks, size, want, name: str, error=ShapeMismatchError) -> None:
    """Raise `error` unless blocks is a size[0] x size[1] list of lists whose
    block [i][j] has the shape want(i, j)."""
    if len(blocks) != size[0] or any(len(row) != size[1] for row in blocks):
        raise error(f"{name} must hold {size[0]} x {size[1]} blocks")
    for i, row in enumerate(blocks):
        for j, blk in enumerate(row):
            if np.shape(blk) != want(i, j):
                raise error(f"{name}[{i}][{j}] must have shape {want(i, j)}")


class SemiInnerBundle:
    """Semi-inner-product bundle: all Hilbert-bundle data, definiteness not
    promised.  separate() quotients it to an honest Hilbert bundle.

    act_array (|G|, |G|, db, dm, dm) and inner_array (|G|, |G|, dm, dm, db)
    are the stored, read-only, zero-padded tensors; act and inner are tuples
    of views of their blocks."""

    def __init__(self, bundle: FellBundle, dims, act, inner):
        self.bundle = bundle
        self.dims = [int(d) for d in dims]
        grp = bundle.group
        if len(self.dims) != grp.order:
            raise ShapeMismatchError("need one fiber dimension per group element")
        size = (grp.order, grp.order)
        check_shapes(act, size, lambda r, h: (
            bundle.dims[h], self.dims[grp.mul(r, h)], self.dims[r]), "act")
        check_shapes(inner, size, lambda r, s: (
            self.dims[r], self.dims[s], bundle.dims[grp.mul(grp.inv(r), s)]), "inner")
        db, dm = max(bundle.dims, default=0), max(self.dims, default=0)
        self.act_array, self.act = stored(act, (db, dm, dm))
        self.inner_array, self.inner = stored(inner, (dm, dm, db))

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


def trace_gram_stacks(x: SemiInnerBundle) -> list[np.ndarray]:
    """The trace-localized Grams of the fibers, one stack (L, m, m) per fiber
    dimension m, ascending and never zero-padded (padding would add zero
    eigenvalues); empty fibers form the stack of m = 0, read as definite."""
    dims = np.asarray(x.dims)
    return [np.stack([x.trace_gram(r) for r in np.flatnonzero(dims == m)])
            for m in sorted(set(x.dims))]


def trace_localize(bundle: FellBundle, tens) -> np.ndarray:
    """Inner products tens (..., m, m', d_e) in unit-fiber coordinates,
    localized at the ambient trace: (..., m, m')."""
    traces = np.array([np.trace(b) for b in bundle.fibers[bundle.group.identity]])
    return np.einsum("...k,k->...", tens, traces)


def ambient_inners(inner, fibers, quot, r, u, s, v) -> np.ndarray:
    """Ambient values of <u_t, v_t> for padded vectors u_t in X_{r_t} and
    v_t in X_{s_t}, from the padded inner products and fiber bases
    (quot[r, s] = r^-1 s): shape (T, n, n)."""
    coords = (inner[r, s].transpose(0, 3, 1, 2) @ v[:, None, :, None])[..., 0] \
        @ u.conj()[:, :, None]  # (T, db, 1)
    n = fibers.shape[-1]
    return (coords.transpose(0, 2, 1) @ fibers[quot[r, s]].reshape(len(r), -1, n * n)) \
        .reshape(len(r), n, n)


def block_grams_psd(diag, basis, blocks: Blocks, tol: Tolerance) -> tuple[bool, float]:
    """The PSD verdict (`numerics.judge_psd`) of the ambient block Grams
    [ element(e, diag[r, u, v]) ]_uv of every fiber r, with basis the
    (d_e, n, n) unit-fiber basis: (all ok, worst residual).  Each Gram lies
    in M_m(A_e), so it is judged on its irreducible blocks (`blocks`, the
    types of A_e): from the compressed basis W_i* b W_i, the Gram of type i
    has side m * n_i, and its Frobenius norms count m_i times
    (`numerics.block_spectra`).  Zero padding
    of a Gram, and the zero part of a unit fiber that is not unital in M_n,
    add zero eigenvalues only, so they change neither verdict nor residual."""
    count, m = diag.shape[:2]
    groups = blocks.compress(basis)
    entries = sum(len(mult) * (m * comp.shape[-1]) ** 2 for mult, comp in groups)
    ok, worst = True, 0.0
    for idx in chunks(count, entries):
        grams = []
        for mult, comp in groups:
            size, k = len(mult), comp.shape[-1]
            g = (diag[idx] @ comp.reshape(len(comp), size * k * k)).reshape(
                len(idx), m, m, size, k, k)
            grams.append((mult, g.transpose(0, 3, 1, 4, 2, 5).reshape(
                len(idx), size, m * k, m * k)))
        good, residual, _ = judge_psd(*block_spectra(grams), tol)
        ok = ok and bool(good.all())
        worst = max(worst, float(residual.max(initial=0.0)))
    return ok, worst


def _validate(x: SemiInnerBundle, tol: Tolerance, definite: bool, subject: str) -> Report:
    bundle = x.bundle
    grp = bundle.group
    order, tab, inv = grp.order, grp.table, grp.inverse
    quot = tab[inv]  # quot[r, s] = r^-1 s
    prod, star, fibers = bundle.prod_array, bundle.star_array, bundle.fiber_array
    act, inner = x.act_array, x.inner_array
    db, dm, n = fibers.shape[1], act.shape[-1], bundle.ambient_dim
    bound = identity_bound(tol)
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
    rep.add("(xb)c = x(bc)", worst <= bound, worst)

    # (3) first part: <x, yb> = <x,y> b
    def right_linear(idx):
        r, s, h = tuples(idx, 3)
        lhs = inner[r, tab[s, h]].transpose(0, 1, 3, 2).reshape(-1, 1, dm * db, dm) @ act[s, h]
        rhs = inner[r, s].reshape(-1, dm * dm, db) @ prod[quot[r, s], h].reshape(-1, db, db * db)
        # lhs is (i, (u, k), v): bring rhs, ((u, v), (i, k)), to that order
        return lhs, rhs.reshape(-1, dm, dm, db, db).transpose(0, 3, 1, 4, 2)

    worst = worst_relative(order ** 3, (db * dm) ** 2, right_linear)
    rep.add("<x, yb> = <x,y>b", worst <= bound, worst)

    # (3) second part: <x,y>* = <y,x>
    def symmetric(idx):
        r, s = tuples(idx, 2)
        starred = inner[r, s].conj().reshape(-1, dm * dm, db) @ star[quot[r, s]]
        return inner[s, r].transpose(0, 2, 1, 3), starred

    worst = worst_relative(order ** 2, dm * dm * db, symmetric)
    rep.add("<x,y>* = <y,x>", worst <= bound, worst)

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
    rep.add("<xb, y> = b*<x,y>", worst <= bound, worst)

    # (4) positivity of each fiber Gram, in block form
    e = grp.identity
    diag = inner[np.arange(order), np.arange(order), :, :, :bundle.dims[e]]
    ok_pos, worst = block_grams_psd(diag, bundle.fibers[e], bundle.unit_blocks, tol)
    rep.add("fiber Grams PSD", ok_pos, worst)

    # definiteness: localized Gram of each fiber has full rank; the residual
    # is the worst shortfall of a smallest eigenvalue below its bound,
    # relative to the bound (1 for a singular Gram)
    if definite:
        verdicts = [judge_definite(*stack_spectra(s)[1:], tol) for s in trace_gram_stacks(x)]
        rep.add("definiteness (localized Grams full rank)",
                all(ok.all() for ok, _ in verdicts), max(res.max() for _, res in verdicts))

    # derived (b) and (c): ||xb|| <= ||x|| ||b||, Cauchy-Schwarz, random data:
    # three draws (u in X_r, v in X_s, b in B_s) per pair (r, s) of nonzero
    # fibers, in loop order, decoded from one draw
    dims, bdims = np.asarray(x.dims), np.asarray(bundle.dims)
    r, s = np.indices((order, order)).reshape(2, -1)
    keep = (dims[r] > 0) & (dims[s] > 0)
    r, s = np.repeat(r[keep], 3), np.repeat(s[keep], 3)
    lengths = np.stack([dims[r], dims[s], bdims[s]], axis=1).ravel()
    z = np.random.default_rng(0).standard_normal(2 * int(lengths.sum()))
    width = max(dm, db)
    draws = split_draws(z, lengths, width).reshape(len(r), 3, width)
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
    rep.add("||xb|| <= ||x|| ||b||", worst_b <= bound, worst_b)
    rep.add("Cauchy-Schwarz", worst_c <= bound, worst_c)
    return rep


def validate_hilbert_bundle(x: SemiInnerBundle, tol: Tolerance | None = None) -> Report:
    return _validate(x, tol or DEFAULT_TOL, True, "hilbert-bundle axioms")


def validate_semi_inner_bundle(x: SemiInnerBundle, tol: Tolerance | None = None) -> Report:
    return _validate(x, tol or DEFAULT_TOL, False, "semi-inner-bundle axioms")


# -- constructors ----------------------------------------------------------

def trivial_hilbert_bundle(bundle: FellBundle) -> HilbertBundle:
    """The bundle as a module over itself, <b, c> = b*c."""
    grp = bundle.group
    # x -> x.b_i from A_r to A_rh reads slice [:, i] of the product tensor
    act = [[p.transpose(1, 2, 0) for p in row] for row in bundle.prod]
    # <b_u, b_v> = b_u* b_v via the star and product tensors
    inner = [[np.einsum("uw,wvk->uvk", bundle.star_tensor[r], bundle.prod[grp.inv(r)][s])
              for s in grp.elements()] for r in grp.elements()]
    return HilbertBundle(bundle, list(bundle.dims), act, inner)


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
    Hermitian or not PSD (`numerics.judge_psd`, on the eigenvalues of the
    one eigh that also gives K_r) raises InvariantViolationError."""
    tol = tol or DEFAULT_TOL
    keep: list[np.ndarray] = []
    for r, g in enumerate(grams):
        if g.shape[0] == 0:
            keep.append(np.zeros((0, 0), dtype=np.complex128))
            continue
        w, v = np.linalg.eigh((g + g.conj().T) / 2)
        ok, _, hermitian = judge_psd(hermitian_defect(g), w[0], w[-1], tol)
        if not hermitian:
            raise InvariantViolationError(f"fiber {r}: localized Gram is not Hermitian")
        if not ok:
            raise InvariantViolationError(f"fiber {r}: localized Gram is not PSD")
        keep.append(v[:, rank_cut(w, w[-1], tol)[0]])
    return keep


def regularize_bundle(x: SemiInnerBundle) -> HilbertBundle:
    """|H|-fold direct sum per fiber with summed inner product and pointwise
    right action (fiber over r holds functions H -> X_r)."""
    grp = x.bundle.group
    n = grp.order
    dims = [n * m for m in x.dims]
    act = [[np.kron(np.eye(n), blk) for blk in row] for row in x.act]
    inner = [[None] * n for _ in grp.elements()]
    for r in grp.elements():
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
    # the right action by b_i in B_s does not depend on the tag r; its block
    # from tsrc = t s^-1 to t reads slice [:, i] of the product tensor
    act_by = []
    for s in grp.elements():
        mats = np.zeros((d[s], total, total), dtype=np.complex128)
        for t in grp.elements():
            tsrc = grp.mul(t, grp.inv(s))
            mats[:, offs[t]:offs[t + 1], offs[tsrc]:offs[tsrc + 1]] = \
                bundle.prod[tsrc][s].transpose(1, 2, 0)
        act_by.append(mats)
    act = [act_by] * n
    inner = [[None] * n for _ in grp.elements()]
    for r in grp.elements():
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
    """The Hilbert-module axioms, each over all basis elements at once; the
    residual of an identity is the worst over its items of
    relative(frob(lhs - rhs), frob(lhs))."""
    tol = tol or DEFAULT_TOL
    bound = identity_bound(tol)
    rep = Report("hilbert-module axioms")
    basis, right, inner, dim = x.algebra_basis, x.right, x.inner, x.dim
    k, m = basis.shape[:2]
    pinv = algebra_coords_map(basis)
    amb = np.tensordot(inner, basis, axes=(2, 0))  # amb[u, v] = <e_u, e_v> in M_m

    worst = _multiplicative(basis, right, reverse=True)
    rep.add("right action multiplicative", worst <= bound, worst)

    def linear(idx):
        lhs = np.einsum("uwk,iwv->iuvk", inner, right[idx])
        return lhs, (amb @ basis[idx, None, None]).reshape(len(idx), dim, dim, -1) @ pinv.T

    worst = worst_relative(k, dim * dim * m * m, linear)
    rep.add("<x, y b> = <x,y> b", worst <= bound, worst)

    adj = amb.conj().swapaxes(-1, -2).reshape(dim * dim, m * m)
    swapped = amb.swapaxes(0, 1).reshape(dim * dim, m * m)
    worst = worst_relative(dim * dim, m * m, lambda idx: (adj[idx], swapped[idx]))
    rep.add("<x,y>* = <y,x>", worst <= bound, worst)

    (ok,), (residual,), (hermitian,) = judge_psd(
        *stack_spectra(amb.transpose(0, 2, 1, 3).reshape(1, dim * m, dim * m)), tol)
    rep.add("Gram PSD", bool(ok), float(residual), "" if hermitian else "Gram not Hermitian")
    _, low, high = stack_spectra((inner @ np.trace(basis, axis1=1, axis2=2))[None])
    (ok,), (residual,) = judge_definite(low, high, tol)
    rep.add("definite", bool(ok), float(residual))

    if x.left is not None:
        lbasis, left = np.asarray(x.left_basis, complex), np.asarray(x.left, complex)
        kl = len(lbasis)
        worst = _multiplicative(lbasis, left, reverse=False)
        rep.add("left action multiplicative", worst <= bound, worst)
        # the operators of the adjoints a_i*
        ladj = (lbasis.conj().swapaxes(-1, -2).reshape(kl, -1) @ algebra_coords_map(lbasis).T
                @ left.reshape(kl, -1)).reshape(kl, dim, dim)
        worst = worst_relative(kl, dim * dim * k, lambda idx: (
            np.einsum("iwu,wvk->iuvk", left[idx].conj(), inner),
            np.einsum("uwk,iwv->iuvk", inner, ladj[idx])))
        rep.add("left action adjointable", worst <= bound, worst)
        i, j = np.divmod(np.arange(kl * k), k)
        worst = worst_relative(kl * k, dim * dim, lambda idx: (
            right[j[idx]] @ left[i[idx]], left[i[idx]] @ right[j[idx]]))
        rep.add("left and right actions commute", worst <= bound, worst)
    return rep


def _multiplicative(basis, ops, reverse: bool) -> float:
    """Worst residual over all pairs (i, j) of ops[i] ops[j] (ops[j] ops[i]
    when reverse, as for a right action) against the operator of the
    coordinates of b_i b_j."""
    k = len(basis)
    i, j = np.divmod(np.arange(k * k), k)
    coords = (basis[i] @ basis[j]).reshape(k * k, -1) @ algebra_coords_map(basis).T
    first, second = (j, i) if reverse else (i, j)
    return worst_relative(k * k, ops.shape[-1] ** 2, lambda idx: (
        ops[first[idx]] @ ops[second[idx]], coords[idx] @ ops.reshape(k, -1)))


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
            if res > membership_bound(bundle.tolerance):
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
    if not bundles_equal(x.bundle, x2.bundle):
        raise ShapeMismatchError("bundles must agree")
    grp = x.bundle.group
    u = [np.asarray(m, dtype=np.complex128) for m in u_maps]
    for g in grp.elements():
        if u[g].shape != (x2.dims[g], x.dims[g]):
            raise ShapeMismatchError(f"U_{g} has the wrong shape")
        if x.dims[g] != x2.dims[g]:
            return False
        if x.dims[g] and not rank_check(u[g], x.dims[g], tol)[0]:
            return False
    # over all pairs, relative to the x-side of each identity; the padded
    # rows and columns of u, act and inner are zero on both sides
    act, inner = x.act_array, x.inner_array
    up = padded([u], act.shape[-2:])[0]
    g, h = np.divmod(np.arange(grp.order ** 2), grp.order)
    intertwining = worst_relative(len(g), act[0, 0].size, lambda t: (
        np.einsum("tuv,tivw->tiuw", up[grp.table[g[t], h[t]]], act[g[t], h[t]]),
        np.einsum("tiuv,tvw->tiuw", x2.act_array[g[t], h[t]], up[g[t]])))
    isometric = worst_relative(len(g), inner[0, 0].size, lambda t: (inner[g[t], h[t]], np.einsum(
        "twu,twzk,tzv->tuvk", up[g[t]].conj(), x2.inner_array[g[t], h[t]], up[h[t]])))
    return intertwining <= product_bound(tol) and isometric <= product_bound(tol)
