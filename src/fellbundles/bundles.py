"""Graded matrix bundles over finite groups.

A bundle is stored concretely: every fiber is a subspace of one ambient
matrix algebra M_n, the fiber over the identity is a *-subalgebra, and
products/adjoints of fibers are required to land in the correct fibers.
Storing bundles this way makes the C*-norm axioms automatic and turns all
axiom checking into span membership with explicit residuals.

Fiber bases are orthonormalized in the Hilbert-Schmidt inner product at
construction, so coordinates are stable and membership tests reduce to
projections.

The fibers, the product tensor and the star tensor are each stored once,
as one read-only array indexed by group elements and zero-padded to the
largest fiber dimension db (`fiber_array`, `prod_array`, `star_array`);
`fibers[g]`, `prod[g][h]` and `star_tensor[g]` are tuples of read-only
views of their blocks (`numerics.freeze`).  The irreducible types of the
*-algebra spanned by all fibers (`blocks`) and of A_e (`unit_blocks`) are
decomposed once per bundle, when first read.

Construction is whole-array.  One batched Gram decides which input fibers
are already HS-orthonormal, and the structure tensors come from batched
products and projections over chunks of fiber pairs, each chunk's
intermediates near `numerics.CHUNK_BYTES`.  `dynamical_bundle` solves the
coordinates of every adjoint and product it checks with one least-squares
call, judges the automorphism battery over all (g, i, j) at once (raising
the error the per-element loop would raise first) and assembles the fibers
by one scatter and one batched matmul.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .numerics import DEFAULT_TOL, Blocks, Tolerance, as_cmatrix, chunks, decompose_algebra, \
    freeze, frob, identity_bound, judge_psd, membership_bound, one_block, orthonormal_basis, \
    padded, product_bound, rank_check, rank_cut, stack_spectra, unit_bound, worst_relative
from .reports import Report


class NotAutomorphismError(ValueError):
    pass


class NotActionError(ValueError):
    pass


class FiberEscapeError(ValueError):
    """A product or adjoint left the fiber it is graded into."""


def _hs_orthonormal(stacks) -> np.ndarray:
    """Whether each (d, n, n) stack is HS-orthonormal, its Gram within
    allclose(atol=1e-10) of the identity, from one batched Gram of the
    zero-padded stacks.  A unit row has no real or imaginary part above 1,
    so a stack with one above 2 is not, and is left out of the Gram, whose
    products could overflow."""
    dims = np.array([len(s) for s in stacks])
    db, n = int(dims.max(initial=0)), stacks[0].shape[-1]
    rows = padded([stacks], (db, n, n))[0].reshape(len(stacks), db, n * n)
    small = np.abs(rows.view(np.float64)).max(axis=(1, 2), initial=0.0) <= 2.0
    rows[~small] = 0.0
    gram = rows @ rows.conj().swapaxes(1, 2)
    eye = (np.arange(db) < dims[:, None])[:, :, None] & np.eye(db, dtype=bool)
    close = np.abs(gram - eye) <= 1e-10 + 1e-5 * eye
    return small & close.all(axis=(1, 2))


class FellBundle:
    """Graded family of subspaces of M_n over a finite group.

    fibers[g] is a (d_g, n, n) array whose slices form an HS-orthonormal
    basis of the fiber over g, a view of fiber_array[g] of shape
    (db, n, n).  Construction never raises on broken grading;
    residuals are recorded and surfaced by validate_bundle, so deliberately
    perturbed bundles can be built and reported on.
    """

    def __init__(self, group: FiniteGroup, ambient_dim: int, fibers,
                 tol: Tolerance = DEFAULT_TOL):
        self.group = group
        self.ambient_dim = int(ambient_dim)
        if len(fibers) != group.order:
            raise ValueError("need one fiber per group element")
        stacks = []
        for g in group.elements():
            mats = np.asarray(fibers[g], dtype=np.complex128)
            if mats.size == 0:
                mats = mats.reshape(0, self.ambient_dim, self.ambient_dim)
            if mats.shape[1:] != (self.ambient_dim, self.ambient_dim):
                raise ValueError(f"fiber {g}: matrices must be {ambient_dim}x{ambient_dim}")
            stacks.append(mats)
        # an HS-orthonormal fiber is kept verbatim, so parsing a serialized
        # bundle reproduces its coordinates exactly
        fibers = [
            mats if keep else orthonormal_basis(mats.reshape(len(mats), -1), tol).reshape(
                -1, self.ambient_dim, self.ambient_dim)
            for mats, keep in zip(stacks, _hs_orthonormal(stacks))]
        self.dims = [f.shape[0] for f in fibers]
        n = self.ambient_dim
        self.fiber_array = padded([fibers], (max(self.dims, default=0), n, n))[0]
        self.fibers = freeze(self.fiber_array, [f.shape for f in fibers])
        self.total_dim = int(sum(self.dims))
        self._tol = tol
        self._record_directness()
        self._build_structure()

    def _record_directness(self):
        """The fiber sum is direct iff the stacked HS-orthonormal bases have
        full rank; f -> sum_g f(g) is then a faithful *-representation of
        the cross-sectional algebra.  The smallest and largest singular
        values are kept so validate_bundle can judge the rank cut at its own
        tolerance."""
        if self.total_dim == 0:
            self.directness_residual, self.directness_sv = 0.0, (1.0, 1.0)
        else:
            rows = np.concatenate(self.fibers).reshape(self.total_dim, -1)
            sv = np.linalg.svd(rows, compute_uv=False)
            smallest = float(sv[-1]) if len(sv) == self.total_dim else 0.0
            self.directness_residual = 1.0 - smallest
            self.directness_sv = (smallest, float(sv[0]))
        self.direct = bool(rank_cut(*self.directness_sv, self._tol)[0])

    # -- structure tensors ------------------------------------------------

    def _build_structure(self):
        grp = self.group
        n, size, db = grp.order, self.ambient_dim ** 2, max(self.dims, default=0)
        fib = self.fiber_array
        flat = fib.reshape(n, db, size)

        def project(rows, q):
            """Coordinates of the flattened matrices rows[t] in the padded
            basis of A_{q[t]} (the einsum keeps the sums of `coords`, so the
            coordinates are bitwise the same), and the HS norm of what each
            leaves out."""
            c = np.einsum("tkx,trx->trk", flat[q].conj(), rows)
            return c, np.linalg.norm(rows - c @ flat[q], axis=-1)

        # product tensor: prod[g, h, i, j, :] = coords of b_i^g b_j^h in A_{gh},
        # for chunks of pairs (g, h) at once; the grading residual is
        # absolute, i.e. relative to the HS-unit factors, so a product that
        # vanishes up to rounding stays small.  Each chunk is read four times
        # (product, projection, reconstruction, residual), so it is counted as
        # four blocks: on the benchmark's crossed products a chunk of one
        # block's budget ran up to 40% slower than the per-pair loop
        prod = np.zeros((n, n, db, db, db), dtype=np.complex128)
        self.grading_residual = np.zeros((n, n))
        for idx in chunks(n * n, 4 * db * db * size):
            g, h = np.divmod(idx, n)
            p = (fib[g][:, :, None] @ fib[h][:, None]).reshape(len(idx), db * db, size)
            c, miss = project(p, grp.table[g, h])
            prod[g, h] = c.reshape(len(idx), db, db, db)
            self.grading_residual[g, h] = miss.max(axis=1, initial=0.0)
        dgh = np.asarray(self.dims)[grp.table].tolist()
        self.prod_array = prod
        self.prod = freeze(prod, [[(self.dims[g], self.dims[h], dgh[g][h])
                                   for h in grp.elements()] for g in grp.elements()])
        # star tensor: star[g][i, :] = coords of (b_i^g)^* in A_{g^-1}, with the
        # residual relative to each adjoint
        star = np.zeros((n, db, db), dtype=np.complex128)
        self.involution_residual = np.zeros(n)
        for idx in chunks(n, db * size):
            adj = fib[idx].conj().swapaxes(-1, -2).reshape(len(idx), db, size)
            star[idx], miss = project(adj, grp.inverse[idx])
            scale = np.linalg.norm(adj, axis=-1)
            self.involution_residual[idx] = np.divide(
                miss, scale, out=np.zeros_like(miss), where=scale > 0).max(axis=1, initial=0.0)
        self.star_array = star
        self.star_tensor = freeze(star, [(self.dims[g], self.dims[grp.inv(g)])
                                         for g in grp.elements()])
        eye = np.eye(self.ambient_dim, dtype=np.complex128)
        self.unit_coords, self.unit_residual = self.coords(grp.identity, eye)
        self.unital = self.unital_at(self._tol)

    # -- irreducible blocks ------------------------------------------------

    def _decomposed(self, basis, residual: float) -> Blocks:
        """decompose_algebra of the span of `basis` at the construction
        tolerance, or one block when the recorded grading or involution
        `residual` says that the span is not a *-algebra."""
        if residual > membership_bound(self._tol):
            return one_block(self.ambient_dim)
        return decompose_algebra(basis, self._tol)

    @property
    def tolerance(self) -> Tolerance:
        """The construction tolerance: the grading, directness and
        decompositions of the bundle are judged at it."""
        return self._tol

    @functools.cached_property
    def blocks(self) -> Blocks:
        """The irreducible types of the *-algebra spanned by all fibers,
        decomposed on first use."""
        return self._decomposed(
            np.concatenate(self.fibers),
            max(self.grading_residual.max(initial=0.0), self.involution_residual.max(initial=0.0)))

    @functools.cached_property
    def unit_blocks(self) -> Blocks:
        """The irreducible types of the unit fiber A_e, decomposed on first
        use."""
        e = self.group.identity
        return self._decomposed(
            self.fibers[e], max(self.grading_residual[e, e], self.involution_residual[e]))

    def unital_at(self, tol: Tolerance) -> bool:
        """Whether the ambient identity lies in A_e, judged at `tol` from the
        recorded unit residual (`unital` is this at the construction
        tolerance)."""
        return bool(self.unit_residual <= membership_bound(tol))

    # -- fiber arithmetic --------------------------------------------------

    def element(self, g: int, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != (self.dims[g],):
            raise ValueError(f"fiber {g} expects {self.dims[g]} coefficients")
        if self.dims[g] == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        return np.tensordot(c, self.fibers[g], axes=(0, 0))

    def coords(self, g: int, mat) -> tuple[np.ndarray, float]:
        """HS-project onto the fiber over g; returns (coords, rel residual)."""
        m = as_cmatrix(mat)
        basis = self.fibers[g]
        c = np.einsum("kab,ab->k", basis.conj(), m)
        nm = frob(m)
        if nm == 0.0:
            return c, 0.0
        recon = np.tensordot(c, basis, axes=(0, 0)) if self.dims[g] else 0.0
        return c, frob(m - recon) / nm

    def product_coords(self, g: int, cg, h: int, ch) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(cg), np.asarray(ch), self.prod[g][h])

    def star_coords(self, g: int, cg) -> np.ndarray:
        return np.asarray(cg).conj() @ self.star_tensor[g]

    def left_mult_matrix(self, g: int, cg, h: int) -> np.ndarray:
        """Matrix of x -> a.x from A_h to A_{gh} in HS bases, a = element(g, cg)."""
        return np.einsum("i,ijk->kj", np.asarray(cg), self.prod[g][h])

    def right_mult_matrix(self, g: int, h: int, ch) -> np.ndarray:
        """Matrix of x -> x.b from A_g to A_{gh} in HS bases, b = element(h, ch)."""
        return np.einsum("j,ijk->ki", np.asarray(ch), self.prod[g][h])

    def random_coords(self, g: int, rng) -> np.ndarray:
        d = self.dims[g]
        return rng.standard_normal(d) + 1j * rng.standard_normal(d)

    def fiber_norm(self, g: int, coeffs) -> float:
        """Ambient operator norm of element(g, coeffs)."""
        m = self.element(g, coeffs)
        return float(np.linalg.norm(m, 2)) if m.size else 0.0


def bundles_equal(b1: FellBundle, b2: FellBundle, atol: float = 1e-10) -> bool:
    """Structural equality: same group table, ambient algebra, and fibers."""
    if b1 is b2:
        return True
    if b1.group != b2.group or b1.ambient_dim != b2.ambient_dim or b1.dims != b2.dims:
        return False
    return all(
        np.allclose(b1.fibers[g], b2.fibers[g], atol=atol)
        for g in b1.group.elements()
    )


def validate_bundle(bundle: FellBundle, tol: Tolerance | None = None) -> Report:
    """Axiom battery: grading, involution, directness, unit membership;
    directness and unit membership are judged at `tol` from the residuals
    recorded at construction."""
    tol = tol or DEFAULT_TOL
    rep = Report("fell-bundle axioms")
    worst_grade = float(bundle.grading_residual.max(initial=0.0))
    rep.add("grading A_g.A_h in A_gh", worst_grade <= membership_bound(tol), worst_grade)
    worst_inv = float(bundle.involution_residual.max(initial=0.0))
    rep.add("involution A_g* in A_ginv", worst_inv <= membership_bound(tol), worst_inv)
    rep.add("directness of fiber sum", rank_cut(*bundle.directness_sv, tol)[0],
            bundle.directness_residual)
    if bundle.unital_at(tol):
        rep.add("ambient unit lies in A_e", True, bundle.unit_residual)
    else:
        rep.note("bundle is not unital (ambient identity escapes A_e)")
    rep.note("group is finite, hence amenable: full and reduced completions agree")
    return rep


def group_bundle(group: FiniteGroup) -> FellBundle:
    """The group bundle: one-dimensional fibers spanned by the left-regular
    permutation matrices u_g inside M_|G|, passed HS-normalized (each
    u_g / sqrt|G|) so that the bundle keeps them verbatim."""
    return FellBundle(group, group.order, regular_unitaries(group)[:, None] / np.sqrt(group.order))


def regular_unitaries(group: FiniteGroup) -> np.ndarray:
    """Left-regular permutation matrices of every element, (|G|, |G|, |G|):
    u[g, gh, h] = 1, one scatter through the Cayley table."""
    n = group.order
    u = np.zeros((n, n, n), dtype=np.complex128)
    g, h = np.indices((n, n))
    u[g, group.table, h] = 1.0
    return u


def regular_unitary(group: FiniteGroup, g: int) -> np.ndarray:
    """Left-regular permutation matrix of g on C^|G|."""
    return regular_unitaries(group)[g]


def _subalgebra_coords(basis_flat: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coordinates (R, k) in the basis of every flattened
    matrix of `mats` (R, m*m), from one lstsq with a matrix right-hand side,
    and the residual of each relative to its norm (0 for a zero matrix)."""
    c, *_ = np.linalg.lstsq(basis_flat.T, mats.T, rcond=None)
    res = np.linalg.norm(basis_flat.T @ c - mats.T, axis=0)
    nm = np.linalg.norm(mats, axis=1)
    return c.T, np.divide(res, nm, out=np.zeros_like(res), where=nm > 0)


# the automorphism battery in the order the per-element loop ran it for
# each (g, i): its columns are these checks, the last two repeated per j
_BATTERY = (
    lambda g: NotAutomorphismError(f"alpha_{g} image of a* leaves A"),
    lambda g: ValueError("algebra basis is not *-closed"),
    lambda g: NotAutomorphismError(f"alpha_{g} is not *-preserving"),
    lambda g: ValueError("algebra basis is not multiplicatively closed"),
    lambda g: NotAutomorphismError(f"alpha_{g} is not multiplicative"),
)


def _check_automorphisms(basis: np.ndarray, alpha: np.ndarray, images: np.ndarray,
                         tol: Tolerance) -> None:
    """Each alpha_g must be a *-automorphism of A = span(basis): raise the
    error of the first failing check in (g, i, check, j) order.  images[g, i]
    is alpha_g(a_i); the coordinates of every alpha_g(a_i)^*, a_i^* and
    a_i a_j come from one least-squares solve."""
    ng, k, m, _ = images.shape
    flat = basis.reshape(k, -1)
    img_star = images.conj().swapaxes(-1, -2).reshape(ng, k, m * m)
    coords, res = _subalgebra_coords(flat, np.concatenate([
        img_star.reshape(ng * k, m * m),
        basis.conj().swapaxes(-1, -2).reshape(k, m * m),
        (basis[:, None] @ basis[None]).reshape(k * k, m * m)]))
    _, star_src, prod_src = np.split(coords, [ng * k, ng * k + k])
    img_open, star_open, prod_open = np.split(res > membership_bound(tol), [ng * k, ng * k + k])
    scale = max(frob(basis[i]) for i in range(k))
    star_defect, mult_defect = np.zeros((ng, k)), np.zeros((ng, k, k))
    for idx in chunks(ng, k * k * m * m):
        # alpha_g(c) for coordinates c is (alpha_g c)^T . basis
        star_img = (alpha[idx] @ star_src.T).swapaxes(1, 2) @ flat
        star_defect[idx] = np.linalg.norm(star_img - img_star[idx], axis=-1)
        lhs = (alpha[idx] @ prod_src.T).swapaxes(1, 2) @ flat
        rhs = images[idx][:, :, None] @ images[idx][:, None]
        mult_defect[idx] = np.linalg.norm(
            lhs.reshape(len(idx), k, k, m * m) - rhs.reshape(len(idx), k, k, m * m), axis=-1)
    fails = np.concatenate([
        img_open.reshape(ng, k, 1),
        np.broadcast_to(star_open[None, :, None], (ng, k, 1)),
        (star_defect > identity_bound(tol) * scale)[..., None],
        np.stack([np.broadcast_to(prod_open.reshape(k, k), (ng, k, k)),
                  mult_defect > identity_bound(tol) * max(scale * scale, 1.0)],
                 axis=-1).reshape(ng, k, 2 * k),
    ], axis=-1)
    if fails.any():
        g, _, check = np.unravel_index(np.argmax(fails), fails.shape)
        raise _BATTERY[check if check < 3 else 3 + (check - 3) % 2](int(g))


def dynamical_bundle(algebra_basis, group: FiniteGroup, alpha,
                     tol: Tolerance = DEFAULT_TOL) -> FellBundle:
    """Bundle of a dynamical system (A, G, alpha), realized covariantly.

    algebra_basis: (k, m, m) linearly independent matrices spanning a unital
    *-subalgebra A of M_m.  alpha[g] is the k x k matrix of the automorphism
    alpha_g in that basis.  The fiber over g is spanned by the matrices
    (sum_h alpha_{h^-1}(a) (x) E_hh) . (1 (x) u_g) inside M_{m|G|}, which
    reproduces the crossed-product multiplication rule.
    """
    basis = np.asarray(algebra_basis, dtype=np.complex128)
    k, m, _ = basis.shape
    flat = basis.reshape(k, -1)
    if k and not rank_check(flat, k, tol)[0]:
        raise ValueError("algebra basis must be linearly independent")
    alpha = [np.asarray(a, dtype=np.complex128) for a in alpha]
    if len(alpha) != group.order or any(a.shape != (k, k) for a in alpha):
        raise NotActionError("need one k x k matrix per group element")
    alpha, ng = np.array(alpha), group.order
    # images[g, i] = alpha_g(a_i)
    images = (alpha.swapaxes(1, 2) @ flat).reshape(ng, k, m, m)
    _check_automorphisms(basis, alpha, images, tol)
    if frob(alpha[group.identity] - np.eye(k)) > unit_bound(k, tol):
        raise NotActionError("alpha_e must be the identity")
    for idx in chunks(ng, ng * k * k):
        law = alpha[idx][:, None] @ alpha[None] - alpha[group.table[idx]]
        if np.any(np.linalg.norm(law, axis=(-2, -1)) > identity_bound(tol) * k):
            raise NotActionError("alpha is not a group action")

    # d[i] = sum_h alpha_{h^-1}(a_i) (x) E_hh, one scatter into the diagonal
    # blocks; the fiber over g is d . (1 (x) u_g)
    d = np.zeros((k, m, ng, m, ng), dtype=np.complex128)
    d[:, :, np.arange(ng), :, np.arange(ng)] = images[group.inverse]
    v = np.eye(m)[None, :, None, :, None] * regular_unitaries(group)[:, None, :, None, :]
    fibers = d.reshape(1, k, m * ng, m * ng) @ v.reshape(ng, 1, m * ng, m * ng)
    return FellBundle(group, m * ng, fibers, tol)


def crossed_embed(group: FiniteGroup, algebra_basis, beta, b_coords, g: int) -> np.ndarray:
    """Concrete matrix of the crossed-product element (b, g) in the
    regular-covariant realization used by dynamical_bundle."""
    basis = np.asarray(algebra_basis, dtype=np.complex128)
    k, m, _ = basis.shape
    n = group.order
    out = np.zeros((m * n, m * n), dtype=np.complex128)
    for t in group.elements():
        e_tt = np.zeros((n, n))
        e_tt[t, t] = 1.0
        twisted = np.tensordot(
            np.asarray(beta[group.inv(t)]) @ np.asarray(b_coords, dtype=np.complex128),
            basis, axes=(0, 0),
        )
        out += np.kron(twisted, e_tt)
    return out @ np.kron(np.eye(m), regular_unitary(group, g))


def crossed_extract(bundle: FellBundle, m: int, g: int, fiber_coords) -> np.ndarray:
    """Recover the algebra element b of a crossed-product fiber element
    (b, g), by reading off the identity block of its concrete matrix."""
    mat = bundle.element(g, fiber_coords)
    n = bundle.group.order
    ginv = bundle.group.inv(g)
    e = bundle.group.identity
    rows = [i * n + e for i in range(m)]
    cols = [j * n + ginv for j in range(m)]
    return mat[np.ix_(rows, cols)]


def check_saturated(bundle: FellBundle, tol: Tolerance | None = None) -> bool:
    """True iff span(A_g.A_h) = A_gh for every pair: one batched rank test
    on the padded product tensor, whose zero rows and columns add only zero
    singular values, so the d_gh-th largest of prod[g, h] decides."""
    tol = tol or DEFAULT_TOL
    grp = bundle.group
    db = max(bundle.dims, default=0)
    dgh = np.asarray(bundle.dims)[grp.table].ravel()
    keep = dgh > 0
    if not keep.any():
        return True
    ok, _ = rank_check(bundle.prod_array.reshape(-1, db * db, db)[keep], dgh[keep], tol)
    return bool(ok.all())


@dataclass
class CondExpectation:
    """Fiberwise expectation E_g: A_g -> B_g of a sub-bundle, in fiber bases."""

    sup: FellBundle
    sub: FellBundle
    maps: list[np.ndarray]  # maps[g]: (dim B_g, dim A_g)

    def __post_init__(self):
        if self.sup.group != self.sub.group or self.sup.ambient_dim != self.sub.ambient_dim:
            raise ValueError("sub-bundle must live in the same ambient algebra and group")
        for g in self.sup.group.elements():
            want = (self.sub.dims[g], self.sup.dims[g])
            if np.asarray(self.maps[g]).shape != want:
                raise ValueError(f"E_{g} must have shape {want}")

    def apply(self, g: int, sup_coords) -> np.ndarray:
        return np.asarray(self.maps[g]) @ np.asarray(sup_coords)

    def apply_ambient(self, g: int, mat) -> np.ndarray:
        c, _ = self.sup.coords(g, mat)
        return self.sub.element(g, self.apply(g, c))


def projection_expectation(sup: FellBundle, sub: FellBundle) -> CondExpectation:
    """Fiberwise HS-orthogonal projection onto the sub-bundle.

    This is a genuine conditional expectation whenever the HS projection is
    bimodular for the pair (e.g. compression to a diagonal/averaged
    subalgebra); check_subbundle_and_expectation decides that.
    """
    maps = []
    for g in sup.group.elements():
        e = np.einsum("jab,iab->ji", sub.fibers[g].conj(), sup.fibers[g])
        maps.append(e)
    return CondExpectation(sup, sub, maps)


def check_subbundle_and_expectation(exp: CondExpectation,
                                    tol: Tolerance | None = None) -> Report:
    """Verify B_g <= A_g, E restricted to B is the identity, bimodularity
    over basis triples, and positivity of the induced semi-inner product.

    Every check is whole-array over the padded fiber arrays of both bundles
    and the padded maps (whose zero rows and columns add zero residuals):
    E_k(x) is the HS projection of x onto A_k in coordinates, mapped by
    maps[k] and read back in B_k."""
    tol = tol or DEFAULT_TOL
    sup, sub = exp.sup, exp.sub
    order, tab, inv = sup.group.order, sup.group.table, sup.group.inverse
    fa, fb, n = sup.fiber_array, sub.fiber_array, sup.ambient_dim
    da, db = fa.shape[1], fb.shape[1]
    maps = padded([exp.maps], (db, da))[0]
    rep = Report("conditional expectation")

    def coords(k, x):
        """HS coordinates in A_k (T, da) of ambient matrices x (T, n, n)."""
        return np.einsum("tiab,tab->ti", fa[k].conj(), x)

    def expect(k, x):
        """E_k(x) of ambient matrices x (T, n, n), ambient."""
        return np.einsum("tj,tjab->tab", np.einsum("tji,ti->tj", maps[k], coords(k, x)), fb[k])

    # containment: each b_j in B_g against its HS projection onto A_g
    g, j = np.divmod(np.arange(order * db), db)
    worst = worst_relative(len(g), (da + 4) * n * n, lambda t: (
        fb[g[t], j[t]], np.einsum("ti,tiab->tab", coords(g[t], fb[g[t], j[t]]), fa[g[t]])))
    rep.add("sub-bundle containment B_g in A_g", worst <= membership_bound(tol), worst)

    # idempotence: E_g(b_j) in coordinates against e_j, absolute
    unit = np.eye(db)[j] * (j < np.asarray(sub.dims)[g])[:, None]
    worst = worst_relative(len(g), (da + 1) * n * n, lambda t: (
        np.einsum("tji,ti->tj", maps[g[t]], coords(g[t], fb[g[t], j[t]])), unit[t],
        np.ones(len(t))))
    rep.add("idempotence: E restricted to B is the identity",
            worst <= identity_bound(tol), worst)

    # bimodularity over (gl, g, gr, i, j, l): E(b_i a_j b_l) against
    # b_i E(a_j) b_l, relative to max(||b_i a_j b_l||_F, 1)
    ea = expect(np.repeat(np.arange(order), da), fa.reshape(-1, n, n)).reshape(fa.shape)
    triples = (order, order, order, db, da, db)

    def bimodular(t):
        gl, g, gr, i, j, l = np.unravel_index(t, triples)
        b, b2 = fb[gl, i], fb[gr, l]
        x = b @ fa[g, j] @ b2
        return expect(tab[tab[gl, g], gr], x), b @ ea[g, j] @ b2, np.linalg.norm(x, axis=(1, 2))

    worst = worst_relative(int(np.prod(triples)), (da + db + 6) * n * n, bimodular)
    rep.add("bimodularity E(b a b') = b E(a) b'", worst <= product_bound(tol), worst)

    # positivity of <a, a'> = E_{g^-1 g'}(a* a') via the localized Choi Gram,
    # whose block (p, q) is E_k(a_p* a_q), k = g_p^-1 g_q, over the unpadded
    # pairs p = (g, i) in order
    pairs = np.flatnonzero(np.arange(da) < np.asarray(sup.dims)[:, None])
    gs, elems, size = pairs // da, fa.reshape(-1, n, n)[pairs], len(pairs)
    prods = elems.conj().swapaxes(-1, -2)[:, None] @ elems[None]
    vals = expect(tab[inv[gs][:, None], gs].ravel(), prods.reshape(-1, n, n))
    big = vals.reshape(size, size, n, n).transpose(0, 2, 1, 3).reshape(1, size * n, size * n)
    (ok,), (residual,), (hermitian,) = judge_psd(*stack_spectra(big), tol)
    rep.add("positivity of induced semi-inner product", bool(ok), float(residual),
            "" if hermitian else "Gram is not Hermitian")
    return rep
