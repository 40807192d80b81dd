"""Graded matrix bundles over finite groups.

A bundle is stored concretely: every fiber is a subspace of one ambient
matrix algebra M_n, the fiber over the identity is a *-subalgebra, and
products/adjoints of fibers are required to land in the correct fibers.
Storing bundles this way makes the C*-norm axioms automatic and turns all
axiom checking into span membership with explicit residuals.

Fiber bases are orthonormalized in the Hilbert-Schmidt inner product at
construction, so coordinates are stable and membership tests reduce to
projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .numerics import DEFAULT_TOL, Tolerance, as_cmatrix, frob, hermitian_psd_check, \
    numerical_rank, orthonormal_basis, padded
from .reports import Report


class NotAutomorphismError(ValueError):
    pass


class NotActionError(ValueError):
    pass


class FiberEscapeError(ValueError):
    """A product or adjoint left the fiber it is graded into."""


class FellBundle:
    """Graded family of subspaces of M_n over a finite group.

    fibers[g] is a (d_g, n, n) array whose slices form an HS-orthonormal
    basis of the fiber over g.  Construction never raises on broken grading;
    residuals are recorded and surfaced by validate_bundle, so deliberately
    perturbed bundles can be built and reported on.
    """

    def __init__(self, group: FiniteGroup, ambient_dim: int, fibers,
                 tol: Tolerance = DEFAULT_TOL):
        self.group = group
        self.ambient_dim = int(ambient_dim)
        if len(fibers) != group.order:
            raise ValueError("need one fiber per group element")
        self.fibers: list[np.ndarray] = []
        for g in group.elements():
            mats = np.asarray(fibers[g], dtype=np.complex128)
            if mats.size == 0:
                mats = mats.reshape(0, self.ambient_dim, self.ambient_dim)
            if mats.shape[1:] != (self.ambient_dim, self.ambient_dim):
                raise ValueError(f"fiber {g}: matrices must be {ambient_dim}x{ambient_dim}")
            if len(mats) == 0:
                self.fibers.append(mats)
                continue
            rows = mats.reshape(len(mats), -1)
            gram = rows @ rows.conj().T
            if np.allclose(gram, np.eye(len(mats)), atol=1e-10):
                # already HS-orthonormal: keep verbatim, so parsing a
                # serialized bundle reproduces its coordinates exactly
                self.fibers.append(mats)
                continue
            flat = orthonormal_basis(rows, tol)
            self.fibers.append(flat.reshape(-1, self.ambient_dim, self.ambient_dim))
        self.dims = [f.shape[0] for f in self.fibers]
        self.total_dim = int(sum(self.dims))
        self._tol = tol
        self._record_directness()
        self._build_structure()

    def _record_directness(self):
        """The fiber sum is direct iff the stacked HS-orthonormal bases have
        full rank; f -> sum_g f(g) is then a faithful *-representation of
        the cross-sectional algebra.  The smallest singular value relative
        to the largest is kept so validate_bundle can judge it at its own
        tolerance."""
        if self.total_dim == 0:
            self.directness_residual, self.directness_ratio = 0.0, 1.0
        else:
            rows = np.concatenate(self.fibers).reshape(self.total_dim, -1)
            sv = np.linalg.svd(rows, compute_uv=False)
            smallest = float(sv[-1]) if len(sv) == self.total_dim else 0.0
            self.directness_residual = 1.0 - smallest
            self.directness_ratio = smallest / float(sv[0])
        self.direct = self.directness_ratio > self._tol.rel_rank

    # -- structure tensors ------------------------------------------------

    def _build_structure(self):
        grp = self.group
        n, size = grp.order, self.ambient_dim ** 2
        flat = [f.reshape(len(f), size) for f in self.fibers]
        conj = [f.conj() for f in flat]

        def project(g, rows):
            """`coords` in A_g of every flattened matrix in `rows` at once (the
            einsum keeps the sums of `coords`, so the coordinates are bitwise
            the same), and the HS norm of what each leaves out."""
            c = np.einsum("kx,...x->...k", conj[g], rows)
            return c, np.linalg.norm(rows - c @ flat[g], axis=-1)

        # product tensor: prod[g][h][i, j, :] = coords of b_i^g b_j^h in A_{gh},
        # one batched product and one projection per pair (g, h); the grading
        # residual is absolute, i.e. relative to the HS-unit factors, so a
        # product that vanishes up to rounding stays small
        self.prod = [[None] * n for _ in range(n)]
        self.grading_residual = np.zeros((n, n))
        for g in grp.elements():
            for h in grp.elements():
                p = self.fibers[g][:, None] @ self.fibers[h][None, :]
                self.prod[g][h], miss = project(
                    grp.mul(g, h), p.reshape(self.dims[g], self.dims[h], size))
                self.grading_residual[g, h] = miss.max(initial=0.0)
        # star tensor: star[g][i, :] = coords of (b_i^g)^* in A_{g^-1}, with the
        # residual relative to each adjoint
        self.star_tensor = []
        self.involution_residual = np.zeros(n)
        for g in grp.elements():
            adj = self.fibers[g].conj().transpose(0, 2, 1).reshape(self.dims[g], size)
            c, miss = project(grp.inv(g), adj)
            scale = np.linalg.norm(adj, axis=-1)
            self.star_tensor.append(c)
            self.involution_residual[g] = np.divide(
                miss, scale, out=np.zeros_like(miss), where=scale > 0).max(initial=0.0)
        eye = np.eye(self.ambient_dim, dtype=np.complex128)
        self.unit_coords, self.unit_residual = self.coords(grp.identity, eye)
        self.unital = self.unital_at(self._tol)

    def unital_at(self, tol: Tolerance) -> bool:
        """Whether the ambient identity lies in A_e, judged at `tol` from the
        recorded unit residual (`unital` is this at the construction
        tolerance)."""
        return bool(self.unit_residual <= 10 * tol.rel_rank)

    # -- fiber arithmetic --------------------------------------------------

    def basis(self, g: int) -> np.ndarray:
        return self.fibers[g]

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


def padded_structure(bundle: FellBundle):
    """The structure tensors and fiber bases as zero-padded arrays indexed
    by group elements: (prod, star, fibers) with prod[g, h] of shape
    (db, db, db), star[g] (db, db) and fibers[g] (db, n, n), where db is
    the largest fiber dimension.  Built afresh on every call."""
    db, n = max(bundle.dims, default=0), bundle.ambient_dim
    return (padded(bundle.prod, (db, db, db)),
            padded([bundle.star_tensor], (db, db))[0],
            padded([bundle.fibers], (db, n, n))[0])


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
    rep.add("grading A_g.A_h in A_gh", worst_grade <= 10 * tol.rel_rank, worst_grade)
    worst_inv = float(bundle.involution_residual.max(initial=0.0))
    rep.add("involution A_g* in A_ginv", worst_inv <= 10 * tol.rel_rank, worst_inv)
    rep.add("directness of fiber sum", bundle.directness_ratio > tol.rel_rank,
            bundle.directness_residual)
    if bundle.unital_at(tol):
        rep.add("ambient unit lies in A_e", True, bundle.unit_residual)
    else:
        rep.note("bundle is not unital (ambient identity escapes A_e)")
    rep.note("group is finite, hence amenable: full and reduced completions agree")
    return rep


def group_bundle(group: FiniteGroup) -> FellBundle:
    """The group bundle: one-dimensional fibers spanned by the left-regular
    permutation matrices u_g inside M_|G|."""
    fibers = [regular_unitary(group, g)[None] for g in group.elements()]
    return FellBundle(group, group.order, fibers)


def regular_unitary(group: FiniteGroup, g: int) -> np.ndarray:
    """Left-regular permutation matrix of g on C^|G|."""
    u = np.zeros((group.order, group.order), dtype=np.complex128)
    for h in group.elements():
        u[group.mul(g, h), h] = 1.0
    return u


def _subalgebra_coords(basis_flat: np.ndarray, mat: np.ndarray) -> tuple[np.ndarray, float]:
    c, *_ = np.linalg.lstsq(basis_flat.T, mat.ravel(), rcond=None)
    res = float(np.linalg.norm(basis_flat.T @ c - mat.ravel()))
    nm = float(np.linalg.norm(mat))
    return c, res / nm if nm else 0.0


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
    if np.linalg.matrix_rank(flat) != k:
        raise ValueError("algebra basis must be linearly independent")
    alpha = [np.asarray(a, dtype=np.complex128) for a in alpha]
    if len(alpha) != group.order or any(a.shape != (k, k) for a in alpha):
        raise NotActionError("need one k x k matrix per group element")

    def apply(g, coeffs):
        return np.tensordot(alpha[g] @ coeffs, basis, axes=(0, 0))

    # each alpha_g must be a *-automorphism of A
    scale = max(frob(basis[i]) for i in range(k))
    for g in group.elements():
        for i in range(k):
            a_i = basis[i]
            img_star = apply(g, np.eye(k)[i]).conj().T
            want_star, res = _subalgebra_coords(flat, img_star)
            if res > 1e-8:
                raise NotAutomorphismError(f"alpha_{g} image of a* leaves A")
            star_src, res2 = _subalgebra_coords(flat, a_i.conj().T)
            if res2 > 1e-8:
                raise ValueError("algebra basis is not *-closed")
            if frob(apply(g, star_src) - img_star) > 1e-8 * scale:
                raise NotAutomorphismError(f"alpha_{g} is not *-preserving")
            for j in range(k):
                prod_src, res3 = _subalgebra_coords(flat, a_i @ basis[j])
                if res3 > 1e-8:
                    raise ValueError("algebra basis is not multiplicatively closed")
                lhs = apply(g, prod_src)
                rhs = apply(g, np.eye(k)[i]) @ apply(g, np.eye(k)[j])
                if frob(lhs - rhs) > 1e-8 * max(scale * scale, 1.0):
                    raise NotAutomorphismError(f"alpha_{g} is not multiplicative")
    e = group.identity
    if frob(alpha[e] - np.eye(k)) > 1e-10 * k:
        raise NotActionError("alpha_e must be the identity")
    for g in group.elements():
        for h in group.elements():
            if frob(alpha[g] @ alpha[h] - alpha[group.mul(g, h)]) > 1e-8 * k:
                raise NotActionError("alpha is not a group action")

    ng = group.order
    fibers = []
    for g in group.elements():
        v_g = np.kron(np.eye(m), regular_unitary(group, g))
        mats = []
        for i in range(k):
            d = np.zeros((m * ng, m * ng), dtype=np.complex128)
            for h in group.elements():
                e_hh = np.zeros((ng, ng))
                e_hh[h, h] = 1.0
                d += np.kron(apply(group.inv(h), np.eye(k)[i]), e_hh)
            mats.append(d @ v_g)
        fibers.append(np.array(mats))
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
    """True iff span(A_g.A_h) = A_gh for every pair (rank test on the
    product tensor)."""
    tol = tol or DEFAULT_TOL
    for g in bundle.group.elements():
        for h in bundle.group.elements():
            gh = bundle.group.mul(g, h)
            dgh = bundle.dims[gh]
            if dgh == 0:
                continue
            t = bundle.prod[g][h].reshape(-1, dgh)
            if t.shape[0] == 0:
                return False
            if numerical_rank(t, tol) < dgh:
                return False
    return True


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
    over basis triples, and positivity of the induced semi-inner product."""
    tol = tol or DEFAULT_TOL
    sup, sub = exp.sup, exp.sub
    grp = sup.group
    rep = Report("conditional expectation")

    worst = 0.0
    for g in grp.elements():
        for b in sub.fibers[g]:
            _, res = sup.coords(g, b)
            worst = max(worst, res)
    rep.add("sub-bundle containment B_g in A_g", worst <= 10 * tol.rel_rank, worst)

    worst = 0.0
    for g in grp.elements():
        for j in range(sub.dims[g]):
            c, _ = sup.coords(g, sub.fibers[g][j])
            diff = exp.apply(g, c) - np.eye(sub.dims[g])[j]
            worst = max(worst, float(np.linalg.norm(diff)))
    rep.add("idempotence: E restricted to B is the identity",
            worst <= 1e-8, worst)

    worst = 0.0
    for gl in grp.elements():
        for g in grp.elements():
            for gr in grp.elements():
                out = grp.mul(grp.mul(gl, g), gr)
                for b in sub.fibers[gl]:
                    for a in sup.fibers[g]:
                        for b2 in sub.fibers[gr]:
                            lhs = exp.apply_ambient(out, b @ a @ b2)
                            rhs = b @ exp.apply_ambient(g, a) @ b2
                            scale = max(frob(b @ a @ b2), 1.0)
                            worst = max(worst, frob(lhs - rhs) / scale)
    rep.add("bimodularity E(b a b') = b E(a) b'", worst <= 1e-7, worst)

    # positivity of <a, a'> = E_{g^-1 g'}(a* a') via the localized Choi Gram
    pairs = [(g, i) for g in grp.elements() for i in range(sup.dims[g])]
    namb = sup.ambient_dim
    big = np.zeros((len(pairs) * namb, len(pairs) * namb), dtype=np.complex128)
    for p, (g, i) in enumerate(pairs):
        for q, (g2, i2) in enumerate(pairs):
            k = grp.mul(grp.inv(g), g2)
            val = exp.apply_ambient(k, sup.fibers[g][i].conj().T @ sup.fibers[g2][i2])
            big[p * namb:(p + 1) * namb, q * namb:(q + 1) * namb] = val
    ok, residual, hermitian = hermitian_psd_check(big, tol)
    rep.add("positivity of induced semi-inner product", ok, residual,
            "" if hermitian else "Gram is not Hermitian")
    return rep
