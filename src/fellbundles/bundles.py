"""Graded matrix bundles over finite groups.

A bundle is stored concretely: every fiber is a subspace of one ambient
matrix algebra M_n, the fiber over the identity is a *-subalgebra, and
products/adjoints of fibers are required to land in the correct fibers.
Storing bundles this way makes the C*-norm axioms automatic and turns all
axiom checking into span membership with explicit residuals.

Fiber bases are orthonormalized in the Hilbert-Schmidt inner product at
construction, so coordinates are stable and membership tests reduce to
projections.

From ambient side 16 on, the span of the fibers is decomposed into its
irreducible types first (Murota, Kanno, Kojima and Kojima, Japan J.
Indust. Appl. Math. 27, 2010), and the structure tensors and residuals are
built from the compressed fibers W_i* b W_i weighted by the multiplicities
m_i, which keep the HS inner product of the span; a bundle whose
decomposition fails, or whose block build is not at rounding level, is
built in the ambient M_n as before.

The fibers, the product tensor and the star tensor are each stored once,
as one read-only array indexed by group elements and zero-padded to the
largest fiber dimension db (`fiber_array`, `prod_array`, `star_array`);
`fibers[g]`, `prod[g][h]` and `star_tensor[g]` are tuples of read-only
views of their blocks (`numerics.freeze`).  Construction keeps the fibers
and the unit's coordinates; the product and star tensors, their residuals
and the directness of the fiber sum are built on the first read of any of
them, so a command that only writes a bundle out never forms them.  The
irreducible types of the *-algebra spanned by all fibers (`blocks`) and of
A_e (`unit_blocks`) are decomposed once per bundle: when the structure is
built on them, otherwise when first read.  `fiber_norms` reads the operator
norms of fiber elements off the types of A_e (||b|| = ||b* b||^(1/2) outside
A_e) when every residual of the bundle is at rounding level, and off the
ambient matrices otherwise.

Construction is whole-array.  One batched Gram decides which input fibers
are already HS-orthonormal, and the structure tensors come from batched
products and projections over chunks of fiber pairs, each chunk's
intermediates near `numerics.CHUNK_BYTES`.  `dynamical_bundle` solves the
coordinates of every adjoint and product it checks with one least-squares
call, judges the automorphism battery over all (g, i, j) at once (raising
the error the per-element loop would raise first) and takes its fibers from
`crossed_stack`, the one construction of the crossed-product embedding,
which `crossed_embed` and the module bundles of `hilbundles` read too; the
coordinates of every b*c (`FellBundle.adjoint_products`) and the regular
representations (`regular_representations`) have one construction each.
A graded map (`BundleMap`) stores one matrix per fiber in the HS bases;
`projection_expectation` is the one onto a sub-bundle over the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, GroupHom, identity_hom
from .numerics import DEFAULT_TOL, ROUNDING, Blocks, Tolerance, as_cmatrix, chunks, \
    decompose_algebra, direct_sum_slots, freeze, frob, identity_bound, membership_bound, \
    one_block, opnorm, opnorms, orthonormal_basis, padded, rank_check, rank_cut, unit_bound
from .reports import Report


# the smallest ambient side whose structure is built in the blocks of its
# span: below it the decomposition costs more than the blocks save (on the
# group bundles Z2-Z12 and S3 and the crossed products M2xZ2-M4xZ2, 0.2 to
# 0.7 ms more per build), so those bundles decompose only when read
_BLOCK_SIDE = 16


# the attributes of a FellBundle built on first read: those `_build_structure`
# sets, and those `_record_directness` sets after it
_STRUCTURE = frozenset({"prod_array", "star_array", "prod", "star_tensor",
                        "grading_residual", "involution_residual"})
_DIRECTNESS = frozenset({"directness_residual", "directness_sv", "direct"})


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
    residuals are recorded when the structure is built and surfaced by
    validate_bundle, so deliberately perturbed bundles can be built and
    reported on.
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
        eye = np.eye(n, dtype=np.complex128)
        self.unit_coords, self.unit_residual = self.coords(group.identity, eye)
        self.unital = self.unital_at(tol)

    def __getattr__(self, name):
        """The structure tensors and residuals (`_build_structure`) and the
        directness fields (`_record_directness`, which reads the block
        fibers of the structure build), built on the first read of one of
        them and kept."""
        if name not in _STRUCTURE and name not in _DIRECTNESS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if "prod_array" not in vars(self):
            self._build_structure()
        if name in _DIRECTNESS:
            self._record_directness()
        return vars(self)[name]

    def _record_directness(self):
        """The fiber sum is direct iff the stacked HS-orthonormal bases have
        full rank; f -> sum_g f(g) is then a faithful *-representation of
        the cross-sectional algebra.  The smallest and largest singular
        values are kept so validate_bundle can judge the rank cut at its own
        tolerance.  After the block build they are read off the fibers' block
        coordinates, an isometry of the span, whose singular values are the
        ambient ones up to a relative error of the decomposition's residual."""
        if self.total_dim == 0:
            self.directness_residual, self.directness_sv = 0.0, (1.0, 1.0)
        else:
            flat = vars(self).get("_block_fibers", self.fiber_array)
            rows = flat.reshape(*flat.shape[:2], -1)[
                np.arange(flat.shape[1]) < np.asarray(self.dims)[:, None]]
            sv = np.linalg.svd(rows, compute_uv=False)
            smallest = float(sv[-1]) if len(sv) == self.total_dim else 0.0
            self.directness_residual = 1.0 - smallest
            self.directness_sv = (smallest, float(sv[0]))
        self.direct = bool(rank_cut(*self.directness_sv, self._tol)[0])

    # -- structure tensors ------------------------------------------------

    def _build_structure(self):
        """The product and star tensors and their grading and involution
        residuals.  From ambient side _BLOCK_SIDE on they are built in the
        block coordinates of the span of the fibers
        (`_span_blocks`, decomposed first) when it has more than one
        irreducible block and that build stands (`_stands_in_blocks`);
        otherwise, as for a broken bundle, in the ambient M_n: the same
        build on the trivial decomposition (`numerics.one_block`)."""
        grp, n = self.group, self.ambient_dim
        built = None
        if n >= _BLOCK_SIDE and self._span_blocks.types != [(n, 1)]:
            built = self._structure(self._span_blocks.compress(self.fiber_array))
            if self._stands_in_blocks(built[2], built[4]):
                # the fibers' block coordinates, which `_record_directness` reads
                self._block_fibers = built[0]
            else:
                built = None
        if built is None:
            built = self._structure(one_block(n).compress(self.fiber_array))
        _, prod, self.grading_residual, star, self.involution_residual = built
        dgh = np.asarray(self.dims)[grp.table].tolist()
        self.prod_array, self.star_array = prod, star
        self.prod = freeze(prod, [[(self.dims[g], self.dims[h], dgh[g][h])
                                   for h in grp.elements()] for g in grp.elements()])
        self.star_tensor = freeze(star, [(self.dims[g], self.dims[grp.inv(g)])
                                         for g in grp.elements()])

    def _structure(self, groups):
        """The structure tensors in block coordinates: the compressions
        `groups` of the fiber array (`Blocks.compress`) flatten, each type
        weighted by the square root of its multiplicity, to coordinates in
        which the HS inner product of the span is the plain one (for the
        trivial decomposition, the flattened ambient matrices).  Products
        and adjoints are taken type by type.  Returns the flattened fibers
        (|G|, db, K), the product tensor and grading residuals, and the
        star tensor and involution residuals."""
        grp = self.group
        n, db = grp.order, self.fiber_array.shape[1]
        roots = [np.sqrt(mult)[:, None, None] for mult, _ in groups]

        def flat(parts, lead):
            out = [(c if (r == 1).all() else c * r).reshape(*lead, math.prod(c.shape[-3:]))
                   for c, r in zip(parts, roots)]
            return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)

        fib = flat([c for _, c in groups], (n, db))
        size = fib.shape[-1]

        def project(rows, q):
            """Coordinates of the flattened matrices rows[t] in the padded
            basis of A_{q[t]} (the einsum keeps the sums of `coords`, so the
            ambient coordinates are bitwise the same), and the norm of what
            each leaves out: the weighted norm of the compressed
            difference."""
            c = np.einsum("tkx,trx->trk", fib[q].conj(), rows)
            return c, np.linalg.norm(rows - c @ fib[q], axis=-1)

        # product tensor: prod[g, h, i, j, :] = coords of b_i^g b_j^h in A_{gh},
        # for chunks of pairs (g, h) at once; the grading residual is
        # absolute, i.e. relative to the HS-unit factors, so a product that
        # vanishes up to rounding stays small.  Each chunk is read four times
        # (product, projection, reconstruction, residual), so it is counted as
        # four blocks: on the benchmark's crossed products a chunk of one
        # block's budget ran up to 40% slower than the per-pair loop
        prod = np.zeros((n, n, db, db, db), dtype=np.complex128)
        grading = np.zeros((n, n))
        for idx in chunks(n * n, 4 * db * db * size):
            g, h = np.divmod(idx, n)
            p = flat([c[g][:, :, None] @ c[h][:, None] for _, c in groups], (len(idx), db * db))
            c, miss = project(p, grp.table[g, h])
            prod[g, h] = c.reshape(len(idx), db, db, db)
            grading[g, h] = miss.max(axis=1, initial=0.0)
        # star tensor: star[g][i, :] = coords of (b_i^g)^* in A_{g^-1}, with the
        # residual relative to each adjoint
        star = np.zeros((n, db, db), dtype=np.complex128)
        involution = np.zeros(n)
        for idx in chunks(n, db * size):
            adj = flat([c[idx].conj().swapaxes(-1, -2) for _, c in groups], (len(idx), db))
            star[idx], miss = project(adj, grp.inverse[idx])
            scale = np.linalg.norm(adj, axis=-1)
            involution[idx] = np.divide(
                miss, scale, out=np.zeros_like(miss), where=scale > 0).max(axis=1, initial=0.0)
        return fib, prod, grading, star, involution

    def _stands_in_blocks(self, grading, involution) -> bool:
        """Whether the block build gives the ambient one up to rounding: the
        decomposition's self-check and every residual are at rounding level
        (`numerics.ROUNDING`), so the span is a *-algebra there, and a random
        element v = x y + z + w* of the span, its products and adjoints
        keeps its HS norm under the weighted compression.  The self-check
        shows that only on the span, and v is generic in the sum of the
        span, its products and its adjoints, which the residuals are
        differences in."""
        blocks, n = self._span_blocks, self.ambient_dim
        if max(blocks.residual, grading.max(initial=0.0),
               involution.max(initial=0.0)) > ROUNDING:
            return False
        basis = self.fiber_array.reshape(-1, n * n)
        coef = np.random.default_rng(0).standard_normal((2, 4, len(basis)))
        x, y, z, w = ((coef[0] + 1j * coef[1]) @ basis).reshape(4, n, n)
        v = x @ y + z + w.conj().T
        weighted = sum(float(np.linalg.norm(c, axis=(-2, -1)) ** 2 @ mult)
                       for mult, c in blocks.compress(v))
        return abs(weighted - frob(v) ** 2) <= ROUNDING * frob(v) ** 2

    @functools.cached_property
    def adjoint_products(self) -> np.ndarray:
        """The padded, read-only (|G|, |G|, db, db, db) array whose entry
        [g, h, i, j] holds the coordinates of (b_i^g)* b_j^h in A_{g^-1 h}:
        the star tensor times the product tensor, formed on first use."""
        n, db = self.group.order, self.star_array.shape[-1]
        sp = (self.star_array[:, None] @ self.prod_array[self.group.inverse].reshape(
            n, n, db, db * db)).reshape(n, n, db, db, db)
        sp.flags.writeable = False
        return sp

    # -- irreducible blocks ------------------------------------------------

    def _decomposed(self, decompose, residual: float) -> Blocks:
        """decompose(), a decomposition at the construction tolerance, or one block when the
        recorded grading or involution `residual` says that the span is not
        a *-algebra."""
        if residual > membership_bound(self._tol):
            return one_block(self.ambient_dim)
        return decompose()

    @functools.cached_property
    def _span_blocks(self) -> Blocks:
        """decompose_algebra of the span of all fibers at the construction
        tolerance, which the structure tensors are built on."""
        return decompose_algebra(np.concatenate(self.fibers), self._tol)

    @property
    def tolerance(self) -> Tolerance:
        """The construction tolerance: the grading, directness and
        decompositions of the bundle are judged at it."""
        return self._tol

    @functools.cached_property
    def blocks(self) -> Blocks:
        """The irreducible types of the *-algebra spanned by all fibers: the
        decomposition the structure tensors were built on."""
        return self._decomposed(
            lambda: self._span_blocks,
            max(self.grading_residual.max(initial=0.0), self.involution_residual.max(initial=0.0)))

    @functools.cached_property
    def unit_blocks(self) -> Blocks:
        """The irreducible types of the unit fiber A_e, decomposed on first
        use."""
        e = self.group.identity
        return self._decomposed(
            lambda: decompose_algebra(self.fibers[e], self._tol),
            max(self.grading_residual[e, e], self.involution_residual[e]))

    def fiber_norms(self, g, coords) -> np.ndarray:
        """The operator norms of the elements with padded coordinates
        coords[t] (T, db) in A_{g[t]}.  When the bundle stands at rounding
        (its grading and involution residuals and the self-check of
        `unit_blocks` at most `numerics.ROUNDING`) they are read off the
        irreducible types of A_e: an element of A_e has the largest norm of
        its compressions W_i* b W_i, a type of size 1 being the modulus of
        its one entry, and any other b has ||b|| = ||b* b||^(1/2), b* b in
        A_e from `adjoint_products`.  Otherwise, as for a bundle bent up to
        the membership bound, which moves b* b by up to that bound, they are
        the norms of the ambient n x n matrices, by batched SVDs."""
        g, coords = np.asarray(g), np.asarray(coords, dtype=np.complex128)
        out = np.zeros(len(g))
        n, db = self.ambient_dim, coords.shape[-1]
        if not self._norms_in_blocks():
            for idx in chunks(len(g), n * n + db):
                out[idx] = opnorms((coords[idx, None] @ self.fiber_array[g[idx]].reshape(
                    len(idx), db, n * n)).reshape(len(idx), n, n))
            return out
        e = self.group.identity
        de = self.dims[e]
        if de == 0:
            return out
        groups = self.unit_blocks.compress(self.fibers[e])
        squared = g != e
        for idx in chunks(len(g), db ** 3 + sum(c[0].size for _, c in groups)):
            unit, off = coords[idx, :de], squared[idx]  # unit is a copy
            if off.any():
                c, h = coords[idx][off], g[idx][off]
                half = (c.conj()[:, None] @ self.adjoint_products[h, h].reshape(
                    len(c), db, db * db)).reshape(len(c), db, db)
                unit[off] = (c[:, None] @ half)[:, 0, :de]
            for _, comp in groups:
                size, k = comp.shape[1], comp.shape[-1]
                vals = (unit @ comp.reshape(de, size * k * k)).reshape(len(idx), size, k, k)
                norms = np.abs(vals[..., 0, 0]) if k == 1 else opnorms(vals)
                out[idx] = np.maximum(out[idx], norms.max(axis=1))
        return np.where(squared, np.sqrt(out), out)

    def _norms_in_blocks(self) -> bool:
        """Whether `fiber_norms` reads the blocks of A_e: the grading and
        involution residuals, then the self-check of `unit_blocks`, are at
        rounding level."""
        return max(self.grading_residual.max(initial=0.0),
                   self.involution_residual.max(initial=0.0)) <= ROUNDING \
            and self.unit_blocks.residual <= ROUNDING

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


def bundles_equal(b1: FellBundle, b2: FellBundle) -> bool:
    """Structural equality: same group table, ambient algebra, and fibers."""
    if b1 is b2:
        return True
    if b1.group != b2.group or b1.ambient_dim != b2.ambient_dim or b1.dims != b2.dims:
        return False
    return all(
        np.allclose(b1.fibers[g], b2.fibers[g], atol=1e-10)
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


def regular_representations(bundle: FellBundle) -> tuple[np.ndarray, np.ndarray]:
    """The left and right regular representations on the direct sum of the
    fibers (`numerics.direct_sum_slots`): padded (|G|, db, D, D) arrays, D
    the total fiber dimension, left[g, i] the matrix of x -> b_i^g x and
    right[h, i] that of x -> x b_i^h.  Each is one gather of the product
    tensor where the Cayley table sends the column's fiber to the row's."""
    grp, prod = bundle.group, bundle.prod_array
    t, a = direct_sum_slots(bundle.dims)
    tr, ar, tc, ac = t[:, None], a[:, None], t[None, :], a[None, :]  # row and column slots
    k, i = np.arange(grp.order)[:, None, None, None], np.arange(prod.shape[2])[:, None, None]
    # b_i^k sends component a of A_t to A_{kt}, x b_i^k sends it to A_{tk}
    left = np.where(grp.table[k, tc] == tr, prod[k, tc, i, ac, ar], 0)
    right = np.where(grp.table[tc, k] == tr, prod[tc, k, ac, i, ar], 0)
    return left, right


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

    return FellBundle(group, m * ng, crossed_stack(group, basis, alpha), tol)


def crossed_stack(group: FiniteGroup, algebra_basis, alpha) -> np.ndarray:
    """The crossed-product elements (a_i, g) of the regular-covariant
    realization, (|G|, k, m|G|, m|G|): entry [g, i] is
    (sum_h alpha_{h^-1}(a_i) (x) E_hh) . (1 (x) u_g), for alpha[g] the k x k
    matrix of alpha_g.  The diagonal factors come from one scatter into the
    diagonal blocks, the products from one batched matmul."""
    basis = np.asarray(algebra_basis, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.complex128)
    k, m, _ = basis.shape
    ng = group.order
    # images[g, i] = alpha_g(a_i)
    images = (alpha.swapaxes(1, 2) @ basis.reshape(k, -1)).reshape(ng, k, m, m)
    d = np.zeros((k, m, ng, m, ng), dtype=np.complex128)
    d[:, :, np.arange(ng), :, np.arange(ng)] = images[group.inverse]
    v = np.eye(m)[None, :, None, :, None] * regular_unitaries(group)[:, None, :, None, :]
    return d.reshape(1, k, m * ng, m * ng) @ v.reshape(ng, 1, m * ng, m * ng)


def crossed_embed(group: FiniteGroup, algebra_basis, beta, b_coords, g: int) -> np.ndarray:
    """Concrete matrix of the crossed-product element (b, g) in the
    regular-covariant realization used by dynamical_bundle: the combination
    of the stack of crossed_stack over g with b's coordinates."""
    return np.tensordot(np.asarray(b_coords, dtype=np.complex128),
                        crossed_stack(group, algebra_basis, beta)[g], axes=(0, 0))


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


class BundleMapMismatchError(ValueError):
    pass


@dataclass
class BundleMap:
    """Family of fiberwise linear maps T_g: A_g -> B_{phi(g)}, stored as
    matrices in the HS-orthonormal fiber bases."""

    source: FellBundle
    target: FellBundle
    hom: GroupHom
    mats: list[np.ndarray]

    def __post_init__(self):
        if self.hom.source != self.source.group or self.hom.target != self.target.group:
            raise BundleMapMismatchError("homomorphism does not connect the bundles")
        fixed = []
        for g in self.source.group.elements():
            m = np.asarray(self.mats[g], dtype=np.complex128)
            want = (self.target.dims[self.hom(g)], self.source.dims[g])
            if m.shape != want:
                raise BundleMapMismatchError(f"T_{g} must have shape {want}")
            fixed.append(m)
        self.mats = fixed

    def apply(self, g: int, acoords) -> np.ndarray:
        return self.mats[g] @ np.asarray(acoords, dtype=np.complex128)

    def apply_ambient(self, g: int, mat) -> np.ndarray:
        c, _ = self.source.coords(g, mat)
        return self.target.element(self.hom(g), self.apply(g, c))

    def norm(self) -> float:
        """Largest fiberwise operator norm (HS coordinates); a scale, not a
        C*-norm."""
        return max((opnorm(m) for m in self.mats), default=0.0)


def projection_expectation(sup: FellBundle, sub: FellBundle) -> BundleMap:
    """Fiberwise HS-orthogonal projection onto the sub-bundle, a bundle map
    over the identity of the group.

    This is a genuine conditional expectation whenever the HS projection is
    bimodular for the pair (e.g. compression to a diagonal/averaged
    subalgebra); pdmaps.check_subbundle_and_expectation decides that.
    """
    maps = [np.einsum("jab,iab->ji", sub.fibers[g].conj(), sup.fibers[g])
            for g in sup.group.elements()]
    return BundleMap(sup, sub, identity_hom(sup.group), maps)
