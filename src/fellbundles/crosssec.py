"""Convolution sections, their ambient image, and the oracle representations.

Sections are finitely supported graded functions on the group, stored as
one read-only (|G|, db) array of coordinates over the HS-orthonormal fiber
bases, zero-padded to the largest fiber dimension db (`coeff_array`);
`coeffs[g]` is the view of its first dims[g] entries in row g.  Convolution
is the bundle's right action on itself, so it shares the kernel of the
module actions in `correspondences` (`_diagonal_sum`); the involution is one
gather through the group inverse.  The ambient image f -> sum_g f(g) in M_n
is a *-homomorphism; it is injective exactly when the fiber sum is direct
(FellBundle.direct), and an injective *-homomorphism of finite-dimensional
C*-algebras is isometric, so the operator norm of the ambient image is the
exact C*-norm.  For finite groups the full and reduced norms coincide.

The regular representation on the direct sum of all fibers (RegRep, the
left half of `bundles.regular_representations`, which the square-summable
module and action read too) and the block matrix algebras over tuples
realized on sums of fibers (MatrixAlgOp) are kept as independent oracles
for the ambient route; no verdict of the library reads them.
"""

from __future__ import annotations

import numpy as np

from .bundles import FellBundle, FiberEscapeError, regular_representations
from .numerics import DEFAULT_TOL, PsdResult, Tolerance, freeze, grading_guard, judge_psd, \
    membership_bound, opnorm, rank_check, split_draws, stack_spectra


class BundleMismatchError(ValueError):
    pass


class BlockEscapeError(ValueError):
    pass


class NotDirectError(ValueError):
    """The fiber sum is not direct, so the ambient image of sections is not
    faithful."""


class Section:
    """Element of the convolution *-algebra of a bundle, built from a copy of
    its padded coefficient array (ValueError on a wrong shape or padding)."""

    def __init__(self, bundle: FellBundle, coeff_array):
        arr, dims = np.array(coeff_array, dtype=np.complex128), np.asarray(bundle.dims)
        if arr.shape != (len(dims), dims.max(initial=0)):
            raise ValueError(f"a section needs a ({len(dims)}, {dims.max(initial=0)}) "
                             f"coefficient array, not {arr.shape}")
        stray = np.flatnonzero(((arr != 0) & (np.arange(arr.shape[1]) >= dims[:, None])).any(1))
        if len(stray):
            raise ValueError(f"fiber {stray[0]}: nonzero coefficient past its "
                             f"{dims[stray[0]]} coordinates")
        self.bundle, self.coeff_array = bundle, arr
        self.coeffs = freeze(arr, [(d,) for d in bundle.dims])

    @staticmethod
    def zero(bundle: FellBundle) -> "Section":
        return Section(bundle, np.zeros((bundle.group.order, max(bundle.dims, default=0))))

    @staticmethod
    def delta(bundle: FellBundle, g: int, mat) -> "Section":
        """Section supported at g with the given ambient value, which must lie
        in the fiber up to the bundle's membership bound."""
        c, res = bundle.coords(g, mat)
        if res > membership_bound(bundle.tolerance):
            raise FiberEscapeError(f"value does not lie in the fiber over {g}")
        return _supported(bundle, g, c)

    @staticmethod
    def unit(bundle: FellBundle) -> "Section":
        if not bundle.unital:
            raise ValueError("bundle is not unital")
        return _supported(bundle, bundle.group.identity, bundle.unit_coords)

    @staticmethod
    def random(bundle: FellBundle, rng) -> "Section":
        """Coordinates drawn as `random_coords` of each fiber in turn."""
        z = rng.standard_normal(2 * bundle.total_dim)
        return Section(bundle, split_draws(z, np.asarray(bundle.dims),
                                           max(bundle.dims, default=0)))

    def ambient(self, g: int) -> np.ndarray:
        return self.bundle.element(g, self.coeffs[g])

    def support(self) -> list[int]:
        return np.flatnonzero(self.coeff_array.any(axis=1)).tolist()

    def __add__(self, other: "Section") -> "Section":
        _same_bundle(self, other)
        return Section(self.bundle, self.coeff_array + other.coeff_array)

    def __sub__(self, other: "Section") -> "Section":
        _same_bundle(self, other)
        return Section(self.bundle, self.coeff_array - other.coeff_array)

    def __rmul__(self, scalar) -> "Section":
        return Section(self.bundle, scalar * self.coeff_array)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.vdot(self.coeff_array, self.coeff_array).real))

    def allclose(self, other: "Section", atol=1e-10) -> bool:
        _same_bundle(self, other)
        return np.allclose(self.coeff_array, other.coeff_array, atol=atol)


def _supported(bundle: FellBundle, g: int, c) -> Section:
    arr = np.zeros((bundle.group.order, max(bundle.dims, default=0)), dtype=np.complex128)
    arr[g, :bundle.dims[g]] = c
    return Section(bundle, arr)


def _same_bundle(f1: Section, f2: Section):
    if f1.bundle is not f2.bundle:
        raise BundleMismatchError("sections live over different bundles")


def _guard_grading(bundle: FellBundle):
    worst = float(bundle.grading_residual.max(initial=0.0))
    if worst > grading_guard(bundle.tolerance):
        raise FiberEscapeError(
            f"bundle grading is violated (residual {worst:.2e}); convolution is ill-defined"
        )


def _diagonal_sum(tensor, x, c, index) -> np.ndarray:
    """out[h] = sum_k y[k, index[k, h]] for the pairing
    y[k, j] = sum_i c[k, j, i] tensor[k, j, i] @ x[k, j], where tensor is a
    padded (K, J, d, m, m') array of operators and the padded coordinate and
    vector arrays c (., ., d) and x (., ., m') broadcast over (K, J)."""
    y = (tensor @ x[..., None, :, None])[..., 0]
    y = (c[..., None, :] @ y)[..., 0, :]
    return y[np.arange(len(y))[:, None], index].sum(axis=0)


def convolve(f1: Section, f2: Section) -> Section:
    """(f1 * f2)(h) = sum_g f1(g) f2(g^-1 h): the right action of the bundle
    on itself, x -> x b_i read from slice [:, i] of the product tensor."""
    _same_bundle(f1, f2)
    bundle = f1.bundle
    _guard_grading(bundle)
    grp = bundle.group
    act = bundle.prod_array.transpose(0, 1, 3, 4, 2)
    return Section(bundle, _diagonal_sum(act, f1.coeff_array[:, None], f2.coeff_array[None],
                                         grp.table[grp.inverse]))


def star(f: Section) -> Section:
    """f*(h) = f(h^-1)*."""
    bundle = f.bundle
    _guard_grading(bundle)
    inv = bundle.group.inverse
    return Section(bundle, (f.coeff_array[inv, None].conj() @ bundle.star_array[inv])[:, 0])


class RegRep:
    """Left convolution action on the direct sum of all fibers: `left`, the
    left regular representation of `bundles.regular_representations`, and
    `generators`, the dict of its basis images keyed by (g, i).  The object
    is pure and shareable."""

    def __init__(self, bundle: FellBundle):
        self.bundle = bundle
        self.dim = bundle.total_dim
        self.left = regular_representations(bundle)[0]
        g, i = np.nonzero(np.arange(self.left.shape[1]) < np.asarray(bundle.dims)[:, None])
        self.generators = dict(zip(zip(g.tolist(), i.tolist()), self.left[g, i]))

    def of_element(self, g: int, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=np.complex128),
                            self.left[g, :self.bundle.dims[g]], axes=(0, 0))


def regular_rep(bundle: FellBundle) -> RegRep:
    return RegRep(bundle)


def rep_matrix(rep: RegRep, f: Section) -> np.ndarray:
    if f.bundle is not rep.bundle:
        raise BundleMismatchError("section does not belong to this representation")
    return np.tensordot(f.coeff_array, rep.left, axes=2)


def require_direct(bundle: FellBundle) -> None:
    """Refuse a bundle whose fiber sum is not direct (NotDirectError): the
    ambient image of its sections is not faithful."""
    if not bundle.direct:
        raise NotDirectError(
            f"directness of fiber sum fails (residual {bundle.directness_residual:.2e}); "
            "sections have no faithful ambient image")


def ambient_image(f: Section) -> np.ndarray:
    """sum_g f(g) in M_n, the faithful image of a section over a bundle whose
    fiber sum is direct (NotDirectError otherwise)."""
    require_direct(f.bundle)
    return np.tensordot(f.coeff_array, f.bundle.fiber_array, axes=2)


def cstar_norm(f: Section) -> float:
    """C*-norm of a section: operator norm of its ambient image."""
    return opnorm(ambient_image(f))


def rep_is_faithful(rep: RegRep, tol: Tolerance | None = None) -> bool:
    """Rank check: the linear map f -> lambda(f) has trivial kernel."""
    tol = tol or DEFAULT_TOL
    # the padding of `left` adds zero rows, which change no singular value
    return rep.dim == 0 or bool(rank_check(rep.left.reshape(-1, rep.dim ** 2), rep.dim, tol)[0])


class MatrixAlgOp:
    """An element R of the block matrix algebra over a tuple g, realized as
    the concrete operator L_R on the direct sum of the fibers A_{g_i^-1}."""

    def __init__(self, bundle: FellBundle, gtuple, blocks, tol: Tolerance | None = None):
        tol = tol or DEFAULT_TOL
        self.bundle = bundle
        self.gtuple = list(gtuple)
        grp = bundle.group
        n = len(self.gtuple)
        col_dims = [bundle.dims[grp.inv(g)] for g in self.gtuple]
        self.offsets = np.concatenate([[0], np.cumsum(col_dims)]).astype(int)
        dim = self.offsets[-1]
        self.matrix = np.zeros((dim, dim), dtype=np.complex128)
        self.block_coords = [[None] * n for _ in range(n)]
        arr = [[np.asarray(blocks[i][j], dtype=np.complex128) for j in range(n)]
               for i in range(n)]
        bound = membership_bound(tol) * max(
            1.0, *(float(np.linalg.norm(blk)) for row in arr for blk in row))
        for i, gi in enumerate(self.gtuple):
            for j, gj in enumerate(self.gtuple):
                gij = grp.mul(grp.inv(gi), gj)
                c, res = bundle.coords(gij, arr[i][j])
                # residual from coords() is relative to the block itself;
                # judge escapes against the overall scale of the matrix
                if res * float(np.linalg.norm(arr[i][j])) > bound:
                    raise BlockEscapeError(
                        f"block ({i},{j}) does not lie in the fiber over {gij}"
                    )
                self.block_coords[i][j] = c
                blk = bundle.left_mult_matrix(gij, c, grp.inv(gj))
                self.matrix[self.offsets[i]:self.offsets[i + 1],
                            self.offsets[j]:self.offsets[j + 1]] = blk

    @property
    def norm(self) -> float:
        return opnorm(self.matrix)

    def psd(self, tol: Tolerance | None = None) -> PsdResult:
        """The PSD verdict of L_R (`numerics.judge_psd`) and its smallest
        eigenvalue, -inf when L_R is not Hermitian."""
        defect, low, high = stack_spectra(self.matrix[None])
        ok, _, hermitian = judge_psd(defect[0], low[0], high[0], tol or DEFAULT_TOL)
        return PsdResult(bool(ok), float(low[0]) if hermitian else float("-inf"))

    def vector_to_tuple(self, v: np.ndarray) -> list[np.ndarray]:
        """Split a vector on the localized module into fiber elements of
        A_{g_i^-1} (ambient matrices)."""
        grp = self.bundle.group
        out = []
        for i, gi in enumerate(self.gtuple):
            c = v[self.offsets[i]:self.offsets[i + 1]]
            out.append(self.bundle.element(grp.inv(gi), c))
        return out


def matrix_alg(bundle: FellBundle, gtuple, blocks, tol: Tolerance | None = None) -> MatrixAlgOp:
    """Assemble L_R for a block matrix R with R[i][j] in A_{g_i^-1 g_j}.

    blocks are ambient matrices; membership is validated (BlockEscapeError).
    """
    return MatrixAlgOp(bundle, gtuple, blocks, tol)
