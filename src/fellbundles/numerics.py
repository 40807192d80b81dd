"""Dense complex linear algebra kernel.

Everything downstream (graded bundles, positivity certificates, module
Grams) reduces to Hermitian eigenproblems, PSD and definiteness checks,
numerical ranks and subspace bookkeeping on small complex matrices.  All tolerances are
relative to a matrix norm, never absolute.

The bundle objects store each nested per-group-element tensor family once,
as one zero-padded read-only array with nested tuples of views of its blocks
(`stored`, `freeze`); the batched checks read those arrays and evaluate a
family of small identities or matrices in chunks whose intermediates stay
near CHUNK_BYTES (`chunks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NotSquareError(ValueError):
    pass


class NotHermitianError(ValueError):
    pass


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerances: PSD margins, rank decisions, equality checks."""

    rel_psd: float = 1e-8
    rel_rank: float = 1e-9
    rel_eq: float = 1e-9

    def __post_init__(self):
        if not all(0 < t < math.inf for t in (self.rel_psd, self.rel_rank, self.rel_eq)):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_TOL = Tolerance()


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a complex128 2-d array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm; 0 for empty matrices."""
    return float(opnorms(m))


def opnorms(stack) -> np.ndarray:
    """Operator norm of every matrix of a stack (..., k, l), by one batched
    SVD; 0 for empty matrices."""
    a = np.asarray(stack)
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.norm(a, 2, axis=(-2, -1))


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def relative(diff: float, scale: float) -> float:
    """diff measured against max(scale, 1): the residual convention of every
    validator."""
    return diff / max(scale, 1.0)


# bytes of batch intermediates per chunk of a batched check
CHUNK_BYTES = 1 << 22
# a batched check holds about eight complex arrays (16 bytes an entry) of
# its largest per-item block at once: gathered inputs, both sides, their
# difference and reshaped copies
_LIVE_BYTES_PER_ENTRY = 8 * 16


def chunks(count: int, entries: int):
    """Index arrays of consecutive items 0..count-1, so many per chunk that
    the chunk's intermediates stay near CHUNK_BYTES, for items whose largest
    block has `entries` complex entries."""
    step = max(1, CHUNK_BYTES // max(_LIVE_BYTES_PER_ENTRY * entries, 1))
    for start in range(0, count, step):
        yield np.arange(start, min(start + step, count))


def worst_relative(count: int, entries: int, sides) -> float:
    """max over items t < count of relative(frob(lhs_t - rhs_t), frob(lhs_t)),
    where sides(idx) stacks the two sides, `entries` complex entries per
    item, of the items idx of one chunk."""
    worst = 0.0
    for idx in chunks(count, entries):
        lhs, rhs = (np.ascontiguousarray(side).reshape(len(idx), -1) for side in sides(idx))
        res = _row_norms(lhs - rhs) / np.maximum(_row_norms(lhs), 1.0)
        worst = max(worst, float(res.max(initial=0.0)))
    return worst


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every row of a contiguous complex (B, k) array, as a
    batched dot of its real view (no temporaries of the array's size)."""
    v = a.view(np.float64)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def padded(blocks, shape) -> np.ndarray:
    """A list of lists of arrays as one complex array, every block
    zero-padded to `shape`: blocks[i][j] fills out[i, j, :a, :b, ...]."""
    out = np.zeros((len(blocks), len(blocks[0]), *shape), dtype=np.complex128)
    for i, row in enumerate(blocks):
        for j, blk in enumerate(row):
            out[(i, j, *map(slice, np.shape(blk)))] = blk
    return out


def freeze(arr: np.ndarray, shapes):
    """Make arr read-only and return nested tuples of views of its blocks:
    `shapes` nests lists of block shapes, and the block at index path
    (i, j, ...) is arr[i, j, ..., :a, :b, ...] for the shape (a, b, ...)
    at that path."""
    arr.flags.writeable = False

    def views(s, index):
        if isinstance(s, tuple):
            return arr[(*index, *map(slice, s))]
        return tuple(views(t, (*index, i)) for i, t in enumerate(s))

    return views(shapes, ())


def stored(blocks, shape):
    """The stored form of a list of lists of blocks: their `padded` array,
    read-only, and the nested tuples of views of its blocks at their own
    shapes (`freeze`)."""
    arr = padded(blocks, shape)
    return arr, freeze(arr, [[np.shape(b) for b in row] for row in blocks])


def split_draws(z: np.ndarray, dims: np.ndarray, width: int) -> np.ndarray:
    """Coordinates drawn as consecutive `random_coords` calls (real parts,
    then imaginary parts, of each element in turn), zero-padded to
    (len(dims), width)."""
    col = np.arange(width)
    mask = col < dims[:, None]
    re = (2 * (np.cumsum(dims) - dims))[:, None] + col
    out = np.zeros((len(dims), width), dtype=np.complex128)
    out[mask] = z[re[mask]] + 1j * z[(re + dims[:, None])[mask]]
    return out


def hermitian_defect(m: np.ndarray, floor: float = 1.0) -> float:
    """Deviation of m from its Hermitian part, relative to max(||m||_F, floor)."""
    return frob(m - dagger(m)) / max(frob(m), floor)


def hermitian_eigvals(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Raises NotSquareError / NotHermitianError if the input fails the
    preconditions (Hermitian within ``rel_eq`` relative to Frobenius norm).
    """
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}")
    if hermitian_defect(a) > tol.rel_eq:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    if a.shape[0] == 0:
        return np.zeros(0)
    # Work with the exact Hermitian part so eigvalsh sees a symmetric input.
    return np.linalg.eigvalsh((a + dagger(a)) / 2)


@dataclass(frozen=True)
class PsdResult:
    ok: bool
    margin: float  # minimal eigenvalue, reported either way
    scale: float = 1.0  # the max(largest eigenvalue, 1) a definite margin is judged against

    def __bool__(self):
        return self.ok


def psd_check(m, tol: Tolerance = DEFAULT_TOL) -> PsdResult:
    """Decide positive semidefiniteness of a Hermitian matrix.

    Passes iff the minimal eigenvalue is >= -rel_psd * max(1, ||m||).
    """
    a = as_cmatrix(m)
    if a.shape[0] == 0:
        return PsdResult(True, 0.0)
    ev = hermitian_eigvals(a, tol)
    margin = float(ev[0])
    # the norm of a Hermitian matrix is its largest |eigenvalue|
    scale = max(1.0, -margin, float(ev[-1]))
    return PsdResult(margin >= -tol.rel_psd * scale, margin)


def hermitian_psd_check(m, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float, bool]:
    """Judge a block Gram that should be Hermitian and PSD.

    Returns (ok, residual, hermitian).  A Hermitian defect above
    100 * rel_eq fails with the defect as residual; otherwise the Hermitian
    part is judged as by psd_check and the residual is max(-margin, 0).
    """
    ok, residual, hermitian = hermitian_psd_checks(as_cmatrix(m)[None], tol)
    return bool(ok[0]), float(residual[0]), bool(hermitian[0])


def hermitian_psd_checks(stack, tol: Tolerance = DEFAULT_TOL):
    """hermitian_psd_check of every matrix of a stack (B, k, k), from one
    batched eigvalsh whose eigenvalues also give each PSD scale.  Returns
    (ok, residual, hermitian) arrays of length B."""
    a = np.asarray(stack, dtype=np.complex128)
    ah = a.conj().swapaxes(-1, -2)
    defect = np.linalg.norm(a - ah, axis=(-2, -1)) / np.maximum(
        np.linalg.norm(a, axis=(-2, -1)), 1.0)
    hermitian = defect <= 100 * tol.rel_eq
    if a.shape[-1] == 0:
        return hermitian, np.zeros(len(a)), hermitian
    ev = np.linalg.eigvalsh((a + ah) / 2)
    margin = ev[:, 0]
    scale = np.maximum(1.0, np.maximum(-margin, ev[:, -1]))
    ok = hermitian & (margin >= -tol.rel_psd * scale)
    return ok, np.where(hermitian, np.maximum(-margin, 0.0), defect), hermitian


def definite_check(g, tol: Tolerance = DEFAULT_TOL) -> PsdResult:
    """Judge a localized (scalar) Gram definite: full rank, i.e. its minimal
    eigenvalue exceeds rel_rank * max(largest, 1).  The margin is the
    minimal eigenvalue; an empty Gram is definite."""
    a = as_cmatrix(g)
    if a.shape[0] == 0:
        return PsdResult(True, 0.0)
    ev = np.linalg.eigvalsh((a + dagger(a)) / 2)
    scale = max(float(ev[-1]), 1.0)
    return PsdResult(bool(ev[0] > tol.rel_rank * scale), float(ev[0]), scale)


def definite_blocks(blocks, tol: Tolerance = DEFAULT_TOL) -> PsdResult:
    """definite_check of the block-diagonal matrix with the given square
    blocks, from the eigenvalues of each block: the smallest of all against
    rel_rank * max(largest of all, 1).  Empty blocks add no eigenvalue."""
    evs = [np.linalg.eigvalsh((a + dagger(a)) / 2)
           for a in map(as_cmatrix, blocks) if a.shape[0]]
    if not evs:
        return PsdResult(True, 0.0)
    low = min(float(ev[0]) for ev in evs)
    scale = max(max(float(ev[-1]) for ev in evs), 1.0)
    return PsdResult(low > tol.rel_rank * scale, low, scale)


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above rel_rank * max(largest, 1)."""
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > tol.rel_rank * max(float(sv[0]), 1.0)))


def shortfall(margin: float, scale: float, rel: float) -> float:
    """How far margin falls short of its bound rel * scale, relative to the
    bound: the residual of a check that passes when margin exceeds the bound,
    0 when it does and 1 for a zero margin."""
    return max(1.0 - margin / (rel * scale), 0.0)


def rank_check(m, rank: int, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether numerical_rank(m) >= rank, with its residual: the shortfall
    of the rank-th largest singular value below rel_rank * max(largest, 1),
    relative to that bound (0 when the rank is reached, 1 when it is zero)."""
    sv = np.linalg.svd(m, compute_uv=False) if np.size(m) else np.zeros(0)
    scale = max(float(sv[0]), 1.0) if len(sv) else 1.0
    kth = float(sv[rank - 1]) if len(sv) >= rank else 0.0
    return kth > tol.rel_rank * scale, shortfall(kth, scale, tol.rel_rank)


def overflow_scale(a, what: str) -> float:
    """The power of two mu >= 1 that brings max|a| into [1, 2), or 1 when
    max|a| <= 1.  Dividing by a power of two is exact, so the eigenvalues,
    norms, products and singular vectors of a / mu are those of a divided by
    mu, yet they cannot overflow on huge finite entries.  Non-finite entries
    are refused as an OverflowError naming `what`."""
    peak = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(peak):
        raise OverflowError(f"the {what} exceeds the floating-point range")
    return 1.0 if peak <= 1.0 else math.ldexp(1.0, math.frexp(peak)[1] - 1)


def kron(a, b) -> np.ndarray:
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def orthonormal_basis(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize a family of vectors (rows), dropping dependencies.

    Returns rows spanning the same subspace, orthonormal in the standard
    Hermitian inner product.  Rank is decided by SVD at rel_rank relative
    to the largest singular value.  Finite rows whose norms would overflow
    are first divided by the power of two of `overflow_scale` (of the real
    and imaginary parts), which leaves the span as it is.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        v = v.reshape(len(v), -1)
    if v.shape[0] == 0:
        return v
    with np.errstate(over="ignore"):
        overflow = np.isinf(np.linalg.norm(v, axis=1)).any() and np.isfinite(v).all()
    if overflow:
        v = v / max(overflow_scale(v.real, "vectors"), overflow_scale(v.imag, "vectors"))
    u, s, vh = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, v.shape[1]), dtype=np.complex128)
    rank = int(np.sum(s > tol.rel_rank * s[0]))
    rows = vh[:rank]
    # canonical phase: largest-magnitude entry real positive, so bases are
    # deterministic and sign/phase choices survive serialization round-trips
    for i in range(rank):
        j = int(np.argmax(np.abs(rows[i])))
        pivot = rows[i, j]
        if abs(pivot) > 0:
            rows[i] = rows[i] * (pivot.conjugate() / abs(pivot))
    return rows


def in_span(basis, v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership of v in the row span of an orthonormal basis, decided by
    residual <= rel_rank * ||v||."""
    return span_residual(basis, v) <= tol.rel_rank


def span_residual(basis, v) -> float:
    """Relative distance of v from the row span of an orthonormal basis."""
    b = np.asarray(basis, dtype=np.complex128)
    w = np.asarray(v, dtype=np.complex128).ravel()
    nv = float(np.linalg.norm(w))
    if nv == 0.0:
        return 0.0
    if b.shape[0] == 0:
        return 1.0
    proj = b.conj() @ w
    res = w - b.T @ proj
    return float(np.linalg.norm(res)) / nv


def same_span(basis1, basis2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Span equality for two families of vectors (rows)."""
    b1 = orthonormal_basis(basis1, tol)
    b2 = orthonormal_basis(basis2, tol)
    if b1.shape[0] != b2.shape[0]:
        return False
    return all(in_span(b2, row, tol) for row in b1)
