"""Dense complex linear algebra kernel.

Everything downstream (graded bundles, positivity certificates, module
Grams) reduces to Hermitian eigenproblems, PSD and definiteness checks,
numerical ranks and subspace bookkeeping on small complex matrices.  All tolerances are
relative to a matrix norm, never absolute.

Every verdict is decided here, from the caller's Tolerance.  PSD and
definiteness come from spectral data: `block_spectra` is the one eigenvalue
kernel (Hermitian defect, smallest and largest eigenvalue of matrices given
blockwise, `stack_spectra` for a plain stack), `judge_psd` the one PSD judge
and `judge_definite` the one definiteness judge.  A caller that needs
eigenvectors takes its own `eigh` and still reads its verdict from the
judge.  Every other check compares its residual with one of the bounds
`identity_bound`, `product_bound`, `unit_bound`, `grading_guard` and
`membership_bound`, and every rank cut of a verdict (directness,
saturation, fullness, nondegeneracy, separation) is `rank_cut`
(`rank_check` on stacks of matrices).

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
    item, of the items idx of one chunk.  sides may return a third array,
    the scales (len(idx),) to judge against in place of frob(lhs_t)."""
    worst = 0.0
    for _, res in _chunk_residuals(count, entries, sides):
        worst = max(worst, float(res.max(initial=0.0)))
    return worst


def relative_residuals(count: int, entries: int, sides) -> np.ndarray:
    """The residual of every item t < count, as worst_relative takes them:
    for a check that reports which item fails first."""
    out = np.zeros(count)
    for idx, res in _chunk_residuals(count, entries, sides):
        out[idx] = res
    return out


def _chunk_residuals(count: int, entries: int, sides):
    """(idx, residuals) of each chunk of items (see worst_relative).  A
    chunk's arrays stay alive until the next chunk's are built, so that the
    allocator reuses their pages."""
    if entries == 0:  # every item is empty, so no residual
        return
    for idx in chunks(count, entries):
        lhs, rhs, *scale = (np.ascontiguousarray(side).reshape(len(idx), -1)
                            for side in sides(idx))
        yield idx, _row_norms(lhs - rhs) / np.maximum(
            scale[0][:, 0] if scale else _row_norms(lhs), 1.0)


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


@dataclass(frozen=True)
class PsdResult:
    ok: bool
    margin: float  # minimal eigenvalue, reported either way

    def __bool__(self):
        return self.ok


def block_spectra(groups, floor: float = 1.0):
    """Spectral data of B matrices given blockwise: groups is a list of
    (multiplicities (L,), stack (B, L, k, k)), and matrix b is the direct sum,
    over the groups and l < L, of multiplicities[l] copies of stack[b, l].
    Returns three arrays of length B: the Hermitian defect ||M - M*||_F /
    max(||M||_F, floor) (each block's Frobenius norm weighted by its
    multiplicity) and the smallest and largest eigenvalues of (M + M*) / 2
    (those of its blocks).  A matrix with no nonempty block is empty: its
    smallest eigenvalue reads +inf and its largest -inf, the extremes of no
    eigenvalue, so the judges read it as PSD and definite with residual 0.
    groups must not be empty."""
    if not groups:
        raise ValueError("block_spectra needs at least one group of blocks")
    anti = norm = 0.0
    low, high = np.inf, -np.inf
    for mult, a in groups:
        ah = a.conj().swapaxes(-1, -2)
        anti = anti + np.linalg.norm(a - ah, axis=(-2, -1)) ** 2 @ mult
        norm = norm + np.linalg.norm(a, axis=(-2, -1)) ** 2 @ mult
        if a.shape[-1]:
            ev = np.linalg.eigvalsh((a + ah) / 2)
            low = np.minimum(low, ev[..., 0].min(axis=-1))
            high = np.maximum(high, ev[..., -1].max(axis=-1))
    # length B even when every block is empty and no eigenvalue was taken
    low, high = np.broadcast_arrays(low, high, norm)[:2]
    return np.sqrt(anti) / np.maximum(np.sqrt(norm), floor), low, high


def stack_spectra(stack, floor: float = 1.0):
    """block_spectra of every matrix of a stack (B, k, k), each one block."""
    return block_spectra([(np.ones(1), np.asarray(stack, dtype=np.complex128)[:, None])], floor)


def judge_psd(defect, low, high, tol: Tolerance = DEFAULT_TOL, floor: float = 1.0, *,
              hermitian_bound: float | None = None, bound=None, refute: float | None = None):
    """The PSD verdict of matrices M from their spectral data (`block_spectra`):
    Hermitian defect, smallest and largest eigenvalues low, high of
    (M + M*) / 2.  M passes when its defect is at most 100 * rel_eq and

        low >= -rel_psd * max(floor, ||M||),   ||M|| = max(-low, high).

    A caller whose rule differs passes its own bound in: `hermitian_bound`
    for the defect; `bound`, the bound on -low itself; or `refute` = k, the
    looser bound of a sampled refutation, which fails M only when low <
    -k * rel_psd * max(floor, ||M||) or when its defect exceeds both 100 *
    rel_eq and k * rel_psd (a defect counts there as the margin -defect).
    Returns (ok, residual, hermitian), arrays shaped like the inputs: the
    residual is max(-low, 0) for a Hermitian M and its defect otherwise."""
    hermitian = defect <= (100 * tol.rel_eq if hermitian_bound is None else hermitian_bound)
    rel = tol.rel_psd if refute is None else refute * tol.rel_psd
    if bound is None:
        bound = rel * np.maximum(floor, np.maximum(-low, high))
    ok = (low >= -bound) & (hermitian if refute is None else hermitian | (defect <= rel))
    return ok, np.where(hermitian, np.maximum(-low, 0.0), defect), hermitian


def judge_definite(low, high, tol: Tolerance = DEFAULT_TOL):
    """The definiteness verdict of Hermitian matrices from their smallest
    and largest eigenvalues: full rank, `rank_cut(low, high)`.  Returns (ok,
    residual), arrays shaped like the inputs: the residual is the `shortfall`
    of low below its bound, 0 when ok.  An empty matrix (`block_spectra`:
    low = +inf, high = -inf) is definite."""
    return rank_cut(low, high, tol)


def identity_bound(tol: Tolerance = DEFAULT_TOL) -> float:
    """The bound on the relative residual of a tensor identity, a guard
    inequality on random data or a round trip: 10 * rel_eq."""
    return 10 * tol.rel_eq


def product_bound(tol: Tolerance = DEFAULT_TOL) -> float:
    """The bound of the checks that chain three factors or a subspace: the
    bimodularity of a conditional expectation, the invariance of a
    generated subcorrespondence and a unitary bundle map, 10 *
    identity_bound."""
    return 10 * identity_bound(tol)


def unit_bound(k: int, tol: Tolerance = DEFAULT_TOL) -> float:
    """The bound on ||m - 1||_F for a k x k matrix m that must be the
    identity (gamma_e, alpha_e): rel_eq / 10 * k."""
    return tol.rel_eq / 10 * k


def grading_guard(tol: Tolerance = DEFAULT_TOL) -> float:
    """The largest grading residual at which convolution of sections is
    still defined: 100 * identity_bound."""
    return 100 * identity_bound(tol)


def membership_bound(tol: Tolerance = DEFAULT_TOL) -> float:
    """The bound on the relative residual of a projection onto a span (the
    grading, involution, unit and containment of fibers, a value in a
    fiber, an automorphic image in its algebra): 10 * rel_rank."""
    return 10 * tol.rel_rank


def rank_cut(values, top, tol: Tolerance = DEFAULT_TOL):
    """The one rank cut, elementwise: whether values (singular values, or
    eigenvalues of a PSD Gram) lie above rel_rank * max(top, 1), for top the
    largest of their family, and the `shortfall` of each below that bound."""
    scale = np.maximum(top, 1.0)
    return values > tol.rel_rank * scale, shortfall(values, scale, tol.rel_rank)


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values of m that pass the rank cut."""
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(rank_cut(sv, sv[0], tol)[0]))


def shortfall(margin, scale, rel: float):
    """How far margin falls short of its bound rel * scale, relative to the
    bound: the residual of a check that passes when margin exceeds the bound,
    0 when it does and 1 for a zero margin (elementwise on arrays)."""
    return np.maximum(1.0 - margin / (rel * scale), 0.0)


def rank_check(m, rank, tol: Tolerance = DEFAULT_TOL):
    """Whether each matrix of a stack m (..., p, q) has numerical rank at
    least `rank` (>= 1; an int or an array of the stack's shape), with its
    residual: the `rank_cut` of its rank-th largest singular value (0 when
    it has fewer) against its largest, so 0 when the rank is reached and 1
    when that value is zero.  Returns (ok, residual), arrays of the stack's
    shape."""
    m = np.asarray(m)
    sv = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros((*m.shape[:-2], 0))
    sv = np.concatenate([sv, np.zeros((*sv.shape[:-1], 1))], axis=-1)  # a zero past the last
    kth = np.minimum(np.broadcast_to(rank, sv.shape[:-1]), sv.shape[-1]) - 1
    return rank_cut(np.take_along_axis(sv, kth[..., None], axis=-1)[..., 0], sv[..., 0], tol)


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
    Hermitian inner product.  Rank is decided by the rank cut (`rank_cut`)
    on the singular values.  Finite rows whose norms would overflow
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
    rank = int(np.sum(rank_cut(s, s[0], tol)[0]))
    rows = vh[:rank]
    # canonical phase: largest-magnitude entry real positive, so bases are
    # deterministic and sign/phase choices survive serialization round-trips
    for i in range(rank):
        j = int(np.argmax(np.abs(rows[i])))
        pivot = rows[i, j]
        if abs(pivot) > 0:
            rows[i] = rows[i] * (pivot.conjugate() / abs(pivot))
    return rows


# -- irreducible blocks of a *-algebra ------------------------------------------

@dataclass(frozen=True)
class Blocks:
    """A *-algebra A of n x n matrices as the sum of its irreducible types.

    isometries[i] is an n x n_i matrix W_i with orthonormal columns whose
    range carries one copy of type i, which C^n holds multiplicities[i]
    times.  Up to a unitary, every x in A is the direct sum over i of
    multiplicities[i] copies of W_i* x W_i, plus zero on the vectors that A
    annihilates.  A single type of size n is A in M_n itself (`one_block`).
    residual is the largest residual of the self-check that
    `decompose_algebra` judged the types by, 0.0 for `one_block`.
    """

    isometries: tuple
    multiplicities: tuple
    residual: float = 0.0

    @property
    def types(self) -> list[tuple[int, int]]:
        """(n_i, m_i) of every type, in order."""
        return [(w.shape[1], m) for w, m in zip(self.isometries, self.multiplicities)]

    def by_size(self):
        """The types grouped by size k, ascending: (k, isometries (L, n, k),
        multiplicities (L,)) for the L types of that size, in order."""
        for k in sorted(set(w.shape[1] for w in self.isometries)):
            idx = [i for i, w in enumerate(self.isometries) if w.shape[1] == k]
            yield (k, np.stack([self.isometries[i] for i in idx]),
                   np.array([self.multiplicities[i] for i in idx], dtype=float))

    def compress(self, mats) -> list[tuple[np.ndarray, np.ndarray]]:
        """W_i* x W_i of every matrix x of a stack (..., n, n), grouped by
        type size: one (multiplicities (L,), compressions (..., L, k, k))
        per size k, ascending.  A single type of size n leaves the stack as
        it is."""
        a = np.asarray(mats)
        if self.types == [(a.shape[-1], 1)]:
            return [(np.ones(1), a[..., None, :, :])]
        return [(mk, wk.conj().swapaxes(-1, -2) @ (a[..., None, :, :] @ wk))
                for _, wk, mk in self.by_size()]


def one_block(n: int) -> Blocks:
    """The trivial decomposition W = 1_n: every check reads M_n itself."""
    return Blocks((np.eye(n, dtype=np.complex128),), (1,))


def decompose_algebra(basis, tol: Tolerance = DEFAULT_TOL) -> Blocks:
    """The irreducible types of the *-algebra A spanned by a stack of n x n
    matrices, after Murota, Kanno, Kojima and Kojima (Japan J. Indust. Appl.
    Math. 27, 2010), from a fixed seed so that the result is reproducible:

    1. the center of A: the elements of A that commute with two random
       elements with complex coefficients;
    2. the isotypic components: the eigenspaces of a Hermitian central
       element h = z + z*, z with random complex coefficients (real ones
       would merge conjugate characters), split at gaps above
       sqrt(rel_rank) times its norm;
    3. in each component, one copy of its type: the orbit A v of a minimal
       vector v, a lowest eigenvector of a random Hermitian element of A
       compressed to the component (no copy when A vanishes there); the
       multiplicity is the component's dimension over the orbit's;
    4. the self-check at rel_rank: every range is invariant under an
       HS-orthonormal basis b_k of A, and the compressions W_i* b_k W_i,
       weighted by the multiplicities, reproduce the HS Gram of the b_k.  So
       the compression to the types is a faithful *-representation, and
       Frobenius norms weighted by the multiplicities are the ambient ones.
       The largest of these residuals (the Frobenius norm of b_k W_i -
       W_i W_i* b_k W_i, and the largest entry of the weighted Gram minus
       the identity) is kept as `Blocks.residual`.

    Null spaces and ranges (of the span, the commutators, each orbit) are
    read off small Hermitian Grams, with eigenvalues cut at rel_rank times
    the largest.  Anything that does not fit (an empty basis, a multiplicity
    that is not an integer, a failed self-check, a single type of size n)
    gives `one_block(n)`, which is always correct.
    """
    mats = np.asarray(basis, dtype=np.complex128)
    n = mats.shape[-1]
    flat = mats.reshape(len(mats), n * n)
    gram = flat.conj() @ flat.T
    if len(flat) and np.abs(gram - np.eye(len(flat))).max() > tol.rel_rank:
        # an orthonormal basis of the span: (sum_k conj(c_jk) b_k)_j for the
        # columns c_j of its range, over the square roots of their eigenvalues
        w, v = np.linalg.eigh(gram)
        keep = rank_cut(w, w[-1], tol)[0]
        flat = (v[:, keep] / np.sqrt(w[keep])).conj().T @ flat
    d = len(flat)
    if d == 0:
        return one_block(n)
    b = flat.reshape(d, n, n)
    rng = np.random.default_rng(0)
    # three random elements: two probes for the center, one Hermitian part
    # for the minimal vectors
    coef = rng.standard_normal((2, 3, d))
    r = ((coef[0] + 1j * coef[1]) @ flat).reshape(3, n, n)
    # 1. the center: coefficient rows c with [sum_k c_k b_k, r] = 0 for both probes
    comm = (b[:, None] @ r[:2] - r[:2] @ b[:, None]).reshape(d, -1)
    w, v = np.linalg.eigh(comm @ dagger(comm))
    null = v[:, ~rank_cut(w, w[-1], tol)[0]]
    # 2. the isotypic components, from z = sum_j c_j (sum_k conj(null_kj) b_k)
    coef = rng.standard_normal((2, null.shape[1]))
    z = ((null.conj() @ (coef[0] + 1j * coef[1])) @ flat).reshape(n, n)
    w, v = np.linalg.eigh(z + dagger(z))
    cuts = (np.flatnonzero(np.diff(w) > math.sqrt(tol.rel_rank) * np.abs(w).max()) + 1).tolist()
    # 3. one copy of each type; a one-dimensional component is its own copy
    # unless the algebra vanishes on it
    a = r[2] + dagger(r[2])
    live = np.linalg.norm(b @ v, axis=(0, 1)) > tol.rel_rank
    isometries, mults = [], []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        q = v[:, lo:hi]
        if hi - lo == 1:
            wi = q[:, :int(live[lo])]
        else:
            _, y = np.linalg.eigh(dagger(q) @ a @ q)
            orbit = b @ (q @ y[:, 0])  # (d, n): rows b_k v
            w, y = np.linalg.eigh(orbit.T @ orbit.conj())
            wi = y[:, rank_cut(w, w[-1], tol)[0]]
        k = wi.shape[1]
        if k == 0:
            continue
        if (hi - lo) % k:
            return one_block(n)
        isometries.append(wi)
        mults.append((hi - lo) // k)
    blocks = Blocks(tuple(isometries), tuple(mults))
    if blocks.types in ([], [(n, 1)]):
        return one_block(n)
    # 4. the self-check, over the types of each size at once
    gram = np.zeros((d, d), dtype=np.complex128)
    residual = 0.0
    for k, wk, mk in blocks.by_size():
        bw = b[:, None] @ wk  # (d, L, n, k)
        comp = wk.conj().swapaxes(-1, -2) @ bw
        residual = max(residual, float(np.linalg.norm(bw - wk @ comp, axis=(-2, -1)).max()))
        if residual > tol.rel_rank:
            return one_block(n)
        comp = comp.reshape(d, len(mk), k * k)
        gram += (comp.conj() * mk[:, None]).reshape(d, -1) @ comp.reshape(d, -1).T
    residual = max(residual, float(np.abs(gram - np.eye(d)).max()))
    if residual > tol.rel_rank:
        return one_block(n)
    return Blocks(blocks.isometries, blocks.multiplicities, residual)
