import numpy as np
import pytest

from fellbundles.numerics import (
    DEFAULT_TOL,
    Tolerance,
    block_spectra,
    hermitian_defect,
    judge_definite,
    judge_psd,
    kron,
    orthonormal_basis,
    rank_cut,
    relative_residuals,
    shortfall,
    stack_spectra,
    worst_relative,
)


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_hermitian(rng, n):
    m = rand_complex(rng, n, n)
    return (m + m.conj().T) / 2


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- independent oracle: characteristic polynomial via Faddeev-LeVerrier,
#    roots via the companion matrix (np.roots), no Hermitian eigensolver.

def charpoly_coeffs(m):
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ mk) / k
    return coeffs


def eigvals_oracle(m):
    return np.sort(np.roots(charpoly_coeffs(m)).real)


def extremes(m):
    """(smallest, largest) eigenvalue of one Hermitian matrix, by block_spectra."""
    _, low, high = stack_spectra(np.asarray(m, dtype=np.complex128)[None])
    return float(low[0]), float(high[0])


def psd_verdict(m, tol=DEFAULT_TOL):
    """judge_psd of one matrix, as one block: (ok, residual, hermitian)."""
    ok, residual, hermitian = judge_psd(
        *stack_spectra(np.asarray(m, dtype=np.complex128)[None]), tol)
    return bool(ok[0]), float(residual[0]), bool(hermitian[0])


def psd_ok(m, tol=DEFAULT_TOL):
    return psd_verdict(m, tol)[0]


def numerical_rank(m, tol=DEFAULT_TOL):
    """The rank oracle of the loop tests: the number of singular values of m
    that pass the rank cut, 0 for a matrix with no entries."""
    sv = np.linalg.svd(np.asarray(m), compute_uv=False)
    return int(np.sum(rank_cut(sv, sv.max(initial=0.0), tol)[0]))


def definite_verdict(m, tol=DEFAULT_TOL):
    """judge_definite of one Gram, as one block: (ok, residual, smallest
    eigenvalue)."""
    _, low, high = stack_spectra(np.asarray(m, dtype=np.complex128)[None])
    ok, residual = judge_definite(low, high, tol)
    return bool(ok[0]), float(residual[0]), float(low[0])


def test_eigvals_identity():
    assert np.allclose(extremes(np.eye(2)), [1.0, 1.0])


def test_eigvals_offdiagonal_symmetry():
    assert np.allclose(extremes([[0, 1], [1, 0]]), [-1.0, 1.0])


def test_eigvals_match_companion_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rand_hermitian(rng, 4)
        want = eigvals_oracle(m)
        assert np.allclose(extremes(m), [want[0], want[-1]], atol=1e-8)


def test_eigvals_sum_is_trace():
    """The mean eigenvalue tr(m) / n lies between the extremes, and a rank
    one shift of c 1 has the extremes c and c + ||x||^2."""
    rng = np.random.default_rng(3)
    m = rand_hermitian(rng, 6)
    low, high = extremes(m)
    mean = np.trace(m).real / 6
    assert low - 1e-9 <= mean <= high + 1e-9
    x = rand_complex(rng, 6)
    low, high = extremes(np.outer(x, x.conj()) + 0.5 * np.eye(6))
    assert np.allclose([low, high], [0.5, 0.5 + np.vdot(x, x).real], atol=1e-9)


def test_eigvals_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rand_hermitian(rng, 5)
        u = rand_unitary(rng, 5)
        assert np.allclose(extremes(u.conj().T @ m @ u), extremes(m), atol=1e-8)


def test_block_spectra_of_a_direct_sum():
    """Blocks with multiplicities read as their direct sum, and the defect
    is hermitian_defect of the assembled matrix."""
    rng = np.random.default_rng(13)
    a, b = rand_complex(rng, 2, 2), rand_complex(rng, 3, 3)
    whole = np.zeros((7, 7), dtype=np.complex128)
    whole[:2, :2], whole[2:5, 2:5], whole[5:, 5:] = a, b, a
    defect, low, high = block_spectra([(np.array([2.0]), a[None, None]),
                                       (np.array([1.0]), b[None, None])])
    ev = np.linalg.eigvalsh((whole + whole.conj().T) / 2)
    assert np.allclose([low[0], high[0]], [ev[0], ev[-1]])
    assert defect[0] == pytest.approx(hermitian_defect(whole))
    # a matrix with no nonempty block has the extremes of no eigenvalue, and
    # the judges read it as PSD and definite with residual 0
    defect, low, high = block_spectra([(np.ones(1), np.zeros((1, 1, 0, 0)))])
    assert defect.tolist() == [0.0] and low.tolist() == [np.inf] and high.tolist() == [-np.inf]
    assert [x.tolist() for x in judge_psd(defect, low, high)] == [[True], [0.0], [True]]
    assert [x.tolist() for x in judge_definite(low, high)] == [[True], [0.0]]
    assert definite_verdict(np.zeros((0, 0))) == (True, 0.0, np.inf)
    with pytest.raises(ValueError, match="at least one group"):
        block_spectra([])


def test_psd_identity():
    ok, residual, hermitian = judge_psd(*stack_spectra(np.eye(3)[None]))
    assert ok[0] and hermitian[0] and residual[0] == 0.0
    assert extremes(np.eye(3))[0] == pytest.approx(1.0, abs=1e-12)


def test_psd_indefinite():
    ok, residual, _ = judge_psd(*stack_spectra(np.array([[[1, 2], [2, 1]]], dtype=complex)))
    assert not ok[0]
    assert abs(residual[0] - 1.0) < 1e-12


def test_psd_gram_construction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rand_complex(rng, 3, 7)
        assert psd_ok(x.conj().T @ x)


def test_psd_fails_on_witnessed_negativity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rand_hermitian(rng, 5)
        v = rand_complex(rng, 5)
        val = (v.conj() @ m @ v).real / (v.conj() @ v).real
        if val < -DEFAULT_TOL.rel_psd * np.linalg.norm(m, 2):
            assert not psd_ok(m)


def test_psd_judge_rule_and_bounds():
    """The rule, its floor and the refutation rule, on scalar spectral data."""
    tol = DEFAULT_TOL
    edge = -tol.rel_psd * 4.0
    assert judge_psd(0.0, edge, 4.0, tol)[0] and not judge_psd(0.0, 1.01 * edge, 4.0, tol)[0]
    # the floor replaces 1 under a small norm
    assert judge_psd(0.0, -0.5 * tol.rel_psd, 0.1, tol)[0]
    assert not judge_psd(0.0, -0.5 * tol.rel_psd, 0.1, tol, floor=0.1)[0]
    # a non-Hermitian matrix fails with its defect as residual
    ok, residual, hermitian = judge_psd(1e-3, 1.0, 1.0, tol)
    assert not ok and not hermitian and residual == 1e-3
    # a refutation: margins and defects up to 10 rel_psd pass
    assert judge_psd(0.0, 5 * edge, 4.0, tol, refute=10)[0]
    assert not judge_psd(0.0, 11 * edge, 4.0, tol, refute=10)[0]
    loose = Tolerance(rel_psd=1e-6)
    assert judge_psd(5e-6, 1.0, 1.0, loose, refute=10)[0]
    assert not judge_psd(5e-6, 1.0, 1.0, loose)[0]
    assert not judge_psd(2e-5, 1.0, 1.0, loose, refute=10)[0]


def test_definite_judge():
    tol = DEFAULT_TOL
    ok, residual = judge_definite(np.array([1.0, 0.0, 2e-9, -1.0]), np.array([1.0, 1.0, 1.0, 3.0]))
    assert ok.tolist() == [True, False, True, False]
    assert residual[0] == 0.0 and residual[1] == 1.0 and residual[2] == 0.0
    assert residual[3] == pytest.approx(shortfall(-1.0, 3.0, tol.rel_rank))


def test_worst_relative_scales_and_residuals():
    """Items judged against frob(lhs), or against scales given per item; the
    per-item residuals are those worst_relative takes the max of."""
    rng = np.random.default_rng(14)
    lhs, rhs = rand_complex(rng, 5, 3), rand_complex(rng, 5, 3)
    want = np.linalg.norm(lhs - rhs, axis=1) / np.maximum(np.linalg.norm(lhs, axis=1), 1.0)
    got = relative_residuals(5, 3, lambda idx: (lhs[idx], rhs[idx]))
    assert np.allclose(got, want)
    assert worst_relative(5, 3, lambda idx: (lhs[idx], rhs[idx])) == pytest.approx(want.max())
    fixed = worst_relative(5, 3, lambda idx: (lhs[idx], rhs[idx], np.full(len(idx), 7.0)))
    assert fixed == pytest.approx(np.linalg.norm(lhs - rhs, axis=1).max() / 7.0)


# -- independent oracle: null space dimension by Gaussian elimination.

def rank_by_row_reduction(m, tol=1e-9):
    a = np.array(m, dtype=np.complex128)
    scale = max(np.abs(a).max(initial=0.0), 1.0)
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        if rank == rows:
            break
        piv = rank + np.argmax(np.abs(a[rank:, col]))
        if abs(a[piv, col]) <= tol * scale:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] /= a[rank, col]
        for r in range(rows):
            if r != rank:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


@pytest.mark.parametrize("shape", [(0, 0), (2, 0), (0, 3)])
def test_numerical_rank_of_a_matrix_with_no_entries_is_0(shape):
    assert numerical_rank(np.zeros(shape)) == 0


def test_numerical_rank_cuts_at_rel_rank():
    m = np.diag([2.0, 1e-3, 1e-12])
    assert numerical_rank(m) == 2
    assert numerical_rank(m, Tolerance(rel_rank=1e-2)) == 1
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_kron_block_diagonal():
    rng = np.random.default_rng(6)
    m = rand_complex(rng, 3, 3)
    k = kron(np.eye(2), m)
    assert np.allclose(k[:3, :3], m) and np.allclose(k[3:, 3:], m)
    assert np.allclose(k[:3, 3:], 0)


def test_kron_with_scalar_identity():
    rng = np.random.default_rng(8)
    a = rand_complex(rng, 4, 2)
    assert np.allclose(kron(a, np.eye(1)), a)


def test_kron_mixed_product():
    rng = np.random.default_rng(10)
    a, c = rand_complex(rng, 3, 4), rand_complex(rng, 4, 2)
    b, d = rand_complex(rng, 2, 3), rand_complex(rng, 3, 5)
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))


def test_orthonormalize_dedup():
    e1 = np.array([1.0, 0.0, 0.0])
    basis = orthonormal_basis([e1, 2 * e1])
    assert basis.shape == (1, 3)
    assert abs(abs(basis[0, 0]) - 1.0) < 1e-12


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_psd=0.0)
