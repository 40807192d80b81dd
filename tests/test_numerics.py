import numpy as np
import pytest

from fellbundles.numerics import (
    DEFAULT_TOL,
    NotHermitianError,
    NotSquareError,
    Tolerance,
    hermitian_eigvals,
    in_span,
    kron,
    orthonormal_basis,
    psd_check,
    same_span,
    span_residual,
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


def test_eigvals_identity():
    assert np.allclose(hermitian_eigvals(np.eye(2)), [1.0, 1.0])


def test_eigvals_offdiagonal_symmetry():
    assert np.allclose(hermitian_eigvals([[0, 1], [1, 0]]), [-1.0, 1.0])


def test_eigvals_match_companion_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rand_hermitian(rng, 4)
        got = hermitian_eigvals(m)
        want = eigvals_oracle(m)
        assert np.allclose(got, want, atol=1e-8)


def test_eigvals_sum_is_trace():
    rng = np.random.default_rng(3)
    m = rand_hermitian(rng, 6)
    ev = hermitian_eigvals(m)
    assert abs(ev.sum() - np.trace(m).real) <= 1e-9 * np.linalg.norm(m)


def test_eigvals_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rand_hermitian(rng, 5)
        u = rand_unitary(rng, 5)
        assert np.allclose(
            hermitian_eigvals(u.conj().T @ m @ u), hermitian_eigvals(m), atol=1e-8
        )


def test_eigvals_rejects_bad_input():
    with pytest.raises(NotSquareError):
        hermitian_eigvals(np.ones((2, 3)))
    with pytest.raises(NotHermitianError):
        hermitian_eigvals([[0, 1], [0, 0]])


def test_psd_identity():
    res = psd_check(np.eye(3))
    assert res.ok and abs(res.margin - 1.0) < 1e-12


def test_psd_indefinite():
    res = psd_check([[1, 2], [2, 1]])
    assert not res.ok
    assert abs(res.margin - (-1.0)) < 1e-12


def test_psd_gram_construction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rand_complex(rng, 3, 7)
        assert psd_check(x.conj().T @ x).ok


def test_psd_fails_on_witnessed_negativity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rand_hermitian(rng, 5)
        v = rand_complex(rng, 5)
        val = (v.conj() @ m @ v).real / (v.conj() @ v).real
        if val < -DEFAULT_TOL.rel_psd * np.linalg.norm(m, 2):
            assert not psd_check(m).ok


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


def test_membership():
    e1 = np.array([[1.0, 0.0]])
    assert not in_span(e1, np.array([0.0, 1.0]))
    assert in_span(e1, np.array([3.0, 0.0]))
    assert span_residual(e1, np.array([1.0, 1.0])) == pytest.approx(np.sqrt(0.5))


def test_span_equality_of_random_bases():
    rng = np.random.default_rng(12)
    seed_basis = rand_complex(rng, 3, 8)
    b1 = rand_complex(rng, 3, 3) @ seed_basis
    b2 = rand_complex(rng, 3, 3) @ seed_basis
    assert same_span(b1, b2)
    assert not same_span(b1, rand_complex(rng, 3, 8))


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_psd=0.0)
