import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisgan import linalg
from fisgan.errors import NotPsdError, ShapeError


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_identity_eigenvalues():
    w, v = linalg.sym_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_diagonal_eigenpairs():
    w, v = linalg.sym_eig(np.diag([4.0, 1.0]))
    assert np.allclose(w, [4.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_reconstruction_random_6x6():
    rng = np.random.default_rng(0)
    a = random_symmetric(rng, 6)
    w, v = linalg.sym_eig(a)
    recon = v @ np.diag(w) @ v.T
    assert np.max(np.abs(recon - a)) < 1e-9


def test_eigenvector_residual_and_orthonormality():
    rng = np.random.default_rng(1)
    a = random_symmetric(rng, 8)
    norm_f = np.sqrt((a * a).sum())
    w, v = linalg.sym_eig(a)
    for k in range(8):
        assert np.max(np.abs(a @ v[:, k] - w[k] * v[:, k])) < 1e-8 * norm_f
    assert np.max(np.abs(v.T @ v - np.eye(8))) < 1e-10


def test_eigenvalues_sum_to_trace():
    rng = np.random.default_rng(2)
    for n in (2, 5, 9):
        a = random_symmetric(rng, n)
        w, _ = linalg.sym_eig(a)
        tr = np.trace(a)
        assert abs(w.sum() - tr) < 1e-9 * abs(tr) + 1e-12


def test_sym_eig_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 12)
    w, _ = linalg.sym_eig(a)
    expected = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.allclose(w, expected, atol=1e-9)


def test_rejects_asymmetric():
    with pytest.raises(ShapeError):
        linalg.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_singular_values_diagonal_rectangular():
    j = np.array([[3.0, 0.0, 0.0], [0.0, -2.0, 0.0]])
    assert np.allclose(linalg.singular_values(j), [3.0, 2.0])


def test_singular_values_rank_one():
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 3.0, 0.0, 0.0])
    j = np.outer(u, v)
    sv = linalg.singular_values(j)
    assert abs(sv[0] - 6.0) < 1e-10
    assert np.all(np.abs(sv[1:]) < 1e-10)


def test_singular_values_frobenius_identity():
    rng = np.random.default_rng(4)
    j = rng.standard_normal((5, 4))
    sv = linalg.singular_values(j)
    assert len(sv) == 4
    assert abs((sv**2).sum() - (j * j).sum()) < 1e-9


def test_singular_values_match_numpy_oracle():
    rng = np.random.default_rng(5)
    j = rng.standard_normal((6, 3))
    assert np.allclose(linalg.singular_values(j), np.linalg.svd(j)[1], atol=1e-9)


def test_singular_values_permutation_invariant():
    rng = np.random.default_rng(6)
    j = rng.standard_normal((4, 5))
    rp = rng.permutation(4)
    cp = rng.permutation(5)
    base = linalg.singular_values(j)
    permuted = linalg.singular_values(j[rp][:, cp])
    assert np.max(np.abs(base - permuted)) < 1e-10


def test_sqrtm_identity_and_diagonal():
    assert np.allclose(linalg.sqrtm_psd(np.eye(3)), np.eye(3))
    assert np.allclose(linalg.sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrtm_reconstruction():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((4, 4))
    b = c.T @ c
    root = linalg.sqrtm_psd(b)
    assert np.max(np.abs(root @ root - b)) < 1e-8


def test_sqrtm_commutes_with_input():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((5, 5))
    b = c.T @ c
    root = linalg.sqrtm_psd(b)
    assert np.max(np.abs(root @ b - b @ root)) < 1e-8


def test_sqrtm_rejects_indefinite():
    with pytest.raises(NotPsdError):
        linalg.sqrtm_psd(np.diag([1.0, -0.5]))


def test_lapack_failure_raises_convergence_error(monkeypatch):
    from fisgan.errors import ConvergenceError

    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    a = np.array([[1.0, 0.5], [0.5, 2.0]])
    with pytest.raises(ConvergenceError) as err:
        linalg.sym_eig(a)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    with pytest.raises(ConvergenceError):
        linalg.sqrtm_psd(a)


def test_sym_eig_matches_numpy_oracle_pca_shape():
    # the PCA fit decomposes a 64x64 pixel covariance
    rng = np.random.default_rng(9)
    x = rng.standard_normal((500, 64)) @ rng.standard_normal((64, 64))
    cov = np.cov(x, rowvar=False)
    w, v = linalg.sym_eig(cov)
    expected = np.linalg.eigvalsh(cov)[::-1]
    assert np.all(np.diff(w) <= 0.0)
    assert np.allclose(w, expected, rtol=1e-12, atol=1e-12 * expected[0])
    assert np.max(np.abs(v.T @ v - np.eye(64))) < 1e-12
    assert np.max(np.abs(cov @ v - v * w)) < 1e-10 * expected[0]


def test_sqrtm_reconstruction_32x32():
    # the Frechet distance takes roots of 32x32 feature covariances
    rng = np.random.default_rng(10)
    c = rng.standard_normal((40, 32))
    b = c.T @ c / 40 + 1e-6 * np.eye(32)
    root = linalg.sqrtm_psd(b)
    assert np.array_equal(root, root.T)
    assert np.max(np.abs(root @ root - b)) < 1e-12 * np.abs(b).max()
    assert np.linalg.eigvalsh(root).min() > 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
def test_property_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    w, v = linalg.sym_eig(a)
    assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) < 1e-9
    assert np.all(np.diff(w) <= 1e-12)
