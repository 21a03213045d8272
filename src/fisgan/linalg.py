"""Symmetric eigendecomposition, singular values and PSD square root,
all on LAPACK's symmetric eigensolver (``np.linalg.eigh``)."""

import numpy as np

from .errors import ConvergenceError, NotPsdError, ShapeError


def check_symmetric(a, tol=1e-12):
    """Validate and return a symmetrized float64 copy of a."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.T).max(initial=0.0) > tol * scale:
        raise ShapeError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def sym_eig(a):
    """(eigenvalues descending, eigenvector columns in matching order);
    a LAPACK convergence failure raises ConvergenceError."""
    try:
        values, vecs = np.linalg.eigh(check_symmetric(a))
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"symmetric eigensolver failed: {err}") from err
    return values[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def singular_values(j):
    """Descending singular values of a (possibly rectangular) matrix: square
    roots of the smaller-side Gram matrix's eigenvalues, clamped at zero."""
    j = np.asarray(j, dtype=np.float64)
    if j.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ShapeError("matrix contains non-finite entries")
    gram = j @ j.T if j.shape[0] <= j.shape[1] else j.T @ j
    return np.sqrt(np.maximum(sym_eig(gram)[0], 0.0))


def sqrtm_psd(a):
    """Symmetric PSD square root.  Eigenvalues in [-1e-10, 0) count as
    rounding noise and clamp to zero; anything lower raises NotPsdError."""
    values, vecs = sym_eig(a)
    if values.min(initial=0.0) < -1e-10:
        raise NotPsdError(
            f"matrix has eigenvalue {values.min():.3e} below the PSD tolerance"
        )
    root = (vecs * np.sqrt(np.maximum(values, 0.0))) @ vecs.T
    return 0.5 * (root + root.T)
