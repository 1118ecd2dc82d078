"""Dense linear-algebra helpers shared by the hashing pipeline."""

import numpy as np


def frobenius_sq(a, out=None):
    """Sum of squared entries of a float64 array; the squares go to out if given.

    np.add.reduce is the reduction np.sum runs, without its Python wrapper.
    """
    return float(np.add.reduce(np.multiply(a, a, out=out), axis=None))


def covariance(x):
    """Covariance of column-samples: (Xc @ Xc.T) / (m - 1), symmetrized.

    x is (D, m) with one sample per column and m >= 2.  The result is forced
    symmetric so downstream eigensolves never see rounding skew.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-d (D, m) array, got ndim=%d" % x.ndim)
    m = x.shape[1]
    if m < 2:
        raise ValueError("covariance needs at least 2 samples, got %d" % m)
    xc = x - x.mean(axis=1)[:, None]
    c = xc @ xc.T / (m - 1)
    return (c + c.T) / 2.0


def top_eigvecs(a, k):
    """Top-k eigenvectors of a symmetric matrix, as orthonormal columns.

    Columns are ordered by descending eigenvalue.  Sign is fixed so the
    largest-magnitude entry of each vector is positive, which makes the
    output deterministic across runs.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("top_eigvecs needs a square matrix, got shape %s" % (a.shape,))
    p = a.shape[0]
    if not 1 <= k <= p:
        raise ValueError("k=%d out of range for a %dx%d matrix" % (k, p, p))
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    evals, evecs = np.linalg.eigh(a)
    order = np.argsort(-evals, kind="stable")[:k]
    v = evecs[:, order].copy()
    for j in range(k):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def procrustes_rotation(m):
    """Orthogonal matrix R = U @ Vt maximizing trace(R.T @ M) over orthogonal R.

    U, Vt come from the SVD of M.  This is the rotation-update step of
    iterative quantization.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("procrustes_rotation needs a square matrix, got shape %s" % (m.shape,))
    if not np.all(np.isfinite(m)):
        raise ValueError("procrustes_rotation got non-finite input")
    u, _, vt = np.linalg.svd(m)
    return u @ vt
