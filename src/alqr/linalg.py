"""Small dense linear-algebra helpers used throughout the package.

Matrix norm conventions: ``spectral_norm`` is the largest singular value,
``nuclear_norm`` is the sum of singular values (written tr sqrt(M^T M)
elsewhere); for PSD matrices the nuclear norm reduces to the trace.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CertificateError


def as_matrix(M, name="matrix"):
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(1, -1) if A.size > 1 else A.reshape(1, 1)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    return A


def sym(M):
    return 0.5 * (M + M.T)


def spectral_norm(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return float(np.linalg.norm(M, 2))


def nuclear_norm(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return float(np.linalg.svd(M, compute_uv=False).sum())


def spectral_radius(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def min_eig(M):
    return float(np.linalg.eigvalsh(sym(np.atleast_2d(M)))[0])


def psd_sqrt(M, floor=1e-12):
    """Symmetric square root via eigendecomposition, eigenvalues floored."""
    w, U = np.linalg.eigh(sym(np.atleast_2d(M)))
    w = np.maximum(w, floor)
    return (U * np.sqrt(w)) @ U.T


def psd_inv_sqrt(M, floor=1e-12):
    w, U = np.linalg.eigh(sym(np.atleast_2d(M)))
    if w[0] <= 0:
        raise CertificateError(f"matrix is not PD (min eig {w[0]:.3g})")
    w = np.maximum(w, floor)
    return (U / np.sqrt(w)) @ U.T


def chol_solve(A, B):
    """Solve A X = B for symmetric PD A via Cholesky."""
    L = np.linalg.cholesky(sym(A))
    Y = np.linalg.solve(L, B)
    return np.linalg.solve(L.T, Y)


def logdet_pd(M):
    sign, ld = np.linalg.slogdet(sym(np.atleast_2d(M)))
    if sign <= 0:
        raise CertificateError("log-determinant of a non-PD matrix requested")
    return float(ld)


def solve_discrete_lyapunov(M, S):
    """Solve X = M X M^T + S by the vectorized (Kronecker) linear system.

    Requires rho(M) < 1; sizes here are tiny so the dense solve is fine.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n = M.shape[0]
    A = np.eye(n * n) - np.kron(M, M)
    x = np.linalg.solve(A, S.reshape(-1))
    return sym(x.reshape(n, n))
