"""Small dense linear-algebra helpers used throughout the package.

Matrix norm conventions: ``spectral_norm`` is the largest singular value,
``nuclear_norm`` is the sum of singular values (written tr sqrt(M^T M)
elsewhere); for PSD matrices the nuclear norm reduces to the trace.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CertificateError

# Rows per block of stacked post-run work: (k, p, p) stacks stay near 50 KB
# for p <= 5.  Blocks of 1024 rows left full-3x2's peak RSS 1-3 MB higher
# after a few repeats (heap fragmentation); blocks of 256 left it unchanged.
_BLOCK = 256


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
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def spectral_norm(M):
    """Largest singular value: the first of the descending list that the
    SVD returns, which is the value ``np.linalg.norm(M, 2)`` takes the max of."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return float(np.linalg.svd(M, compute_uv=False)[0])


def nuclear_norm(M):
    """Nuclear norm of a matrix (a float), or of each matrix in a stack (an array)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    norms = np.linalg.svd(M, compute_uv=False).sum(axis=-1)
    return float(norms) if M.ndim == 2 else norms


def spectral_radius(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def min_eig(M):
    return float(np.linalg.eigvalsh(sym(np.atleast_2d(M)))[0])


def psd_sqrt(M, floor=1e-12):
    """Symmetric square root via eigendecomposition, eigenvalues floored.
    Gate P8 (``test_p8_perturbation_lemma``) builds its perturbations with it."""
    w, U = np.linalg.eigh(sym(np.atleast_2d(M)))
    w = np.maximum(w, floor)
    return (U * np.sqrt(w)) @ U.T


def psd_roots(M, floor=1e-12):
    """(M^{1/2}, M^{-1/2}) of a PD matrix, or of each matrix in a stack, from
    one eigendecomposition each; a non-PD matrix raises CertificateError
    naming the least eigenvalue of the first such."""
    w, U = np.linalg.eigh(sym(np.atleast_2d(M)))
    bad = np.flatnonzero(w[..., 0].ravel() <= 0)
    if bad.size:
        raise CertificateError(
            f"matrix is not PD (min eig {w[..., 0].ravel()[bad[0]]:.3g})")
    root = np.sqrt(np.maximum(w, floor))[..., None, :]
    Ut = U.swapaxes(-1, -2)
    return (U * root) @ Ut, (U / root) @ Ut


def chol_solve(A, B):
    """Solve A X = B for symmetric PD A via Cholesky."""
    L = np.linalg.cholesky(sym(A))
    Y = np.linalg.solve(L, B)
    return np.linalg.solve(L.T, Y)


def logdet_pd(M, strict=True):
    """log det of a PD matrix (a float), or of each matrix in a stack (an array).

    A non-PD matrix raises CertificateError; with ``strict=False`` its log det
    reads nan instead.
    """
    M = np.atleast_2d(M)
    sign, ld = np.linalg.slogdet(sym(M))
    bad = sign <= 0
    if not strict:
        ld = np.where(bad, np.nan, ld)
    elif bad.any() if M.ndim > 2 else bad:  # .any() on a scalar costs 3 us a step
        raise CertificateError("log-determinant of a non-PD matrix requested")
    return float(ld) if M.ndim == 2 else ld


def row_blocks(T: int):
    """(lo, hi) bounds of consecutive blocks of at most _BLOCK rows covering T.

    Per-step quantities computed after a run go through stacked numpy calls
    one block at a time, so their temporaries stay small at any horizon.
    """
    return [(lo, min(lo + _BLOCK, T)) for lo in range(0, T, _BLOCK)]


def quad_rows(a, P, b=None):
    """a_s' P b_s for each row s (b = a by default).

    Formed as (a_s' P) b_s on stacked operands, which gives each value the
    bits of ``a[s] @ P @ b[s]``; an einsum or a row sum would not.
    """
    b = a if b is None else b
    return ((a[:, None, :] @ P) @ b[:, :, None])[:, 0, 0]


def matvec_rows(M, a):
    """M a_s for each row s, with the bits of ``M @ a[s]``."""
    return (M @ a[:, :, None])[:, :, 0]


def solve_discrete_lyapunov(M, S):
    """Solve X = M X M^T + S by the vectorized (Kronecker) linear system.

    Requires rho(M) < 1; sizes here are tiny so the dense solve is fine.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n = M.shape[0]
    # kron(M, M) as one broadcast product: the same single products, less overhead
    A = np.eye(n * n) - (M[:, None, :, None] * M[None, :, None, :]).reshape(n * n, n * n)
    x = np.linalg.solve(A, S.reshape(-1))
    return sym(x.reshape(n, n))
