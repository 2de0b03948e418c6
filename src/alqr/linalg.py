"""Small dense linear-algebra helpers used throughout the package, and the
one layer that calls LAPACK.

Matrix norm conventions: ``spectral_norm`` is the largest singular value,
``nuclear_norm`` is the sum of singular values (written tr sqrt(M^T M)
elsewhere); for PSD matrices the nuclear norm reduces to the trace.

Apart from ``as_matrix``, which converts outside input, the helpers take a
float64 matrix, or a stack of them, as it is: the run path passes nothing
else, so none of them converts or reshapes its input.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar
from numpy._core.umath import _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

from .exceptions import CertificateError

# Rows per block of stacked post-run work: (k, p, p) stacks stay near 50 KB
# for p <= 5.  Blocks of 1024 rows left full-3x2's peak RSS 1-3 MB higher
# after a few repeats (heap fragmentation); blocks of 256 left it unchanged.
_BLOCK = 256


# The LAPACK layer: solve, inv, cholesky, eigvals, eigvalsh, eigh, svdvals and
# slogdet each call, for a float64 input, the gufunc and signature that its
# np.linalg counterpart calls, under the same error state and error message,
# so each result keeps np.linalg's bits.  What they skip is np.linalg's
# per-call Python work (array conversion, shape and type checks, result
# wrapping) and the np.errstate object it builds per call: each error state
# is built once, here, and set around the gufunc call through the context
# variable np.errstate sets.  The gufuncs and those two private numpy names
# are bound here, so a numpy without them fails at import.
_SOLVE, _SOLVE1, _INV, _CHOLESKY, _EIGVALS, _EIGVALSH, _EIGH, _SVD, _SLOGDET = (
    _umath_linalg.solve, _umath_linalg.solve1, _umath_linalg.inv,
    _umath_linalg.cholesky_lo, _umath_linalg.eigvals, _umath_linalg.eigvalsh_lo,
    _umath_linalg.eigh_lo, _umath_linalg.svd, _umath_linalg.slogdet)
_set_state, _reset_state = _extobj_contextvar.set, _extobj_contextvar.reset


def _raising(message):
    """The error state of ``np.errstate(call=handler, invalid="call",
    over="ignore", divide="ignore", under="ignore")``, its handler raising
    LinAlgError(message): np.linalg's state for a gufunc that can fail."""
    def handler(err, flag):
        raise LinAlgError(message)
    return _make_extobj(call=handler, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


_SINGULAR = _raising("Singular matrix")
_NOT_PD = _raising("Matrix is not positive definite")
_EIG_FAILED = _raising("Eigenvalues did not converge")
_SVD_FAILED = _raising("SVD did not converge")


def solve(a, b):
    """``np.linalg.solve(a, b)``: b a vector when 1-D, else a stack of matrices."""
    token = _set_state(_SINGULAR)
    try:
        return (_SOLVE1 if b.ndim == 1 else _SOLVE)(a, b, signature="dd->d")
    finally:
        _reset_state(token)


def inv(a):
    """``np.linalg.inv(a)``."""
    token = _set_state(_SINGULAR)
    try:
        return _INV(a, signature="d->d")
    finally:
        _reset_state(token)


def cholesky(a):
    """Lower Cholesky factor, as ``np.linalg.cholesky(a)``."""
    token = _set_state(_NOT_PD)
    try:
        return _CHOLESKY(a, signature="d->d")
    finally:
        _reset_state(token)


def eigvals(a):
    """``np.linalg.eigvals(a)``: real when every eigenvalue is."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    token = _set_state(_EIG_FAILED)
    try:
        w = _EIGVALS(a, signature="d->D")
    finally:
        _reset_state(token)
    return w if w.imag.any() else w.real


def eigvalsh(a):
    """Ascending eigenvalues from the lower triangle, as ``np.linalg.eigvalsh(a)``."""
    token = _set_state(_EIG_FAILED)
    try:
        return _EIGVALSH(a, signature="d->d")
    finally:
        _reset_state(token)


def eigh(a):
    """(w, U) from the lower triangle, as ``np.linalg.eigh(a)``."""
    token = _set_state(_EIG_FAILED)
    try:
        return _EIGH(a, signature="d->dd")
    finally:
        _reset_state(token)


def svdvals(a):
    """Descending singular values, as ``np.linalg.svd(a, compute_uv=False)``."""
    token = _set_state(_SVD_FAILED)
    try:
        return _SVD(a, signature="d->d")
    finally:
        _reset_state(token)


def slogdet(a):
    """(sign, log |det|), as ``np.linalg.slogdet(a)``, which sets no errstate."""
    return _SLOGDET(a, signature="d->dd")


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
    return float(svdvals(M)[0])


def nuclear_norm(M):
    """Nuclear norm of a matrix (a float), or of each matrix in a stack (an array)."""
    norms = svdvals(M).sum(axis=-1)
    return float(norms) if M.ndim == 2 else norms


def spectral_radius(M):
    return float(abs(eigvals(M)).max())


def min_eig(M):
    return float(eigvalsh(sym(M))[0])


def psd_sqrt(M, floor=1e-12):
    """Symmetric square root via eigendecomposition, eigenvalues floored.
    Gate P8 (``test_p8_perturbation_lemma``) builds its perturbations with it."""
    w, U = eigh(sym(M))
    w = np.maximum(w, floor)
    return (U * np.sqrt(w)) @ U.T


def psd_roots(M, floor=1e-12):
    """(M^{1/2}, M^{-1/2}) of a PD matrix, or of each matrix in a stack, from
    one eigendecomposition each; a non-PD matrix raises CertificateError
    naming the least eigenvalue of the first such."""
    w, U = eigh(sym(M))
    bad = np.flatnonzero(w[..., 0].ravel() <= 0)
    if bad.size:
        raise CertificateError(
            f"matrix is not PD (min eig {w[..., 0].ravel()[bad[0]]:.3g})")
    root = np.sqrt(np.maximum(w, floor))[..., None, :]
    Ut = U.swapaxes(-1, -2)
    return (U * root) @ Ut, (U / root) @ Ut


def chol_solve(A, B):
    """Solve A X = B for symmetric PD A via Cholesky."""
    L = cholesky(sym(A))
    Y = solve(L, B)
    return solve(L.T, Y)


def logdet_pd(M, strict=True):
    """log det of a symmetric PD matrix (a float), or of each matrix in a
    stack (an array), taken as it is: the covariances the runners build,
    lambda I plus a Gram summed in step order, are exactly symmetric, so
    symmetrising them first would change no bit.

    A non-PD matrix raises CertificateError; with ``strict=False`` its log det
    reads nan instead.
    """
    sign, ld = slogdet(M)
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
    n = M.shape[0]
    # kron(M, M) as one broadcast product: the same single products, less overhead
    A = _eye(n * n) - (M[:, None, :, None] * M[None, :, None, :]).reshape(n * n, n * n)
    x = solve(A, S.reshape(-1))
    return sym(x.reshape(n, n))


@cache
def _eye(k):
    """A read-only k x k identity, built once per size."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye
