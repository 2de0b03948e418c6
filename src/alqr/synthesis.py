"""Per-epoch policy synthesis from the confidence-ellipsoid-relaxed SDP.

With W = sigma^2 I the relaxed primal/dual pair has an exact Riccati
solution: ``solve_relaxed_riccati`` finds it as a cross-term DARE at the
fixed point tr P = s (each DARE after the first re-solved by Newton-Kleinman
from the gain at the last s), and ``synthesize_policy`` turns a decline of
that path into a SynthesisError, on which the runners keep the previous
policy.  The barrier-SDP formulations of the same pair live in ``sdp`` as test oracles.
Also here: the relaxation magnitude mu, the sequential-stability gap and
the perturbation-lemma check.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import (
    CertificateError,
    InvalidSampleError,
    NotStabilizableError,
    SynthesisError,
)
from .linalg import (
    _eye,
    chol_solve,
    cholesky,
    min_eig,
    psd_roots,
    solve,
    solve_discrete_lyapunov,
    spectral_norm,
    svdvals,
    sym,
)
from .lqr import _dare_cross, _riccati_residual, _split_theta

# Relative accuracy the Riccati path must certify, and its Newton budget.
RICCATI_TOL = 1e-8
RICCATI_MAX_ITER = 30


def mu(r_t: float, theta_bound: float, normV: float, mode: str = "lemma") -> float:
    """Relaxation magnitude for radius r_t and normV = |V| (spectral norm).

    mode="paper" is the literal algorithm statement r + sqrt(r) theta |V|^{1/2};
    mode="lemma" carries the factor 2 the perturbation lemma actually needs.
    """
    if r_t < 0:
        raise ValueError("r_t must be >= 0")
    root = np.sqrt(r_t) * theta_bound * np.sqrt(normV)
    if mode == "paper":
        return float(r_t + root)
    if mode == "lemma":
        return float(r_t + 2.0 * root)
    raise ValueError(f"unknown mu mode {mode!r}")


def solve_relaxed_riccati(theta_hat, model, mu, V_t, s0=0.0):
    """Relaxed optimum from cross-term DAREs; returns the certified (K, P).

    For fixed s = tr P the relaxed dual constraint is the Riccati LMI of the
    cost C(s) = diag(Q, R) - mu s V^{-1}, whose maximal solution is the
    stabilising DARE solution P*(s).  tr P*(s) is concave and decreasing in
    s, so the optimum is the fixed point tr P*(s) = s, reached by Newton
    steps (d tr P*/ds = -mu tr X with X = M'XM + [I; K]' V^{-1} [I; K],
    M = A + BK) kept inside the bracket [s with tr P* > s, s with tr P* <= s].
    The bracket starts at [0, s_max): R~(s) = R - mu s (V^{-1})_uu is PD
    exactly for s < s_max = 1/(mu lambda_max(L^{-1} (V^{-1})_uu L^{-T})),
    R = L L', so a step past s_max bisects instead.  The gain is the same
    solve's K = -(R~ + B'PB)^{-1}(B'PA + S').

    The search starts at s0 when mu > 0 and 0 < s0 < s_max, else at 0.  A
    runner passes tr P of the policy in force, the fixed point of a nearby
    problem; the fixed point is unique, and by concavity Newton's first
    step from either side of it lands at or right of it.  The first DARE
    is solved by doubling; each later one by Newton-Kleinman from the gain
    at the last s, which stabilises the same estimate (2 or 3 Lyapunov
    solves on bench-2x2 against 5 or 6 doubling steps), falling back to
    the doubling where that cannot be trusted (``lqr._dare_cross``).  Each
    gain's closed loop A + BK is formed and its spectral radius computed
    once, in ``_dare_cross``.

    Raises CertificateError when a check of the result fails and
    NotStabilizableError when the doubling iteration does.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    V_t = np.atleast_2d(np.asarray(V_t, dtype=float))
    n, m = model.n, model.m
    A, B = _split_theta(theta_hat, n)
    V_inv = sym(chol_solve(V_t, _eye(n + m)))
    IK = np.eye(n + m, n)  # [I; K], its K rows filled in at each Newton step
    C0 = np.zeros((n + m, n + m))
    C0[:n, :n] = sym(model.Q)
    C0[n:, n:] = sym(model.R)

    def solve_at(s, K=None, M=None, stable=None):
        C = C0 - mu * s * V_inv
        if min_eig(C[n:, n:]) <= 0:
            raise CertificateError(f"R~(s) is not PD at s = {s:.6g}")
        return (C, *_dare_cross(A, B, C, K, M, stable))

    s_max = math.inf
    if mu > 0:
        L = cholesky(C0[n:, n:])
        LiV = solve(L, V_inv[n:, n:])
        s_max = 1.0 / (mu * spectral_norm(solve(L, LiV.T)))
    s = float(s0) if mu > 0 and 0.0 < s0 < s_max else 0.0
    lo, hi = 0.0, s_max
    C, P, K, H, M, stable = solve_at(s)  # M = A + BK, stable: rho(M) < 1
    for _ in range(RICCATI_MAX_ITER if mu > 0 else 0):
        tr = float(P.trace())
        f = tr - s
        if f > 0:
            lo = s
        else:
            hi = s
        IK[n:] = K
        X = solve_discrete_lyapunov(M.T, IK.T @ V_inv @ IK)
        slope = mu * float(X.trace())  # -d tr P*/ds
        step = f / (1.0 + slope)
        if not math.isfinite(step):
            raise CertificateError("Newton step on s is not finite")
        # done once s is a tenth of the certificate from the fixed point and
        # the step would move tr P by under 1e-12 relative
        if (abs(f) <= 0.1 * RICCATI_TOL * max(1.0, s)
                and slope * abs(step) <= 1e-12 * max(1.0, tr)):
            break
        s_next = s + step
        s = s_next if lo < s_next < hi else 0.5 * (lo + hi)
        C, P, K, H, M, stable = solve_at(s, K, M, stable)  # Newton-Kleinman from the last gain

    # H = B'PB + R~ is the gain solve's own term
    if min_eig(H) <= 0:
        raise CertificateError("R~ + B'PB is not PD")
    if min_eig(P) < 0:
        raise CertificateError(f"P is not PSD (min eig {min_eig(P):.3g})")
    res = _riccati_residual(A, C[:n, :n], P, A.T @ P @ B + C[:n, n:], K)
    if not res <= RICCATI_TOL * max(1.0, spectral_norm(P)):
        raise CertificateError(f"Riccati residual {res:.3g} too large")
    if mu > 0 and not abs(float(P.trace()) - s) <= RICCATI_TOL * max(1.0, s):
        raise CertificateError(f"tr P = {np.trace(P):.12g} misses s = {s:.12g}")
    if not stable:
        raise CertificateError("Riccati gain does not stabilise the estimate")
    return K, sym(P)


def synthesize_policy(theta_hat, model, mu_t, V_t, s0=0.0):
    """One epoch's gain K and dual P from ``solve_relaxed_riccati``, its
    search started at s0; K is certified to stabilise the estimate.

    Raises SynthesisError naming the reason when the Riccati path declines.
    """
    try:
        return solve_relaxed_riccati(theta_hat, model, mu_t, V_t, s0)
    except (CertificateError, NotStabilizableError, np.linalg.LinAlgError) as exc:
        raise SynthesisError(
            f"Riccati path declined: {type(exc).__name__}: {exc}") from exc


def sequential_gaps(Ps) -> list:
    """|P_{i+1}^{-1/2} P_i^{1/2}| for each consecutive pair of value matrices,
    H = P^{1/2} from symmetric eigensystems.  The roots come from one stacked
    eigendecomposition and the norms from one stacked SVD, each matrix with
    the bits of its own call; a P that is not PD raises CertificateError."""
    if not len(Ps):
        return []
    roots, inv_roots = psd_roots(np.array(Ps, dtype=float))
    return svdvals(inv_roots[1:] @ roots[:-1])[:, 0].tolist()


def sequential_gap(P_prev, P_next) -> float:
    """|P_next^{-1/2} P_prev^{1/2}|; see ``sequential_gaps``.  Gate P6
    (``test_p6_stability``) reads it for each consecutive pair of epochs."""
    return sequential_gaps([P_prev, P_next])[0]


def perturbation_check(X, Delta, P, V, r: float, slack: float = 1e-10) -> bool:
    """Two-sided PSD sandwich of the perturbation lemma.

    Requires Delta' Delta <= r V^{-1}; checks
    -mu |P|_* V^{-1} <= (X+D)' P (X+D) - X' P X <= mu |P|_* V^{-1}
    with mu = r + 2 |X| |V|^{1/2} sqrt(r), PSD order tested by eigenvalues.
    Gate P8 (``test_p8_perturbation_lemma``) reads it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Delta = np.atleast_2d(np.asarray(Delta, dtype=float))
    P = sym(np.atleast_2d(np.asarray(P, dtype=float)))
    V = sym(np.atleast_2d(np.asarray(V, dtype=float)))
    V_inv = chol_solve(V, np.eye(V.shape[0]))
    pre = r * V_inv - Delta.T @ Delta
    scale = max(1.0, spectral_norm(r * V_inv))
    if min_eig(pre) < -1e-8 * scale:
        raise InvalidSampleError("Delta' Delta <= r V^{-1} violated")
    mu_val = r + 2.0 * spectral_norm(X) * np.sqrt(spectral_norm(V)) * np.sqrt(r)
    bound = mu_val * float(np.trace(P)) * V_inv
    diff = (X + Delta).T @ P @ (X + Delta) - X.T @ P @ X
    return min_eig(bound - diff) >= -slack and min_eig(bound + diff) >= -slack
