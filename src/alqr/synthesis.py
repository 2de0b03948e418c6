"""Confidence-ellipsoid-relaxed primal/dual SDPs and policy extraction.

The primal decision variable is the joint steady-state second moment
Sigma, partitioned as [[Sigma_xx, Sigma_xu], [Sigma_ux, Sigma_uu]]; the
relaxation inflates the covariance constraint by mu (Sigma . V^{-1}) I to
absorb parameter uncertainty, and the linear policy is read off as
K = Sigma_ux Sigma_xx^{-1}.

With W = sigma^2 I the relaxed problem has an exact Riccati solution (see
``solve_relaxed_riccati``), which ``synthesize_policy`` uses; the barrier
primal and dual solves remain as its certified fallback and as test oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import sdp
from .exceptions import (
    CertificateError,
    DegenerateSolutionError,
    InvalidSampleError,
    NotStabilizableError,
    SynthesisError,
)
from .linalg import (
    chol_solve,
    min_eig,
    psd_inv_sqrt,
    psd_sqrt,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym,
)
from .lqr import SystemModel, _dare_cross, _riccati_residual, solve_dare

log = logging.getLogger(__name__)

# Relative accuracy the Riccati path must certify, and its Newton budget.
RICCATI_TOL = 1e-8
RICCATI_MAX_ITER = 30


@dataclass
class RelaxedPrimalProblem:
    """Data of the relaxed primal SDP; ``compile`` lowers it to an LMI program."""

    theta_hat: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    mu: float
    V_inv: np.ndarray

    @property
    def n(self):
        return self.Q.shape[0]

    @property
    def m(self):
        return self.R.shape[0]

    def compile(self) -> sdp.SDProblem:
        n, m = self.n, self.m
        p = n + m
        E = sdp.sym_basis(p)
        d = E.shape[0]
        cov_coeffs = np.zeros((d, n, n))
        for i in range(d):
            Ei = E[i]
            cov_coeffs[i] = (
                Ei[:n, :n]
                - self.theta_hat.T @ Ei @ self.theta_hat
                + self.mu * float(np.sum(Ei * self.V_inv)) * np.eye(n)
            )
        blocks = [
            sdp.PSDBlock(const=-self.W, coeffs=cov_coeffs),
            sdp.PSDBlock(const=np.zeros((p, p)), coeffs=E),
        ]
        C = np.zeros((p, p))
        C[:n, :n] = self.Q
        C[n:, n:] = self.R
        return sdp.SDProblem(c=sdp.objective_from_matrix(C), blocks=blocks)


@dataclass
class ControlPolicy:
    """Gain and dual value matrix for one epoch's policy.

    ``path`` names the solver that produced them: "riccati" or, when the
    Riccati path could not certify its result, "barrier".
    """

    K: np.ndarray
    P_dual: np.ndarray
    mu_used: float
    epoch_index: int = 0
    tau: int = 0
    path: str = "riccati"


def mu(r_t: float, theta_bound: float, V_t, mode: str = "lemma") -> float:
    """Relaxation magnitude for radius r_t.

    mode="paper" is the literal algorithm statement r + sqrt(r) theta |V|^{1/2};
    mode="lemma" carries the factor 2 the perturbation lemma actually needs.
    """
    if r_t < 0:
        raise ValueError("r_t must be >= 0")
    root = np.sqrt(r_t) * theta_bound * np.sqrt(spectral_norm(V_t))
    if mode == "paper":
        return float(r_t + root)
    if mode == "lemma":
        return float(r_t + 2.0 * root)
    raise ValueError(f"unknown mu mode {mode!r}")


def build_relaxed_primal(theta_hat, model, mu, V_t) -> RelaxedPrimalProblem:
    theta_hat = np.asarray(theta_hat, dtype=float)
    V_t = np.atleast_2d(np.asarray(V_t, dtype=float))
    if mu < 0:
        raise ValueError("mu must be >= 0")
    V_inv = chol_solve(V_t, np.eye(V_t.shape[0]))
    return RelaxedPrimalProblem(
        theta_hat=theta_hat,
        W=model.W,
        Q=sym(model.Q),
        R=sym(model.R),
        mu=float(mu),
        V_inv=sym(V_inv),
    )


def _split_theta(theta_hat, n):
    A = theta_hat[:n, :].T
    B = theta_hat[n:, :].T
    return A, B


def _primal_warm_start(problem: RelaxedPrimalProblem):
    """Strictly feasible Sigma from the nominal closed loop, if one exists."""
    n, m = problem.n, problem.m
    A, B = _split_theta(problem.theta_hat, n)
    try:
        nominal = SystemModel(A=A, B=B, Q=problem.Q, R=problem.R, sigma_w=1.0,
                              theta_bound=spectral_norm(problem.theta_hat) + 1.0)
        K = solve_dare(nominal).K_star
    except Exception:
        return None
    M = A + B @ K
    if spectral_radius(M) >= 1.0 - 1e-9:
        return None
    c0 = max(1e-3, 0.05 * min_eig(problem.W))
    try:
        X = solve_discrete_lyapunov(M, problem.W + c0 * np.eye(n))
    except Exception:
        return None
    IK = np.vstack([np.eye(n), K])
    c2 = c0 / (2.0 * spectral_norm(B) ** 2 + 1.0)
    Sigma0 = IK @ X @ IK.T
    Sigma0[n:, n:] += c2 * np.eye(m)
    return sdp.sym_to_vec(sym(Sigma0))


def solve_relaxed_primal(problem: RelaxedPrimalProblem, tol: float = 1e-9):
    """Solve the compiled relaxed primal; returns the optimal Sigma."""
    compiled = problem.compile()
    sol = sdp.solve_sdp(compiled, x0=_primal_warm_start(problem), tol=tol)
    if not sol.ok:
        raise SynthesisError(f"relaxed primal solve failed: status={sol.status}")
    Sigma = sdp.vec_to_sym(sol.x, problem.n + problem.m)
    log.debug(
        "relaxed primal: value=%.9g gap=%.3g stationarity=%.3g min_eig=%s",
        sol.value, sol.gap, sol.stationarity, sol.min_eig_blocks,
    )
    return sym(Sigma)


def extract_policy(Sigma_star, n: int):
    """K = Sigma_ux Sigma_xx^{-1}, splitting Sigma after the first n rows."""
    Sigma_star = np.atleast_2d(np.asarray(Sigma_star, dtype=float))
    Sxx = Sigma_star[:n, :n]
    Sux = Sigma_star[n:, :n]
    if min_eig(Sxx) < 1e-10:
        raise DegenerateSolutionError(
            f"Sigma_xx is numerically singular (min eig {min_eig(Sxx):.3g})"
        )
    return np.linalg.solve(Sxx, Sux.T).T


def solve_relaxed_dual(theta_hat, model, mu, V_t, tol: float = 1e-9):
    """Relaxed dual: max P.W  s.t. diag(Q-P, R) + Theta P Theta' >= mu tr(P) V^{-1}."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    V_t = np.atleast_2d(np.asarray(V_t, dtype=float))
    n, m = model.n, model.m
    p = n + m
    V_inv = sym(chol_solve(V_t, np.eye(p)))
    E = sdp.sym_basis(n)
    d = E.shape[0]
    coeffs = np.zeros((d, p, p))
    for i in range(d):
        Ei = E[i]
        block = theta_hat @ Ei @ theta_hat.T - mu * float(np.trace(Ei)) * V_inv
        block[:n, :n] -= Ei
        coeffs[i] = sym(block)
    const = np.zeros((p, p))
    const[:n, :n] = sym(model.Q)
    const[n:, n:] = sym(model.R)
    blocks = [
        sdp.PSDBlock(const=const, coeffs=coeffs),
        sdp.PSDBlock(const=np.zeros((n, n)), coeffs=E),
    ]
    c = sdp.objective_from_matrix(-model.W)
    problem = sdp.SDProblem(c=c, blocks=blocks)
    # P = rho0 I is strictly feasible for small rho0 because diag(Q, R) > 0
    rho0 = 0.5 * model.alpha0
    x0 = None
    for _ in range(40):
        cand = sdp.sym_to_vec(rho0 * np.eye(n))
        if all(min_eig(b.evaluate(cand)) > 1e-12 for b in blocks):
            x0 = cand
            break
        rho0 *= 0.1
    sol = sdp.solve_sdp(problem, x0=x0, tol=tol)
    if not sol.ok:
        raise SynthesisError(f"relaxed dual solve failed: status={sol.status}")
    P = sdp.vec_to_sym(sol.x, n)
    log.debug("relaxed dual: value=%.9g gap=%.3g", -sol.value, sol.gap)
    return sym(P)


def solve_relaxed_riccati(theta_hat, model, mu, V_t):
    """Relaxed optimum from cross-term DAREs; returns the certified (K, P).

    For fixed s = tr P the relaxed dual constraint is the Riccati LMI of the
    cost C(s) = diag(Q, R) - mu s V^{-1}, whose maximal solution is the
    stabilising DARE solution P*(s).  tr P*(s) is concave and decreasing in
    s, so the optimum is the fixed point tr P*(s) = s, reached by Newton
    steps (d tr P*/ds = -mu tr X with X = M'XM + [I; K]' V^{-1} [I; K],
    M = A + BK) kept inside the bracket [s with tr P* > s, s with tr P* <= s].
    The gain is the same solve's K = -(R~ + B'PB)^{-1}(B'PA + S').

    Raises CertificateError when a check of the result fails and
    NotStabilizableError when the doubling iteration does.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    V_t = np.atleast_2d(np.asarray(V_t, dtype=float))
    n, m = model.n, model.m
    A, B = _split_theta(theta_hat, n)
    V_inv = sym(chol_solve(V_t, np.eye(n + m)))
    C0 = np.zeros((n + m, n + m))
    C0[:n, :n] = sym(model.Q)
    C0[n:, n:] = sym(model.R)

    def solve_at(s):
        C = C0 - mu * s * V_inv
        if min_eig(C[n:, n:]) <= 0:
            raise CertificateError(f"R~(s) is not PD at s = {s:.6g}")
        return (C, *_dare_cross(A, B, C))

    s, lo, hi = 0.0, 0.0, math.inf
    C, P, K = solve_at(s)
    for _ in range(RICCATI_MAX_ITER if mu > 0 else 0):
        tr = float(np.trace(P))
        f = tr - s
        if f > 0:
            lo = s
        else:
            hi = s
        IK = np.vstack([np.eye(n), K])
        X = solve_discrete_lyapunov((A + B @ K).T, IK.T @ V_inv @ IK)
        slope = mu * float(np.trace(X))  # -d tr P*/ds
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
        C, P, K = solve_at(s)

    if min_eig(C[n:, n:] + B.T @ P @ B) <= 0:
        raise CertificateError("R~ + B'PB is not PD")
    if min_eig(P) < 0:
        raise CertificateError(f"P is not PSD (min eig {min_eig(P):.3g})")
    res = _riccati_residual(A, B, C[:n, :n], C[n:, n:], P, S=C[:n, n:])
    if not res <= RICCATI_TOL * max(1.0, spectral_norm(P)):
        raise CertificateError(f"Riccati residual {res:.3g} too large")
    if mu > 0 and not abs(float(np.trace(P)) - s) <= RICCATI_TOL * max(1.0, s):
        raise CertificateError(f"tr P = {np.trace(P):.12g} misses s = {s:.12g}")
    if not spectral_radius(A + B @ K) < 1.0:
        raise CertificateError("Riccati gain does not stabilise the estimate")
    return K, sym(P)


def synthesize_policy(theta_hat, model, mu_t, V_t, tol=1e-9,
                      epoch_index=0, tau=0) -> ControlPolicy:
    """One epoch's gain and dual P, from the Riccati path when it certifies
    its result and from the barrier primal + dual solves otherwise."""
    try:
        K, P = solve_relaxed_riccati(theta_hat, model, mu_t, V_t)
        path = "riccati"
    except (CertificateError, NotStabilizableError, np.linalg.LinAlgError) as exc:
        log.info("Riccati path declined at tau=%d (%s); using barrier solves", tau, exc)
        problem = build_relaxed_primal(theta_hat, model, mu_t, V_t)
        K = extract_policy(solve_relaxed_primal(problem, tol=tol), model.n)
        P = solve_relaxed_dual(theta_hat, model, mu_t, V_t, tol=tol)
        path = "barrier"
    return ControlPolicy(K=K, P_dual=P, mu_used=float(mu_t),
                         epoch_index=epoch_index, tau=tau, path=path)


def sequential_gap(P_prev, P_next) -> float:
    """|P_next^{-1/2} P_prev^{1/2}| with H = P^{1/2} from symmetric eigensystems."""
    P_prev = np.atleast_2d(np.asarray(P_prev, dtype=float))
    P_next = np.atleast_2d(np.asarray(P_next, dtype=float))
    if min_eig(P_prev) <= 0 or min_eig(P_next) <= 0:
        raise CertificateError("sequential gap needs PD value matrices")
    return spectral_norm(psd_inv_sqrt(P_next) @ psd_sqrt(P_prev))


def perturbation_check(X, Delta, P, V, r: float, slack: float = 1e-10) -> bool:
    """Two-sided PSD sandwich of the perturbation lemma.

    Requires Delta' Delta <= r V^{-1}; checks
    -mu |P|_* V^{-1} <= (X+D)' P (X+D) - X' P X <= mu |P|_* V^{-1}
    with mu = r + 2 |X| |V|^{1/2} sqrt(r), PSD order tested by eigenvalues.
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
