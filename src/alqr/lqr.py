"""Ground-truth plant model, simulation step, exact LQR solutions, and
strong-stability certification.

The plant is x' = A x + B u + w with per-component noise std ``sigma_w``
(noise covariance W = sigma_w^2 I). ``theta_bound`` is a known bound on the
spectral norm of the stacked parameter matrix Theta = [A; B] ((n+m) x n),
and ``alpha0 <= Q, R <= alpha1`` in the PSD order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConfigurationError,
    NotStabilizableError,
    NotStabilizingError,
)
from .linalg import (
    as_matrix,
    min_eig,
    psd_inv_sqrt,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym,
)

# gamma is reported as 1 - eps_clip when the closed loop is nilpotent with
# rho = 0, keeping gamma strictly inside (0, 1)
GAMMA_CLIP = 1e-9


@dataclass
class SystemModel:
    """True plant (A, B), cost matrices (Q, R), and its known bounds."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    sigma_w: float = 1.0
    theta_bound: float | None = None
    alpha0: float | None = None
    alpha1: float | None = None
    name: str = ""

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B.reshape(-1, 1)
        self.Q = as_matrix(self.Q, "Q")
        self.R = as_matrix(self.R, "R")
        n, m = self.n, self.m
        if self.A.shape != (n, n):
            raise ConfigurationError("A must be square", field="A")
        if self.B.shape[0] != n:
            raise ConfigurationError("B row count must match A", field="B")
        if self.Q.shape != (n, n):
            raise ConfigurationError("Q must be n x n", field="Q")
        if self.R.shape != (m, m):
            raise ConfigurationError("R must be m x m", field="R")
        eq = np.linalg.eigvalsh(sym(self.Q))
        er = np.linalg.eigvalsh(sym(self.R))
        if self.alpha0 is None:
            self.alpha0 = float(min(eq[0], er[0]))
        if self.alpha1 is None:
            self.alpha1 = float(max(eq[-1], er[-1]))
        if eq[0] < -1e-12 or er[0] < -1e-12:
            raise ConfigurationError("Q and R must be PSD", field="Q")
        if not (self.alpha0 - 1e-9 <= eq[0] and eq[-1] <= self.alpha1 + 1e-9):
            raise ConfigurationError("alpha0 I <= Q <= alpha1 I violated", field="alpha0")
        if not (self.alpha0 - 1e-9 <= er[0] and er[-1] <= self.alpha1 + 1e-9):
            raise ConfigurationError("alpha0 I <= R <= alpha1 I violated", field="alpha0")
        if self.sigma_w < 0:
            raise ConfigurationError("sigma_w must be >= 0", field="sigma_w")
        if self.theta_bound is None:
            self.theta_bound = float(np.ceil(spectral_norm(self.theta_star) * 100) / 100 + 0.01)
        elif spectral_norm(self.theta_star) > self.theta_bound + 1e-9:
            raise ConfigurationError("||Theta|| exceeds theta_bound", field="theta_bound")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def theta_star(self):
        """Stacked parameters [A; B], shape (n+m) x n, so x' = Theta^T z + w."""
        return np.vstack([self.A.T, self.B.T])

    @property
    def W(self):
        return self.sigma_w**2 * np.eye(self.n)


@dataclass
class OptimalSolution:
    """DARE value matrix, optimal gain, and optimal average cost."""

    P_star: np.ndarray
    K_star: np.ndarray
    J_star: float
    residual: float = 0.0


@dataclass
class StabilityCert:
    """(kappa, gamma) strong-stability witness: A+BK = H L H^{-1}."""

    kappa: float
    gamma: float
    H: np.ndarray
    L: np.ndarray
    spectral_radius: float


def step(model: SystemModel, x, u, w):
    """One plant transition: A x + B u + w."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    if x.shape[0] != model.n:
        raise ConfigurationError("state dimension mismatch", field="x")
    if u.shape[0] != model.m:
        raise ConfigurationError("input dimension mismatch", field="u")
    if w.shape[0] != model.n:
        raise ConfigurationError("noise dimension mismatch", field="w")
    return model.A @ x + model.B @ u + w


def _split_theta(theta, n):
    """(A, B) from Theta = [A'; B'], whose first n rows hold A'."""
    A = theta[:n, :].T
    B = theta[n:, :].T
    return A, B


def _riccati_residual(A, B, Q, R, P, S=None):
    """DARE residual norm; S is the cross weight of a cost x'Qx + 2x'Su + u'Ru."""
    G = B.T @ P @ A
    F = A.T @ P @ B
    if S is not None:
        G, F = G + S.T, F + S
    H = B.T @ P @ B + R
    return spectral_norm(Q + A.T @ P @ A - F @ np.linalg.solve(H, G) - P)


def _dare_doubling(A, B, Q, R, tol=1e-12, max_iter=200):
    """Structure-preserving doubling iteration for the DARE."""
    n = A.shape[0]
    Ak = A.copy()
    Gk = B @ np.linalg.solve(R, B.T)
    Hk = Q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            M = np.eye(n) + Gk @ Hk
            try:
                Minv = np.linalg.inv(M)
            except np.linalg.LinAlgError as exc:
                raise NotStabilizableError("doubling iteration broke down") from exc
            An = Ak @ Minv @ Ak
            Gn = Gk + Ak @ Minv @ Gk @ Ak.T
            Hn = Hk + Ak.T @ Hk @ Minv @ Ak
            if not (np.all(np.isfinite(An)) and np.all(np.isfinite(Gn))
                    and np.all(np.isfinite(Hn))):
                raise NotStabilizableError("doubling iteration diverged")
            # largest-entry norms: the test needs no SVD, and the quadratic
            # convergence leaves the returned iterate unchanged
            delta = float(np.max(np.abs(Hn - Hk)))
            Ak, Gk, Hk = An, sym(Gn), sym(Hn)
            if delta <= tol * max(1.0, float(np.max(np.abs(Hk)))):
                return Hk
    raise NotStabilizableError("doubling iteration did not converge")


def _dare_cross(A, B, C):
    """Stabilising DARE solution and gain for the joint cost weight C.

    C = [[Q, S], [S', R]] weighs (x, u); the cross term is removed by the
    substitution u = v - R^{-1} S' x, which leaves the standard DARE of
    (A - B R^{-1} S', B) with cost Q - S R^{-1} S' on x and R on v.  Returns
    (P, K) with K = -(R + B'PB)^{-1}(B'PA + S').
    """
    n = A.shape[0]
    Q, S, R = C[:n, :n], C[:n, n:], C[n:, n:]
    RiSt = np.linalg.solve(R, S.T)
    P = _dare_doubling(A - B @ RiSt, B, sym(Q - S @ RiSt), R)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A + S.T)
    return P, K


def solve_dare(model: SystemModel) -> OptimalSolution:
    """Solve the DARE for the model; gain K = -(B'PB+R)^{-1} B'PA.

    Doubling iteration; the returned solution has Riccati residual <= 1e-8
    and a stable closed loop, or NotStabilizableError is raised.
    """
    A, B, Q, R = model.A, model.B, sym(model.Q), sym(model.R)
    if min_eig(R) <= 0:
        raise ConfigurationError("R must be PD for the DARE", field="R")
    P = _dare_doubling(A, B, Q, R)
    res = _riccati_residual(A, B, Q, R, P)
    if not np.isfinite(res) or res > 1e-8:
        raise NotStabilizableError(f"DARE residual {res:.3g} exceeds 1e-8")
    S = B.T @ P @ B + R
    K = -np.linalg.solve(S, B.T @ P @ A)
    if spectral_radius(A + B @ K) >= 1.0:
        raise NotStabilizableError("DARE gain failed to stabilize the closed loop")
    J = float(np.trace(P)) * model.sigma_w**2
    return OptimalSolution(P_star=sym(P), K_star=K, J_star=J, residual=res)


def stability_certificate(model: SystemModel, K) -> StabilityCert:
    """Certify K via the Lyapunov construction.

    For rho(A+BK) < 1, gamma = 1 - rho and H = P^{-1/2} with
    Q_s' P Q_s <= P, Q_s = (1-gamma)^{-1}(A+BK).  For non-normal closed
    loops the scaling is backed off by a 1e-6 relative margin so the
    Lyapunov solve is well posed (at gamma = 1 - rho exactly, Q_s sits on
    the unit circle and the series diverges).
    """
    K = as_matrix(K, "K")
    if K.shape != (model.m, model.n):
        raise ConfigurationError("gain must be m x n", field="K")
    M = model.A + model.B @ K
    rho = spectral_radius(M)
    if rho >= 1.0:
        raise NotStabilizingError(rho)
    if rho == 0.0:
        gamma = 1.0 - GAMMA_CLIP
        H = np.eye(model.n)
        L = M.copy()
        kappa = max(1.0, spectral_norm(K))
        return StabilityCert(kappa=kappa, gamma=gamma, H=H, L=L,
                             spectral_radius=rho)
    if spectral_norm(M) <= rho * (1 + 1e-12):
        # normal closed loop: H = I certifies with gamma = 1 - rho exactly
        gamma = 1.0 - rho
        H = np.eye(model.n)
        L = M.copy()
        kappa = max(1.0, spectral_norm(K))
        return StabilityCert(kappa=kappa, gamma=gamma, H=H, L=L,
                             spectral_radius=rho)
    rho_eff = rho * (1 + 1e-6)
    gamma = 1.0 - rho_eff
    Qs = M / rho_eff
    # P solves Qs' P Qs + I = P (identity forcing), i.e. P = sum_k (Qs')^k Qs^k
    P = solve_discrete_lyapunov(Qs.T, np.eye(model.n))
    H = psd_inv_sqrt(P)
    Hinv = np.linalg.inv(H)
    L = Hinv @ M @ H
    kappa = max(spectral_norm(H) * spectral_norm(Hinv), spectral_norm(K))
    return StabilityCert(
        kappa=float(kappa),
        gamma=float(gamma),
        H=H,
        L=L,
        spectral_radius=rho,
    )


def nu_bound(model: SystemModel, cert0: StabilityCert) -> float:
    """Average-cost bound for a certified initial gain:
    nu = alpha1 (n+m) kappa0^2 (1+kappa0^2) sigma_w^2 / gamma0."""
    k2 = cert0.kappa**2
    return model.alpha1 * (model.n + model.m) * k2 * (1 + k2) * model.sigma_w**2 / cert0.gamma


def kappa_gamma(nu: float, alpha0: float, sigma_w: float):
    """kappa = sqrt(2 nu / (alpha0 sigma_w^2)), gamma = 1/(2 kappa^2)."""
    if nu <= 0 or alpha0 <= 0 or sigma_w <= 0:
        raise ConfigurationError("nu, alpha0, sigma_w must be positive", field="nu")
    kappa = float(np.sqrt(2.0 * nu / (alpha0 * sigma_w**2)))
    return kappa, 1.0 / (2.0 * kappa**2)
