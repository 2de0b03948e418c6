"""Ground-truth plant model, exact LQR solutions, and strong-stability
certification.

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
    eigvalsh,
    inv,
    min_eig,
    psd_roots,
    solve,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym,
)

# gamma is clipped to 1 - GAMMA_CLIP when a normal closed loop has rho below
# it (M = 0 included), keeping gamma strictly inside (0, 1)
GAMMA_CLIP = 1e-9
# the Lyapunov scaling of a non-normal closed loop is floored here: as
# rho_eff -> 0 (a nilpotent M), Qs = M / rho_eff and kappa grow without bound
RHO_EFF_FLOOR = 1e-2


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
        for name in ("A", "B", "Q", "R", "sigma_w", "theta_bound", "alpha0", "alpha1"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ConfigurationError(f"{name} must be finite", field=name)
        eq = eigvalsh(sym(self.Q))
        er = eigvalsh(sym(self.R))
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


def _split_theta(theta, n):
    """(A, B) from Theta = [A'; B'], whose first n rows hold A'."""
    A = theta[:n, :].T
    B = theta[n:, :].T
    return A, B


def _riccati_residual(A, Q, P, F, K):
    """DARE residual norm |Q + A'PA + F K - P|, with F = A'PB + S and the
    gain K = -H^{-1} G, so F K = -F H^{-1} G.

    S is the cross weight of a cost x'Qx + 2x'Su + u'Ru.  Adding F K has
    the bits of subtracting F H^{-1} G: negation is exact in IEEE arithmetic.
    """
    return spectral_norm(Q + A.T @ P @ A + F @ K - P)


def _dare_doubling(A, B, Q, R, tol=1e-12, max_iter=64):
    """Structure-preserving doubling iteration for the DARE.

    Step k's error falls as rho^(2^k), rho the spectral radius of the
    optimal closed loop, so the tolerance needs 2^k >= 28 / (1 - rho).  For
    the largest double below 1, 1 - 2^-53, that is k = 58: 64 steps converge
    every stabilising solution a double can tell from marginal, and a call
    still running after them only delays its decline.

    Ak @ Minv is formed once and reused: ``Ak @ Minv @ X`` is evaluated left
    to right, so An and Gn keep the bits of the written-out products.  Each
    step writes An, Gn and Hn into one fresh (3, n, n) array, so one call
    tests all three for finiteness and one symmetrises Gn and Hn together.
    """
    n = A.shape[0]
    eye = np.eye(n)
    Ak = A.copy()
    Gk = B @ solve(R, B.T)
    Hk = Q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            IGH = Gk @ Hk
            IGH += eye
            try:
                Minv = inv(IGH)
            except np.linalg.LinAlgError as exc:
                raise NotStabilizableError("doubling iteration broke down") from exc
            AkT = Ak.T
            AM = Ak @ Minv
            new = np.empty((3, n, n))
            An, Gn, Hn = new
            np.matmul(AM, Ak, out=An)
            np.matmul(AM @ Gk, AkT, out=Gn)
            Gn += Gk
            np.matmul(AkT @ Hk @ Minv, Ak, out=Hn)
            Hn += Hk
            if not np.isfinite(new).all():
                raise NotStabilizableError("doubling iteration diverged")
            # largest-entry norms: the test needs no SVD, and the quadratic
            # convergence leaves the returned iterate unchanged.  A max of
            # abs values is exact, and no nan gets past the test above, so
            # Python's max over the few entries equals numpy's, for less.
            delta = max(map(abs, (Hn - Hk).ravel().tolist()))
            GH = new[1:]
            GH = GH + GH.transpose(0, 2, 1)
            GH *= 0.5  # sym(Gn), sym(Hn)
            Ak, Gk, Hk = An, GH[0], GH[1]
            if delta <= tol * max(1.0, max(map(abs, Hk.ravel().tolist()))):
                return Hk
    raise NotStabilizableError("doubling iteration did not converge")


def _dare_newton(A, B, C, K, tol=1e-12, max_iter=8):
    """Newton-Kleinman iteration (Kleinman 1968; Hewer 1971) for the DARE of
    the joint cost weight C, started from a gain K that stabilises A + BK.

    Step j solves the Lyapunov equation P_j = M_j' P_j M_j + [I; K_j]' C
    [I; K_j] of the closed loop M_j = A + B K_j and sets K_{j+1} = -H_j^{-1}
    G_j.  Returns P once successive iterates pass the doubling's stopping
    test, or None when K does not stabilise A + BK, an iterate is not
    finite or a solve is singular, or max_iter steps do not converge.
    """
    n, m = B.shape
    S, R = C[:n, n:], C[n:, n:]
    if not spectral_radius(A + B @ K) < 1.0:
        return None
    IK = np.eye(n + m, n)  # [I; K], its K rows filled in at each step
    P_prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for _ in range(max_iter):
                IK[n:] = K
                P = solve_discrete_lyapunov((A + B @ K).T, IK.T @ C @ IK)
                if not np.isfinite(P).all():
                    return None
                if P_prev is not None:
                    delta = max(map(abs, (P - P_prev).ravel().tolist()))
                    if delta <= tol * max(1.0, max(map(abs, P.ravel().tolist()))):
                        return P
                _, K, _ = _gain(A, B, S, R, P)
                P_prev = P
        except np.linalg.LinAlgError:
            pass
    return None


def _dare_cross(A, B, C, K=None):
    """Stabilising DARE solution and gain for the joint cost weight C.

    C = [[Q, S], [S', R]] weighs (x, u).  Given a gain K that stabilises
    A + BK, the solution comes from ``_dare_newton`` started at K, kept
    when its gain stabilises A + BK too (the stabilising solution is the
    only one whose gain does).  Otherwise, or without K, the doubling
    solves it: the cross term is removed by the substitution u = v - R^{-1}
    S' x, which leaves the standard DARE of (A - B R^{-1} S', B) with cost
    Q - S R^{-1} S' on x and R on v.  Returns (P, K, H) with K = -H^{-1} G,
    H = B'PB + R and G = B'PA + S'.
    """
    n = A.shape[0]
    Q, S, R = C[:n, :n], C[:n, n:], C[n:, n:]
    P = None if K is None else _dare_newton(A, B, C, K)
    if P is not None:
        P, K, H = _gain(A, B, S, R, P)
        if spectral_radius(A + B @ K) < 1.0:
            return P, K, H
    RiSt = solve(R, S.T)
    return _gain(A, B, S, R, _dare_doubling(A - B @ RiSt, B, sym(Q - S @ RiSt), R))


def _gain(A, B, S, R, P):
    """(P, K, H) with H = B'PB + R, G = B'PA + S' and K = -H^{-1} G."""
    BtP = B.T @ P
    H = BtP @ B + R
    G = BtP @ A + S.T
    return P, -solve(H, G), H


def solve_dare(model: SystemModel) -> OptimalSolution:
    """Solve the DARE for the model; gain K = -(B'PB+R)^{-1} B'PA.

    Doubling iteration; the returned solution has Riccati residual <= 1e-8
    and a stable closed loop, or NotStabilizableError is raised.
    """
    A, B, Q, R = model.A, model.B, sym(model.Q), sym(model.R)
    if min_eig(R) <= 0:
        raise ConfigurationError("R must be PD for the DARE", field="R")
    P, K, _ = _gain(A, B, np.zeros_like(B), R, _dare_doubling(A, B, Q, R))
    res = _riccati_residual(A, Q, P, A.T @ P @ B, K)
    if not np.isfinite(res) or res > 1e-8:
        raise NotStabilizableError(f"DARE residual {res:.3g} exceeds 1e-8")
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
    the unit circle and the series diverges), and floored at
    ``RHO_EFF_FLOOR`` (a nilpotent closed loop has rho = 0).
    """
    K = as_matrix(K, "K")
    if K.shape != (model.m, model.n):
        raise ConfigurationError("gain must be m x n", field="K")
    M = model.A + model.B @ K
    rho = spectral_radius(M)
    if rho >= 1.0:
        raise NotStabilizingError(rho)
    if spectral_norm(M) <= rho * (1 + 1e-12):
        # normal closed loop: H = I certifies with gamma = 1 - rho exactly
        gamma = min(1.0 - rho, 1.0 - GAMMA_CLIP)
        H = np.eye(model.n)
        L = M.copy()
        kappa = max(1.0, spectral_norm(K))
        return StabilityCert(kappa=kappa, gamma=gamma, H=H, L=L,
                             spectral_radius=rho)
    rho_eff = max(rho * (1 + 1e-6), RHO_EFF_FLOOR)
    gamma = 1.0 - rho_eff
    Qs = M / rho_eff
    # P solves Qs' P Qs + I = P (identity forcing), i.e. P = sum_k (Qs')^k Qs^k
    P = solve_discrete_lyapunov(Qs.T, np.eye(model.n))
    H = psd_roots(P)[1]
    Hinv = inv(H)
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
