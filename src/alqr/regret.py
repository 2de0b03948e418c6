"""Realized-regret accounting, the six-term decomposition, and evaluators
for each term's closed-form upper bound.

The decomposition terms are computed literally from stored trajectory data
(value-difference telescope, noise cross terms, the weighted V^{-1} quadratic
sum, and the perturbation terms); the indicator of the estimation good event
is treated as always-on, with ellipsoid losses flagged separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import covariance_blocks
from .exceptions import ConfigurationError, IncompleteTrajectoryError
from .linalg import matvec_rows, quad_rows, row_blocks, solve

R_NAMES = ("R1", "R2", "R3", "R4", "R5", "R6")


@dataclass
class RegretLedger:
    """Online accumulators for the decomposition and the policy runs it covers."""

    nu: float
    sigma_w: float
    R: np.ndarray = field(default_factory=lambda: np.zeros(6))
    policy_runs: int = 0

    def accumulate(self, x, omega, eta, q, P, K, M, noise_trace, r4_coef, R):
        """Add the R1..R6 contributions of k consecutive steps, step s under
        the policy whose value matrix is P[s], gain K[s] and closed loop
        M[s] = A + B K[s]: states x (k+1, n), the last being the state after
        step k, noises omega (k, n) and eta (k, m), q (k,) = z' V_t^{-1} z,
        noise_trace (k,) = sigma_w^2 tr P[s], r4_coef (k, c) the coefficients
        of q whose c products make step s's R4 additions, and R the input
        weight.

        Each step's contributions have the bits of the per-step formulas and
        are added to the running sums in step order.
        """
        steps = (
            quad_rows(x[:-1], P) - quad_rows(x[1:], P),
            quad_rows(omega, P, matvec_rows(M, x[:-1])),
            quad_rows(omega, P) - noise_trace,
            r4_coef * q[:, None],
            2.0 * quad_rows(eta, R, matvec_rows(K, x[:-1])),
            quad_rows(eta, R),
        )
        for i, v in enumerate(steps):
            # cumsum adds one value at a time, as the per-step sums did
            self.R[i] = np.cumsum(np.concatenate([self.R[i:i + 1], v.ravel()]))[-1]

    def accumulate_trajectory(self, x, omega, eta, q, policy_id, policies,
                              model, params):
        """Accumulate a whole trajectory in the blocks of ``row_blocks``.
        Each step's P, K, M = A + BK, sigma_w^2 tr P and R4 coefficients
        are gathered through ``policy_id`` from per-epoch stacks, so a block
        may span several policy runs."""
        T = len(q)
        starts = np.flatnonzero(np.diff(policy_id, prepend=-1))
        self.policy_runs += len(starts)
        slot = {p.epoch_index: i for i, p in enumerate(policies)}
        rows = np.array([slot[e] for e in policy_id[starts].tolist()])
        rows = np.repeat(rows, np.diff(starts, append=T))
        Ps = np.array([p.P_dual for p in policies])
        Ks = np.array([p.K for p in policies])
        Ms = model.A + model.B @ Ks
        noise = np.array([model.sigma_w**2 * float(np.trace(p.P_dual))
                          for p in policies])
        factor = 2.0 * self.nu / self.sigma_w**2 if self.sigma_w > 0 else 0.0
        if params.criterion == "adaptive_beta":
            # three additions per step, in this order
            coef = np.array([[factor * p.mu, factor * p.beta * p.r,
                              2.0 * factor * params.theta_bound * p.beta
                              * math.sqrt(p.r * p.normV_tau)] for p in policies])
        else:
            coef = np.array([[factor * (1.0 + p.beta) * p.mu] for p in policies])
        for lo, hi in row_blocks(T):
            e = rows[lo:hi]
            self.accumulate(x[lo:hi + 1], omega[lo:hi], eta[lo:hi], q[lo:hi],
                            Ps[e], Ks[e], Ms[e], noise[e], coef[e], model.R)

    def n_updates(self):
        """Criterion-fired updates: one per policy run after the first (each runs a step)."""
        return max(0, self.policy_runs - 1)

    def terms(self):
        return dict(zip(R_NAMES, self.R.tolist()))


def realized_regret(traj, J_star: float) -> np.ndarray:
    """Partial sums of (c_t - J*)."""
    return np.cumsum(np.asarray(traj.cost, dtype=float) - J_star)


def q_values(z, V):
    """z_s' V_s^{-1} z_s for stacks z (k, p) and V (k, p, p), with the bits of
    ``z[s] @ np.linalg.solve(V[s], z[s])``."""
    return (z[:, None, :] @ solve(V, z[:, :, None]))[:, 0, 0]


def decompose(traj, policy_history, params, model) -> np.ndarray:
    """Recompute R1..R6 by replaying the stored trajectory through a fresh
    ledger, V_t rebuilt from the raw regressors apart from the runner's
    estimator; gate P11 (``test_p11_decomposition_consistency``) reads it."""
    for name in ("omega", "eta"):
        arr = getattr(traj, name, None)
        if arr is None or np.any(~np.isfinite(arr)):
            raise IncompleteTrajectoryError(f"trajectory is missing {name} records")
    q = np.empty(traj.T)
    for lo, z, V in covariance_blocks(traj.x, traj.u, traj.lambda_t):
        q[lo:lo + len(z)] = q_values(z, V)
    ledger = RegretLedger(nu=params.nu, sigma_w=model.sigma_w)
    ledger.accumulate_trajectory(traj.x, traj.omega, traj.eta, q, traj.policy_id,
                                 policy_history, model, params)
    return ledger.R


def term_bounds(T: int, params, traj_stats: dict) -> dict:
    """Closed-form per-term bounds evaluated with the run's measured statistics.

    traj_stats carries X_T (max state norm), Z_T (max |z_t|^2), r_T, lambda_T,
    lambda_1; beta defaults to the criterion's value.
    """
    from .schedules import p_bar

    nu, sig = params.nu, params.sigma_w
    tb, kap = params.theta_bound, params.kappa
    n, m, delta = params.n, params.m, params.delta
    X = traj_stats["X_T"]
    Z2 = traj_stats["Z_T"]
    r_T = traj_stats["r_T"]
    lam_T = traj_stats["lambda_T"]
    lam_1 = traj_stats["lambda_1"]
    beta = traj_stats.get("beta", params.beta)
    G = params.G_phi
    pbT = p_bar(T, delta, params.phi)

    n_switch = (n + m) * math.log2(max((lam_T + Z2 * T) / lam_1, 2.0))
    b1 = nu / sig**2 * X**2 + nu / sig**2 * n_switch * X**2
    b2 = nu * tb / sig * math.sqrt(3.0 * T * math.log(4.0 / delta))
    b3 = 8.0 * nu * math.sqrt(T * math.log(4.0 * T / delta) ** 3)
    if math.isfinite(G):
        b4 = (4.0 * nu * (1.0 + beta) / sig**2) * (n + m) \
            * math.log((T + params.alpha_bar * T**2 / G) / delta) \
            * (r_T + 2.0 * tb * math.sqrt(r_T) * math.log(T / delta)
               * (math.sqrt(G) + math.sqrt(T)))
    else:
        b4 = math.inf
    b5 = 2.0 * sig * params.alpha1 * kap * X \
        * math.sqrt(8.0 * pbT * math.log(2.0 / delta)) * T**0.25
    b6 = 10.0 * params.alpha1 * m * sig**2 * kap**2 \
        * p_bar(T, delta, params.phi + 1) * math.sqrt(T)
    return dict(zip(R_NAMES, (b1, b2, b3, b4, b5, b6)))


def warmup_regret_bound(T0: int, params, x0_norm: float = 0.0,
                        kappa0: float | None = None,
                        gamma0: float | None = None) -> float:
    """alpha1 T0 Z_{T0}^2 with Z^2 = 2 (1+kappa0^2) X^2 + 2 Y^2 from the
    warm-up state-norm and perturbation-norm bounds."""
    if T0 < 1:
        raise ConfigurationError("T0 must be >= 1", field="T0")
    k0 = params.kappa0 if kappa0 is None else kappa0
    g0 = params.gamma0 if gamma0 is None else gamma0
    if not (math.isfinite(k0) and math.isfinite(g0)):
        raise ConfigurationError("warm-up bound needs (kappa0, gamma0)", field="kappa0")
    sig, tb = params.sigma_w, params.theta_bound
    n, m, delta = params.n, params.m, params.delta
    lT = math.log(max(T0, 2) / delta)
    X = k0 * x0_norm + sig * math.sqrt(10.0 * (n + m * k0**2 * tb**2) * lT)
    Y = 10.0 * sig * math.sqrt(2.0 * m * k0**2 * lT)
    Z2 = 2.0 * (1.0 + k0**2) * X**2 + 2.0 * Y**2
    return params.alpha1 * T0 * Z2


def slope(series, window) -> float:
    """Least-squares slope of log(series) against log(t) over [t_lo, t_hi].

    ``series[i]`` is the value at t = i+1.
    """
    series = np.asarray(series, dtype=float)
    t_lo, t_hi = window
    t = np.arange(1, series.shape[0] + 1)
    mask = (t >= t_lo) & (t <= t_hi)
    if not np.any(mask):
        raise ConfigurationError("window contains no samples", field="window")
    y = series[mask]
    if np.any(y <= 0) or np.any(~np.isfinite(y)):
        raise ConfigurationError("series must be positive on the window", field="series")
    return _loglog_slope(t[mask], y)


def _loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    A = np.vstack([np.log(x), np.ones(len(x))]).T
    coef, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    return float(coef[0])
