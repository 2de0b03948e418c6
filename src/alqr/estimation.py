"""Online regularized least squares for Theta and confidence ellipsoids.

The state stores the raw Gram matrix S_t = sum z z' and cross moments
C_t = sum z x'; the regularized covariance V_t = lambda_t I + S_t is
reassembled per query because lambda_t drifts over time.  All logs natural.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError
from .linalg import chol_solve, logdet_pd, row_blocks, sym


@dataclass
class EstimatorState:
    dim_z: int
    dim_x: int
    anchor: np.ndarray | None = None     # Theta_0, (n+m) x n
    anchor_error: float | None = None    # eps with |Theta_0 - Theta*| <= eps
    gram: np.ndarray = field(init=False)
    cross: np.ndarray = field(init=False)
    t: int = field(init=False, default=0)

    def __post_init__(self):
        self.gram = np.zeros((self.dim_z, self.dim_z))
        self.cross = np.zeros((self.dim_z, self.dim_x))
        if self.anchor is not None:
            self.anchor = np.asarray(self.anchor, dtype=float)
            if self.anchor.shape != (self.dim_z, self.dim_x):
                raise ConfigurationError("anchor must be (n+m) x n", field="anchor")

    @property
    def anchored(self):
        return self.anchor is not None

    def covariance(self, lambda_t: float):
        """V_t = lambda_t I + S_t, assembled fresh for the requested lambda."""
        return lambda_t * np.eye(self.dim_z) + self.gram


@dataclass
class ConfidenceEllipsoid:
    center: np.ndarray
    shape: np.ndarray
    radius: float
    delta: float
    lambda_used: float


def _step_sums(a, b, carry):
    """carry + a_0 b_0' + ... + a_j b_j' for each row j, added in step order."""
    S = a[:, :, None] * b[:, None, :]
    S[0] += carry
    return np.cumsum(S, axis=0, out=S)


def ingest(state: EstimatorState, z, x_next) -> EstimatorState:
    """Accumulate one transition (z_t, x_{t+1}), or k rows of them, in place.

    Rows add in step order a block at a time: the bits of k one-row ingests.
    """
    z = np.asarray(z, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    if z.shape[-1:] != (state.dim_z,):
        raise ConfigurationError("regressor dimension mismatch", field="z")
    if x_next.shape[-1:] != (state.dim_x,):
        raise ConfigurationError("state dimension mismatch", field="x_next")
    if z.ndim > 2 or z.shape[:-1] != x_next.shape[:-1]:
        raise ConfigurationError("z and x_next must hold the same rows", field="x_next")
    if z.ndim == 1:  # one transition, as per step: an outer product beats a block
        state.gram += z[:, None] * z
        state.cross += z[:, None] * x_next
    else:
        for lo, hi in row_blocks(len(z)):
            state.gram[...] = _step_sums(z[lo:hi], z[lo:hi], state.gram)[-1]
            state.cross[...] = _step_sums(z[lo:hi], x_next[lo:hi], state.cross)[-1]
    state.t += z.size // state.dim_z
    return state


def covariance_blocks(x, u, lambda_t, ingested: bool = False):
    """Replay the covariances of a recorded trajectory, a block at a time.

    Yields (lo, z, V) per block of steps s = lo..lo+k-1 with z[j] = (x_s, u_s)
    and V[j] = lambda_s I + S, where S sums z_r z_r' over r < s (r <= s when
    ``ingested``).  The Gram sums add in step order from zero, carried across
    blocks, so V[j] has the bits of ``covariance`` at that step of the run.
    ``lambda_t`` is one value per step or a single value for all of them.
    """
    T = u.shape[0]
    p = x.shape[1] + u.shape[1]
    lam = np.broadcast_to(np.asarray(lambda_t, dtype=float), (T,))
    eye = np.eye(p)
    carry = np.zeros((p, p))
    for lo, hi in row_blocks(T):
        z = np.hstack([x[lo:hi], u[lo:hi]])
        S = _step_sums(z, z, carry)
        before, carry = carry, S[-1]
        if not ingested:
            S = np.concatenate([before[None], S[:-1]])
        yield lo, z, lam[lo:hi, None, None] * eye + S


def estimate(state: EstimatorState, lambda_t: float) -> np.ndarray:
    """Theta_hat = V_t^{-1} (C_t + lambda_t Theta_0); unanchored drops the anchor."""
    if lambda_t <= 0:
        raise ConfigurationError("lambda_t must be > 0", field="lambda_t")
    if state.t == 0 and state.anchored:
        return state.anchor.copy()  # (lambda I)^{-1} lambda Theta_0, exactly
    V = state.covariance(lambda_t)
    rhs = state.cross.copy()
    if state.anchored:
        rhs = rhs + lambda_t * state.anchor
    return chol_solve(V, rhs)


def lse_objective(state: EstimatorState, lambda_t: float, Theta) -> float:
    """Regularized LS objective through the stored moments, up to the
    Theta-independent sum |x|^2 (enough for minimizer checks).

    e(Theta) = lambda tr((Theta-Theta_0)'(Theta-Theta_0)) + sum |x' - Theta' z|^2
    """
    Theta = np.asarray(Theta, dtype=float)
    anchor = state.anchor if state.anchored else np.zeros_like(Theta)
    D = Theta - anchor
    val = lambda_t * float(np.sum(D * D))
    val += float(np.sum(Theta * (state.gram @ Theta))) - 2.0 * float(np.sum(Theta * state.cross))
    return val


def confidence_radius(state: EstimatorState, delta: float, lambda_t: float,
                      sigma_w: float, variant: str = "anchored",
                      eps: float | None = None, theta_bound: float | None = None) -> float:
    """Ellipsoid radius r_t = (sigma sqrt(2 n log(n det V / (delta det lambda I))) + sqrt(lambda) c)^2.

    c = eps for the anchored variant and c = theta_bound for the unanchored one.
    """
    if not 0 < delta < 1:
        raise ConfigurationError("delta must lie in (0, 1)", field="delta")
    if variant == "anchored":
        c = state.anchor_error if eps is None else eps
        if c is None:
            raise ConfigurationError("anchored radius needs eps", field="eps")
    elif variant == "unanchored":
        c = theta_bound
        if c is None:
            raise ConfigurationError("unanchored radius needs theta_bound", field="theta_bound")
    else:
        raise ConfigurationError(f"unknown variant {variant!r}", field="variant")
    n = state.dim_x
    V = state.covariance(lambda_t)
    logdet_ratio = logdet_pd(V) - state.dim_z * np.log(lambda_t)
    inner = 2.0 * n * (np.log(n / delta) + logdet_ratio)
    return float((sigma_w * np.sqrt(max(inner, 0.0)) + np.sqrt(lambda_t) * c) ** 2)


def ellipsoid(state: EstimatorState, delta: float, lambda_t: float, sigma_w: float,
              variant: str = "anchored", eps: float | None = None,
              theta_bound: float | None = None) -> ConfidenceEllipsoid:
    return ConfidenceEllipsoid(
        center=estimate(state, lambda_t),
        shape=sym(state.covariance(lambda_t)),
        radius=confidence_radius(state, delta, lambda_t, sigma_w, variant,
                                 eps=eps, theta_bound=theta_bound),
        delta=delta,
        lambda_used=lambda_t,
    )


def ellipsoid_contains(ell: ConfidenceEllipsoid, Theta) -> bool:
    """Membership test tr((Theta - center)' V (Theta - center)) <= radius."""
    Theta = np.asarray(Theta, dtype=float)
    if Theta.shape != ell.center.shape:
        raise ConfigurationError("parameter shape mismatch", field="Theta")
    D = Theta - ell.center
    return float(np.sum(D * (ell.shape @ D))) <= ell.radius


def min_eig_prediction(t: int, sigma_w: float, p_bar_t: float) -> float:
    """Lower-bound prediction sigma^2 sqrt(t) p_bar_t / 40 for lambda_min(S_t)."""
    return sigma_w**2 * np.sqrt(max(t, 0)) * p_bar_t / 40.0


def estimation_error_bound(tau: int, params) -> float:
    """Epoch-start estimation-error bound.

    (sqrt40 / (sigma sqrt(p_bar_tau) tau^{1/4})) *
    (sigma sqrt(2 n log((n/delta)(1 + abar/G) tau)) + sqrt(lambda_tau) eps)

    In theory mode G is astronomically large, so abar/G -> 0 and the
    sqrt(lambda) eps product is evaluated in log space (it underflows to 0).
    """
    from .schedules import lambda_t as lambda_fn, p_bar

    if tau < 1:
        raise ConfigurationError("tau must be >= 1", field="tau")
    sigma = params.sigma_w
    n = params.n
    delta = params.delta
    pb = p_bar(tau, delta, params.phi)
    lead = np.sqrt(40.0) / (sigma * np.sqrt(pb) * tau**0.25)
    if params.constants_mode == "theory":
        ratio = 10.0 ** (np.log10(max(params.alpha_bar, 1e-300)) - params.log10_G)
        log_lam = params.log10_G + np.log10(np.log(tau / delta))
        log_term = 0.5 * log_lam + params.log10_eps_bar  # log10(sqrt(lambda) eps)
        tail = 10.0**log_term if log_term < 300 else np.inf
    else:
        ratio = params.alpha_bar / params.G_phi
        tail = np.sqrt(lambda_fn(tau, params)) * params.eps_bar
    inner = 2.0 * n * np.log((n / delta) * (1.0 + ratio) * tau)
    return float(lead * (sigma * np.sqrt(inner) + tail))
