"""Online regularized least squares for Theta and confidence ellipsoids.

The state stores the raw Gram matrix S_t = sum z z' and cross moments
C_t = sum z x', each entry summed in step order; the regularized covariance
V_t = lambda_t I + S_t is reassembled per query because lambda_t drifts over
time.  z_i z_j and z_j z_i are the same product, summed in the same order,
so S_t and every V_t are exactly symmetric.  All logs natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError
from .linalg import _eye, chol_solve, logdet_pd, row_blocks
from .schedules import check_domain


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
        return lambda_t * _eye(self.dim_z) + self.gram


@dataclass
class ConfidenceEllipsoid:
    center: np.ndarray
    shape: np.ndarray
    radius: float


def _step_sums(a, b, carry):
    """carry + a_0 b_0' + ... + a_j b_j' for each row j, added in step order."""
    S = a[:, :, None] * b[:, None, :]
    S[0] += carry
    return np.cumsum(S, axis=0, out=S)


def gram_sums(state: EstimatorState, z) -> np.ndarray:
    """S[j] = state.gram + z_0 z_0' + ... + z_j z_j' for each row of z, in step
    order: what ``state.gram`` holds after ingesting z_0..z_j, bit for bit,
    without ingesting them."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    return _step_sums(z, z, state.gram)


def ingest(state: EstimatorState, z, x_next) -> EstimatorState:
    """Accumulate one transition (z_t, x_{t+1}), or k rows of them, in place.

    A block of rows at a time, one outer product of z with [z | x_next]
    holds both moments' terms, and one reduce over the block's rows adds
    them to [S_t | C_t] in step order: the bits of k one-row ingests, and of
    ``gram_sums``.  The layout keeps that order: numpy reduces the outer
    axis of a stack row by row only when a row holds more than one entry,
    and a row here holds dim_z (dim_z + dim_x) >= 2 of them; a 1 x 1 moment
    reduced alone would be summed pairwise.
    """
    z = np.asarray(z, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    if z.shape[-1:] != (state.dim_z,):
        raise ConfigurationError("regressor dimension mismatch", field="z")
    if x_next.shape[-1:] != (state.dim_x,):
        raise ConfigurationError("state dimension mismatch", field="x_next")
    if z.ndim > 2 or z.shape[:-1] != x_next.shape[:-1]:
        raise ConfigurationError("z and x_next must hold the same rows", field="x_next")
    p = state.dim_z
    zx = np.concatenate([z.reshape(-1, p), x_next.reshape(-1, state.dim_x)], axis=1)
    total = np.concatenate([state.gram, state.cross], axis=1)
    for lo, hi in row_blocks(len(zx)):
        S = zx[lo:hi, :p, None] * zx[lo:hi, None, :]
        S[0] += total
        total = np.add.reduce(S, axis=0)
    state.gram[...] = total[:, :p]
    state.cross[...] = total[:, p:]
    state.t += len(zx)
    return state


def covariance_blocks(x, u, lambda_t):
    """Replay the covariances of a recorded trajectory, a block at a time.

    Yields (lo, z, V) per block of steps s = lo..lo+k-1 with z[j] = (x_s, u_s)
    and V[j] = lambda_s I + S, where S sums z_r z_r' over r < s.  The Gram
    sums add in step order from zero, carried across blocks, so V[j] has the
    bits of ``covariance`` at that step of the run.  ``lambda_t`` is one
    value per step or a single value for all of them.
    """
    T = u.shape[0]
    p = x.shape[1] + u.shape[1]
    lam = np.broadcast_to(np.asarray(lambda_t, dtype=float), (T,))
    carry = np.zeros((p, p))
    for lo, hi in row_blocks(T):
        z = np.hstack([x[lo:hi], u[lo:hi]])
        V, carry = step_covariances(z, lam[lo:hi], carry)
        yield lo, z, V


def step_covariances(z, lambda_t, carry):
    """Covariances of consecutive steps with rows z_0..z_{k-1} and their Gram.

    Returns (V, S): V[j] = lambda_j I + carry + z_0 z_0' + ... + z_{j-1} z_{j-1}'
    and S = carry + z_0 z_0' + ... + z_{k-1} z_{k-1}', summed in step order,
    so with ``carry`` the Gram before z_0, V[j] has the bits of
    ``covariance`` at that step.  ``lambda_t`` holds one value per row.
    """
    S = _step_sums(z, z, carry)
    before = np.concatenate([carry[None], S[:-1]])
    return lambda_t[:, None, None] * _eye(z.shape[1]) + before, S[-1]


def estimate(state: EstimatorState, lambda_t: float) -> np.ndarray:
    """Theta_hat = V_t^{-1} (C_t + lambda_t Theta_0); unanchored drops the anchor."""
    return _center(state, lambda_t, state.covariance(lambda_t))


def _center(state: EstimatorState, lambda_t: float, V) -> np.ndarray:
    """``estimate`` from V = ``state.covariance(lambda_t)``."""
    if lambda_t <= 0:
        raise ConfigurationError("lambda_t must be > 0", field="lambda_t")
    if state.t == 0 and state.anchored:
        return state.anchor.copy()  # (lambda I)^{-1} lambda Theta_0, exactly
    rhs = state.cross + lambda_t * state.anchor if state.anchored else state.cross
    return chol_solve(V, rhs)


def confidence_radius(state: EstimatorState, delta: float, lambda_t: float,
                      sigma_w: float, variant: str = "anchored",
                      eps: float | None = None, theta_bound: float | None = None) -> float:
    """Ellipsoid radius r_t = (sigma sqrt(2 n log(n det V / (delta det lambda I))) + sqrt(lambda) c)^2.

    c = eps for the anchored variant and c = theta_bound for the unanchored one.
    """
    return _radius(state, state.covariance(lambda_t), delta, lambda_t, sigma_w, variant,
                   eps, theta_bound)


def _radius(state: EstimatorState, V, delta, lambda_t, sigma_w, variant, eps,
            theta_bound) -> float:
    """``confidence_radius`` from V = ``state.covariance(lambda_t)``."""
    check_domain("delta", delta)
    check_domain("radius_variant", variant)
    if variant == "anchored":
        c = state.anchor_error if eps is None else eps
        if c is None:
            raise ConfigurationError("anchored radius needs eps", field="eps")
    else:
        c = theta_bound
        if c is None:
            raise ConfigurationError("unanchored radius needs theta_bound", field="theta_bound")
    n = state.dim_x
    logdet_ratio = logdet_pd(V) - state.dim_z * np.log(lambda_t)
    inner = 2.0 * n * (np.log(n / delta) + logdet_ratio)
    return float((sigma_w * np.sqrt(max(inner, 0.0)) + np.sqrt(lambda_t) * c) ** 2)


def ellipsoid(state: EstimatorState, delta: float, lambda_t: float, sigma_w: float,
              variant: str = "anchored", eps: float | None = None,
              theta_bound: float | None = None) -> ConfidenceEllipsoid:
    """The ellipsoid's centre, shape V_t and radius, from one V_t."""
    V = state.covariance(lambda_t)
    return ConfidenceEllipsoid(
        center=_center(state, lambda_t, V),
        shape=V,
        radius=_radius(state, V, delta, lambda_t, sigma_w, variant, eps, theta_bound),
    )


def ellipsoid_contains(ell: ConfidenceEllipsoid, Theta) -> bool:
    """Membership test tr((Theta - center)' V (Theta - center)) <= radius."""
    Theta = np.asarray(Theta, dtype=float)
    if Theta.shape != ell.center.shape:
        raise ConfigurationError("parameter shape mismatch", field="Theta")
    D = Theta - ell.center
    return float(np.sum(D * (ell.shape @ D))) <= ell.radius


def min_eig_prediction(t: int, sigma_w: float, p_bar_t: float) -> float:
    """sigma^2 sqrt(t) p_bar_t / 40, the lambda_min(S_t) lower bound of gate P9."""
    return sigma_w**2 * np.sqrt(max(t, 0)) * p_bar_t / 40.0


def estimation_error_bound(tau: int, params) -> float:
    """Epoch-start estimation-error bound.

    (sqrt40 / (sigma sqrt(p_bar_tau) tau^{1/4})) *
    (sigma sqrt(2 n log((n/delta)(1 + abar/G) tau)) + sqrt(lambda_tau) eps_bar)

    lambda_tau is ``lambda_t``'s; abar/G and sqrt(lambda_tau) eps_bar are
    evaluated in log10, since theory-mode G overflows doubles.
    """
    from .schedules import _lambda_form, p_bar

    if tau < 1:
        raise ConfigurationError("tau must be >= 1", field="tau")
    sigma = params.sigma_w
    n = params.n
    delta = params.delta
    pb = p_bar(tau, delta, params.phi)
    lead = np.sqrt(40.0) / (sigma * np.sqrt(pb) * tau**0.25)
    ratio = 10.0 ** (math.log10(params.alpha_bar) - params.log10_G)
    _, log10_G, power = _lambda_form(params)
    log_lam = log10_G + power * math.log10(math.log(tau / delta))
    log_term = 0.5 * log_lam + params.log10_eps_bar  # log10(sqrt(lambda) eps)
    tail = 10.0**log_term if log_term < 300 else np.inf
    inner = 2.0 * n * np.log((n / delta) * (1.0 + ratio) * tau)
    return float(lead * (sigma * np.sqrt(inner) + tail))
