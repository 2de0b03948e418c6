"""Algorithm runners: warm-up identification, the adaptive SDP-based control
loop (ASLO), and the doubling-trick baseline.

Each runner owns one RNG seeded per trajectory and split into independent
streams for process noise, control perturbation, and warm-up perturbation,
so matched seeds share noise realizations across criterion variants.  Step
arrays are indexed s = 0..T-1 for algorithm times t = s+1 (warm-up: t = s).

Every runner steps the plant through ``_rollout``: ASLO one step at a time,
as its next policy reads the estimator; the fixed-gain runners all T0 steps
or one checkpoint segment, ingesting the moments from the record after it.
What merely measures a run (stage costs, warm-up log-dets, q_t, the regret
ledger, the anynum flags) is computed after the loop from the record.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimation, regret, schedules, synthesis
from .exceptions import (
    BlowUpError,
    ConfigurationError,
    SynthesisError,
)
from .linalg import (
    logdet_pd,
    min_eig,
    nuclear_norm,
    quad_rows,
    row_blocks,
    spectral_norm,
)
from .lqr import SystemModel, step, stability_certificate

log = logging.getLogger(__name__)

BLOWUP_NORM = 1e6


@dataclass
class TrajectoryRecord:
    """Per-step arrays of one trajectory plus run metadata."""

    mode: str
    seed: int                # a doubling segment holds its SeedSequence child
    x: np.ndarray            # (T+1, n), states
    u: np.ndarray            # (T, m), applied inputs
    eta: np.ndarray          # (T, m), injected perturbation (nu during warm-up)
    omega: np.ndarray        # (T, n), noise entering x[s+1]
    cost: np.ndarray         # (T,)
    policy_id: np.ndarray    # (T,) int
    epoch: np.ndarray        # (T,) int
    lambda_t: np.ndarray     # (T,)
    r_t: np.ndarray          # (T,), radius of the policy in force
    logdet_V: np.ndarray     # (T,)
    beta_used: np.ndarray    # (T,)
    est_error: np.ndarray    # (T,), nuclear-norm error of the epoch estimate
    diagnostics: dict = field(default_factory=dict)

    @property
    def T(self):
        return self.cost.shape[0]

    def max_state_norm(self):
        return float(np.max(np.linalg.norm(self.x, axis=1)))


@dataclass
class PolicyEpoch:
    """Synthesis artifacts frozen at one policy update."""

    epoch_index: int
    tau: int
    K: np.ndarray
    P_dual: np.ndarray
    mu: float
    r: float
    beta: float
    lambda_tau: float
    logdet_V_tau: float
    normV_tau: float
    est_error: float


def _streams(seed):
    """Process-noise, ASLO-perturbation and warm-up-perturbation generators.

    ``seed`` is an int or a SeedSequence; the streams are its first three
    children, built without advancing its spawn counter, so a child handed
    down by a caller yields streams of its own.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return tuple(
        np.random.default_rng(np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key + (k,), pool_size=seed.pool_size))
        for k in range(3))


def perturbation_variance(t: int, params: schedules.ScheduleParams) -> float:
    """2 sigma^2 kappa^2 p_bar_t / sqrt(t) * noise_scale."""
    return (2.0 * params.sigma_w**2 * params.kappa**2
            * schedules.p_bar(t, params.delta, params.phi) / math.sqrt(t)
            * params.noise_scale)


def sample_perturbation(t, params: schedules.ScheduleParams, rng) -> np.ndarray:
    """eta_t ~ N(0, perturbation_variance(t) * I).

    ``t`` is one step, giving an (m,) draw, or a sequence of steps, giving
    one row per step drawn in order (the same values as one call per step).
    """
    steps = np.atleast_1d(t)
    if steps.size and steps.min() < 1:
        raise ConfigurationError("t must be >= 1", field="t")
    std = np.array([math.sqrt(perturbation_variance(int(k), params)) for k in steps])
    draws = std[:, None] * rng.standard_normal((steps.size, params.m))
    return draws[0] if np.ndim(t) == 0 else draws


def replay_states(record: TrajectoryRecord, model: SystemModel) -> np.ndarray:
    """Re-simulate the state sequence from the stored inputs and noise."""
    x = np.empty_like(record.x)
    x[0] = record.x[0]
    for s in range(record.T):
        x[s + 1] = step(model, x[s], record.u[s], record.omega[s])
    return x


def _rollout(model: SystemModel, K, x, u, eta, omega, runner: str,
             lo: int, hi: int) -> None:
    """Close the loop for steps s = lo..hi-1: u = K x + eta, x' = A x + B u + omega.

    Writes u[lo:hi] and x[lo+1:hi+1]; raises BlowUpError at the first step
    whose state runs away.
    """
    A, B = model.A, model.B
    for s in range(lo, hi):
        u[s] = K @ x[s] + eta[s]
        x[s + 1] = A @ x[s] + B @ u[s] + omega[s]
        x_norm = float(np.linalg.norm(x[s + 1]))
        if x_norm > BLOWUP_NORM:
            raise BlowUpError(f"{runner} state blow-up",
                              diagnostics={"t": s + 1, "x_norm": x_norm})


def _stage_costs(model: SystemModel, x, u) -> np.ndarray:
    """c_s = x_s' Q x_s + u_s' R u_s for every step of a finished run."""
    cost = np.empty(u.shape[0])
    for lo, hi in row_blocks(u.shape[0]):
        cost[lo:hi] = quad_rows(x[lo:hi], model.Q) + quad_rows(u[lo:hi], model.R)
    return cost


def _holds_truth(est, model: SystemModel, params: schedules.ScheduleParams,
                 lam: float, variant: str, eps) -> bool:
    """Whether the confidence ellipsoid at regularizer lam contains Theta*."""
    ell = estimation.ellipsoid(est, params.delta, lam, model.sigma_w, variant,
                               eps=eps, theta_bound=model.theta_bound)
    return bool(estimation.ellipsoid_contains(ell, model.theta_star))


def run_warmup(model: SystemModel, K0, T0: int, seed, x0=None):
    """Warm-up identification under u = K0 x + nu, nu ~ N(0, 2 sigma^2 kappa0^2 I).

    Returns (Theta_0, record) where Theta_0 is the ridge estimate with
    regularizer rho = sigma^2 / theta_bound^2 pulled toward zero.
    """
    if T0 < 1:
        raise ConfigurationError("T0 must be >= 1", field="T0")
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    cert0 = stability_certificate(model, K0)  # raises if K0 is not stabilizing
    n, m = model.n, model.m
    omega_rng, _, nu_rng = _streams(seed)
    rho = model.sigma_w**2 / model.theta_bound**2
    nu_std = math.sqrt(2.0) * model.sigma_w * cert0.kappa

    est = estimation.EstimatorState(dim_z=n + m, dim_x=n)
    x = np.zeros((T0 + 1, n))
    if x0 is not None:
        x[0] = np.asarray(x0, dtype=float)
    u = np.zeros((T0, m))
    nu = nu_std * nu_rng.standard_normal((T0, m))
    omega = model.sigma_w * omega_rng.standard_normal((T0, n))
    _rollout(model, K0, x, u, nu, omega, "warm-up", 0, T0)
    # log det V after each ingest, V = rho I + S, and the moments themselves
    logdets = np.empty(T0)
    for lo, z, V in estimation.covariance_blocks(x, u, max(rho, 1e-300), ingested=True):
        logdets[lo:lo + len(z)] = logdet_pd(V)
        estimation.ingest(est, z, x[lo + 1:lo + 1 + len(z)])
    if rho > 0:
        Theta_0 = estimation.estimate(est, rho)
    else:  # degenerate sigma_w = 0: minimum-norm solution of S Theta = C
        Theta_0, *_ = np.linalg.lstsq(est.gram, est.cross, rcond=None)
    nan = np.full(T0, np.nan)
    record = TrajectoryRecord(
        mode="warmup", seed=seed, x=x, u=u, eta=nu, omega=omega,
        cost=_stage_costs(model, x, u),
        policy_id=np.zeros(T0, dtype=int), epoch=np.zeros(T0, dtype=int),
        lambda_t=np.full(T0, rho), r_t=nan.copy(), logdet_V=logdets,
        beta_used=nan.copy(),
        est_error=nan.copy(),
        diagnostics={
            "kappa0": cert0.kappa, "gamma0": cert0.gamma,
            "theta0_error": nuclear_norm(Theta_0 - model.theta_star),
        },
    )
    return Theta_0, record


def _mu_cap(params: schedules.ScheduleParams, V) -> float:
    # the stability precondition mu |P|_* |V^{-1}| <= alpha0/4 with |P|_* <= nu/sigma^2
    return params.alpha0 * params.sigma_w**2 * min_eig(V) / (4.0 * params.nu)


def run_aslo(model: SystemModel, Theta_0, anchor_eps: float, T: int,
             params: schedules.ScheduleParams, seed, x0=None,
             checkpoints=(), mu_override: float | None = None,
             lambda_override: float | None = None):
    """Adaptive SDP-based control for T steps from an anchored estimate.

    Policy updates fire on the determinant criterion in force.  When the
    Riccati synthesis declines (a SynthesisError) the previous policy stays
    in force, the failure is logged with its reason and counted, and the
    epoch clock restarts; a decline at the first firing aborts the run.
    ``seed`` is an int or a SeedSequence.  Returns (record, policy_history,
    ledger).
    """
    if T < 1:
        raise ConfigurationError("T must be >= 1", field="T")
    if not math.isfinite(params.G_phi):
        raise ConfigurationError(
            "theory-mode constants are not simulatable; use practical mode",
            field="constants_mode")
    n, m = model.n, model.m
    Theta_0 = np.asarray(Theta_0, dtype=float)
    omega_rng, eta_rng, _ = _streams(seed)
    est = estimation.EstimatorState(dim_z=n + m, dim_x=n, anchor=Theta_0,
                                    anchor_error=anchor_eps)
    x = np.zeros((T + 1, n))
    if x0 is not None:
        x[0] = np.asarray(x0, dtype=float)
    if np.linalg.norm(x[0]) > BLOWUP_NORM:
        raise BlowUpError("initial state beyond the runaway threshold",
                          diagnostics={"t": 0, "x_norm": float(np.linalg.norm(x[0]))})
    u = np.zeros((T, m))
    eta = sample_perturbation(np.arange(1, T + 1), params, eta_rng)
    omega = model.sigma_w * omega_rng.standard_normal((T, n))
    policy_id = np.zeros(T, dtype=int)
    lam_arr = np.zeros(T)
    r_arr = np.zeros(T)
    logdet_arr = np.zeros(T)
    beta_arr = np.zeros(T)
    err_arr = np.zeros(T)

    history: list[PolicyEpoch] = []
    ledger = regret.RegretLedger(nu=params.nu, sigma_w=model.sigma_w)
    checkpoints = set(int(c) for c in checkpoints)
    containment = []
    failures = 0
    current: PolicyEpoch | None = None
    beta_in_force = params.beta
    logdet_tau = -math.inf

    for s in range(T):
        t = s + 1
        lam = schedules.lambda_t(t, params) if lambda_override is None else lambda_override
        V = est.covariance(lam)
        logdetV = logdet_pd(V)
        fire = (current is None) or schedules.should_update(logdetV, logdet_tau, beta_in_force)
        if fire:
            theta_hat = estimation.estimate(est, lam)
            if params.radius_variant == "anchored":
                r = estimation.confidence_radius(est, params.delta, lam, model.sigma_w,
                                                 "anchored", eps=anchor_eps)
            else:
                r = estimation.confidence_radius(est, params.delta, lam, model.sigma_w,
                                                 "unanchored",
                                                 theta_bound=model.theta_bound)
            mu_t = synthesis.mu(r, model.theta_bound, V, params.mu_mode)
            if mu_override is not None:
                mu_t = mu_override
            elif params.mu_clamp and params.constants_mode == "practical":
                mu_t = min(mu_t, _mu_cap(params, V))
            try:
                K, P = synthesis.synthesize_policy(theta_hat, model, mu_t, V)
                if params.criterion == "adaptive_beta":
                    beta_in_force = schedules.adaptive_beta(t, r, params)
                current = PolicyEpoch(
                    epoch_index=0 if current is None else current.epoch_index + 1,
                    tau=t, K=K, P_dual=P,
                    mu=mu_t, r=r, beta=beta_in_force, lambda_tau=lam,
                    logdet_V_tau=logdetV, normV_tau=spectral_norm(V),
                    est_error=nuclear_norm(theta_hat - model.theta_star),
                )
                history.append(current)
                logdet_tau = logdetV
            except SynthesisError as exc:
                failures += 1
                log.warning("synthesis failed at t=%d: %s", t, exc)
                if current is None:
                    raise
                logdet_tau = logdetV  # restart the epoch clock on the old policy
        pol = current
        _rollout(model, pol.K, x, u, eta, omega, "ASLO", s, t)
        estimation.ingest(est, np.concatenate([x[s], u[s]]), x[t])

        policy_id[s] = pol.epoch_index
        lam_arr[s] = lam
        r_arr[s] = pol.r
        logdet_arr[s] = logdetV
        beta_arr[s] = pol.beta
        err_arr[s] = pol.est_error
        if t in checkpoints:
            containment.append((t, _holds_truth(
                est, model, params, lam, params.radius_variant, anchor_eps)))

    # instrumentation, from the record: q_t = z' V_t^{-1} z, the anynum
    # flags and the ledger, with V_t replayed a block of steps at a time
    mu_steps = np.array([p.mu for p in history])[policy_id]
    q = np.empty(T)
    anynum = np.empty(T, dtype=bool)
    for lo, z, V in estimation.covariance_blocks(x, u, lam_arr):
        hi = lo + len(z)
        q[lo:hi] = regret.q_values(z, V)
        anynum[lo:hi] = schedules.anynum_condition(mu_steps[lo:hi], V, params.kappa)
    ledger.accumulate_trajectory(x, omega, eta, q, policy_id, history, model, params)
    ledger.finalize(epoch_marks=[p.tau for p in history])
    record = TrajectoryRecord(
        mode="aslo", seed=seed, x=x, u=u, eta=eta, omega=omega,
        cost=_stage_costs(model, x, u),
        policy_id=policy_id, epoch=policy_id.copy(), lambda_t=lam_arr, r_t=r_arr,
        logdet_V=logdet_arr, beta_used=beta_arr, est_error=err_arr,
        diagnostics={
            "synthesis_failures": failures,
            "containment": containment,
            "anynum_condition": anynum.tolist(),
            "anchor_eps": float(anchor_eps),
        },
    )
    return record, history, ledger


def run_fixed_policy(model: SystemModel, K, T: int, seed: int,
                     params: schedules.ScheduleParams, x0=None, anchor=None,
                     checkpoints=()):
    """Lean rollout of a fixed gain with the ASLO input perturbation.

    Rolls the plant out from one checkpoint to the next and ingests each
    segment's transitions from the record; used for coverage and excitation
    experiments where no policy synthesis is wanted.  ``anchor`` is an
    optional (Theta_0, eps) pair switching the ellipsoid to the anchored
    variant.  Returns (cost, est, containment).
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n, m = model.n, model.m
    omega_rng, eta_rng, _ = _streams(seed)
    theta0, eps = (None, None) if anchor is None else anchor
    variant = "unanchored" if anchor is None else "anchored"
    est = estimation.EstimatorState(dim_z=n + m, dim_x=n, anchor=theta0,
                                    anchor_error=eps)
    x = np.zeros((T + 1, n))
    if x0 is not None:
        x[0] = np.asarray(x0, dtype=float)
    u = np.zeros((T, m))
    eta = sample_perturbation(np.arange(1, T + 1), params, eta_rng)
    omega = model.sigma_w * omega_rng.standard_normal((T, n))
    containment = []
    checkpoints = {int(c) for c in checkpoints if 1 <= int(c) <= T}
    lo = 0
    for t in sorted(checkpoints | {T}):
        _rollout(model, K, x, u, eta, omega, "fixed-policy", lo, t)
        estimation.ingest(est, np.hstack([x[lo:t], u[lo:t]]), x[lo + 1:t + 1])
        if t in checkpoints:
            containment.append((t, _holds_truth(
                est, model, params, schedules.lambda_t(t, params), variant, eps)))
        lo = t
    return _stage_costs(model, x, u), est, containment


def _concat_records(parts: list[TrajectoryRecord], seed: int) -> TrajectoryRecord:
    xs = [parts[0].x] + [p.x[1:] for p in parts[1:]]
    offsets = np.cumsum([0] + [int(p.policy_id.max()) + 1 for p in parts[:-1]])
    pid = np.concatenate([p.policy_id + off for p, off in zip(parts, offsets)])
    epoch = np.concatenate([p.epoch + off for p, off in zip(parts, offsets)])
    cat = lambda name: np.concatenate([getattr(p, name) for p in parts])
    bounds = np.cumsum([p.T for p in parts]).tolist()
    return TrajectoryRecord(
        mode="doubling", seed=seed, x=np.concatenate(xs, axis=0),
        u=cat("u"), eta=cat("eta"), omega=cat("omega"), cost=cat("cost"),
        policy_id=pid, epoch=epoch, lambda_t=cat("lambda_t"), r_t=cat("r_t"),
        logdet_V=cat("logdet_V"), beta_used=cat("beta_used"),
        est_error=cat("est_error"),
        diagnostics={"segment_bounds": bounds},
    )


def run_doubling(model: SystemModel, K0, base_horizon: int, total_T: int,
                 params: schedules.ScheduleParams, seed: int) -> TrajectoryRecord:
    """Doubling-trick baseline: restart a horizon-aware variant on segments
    T_i = base 2^i until total_T steps have elapsed.

    Each segment spends ceil(sqrt(T_i)) steps on warm-up and the remainder on
    the SDP loop with the regularizer frozen at its horizon value
    lambda = G log(T_i/delta).  The plant state carries across restarts;
    every warm-up and ASLO segment draws from its own child of the seed.
    """
    if base_horizon < 1:
        raise ConfigurationError("base_horizon must be >= 1", field="base_horizon")
    parts = []
    done = 0
    i = 0
    x_cur = None
    seeds = np.random.SeedSequence(seed).spawn(64)
    while done < total_T:
        Ti = min(base_horizon * 2**i, total_T - done)
        w_i = min(Ti, max(1, math.ceil(math.sqrt(Ti))))
        Theta_0, wrec = run_warmup(model, K0, w_i, seed=seeds[2 * i], x0=x_cur)
        parts.append(wrec)
        x_cur = wrec.x[-1]
        rest = Ti - w_i
        if rest > 0:
            lam_fix = params.G_phi * math.log(max(Ti, 2) / params.delta)
            arec, _, _ = run_aslo(
                model, Theta_0,
                anchor_eps=2.0 * model.theta_bound, T=rest, params=params,
                seed=seeds[2 * i + 1], x0=x_cur,
                lambda_override=lam_fix)
            parts.append(arec)
            x_cur = arec.x[-1]
        done += Ti
        i += 1
    return _concat_records(parts, seed)
