"""Algorithm runners: warm-up identification, the adaptive SDP-based control
loop (ASLO), and ``run_segments``, which runs a plan of the two in turn.

Each runner sets its trajectory up through ``_trajectory``, which splits one
RNG seeded per trajectory into independent streams for process noise,
control perturbation, and warm-up perturbation, so matched seeds share
noise realizations across criterion variants; the runner draws only its
perturbation.  Step arrays are indexed s = 0..T-1 for algorithm times
t = s+1 (warm-up: t = s).

Every runner steps the plant through ``_rollout``, in closed-loop form
x' = (A + B K) x + (B eta + omega) with u = K x + eta filled after each
chunk of steps, a gain's rows coming 32 at a time from its powers in
sub-blocks anchored at the row where the gain took over (0, or ASLO's
firing), and ingests the moments from the record after it: the warm-up all
T0 steps, ``run_fixed_policy`` one checkpoint segment at a time, and ASLO
one fixed-gain segment at a time.
The warm-up and ASLO take V_t from the ``gram_sums`` that ``ingest`` commits.
Between two policy updates ASLO is a fixed-gain rollout too; it rolls the
gain out over a block of steps, takes the determinant criterion of the
block's later steps from one stacked log-det, and keeps the steps before
the first that fires.  Its blocks open at a quarter of the epoch just
ended, since epochs grow slowly (each 1.2 to 1.4 times the last on
bench-2x2), and its lambda_t are computed once per run.  What merely
measures a run (stage costs, warm-up log-dets, q_t, the regret ledger, the
anynum flags) is computed after the loop from the record, and the
per-epoch columns (r_t, beta, the estimation error) are read from the
policy history through ``policy_id``, each epoch's estimation error taken
after the loop from its kept estimate, all epochs in one stacked SVD.
"""

from __future__ import annotations

import bisect
import functools
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
    _BLOCK,
    logdet_pd,
    matvec_rows,
    min_eig,
    nuclear_norm,
    quad_rows,
    row_blocks,
    spectral_norm,
)
from .lqr import SystemModel, stability_certificate

log = logging.getLogger(__name__)

BLOWUP_NORM = 1e6


@dataclass
class TrajectoryRecord:
    """Per-step arrays of one trajectory plus run metadata."""

    seed: int                # a SeedSequence child in full's warm-up and doubling
    x: np.ndarray            # (T+1, n), states
    u: np.ndarray            # (T, m), applied inputs
    eta: np.ndarray          # (T, m), injected perturbation (nu during warm-up)
    omega: np.ndarray        # (T, n), noise entering x[s+1]
    cost: np.ndarray         # (T,)
    policy_id: np.ndarray    # (T,) int, the epoch of the policy in force
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
    est_error: float = math.nan  # nuclear-norm error of theta_hat, filled after the run
    theta_hat: np.ndarray | None = None


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


def start_state(x0, n: int | None = None) -> np.ndarray:
    """x0 as a flat float array of finite numbers, n of them when n is given;
    anything else is refused, not broadcast."""
    try:
        x = np.asarray(x0)
    except ValueError:  # a ragged nesting
        x = np.asarray(None)
    if not (x.dtype.kind in "iuf" and x.ndim == 1 and np.isfinite(x).all()
            and n in (None, len(x))):
        raise ConfigurationError(
            f"x0 must be {'a list of' if n is None else n} finite numbers", field="x0")
    return x.astype(float)


def _trajectory(model: SystemModel, T: int, seed, x0):
    """x (T+1, n) from x0 (zero when None), u (T, m), the process noise omega
    (T, n), and the ASLO- and warm-up-perturbation generators of ``seed``."""
    omega_rng, eta_rng, nu_rng = _streams(seed)
    x = np.zeros((T + 1, model.n))
    if x0 is not None:
        x[0] = start_state(x0, model.n)
    omega = model.sigma_w * omega_rng.standard_normal((T, model.n))
    return x, np.zeros((T, model.m)), omega, eta_rng, nu_rng


def perturbation_variance(t, params: schedules.ScheduleParams):
    """2 sigma^2 kappa^2 p_bar_t / sqrt(t) * noise_scale.

    ``t`` is one step, giving a float, or an array of steps, giving an array
    with the same bits per step.
    """
    scalar = np.ndim(t) == 0
    var = (2.0 * params.sigma_w**2 * params.kappa**2
           * schedules.p_bar(t, params.delta, params.phi) / (math.sqrt(t) if scalar else np.sqrt(t))
           * params.noise_scale)
    return float(var) if scalar else var


def sample_perturbation(t, params: schedules.ScheduleParams, rng) -> np.ndarray:
    """eta_t ~ N(0, perturbation_variance(t) * I).

    ``t`` is one step, giving an (m,) draw, or a sequence of steps, giving
    one row per step drawn in order (the same values as one call per step).
    """
    steps = np.atleast_1d(t)
    if steps.size and steps.min() < 1:
        raise ConfigurationError("t must be >= 1", field="t")
    std = np.sqrt(perturbation_variance(steps, params))
    draws = std[:, None] * rng.standard_normal((steps.size, params.m))
    return draws[0] if np.ndim(t) == 0 else draws


# Rows per sub-block of the rollout (``_Plan.rows``); ``_BLOCK`` is a multiple.
_SUB = 32


@functools.lru_cache(maxsize=None)
def _toeplitz_index(n: int) -> np.ndarray:
    """Flat indices into the stack [0, I, M, M^2, ...] of n x n blocks that
    gather Gamma: block (i, j) is M^(i-j) for i >= j, else 0."""
    blk, r = np.divmod(np.arange(_SUB * n), n)
    k = np.maximum(blk[:, None] - blk[None, :] + 1, 0)
    return (k * n + r[:, None]) * n + r[None, :]


class _Plan:
    """A gain's rollout plan, formed once per gain: K in C order, M = A + B K
    and, on first need, the sub-block powers."""

    def __init__(self, model: SystemModel, K):
        self.K = np.ascontiguousarray(K)
        self.B = model.B
        self.M = model.A + model.B @ self.K

    @functools.cached_property
    def powers(self):
        """(Phi, Gamma, L_ok): Phi = [M; ...; M^L], L = ``_SUB``, the
        block-lower-Toeplitz Gamma of M^0..M^(L-1), both by stacked doubling
        (M^(h+1..2h) = M^(1..h) M^h), and how many leading rows of a
        sub-block have finite powers (L unless a power overflows)."""
        n = len(self.M)
        P = np.zeros((_SUB + 2, n, n))  # [0, I, M, ..., M^L]
        P[1], P[2], h = np.eye(n), self.M, 1
        with np.errstate(over="ignore", invalid="ignore"):
            while h < _SUB:
                np.matmul(P[2:h + 2], P[h + 1], out=P[h + 2:2 * h + 2])
                h *= 2
        finite = np.isfinite(P).all(axis=(1, 2))  # row k takes M^(k+1), at k + 2
        L_ok = _SUB if finite.all() else int(np.argmin(finite)) - 2
        return P[2:].reshape(-1, n), P.ravel().take(_toeplitz_index(n)), L_ok

    def rows(self, s, D):
        """The len(D) rows after the anchor state s under the drives D: row k
        of the sub-block anchored at p is M^(k+1) x_p + sum_{j<=k} M^(k-j)
        d_{p+j}, that is Phi x_p plus row k of Gamma D_b.  Gamma's zeros
        multiply later drives, and 0 * inf is nan, so a non-finite drive
        enters the product as zero, and its sub-block's rows from it on, like
        those from L_ok on, step x' = M x + d one at a time."""
        Phi, Gamma, L_ok = self.powers
        L, n = _SUB, len(s)
        Dp = np.zeros((-(-len(D) // L) * L, n))  # whole sub-blocks, zero-padded
        Dp[:len(D)] = D
        ok = np.isfinite(Dp).all(axis=1)
        Dz, tails = Dp, {}  # each sub-block's first non-finite drive
        if not ok.all():
            Dz = np.where(ok[:, None], Dp, 0.0)
            tails = {j // L: j % L for j in np.flatnonzero(~ok)[::-1].tolist()}
        Y = matvec_rows(Gamma, Dz.reshape(-1, L * n))  # each row Gamma @ D_b
        X = Y.reshape(-1, n)  # a view of Y
        for k, y in enumerate(Y):
            y += Phi.dot(s)
            for i in range(k * L + min(tails.get(k, L), L_ok), (k + 1) * L):
                X[i] = self.M.dot(X[i - 1] if i % L else s) + Dp[i]
            s = y[-n:]
        return X[:len(D)]


def _rollout(plan: _Plan, x, u, eta, omega, runner: str, origin: int,
             lo: int, hi: int) -> None:
    """Close the loop for steps s = lo..hi-1 under a gain's ``_Plan``:
    x' = M x + d with M = A + B K and the drive d = B eta + omega, then
    u = K x + eta.

    Writes u[lo:hi] and x[lo+1:hi+1]; raises BlowUpError at the first step
    whose state runs away, with u written up to that step and the rows
    after it untouched.  The norm is sqrt(x.x), and sqrt is monotone with
    sqrt(BLOWUP_NORM**2) = BLOWUP_NORM, so only a squared norm past
    BLOWUP_NORM**2 needs the norm itself.

    The rows come in sub-blocks of ``_SUB`` rows anchored at origin + b L.
    A call whose lo falls inside one restarts from its anchor, so a row's
    bits depend on the gain, the origin state and the drives only, not on
    how the steps are split into calls; the first row of a sub-block has
    the bits of ``M @ x + d``, and a call needing that row alone computes it
    so.  Each chunk of at most ``_BLOCK`` rows takes its drive from one
    stacked product and Gamma D from one more (``matvec_rows``, whose rows
    have the bits of ``Gamma @ D_b`` for any row count; a gemm's would
    not), adds Phi x_p one sub-block at a time, and fills its inputs from
    one stacked product.  The runaway check runs once per chunk: one
    stacked squared norm picks the rows that may have run away, with a
    margin of 2 for its rounding (nan rows too), and each of them is tested
    in step order as a single step would be.  Rows are written up to the
    first runaway only.
    """
    K, M, B, limit = plan.K, plan.M, plan.B, BLOWUP_NORM**2
    for a in range(lo - (lo - origin) % _SUB, hi, _BLOCK):
        b = min(a + _BLOCK, hi)
        first = max(a, lo)  # rows up to x[first] were written by an earlier call
        with np.errstate(over="ignore", invalid="ignore"):
            D = matvec_rows(B, eta[a:b]) + omega[a:b]
            rows = (M.dot(x[a]) + D if b - a == 1 else plan.rows(x[a], D))[first - a:]
            sq = np.einsum("ij,ij->i", rows, rows)
            for i in np.flatnonzero(~(sq <= 0.5 * limit)).tolist():
                if rows[i].dot(rows[i]) > limit:
                    x_norm = float(np.linalg.norm(rows[i]))
                    if x_norm > BLOWUP_NORM:
                        x[first + 1:first + i + 2] = rows[:i + 1]
                        u[first:first + i + 1] = (matvec_rows(K, x[first:first + i + 1])
                                                  + eta[first:first + i + 1])
                        raise BlowUpError(f"{runner} state blow-up",
                                          diagnostics={"t": first + i + 1, "x_norm": x_norm})
            x[first + 1:b + 1] = rows
            u[first:b] = matvec_rows(K, x[first:b]) + eta[first:b]  # u = K x + eta


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
    regularizer rho = sigma^2 / theta_bound^2 pulled toward zero.  Each
    block's ``gram_sums`` give its log det V and are committed by ``ingest``.
    """
    if T0 < 1:
        raise ConfigurationError("T0 must be >= 1", field="T0")
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    cert0 = stability_certificate(model, K0)  # raises if K0 is not stabilizing
    n, m = model.n, model.m
    x, u, omega, _, nu_rng = _trajectory(model, T0, seed, x0)
    rho = model.sigma_w**2 / model.theta_bound**2
    nu = math.sqrt(2.0) * model.sigma_w * cert0.kappa * nu_rng.standard_normal((T0, m))
    _rollout(_Plan(model, K0), x, u, nu, omega, "warm-up", 0, 0, T0)
    est = estimation.EstimatorState(dim_z=n + m, dim_x=n)
    logdets = np.empty(T0)
    for lo, hi in row_blocks(T0):  # log det V after each ingest, V = rho I + S
        z = np.hstack([x[lo:hi], u[lo:hi]])
        S = estimation.gram_sums(est, z)
        logdets[lo:hi] = logdet_pd(max(rho, 1e-300) * np.eye(n + m) + S)
        estimation.ingest(est, z, x[lo + 1:hi + 1], grams=S)
    if rho > 0:
        Theta_0 = estimation.estimate(est, rho)
    else:  # degenerate sigma_w = 0: minimum-norm solution of S Theta = C
        Theta_0, *_ = np.linalg.lstsq(est.gram, est.cross, rcond=None)
    nan = np.full(T0, np.nan)  # held once for the three per-epoch columns
    record = TrajectoryRecord(
        seed=seed, x=x, u=u, eta=nu, omega=omega,
        cost=_stage_costs(model, x, u),
        policy_id=np.zeros(T0, dtype=int), lambda_t=np.full(T0, rho),
        r_t=nan, logdet_V=logdets, beta_used=nan, est_error=nan,
        diagnostics={"theta0_error": nuclear_norm(Theta_0 - model.theta_star)},
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

    lambda_1..lambda_T are computed once, as an array with ``lambda_t``'s
    bits (``schedules.lambda_steps``), or filled with ``lambda_override``.
    The plant is stepped in fixed-gain segments, a block of rows at a time.
    A block opens with its first step's criterion (V_t, log det and
    ``should_update``) evaluated as a step alone would, and synthesis if it
    fires (a new gain's ``_Plan`` is formed there, its sub-blocks anchored
    at that row); the gain in force is then rolled out over the block.  A
    firing at step t, tau_prev being the one before (0 at the first), sets
    the block size to (t - tau_prev) // 4 rows, at least 1, and it doubles while
    no step fires, at most ``linalg._BLOCK`` rows and never past the next
    checkpoint.  Epochs grow slowly, and each block pays a fixed cost (a
    log-det, ``gram_sums``, ``ingest`` and a rollout call), so blocks that
    restarted at 1 row after each firing would pay it about twice as often.
    V_t of the block's later steps comes from the block's ``gram_sums``, and
    one stacked log-det flags the first of them whose criterion fires (or
    whose V_t is not PD).  The rows before it are ingested from the same
    sums, so each kept row enters the Gram once, and the next block opens
    at it.  A blow-up in the block stands only if no step up to it fires.
    The record, history and diagnostics have the bits of stepping one step
    at a time, each row from its sub-block's anchor, whatever the block sizes.  The anynum flags are screened
    from bounds on the least eigenvalue of each V_t (see
    ``schedules.anynum_condition``).
    """
    if T < 1:
        raise ConfigurationError("T must be >= 1", field="T")
    if not math.isfinite(params.G_phi):
        raise ConfigurationError(
            "theory-mode constants are not simulatable; use practical mode",
            field="constants_mode")
    n, m = model.n, model.m
    Theta_0 = np.asarray(Theta_0, dtype=float)
    est = estimation.EstimatorState(dim_z=n + m, dim_x=n, anchor=Theta_0,
                                    anchor_error=anchor_eps)
    x, u, omega, eta_rng, _ = _trajectory(model, T, seed, x0)
    if np.linalg.norm(x[0]) > BLOWUP_NORM:
        raise BlowUpError("initial state beyond the runaway threshold",
                          diagnostics={"t": 0, "x_norm": float(np.linalg.norm(x[0]))})
    eta = sample_perturbation(np.arange(1, T + 1), params, eta_rng)
    policy_id = np.zeros(T, dtype=int)
    lam_arr = (schedules.lambda_steps(T, params) if lambda_override is None
               else np.full(T, float(lambda_override)))
    logdet_arr = np.zeros(T)

    history: list[PolicyEpoch] = []
    ledger = regret.RegretLedger(nu=params.nu, sigma_w=model.sigma_w)
    checkpoints = set(int(c) for c in checkpoints)
    bounds = sorted({c for c in checkpoints if 1 <= c <= T} | {T})
    containment = []
    failures = 0
    current: PolicyEpoch | None = None
    beta_in_force = params.beta
    logdet_tau = -math.inf
    tau_prev = 0  # the step of the last firing

    lo, size = 0, 1  # rows < lo are kept and ingested
    while lo < T:
        # each block opens with step lo+1's criterion, evaluated as a step alone would
        t = lo + 1
        lam = float(lam_arr[lo])
        V = est.covariance(lam)
        logdetV = logdet_pd(V)
        fire = (current is None) or schedules.should_update(logdetV, logdet_tau, beta_in_force)
        if fire:
            theta_hat = estimation.estimate(est, lam)
            r = estimation.confidence_radius(est, params.delta, lam, model.sigma_w,
                                             params.radius_variant, eps=anchor_eps,
                                             theta_bound=model.theta_bound)
            normV = spectral_norm(V)
            mu_t = synthesis.mu(r, model.theta_bound, normV, params.mu_mode)
            if mu_override is not None:
                mu_t = mu_override
            elif params.mu_clamp and params.constants_mode == "practical":
                mu_t = min(mu_t, _mu_cap(params, V))
            # the policy in force (kept through a decline) starts the search
            s0 = 0.0 if current is None else float(current.P_dual.trace())
            try:
                K, P = synthesis.synthesize_policy(theta_hat, model, mu_t, V, s0)
                if params.criterion == "adaptive_beta":
                    beta_in_force = schedules.adaptive_beta(t, r, params)
                current = PolicyEpoch(
                    epoch_index=0 if current is None else current.epoch_index + 1,
                    tau=t, K=K, P_dual=P,
                    mu=mu_t, r=r, beta=beta_in_force, lambda_tau=lam,
                    logdet_V_tau=logdetV, normV_tau=normV, theta_hat=theta_hat,
                )
                history.append(current)
                plan, origin = _Plan(model, K), lo  # the new gain's sub-blocks start here
                logdet_tau = logdetV
            except SynthesisError as exc:
                failures += 1
                log.warning("synthesis failed at t=%d: %s", t, exc)
                if current is None:
                    raise
                logdet_tau = logdetV  # restart the epoch clock on the old policy
            # the next epoch runs about as long as the one just ended
            size, tau_prev = min(_BLOCK, max(1, (t - tau_prev) // 4)), t
        logdet_arr[lo] = logdetV
        # roll the gain in force out over a block, speculatively: a later step
        # of the block may fire, and only the rows before it are kept
        hi = min(lo + size, bounds[bisect.bisect_right(bounds, lo)])
        blow_up = None
        try:
            _rollout(plan, x, u, eta, omega, "ASLO", origin, lo, hi)
        except BlowUpError as exc:  # it stands unless a step up to it fires
            blow_up, hi = exc, exc.diagnostics["t"]
        z = np.concatenate([x[lo:hi], u[lo:hi]], axis=1)
        S = estimation.gram_sums(est, z)
        end = hi
        if hi - lo > 1:  # the criterion of steps lo+2..hi from the rows before each
            logdets = logdet_pd(lam_arr[lo + 1:hi, None, None] * np.eye(n + m) + S[:-1],
                                strict=False)  # nan where V is not PD
            # the first step that fires, or whose own checks would raise, opens the next block
            limit = math.log1p(beta_in_force) + logdet_tau
            flagged = np.flatnonzero(~(logdets <= limit))
            if flagged.size:
                end = lo + 1 + int(flagged[0])
            logdet_arr[lo + 1:end] = logdets[:end - lo - 1]
        if blow_up is not None and end == hi:
            raise blow_up
        estimation.ingest(est, z[:end - lo], x[lo + 1:end + 1], grams=S[:end - lo])
        policy_id[lo:end] = current.epoch_index
        if end in checkpoints:
            containment.append((end, _holds_truth(
                est, model, params, float(lam_arr[end - 1]), params.radius_variant,
                anchor_eps)))
        if end == hi:
            size = min(2 * size, _BLOCK)
        lo = end

    # each epoch's estimation error, from one stacked SVD
    errors = nuclear_norm(np.array([p.theta_hat for p in history])
                          - model.theta_star).tolist()
    for p, err in zip(history, errors):
        p.est_error = err

    def per_step(name):  # a per-epoch value at each step, from the policy in force
        return np.array([getattr(p, name) for p in history])[policy_id]

    # instrumentation, from the record: q_t = z' V_t^{-1} z, the anynum
    # flags and the ledger, with V_t replayed a block of steps at a time
    mu_steps = per_step("mu")
    q = np.empty(T)
    anynum = np.empty(T, dtype=bool)
    for lo, z, V in estimation.covariance_blocks(x, u, lam_arr):
        hi = lo + len(z)
        q[lo:hi] = regret.q_values(z, V)
        anynum[lo:hi] = schedules.anynum_condition(mu_steps[lo:hi], V, params.kappa,
                                                   lam=lam_arr[lo:hi], terms=hi)
    ledger.accumulate_trajectory(x, omega, eta, q, policy_id, history, model, params)
    record = TrajectoryRecord(
        seed=seed, x=x, u=u, eta=eta, omega=omega,
        cost=_stage_costs(model, x, u),
        policy_id=policy_id, lambda_t=lam_arr, r_t=per_step("r"),
        logdet_V=logdet_arr, beta_used=per_step("beta"),
        est_error=per_step("est_error"),
        diagnostics={
            "synthesis_failures": failures,
            "containment": containment,
            "anynum_condition": anynum.tolist(),
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
    theta0, eps = (None, None) if anchor is None else anchor
    variant = "unanchored" if anchor is None else "anchored"
    est = estimation.EstimatorState(dim_z=n + m, dim_x=n, anchor=theta0,
                                    anchor_error=eps)
    x, u, omega, eta_rng, _ = _trajectory(model, T, seed, x0)
    eta = sample_perturbation(np.arange(1, T + 1), params, eta_rng)
    containment = []
    checkpoints = {int(c) for c in checkpoints if 1 <= int(c) <= T}
    plan, lo = _Plan(model, K), 0
    for t in sorted(checkpoints | {T}):
        _rollout(plan, x, u, eta, omega, "fixed-policy", 0, lo, t)
        estimation.ingest(est, np.hstack([x[lo:t], u[lo:t]]), x[lo + 1:t + 1])
        if t in checkpoints:
            containment.append((t, _holds_truth(
                est, model, params, schedules.lambda_t(t, params), variant, eps)))
        lo = t
    return _stage_costs(model, x, u), est, containment


def run_segments(model: SystemModel, K0, plan: list, params: schedules.ScheduleParams,
                 x0=None):
    """Run a plan of (kind, T, seed, options) segments in turn from the state
    x0, each from the state the one before ended in, on the seed its entry
    names.  "warmup" runs ``run_warmup`` under K0; "aslo" runs ``run_aslo``
    with the options as keywords, anchored on their ``Theta_0`` or else on
    the estimate of the warm-up before it.  Yields (kind, the segment's
    record, the runner's return) as each segment ends."""
    x, Theta_0 = x0, None
    for kind, T, seed, options in plan:
        if kind == "warmup":
            out = run_warmup(model, K0, T, seed=seed, x0=x)
            Theta_0, rec = out
        else:
            out = run_aslo(model, **{"Theta_0": Theta_0, **options}, T=T, params=params,
                           seed=seed, x0=x)
            rec = out[0]
        yield kind, rec, out
        x = rec.x[-1]
