"""Dense solver for linear-objective PSD-cone programs.

Problems are posed in LMI (inequality) form over x in R^d:

    minimize    c' x
    subject to  F_k(x) = F_k0 + sum_i x_i F_ki  >=  0   (k = 1..K)

and solved by a log-det barrier path-following method with damped Newton
steps.  Sizes here are tiny (blocks <= ~10), so everything is dense and a
long central path to duality gap ~1e-9 is cheap.

The module also formulates the programs the tests solve with it as oracles:
the confidence-ellipsoid-relaxed primal and dual SDPs, whose exact solution
the runtime computes by Riccati equations in ``synthesis``, and the exact
steady-state covariance SDP of a known plant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConfigurationError,
    DegenerateSolutionError,
    ModelInvariantError,
    SynthesisError,
)
from .linalg import (
    chol_solve,
    min_eig,
    solve_discrete_lyapunov,
    spectral_norm,
    spectral_radius,
    sym,
)
from .lqr import SystemModel, _split_theta, solve_dare

log = logging.getLogger(__name__)

_PHASE1_BALL = 1e8


@dataclass
class PSDBlock:
    """One LMI block: const + sum_i x_i coeffs[i] >= 0."""

    const: np.ndarray          # (s, s) symmetric
    coeffs: np.ndarray         # (d, s, s), each slice symmetric

    def __post_init__(self):
        self.const = sym(np.atleast_2d(np.asarray(self.const, dtype=float)))
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    def evaluate(self, x):
        return self.const + np.einsum("i,ijk->jk", x, self.coeffs)


@dataclass
class SDProblem:
    c: np.ndarray
    blocks: list

    @property
    def dim(self):
        return self.c.shape[0]


@dataclass
class SDPSolution:
    x: np.ndarray
    value: float
    status: str                      # optimal | infeasible | unbounded | max_iter
    gap: float = np.inf              # certified duality gap sum <Z_k, F_k(x)>
    stationarity: float = np.inf     # ||c - sum_k A_k^*(Z_k)||_inf
    min_eig_blocks: tuple = ()
    duals: list = field(default_factory=list)
    newton_steps: int = 0

    @property
    def ok(self):
        return self.status == "optimal"


def sym_basis(p):
    """Basis of p x p symmetric matrices: E_ii = e_i e_i', E_ij = e_i e_j' + e_j e_i'."""
    d = p * (p + 1) // 2
    E = np.zeros((d, p, p))
    k = 0
    for i in range(p):
        for j in range(i, p):
            E[k, i, j] = 1.0
            E[k, j, i] = 1.0
            k += 1
    return E


def sym_to_vec(M):
    p = M.shape[0]
    return np.array([M[i, j] for i in range(p) for j in range(i, p)])


def vec_to_sym(x, p):
    M = np.zeros((p, p))
    k = 0
    for i in range(p):
        for j in range(i, p):
            M[i, j] = x[k]
            M[j, i] = x[k]
            k += 1
    return M


def objective_from_matrix(C):
    """c such that c' x = <C, vec_to_sym(x)> with the sym_basis parametrization."""
    p = C.shape[0]
    c = []
    for i in range(p):
        for j in range(i, p):
            c.append(C[i, j] if i == j else 2.0 * C[i, j])
    return np.array(c)


def _chol_margin(M):
    """min-eig surrogate: returns True if M is PD (Cholesky succeeds)."""
    try:
        np.linalg.cholesky(sym(M))
        return True
    except np.linalg.LinAlgError:
        return False


def _barrier_value(t, c, blocks, x):
    val = t * float(c @ x)
    for blk in blocks:
        F = blk.evaluate(x)
        sign, ld = np.linalg.slogdet(sym(F))
        if sign <= 0:
            return np.inf
        val -= ld
    return val


def _newton_center(t, c, blocks, x, tol=1e-11, max_steps=60):
    """Damped Newton on phi_t(x) = t c'x - sum logdet F_k(x); x starts feasible."""
    steps = 0
    for _ in range(max_steps):
        g = t * c.copy()
        H = np.zeros((x.size, x.size))
        for blk in blocks:
            F = blk.evaluate(x)
            Finv = np.linalg.inv(sym(F))
            g -= np.einsum("jk,ikj->i", Finv, blk.coeffs)
            G = np.einsum("ab,ibc,cd->iad", Finv, blk.coeffs, Finv)
            H += np.einsum("iab,jba->ij", G, blk.coeffs)
        H = sym(H)
        ridge = 0.0
        for _ in range(12):
            try:
                L = np.linalg.cholesky(H + ridge * np.eye(H.shape[0]))
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 10.0, 1e-14 * max(1.0, np.trace(H) / H.shape[0]))
        else:
            return x, steps, False
        dx = -np.linalg.solve(L.T, np.linalg.solve(L, g))
        lam2 = float(-g @ dx)
        if lam2 / 2.0 <= tol:
            return x, steps, True
        phi0 = _barrier_value(t, c, blocks, x)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            xn = x + alpha * dx
            if all(_chol_margin(blk.evaluate(xn)) for blk in blocks):
                phin = _barrier_value(t, c, blocks, xn)
                if phin <= phi0 - 0.25 * alpha * lam2 + 1e-12 * abs(phi0):
                    x = xn
                    accepted = True
                    break
            alpha *= 0.5
        steps += 1
        if not accepted:
            return x, steps, True  # stalled line search: centered enough
    return x, steps, True


def _duals(t, blocks, x):
    return [np.linalg.inv(sym(blk.evaluate(x))) / t for blk in blocks]


def _kkt(c, blocks, x, Z):
    gap = 0.0
    resid = c.copy()
    for blk, Zk in zip(blocks, Z):
        gap += float(np.sum(Zk * blk.evaluate(x)))
        resid -= np.einsum("jk,ikj->i", Zk, blk.coeffs)
    return gap, float(np.max(np.abs(resid)))


def _phase_one(problem: SDProblem, x0):
    """Find a strictly feasible point by minimizing the infeasibility slack s
    subject to F_k(x) + s I >= 0 inside a norm ball on x."""
    d = problem.dim
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    worst = min(
        float(np.linalg.eigvalsh(sym(blk.evaluate(x0)))[0]) for blk in problem.blocks
    )
    s0 = max(1.0, -worst * 1.5 + 1.0)
    blocks = []
    for blk in problem.blocks:
        coeffs = np.concatenate([blk.coeffs, np.eye(blk.const.shape[0])[None, :, :]], axis=0)
        blocks.append(PSDBlock(const=blk.const, coeffs=coeffs))
    # ball |x| <= R as the LMI [[R I, x], [x', R]] >= 0
    ball_const = np.zeros((d + 1, d + 1))
    ball_const[np.arange(d), np.arange(d)] = _PHASE1_BALL
    ball_const[d, d] = _PHASE1_BALL
    ball_coeffs = np.zeros((d + 1, d + 1, d + 1))
    for i in range(d):
        ball_coeffs[i, i, d] = 1.0
        ball_coeffs[i, d, i] = 1.0
    blocks.append(PSDBlock(const=ball_const, coeffs=ball_coeffs))
    c = np.zeros(d + 1)
    c[d] = 1.0
    y = np.concatenate([x0, [s0]])
    t = 1.0
    for _ in range(80):
        y, _, _ = _newton_center(t, c, blocks, y)
        if y[d] < -1e-9:
            return y[:d]
        s_total = sum(blk.const.shape[0] for blk in blocks)
        if s_total / t < 1e-10 and y[d] >= -1e-9:
            return None
        t *= 10.0
    return None if y[d] >= -1e-9 else y[:d]


def solve_sdp(problem: SDProblem, x0=None, tol=1e-9, max_outer=80) -> SDPSolution:
    """Path-following barrier solve of an LMI-form program.

    ``x0`` may be a strictly feasible warm start; otherwise phase I runs
    first.  Returns a solution whose ``gap`` and ``stationarity`` certify
    KKT quality through the explicit dual blocks Z_k = F_k(x)^{-1}/t.
    """
    c = np.asarray(problem.c, dtype=float)
    blocks = problem.blocks
    s_total = sum(blk.const.shape[0] for blk in blocks)

    x = None
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if all(_chol_margin(blk.evaluate(x0)) for blk in blocks):
            x = x0
    if x is None:
        x = _phase_one(problem, x0)
        if x is None:
            return SDPSolution(
                x=np.zeros(problem.dim), value=np.nan, status="infeasible"
            )

    obj0 = abs(float(c @ x))
    t = max(1e-2, s_total / max(1.0, obj0))
    total_steps = 0
    status = "max_iter"
    for _ in range(max_outer):
        x, steps, ok_center = _newton_center(t, c, blocks, x)
        total_steps += steps
        value = float(c @ x)
        if not np.isfinite(value) or value < -1e14 or np.linalg.norm(x) > 1e13:
            status = "unbounded"
            break
        if s_total / t <= tol * max(1.0, abs(value)):
            status = "optimal"
            break
        t *= 20.0
    Z = _duals(t, blocks, x)
    gap, stat = _kkt(c, blocks, x, Z)
    mins = tuple(float(np.linalg.eigvalsh(sym(blk.evaluate(x)))[0]) for blk in blocks)
    return SDPSolution(
        x=x,
        value=float(c @ x),
        status=status,
        gap=gap,
        stationarity=stat,
        min_eig_blocks=mins,
        duals=Z,
        newton_steps=total_steps,
    )


@dataclass
class RelaxedPrimalProblem:
    """Data of the relaxed primal SDP; ``compile`` lowers it to an LMI program.

    The decision variable is the joint steady-state second moment Sigma,
    partitioned as [[Sigma_xx, Sigma_xu], [Sigma_ux, Sigma_uu]]; the
    relaxation inflates the covariance constraint by mu (Sigma . V^{-1}) I to
    absorb parameter uncertainty.
    """

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

    def compile(self) -> SDProblem:
        n, m = self.n, self.m
        p = n + m
        E = sym_basis(p)
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
            PSDBlock(const=-self.W, coeffs=cov_coeffs),
            PSDBlock(const=np.zeros((p, p)), coeffs=E),
        ]
        C = np.zeros((p, p))
        C[:n, :n] = self.Q
        C[n:, n:] = self.R
        return SDProblem(c=objective_from_matrix(C), blocks=blocks)


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
    return sym_to_vec(sym(Sigma0))


def solve_relaxed_primal(problem: RelaxedPrimalProblem, tol: float = 1e-9):
    """Solve the compiled relaxed primal; returns the optimal Sigma."""
    compiled = problem.compile()
    sol = solve_sdp(compiled, x0=_primal_warm_start(problem), tol=tol)
    if not sol.ok:
        raise SynthesisError(f"relaxed primal solve failed: status={sol.status}")
    Sigma = vec_to_sym(sol.x, problem.n + problem.m)
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
    E = sym_basis(n)
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
        PSDBlock(const=const, coeffs=coeffs),
        PSDBlock(const=np.zeros((n, n)), coeffs=E),
    ]
    c = objective_from_matrix(-model.W)
    problem = SDProblem(c=c, blocks=blocks)
    # P = rho0 I is strictly feasible for small rho0 because diag(Q, R) > 0
    rho0 = 0.5 * model.alpha0
    x0 = None
    for _ in range(40):
        cand = sym_to_vec(rho0 * np.eye(n))
        if all(min_eig(b.evaluate(cand)) > 1e-12 for b in blocks):
            x0 = cand
            break
        rho0 *= 0.1
    sol = solve_sdp(problem, x0=x0, tol=tol)
    if not sol.ok:
        raise SynthesisError(f"relaxed dual solve failed: status={sol.status}")
    P = vec_to_sym(sol.x, n)
    log.debug("relaxed dual: value=%.9g gap=%.3g", -sol.value, sol.gap)
    return sym(P)


def exact_sdp(model: SystemModel, tol=1e-9):
    """Steady-state covariance SDP for the true plant.

    min <diag(Q,R), Sigma>  s.t.  Sigma_xx >= Theta' Sigma Theta + W,
    Sigma >= 0.  At the optimum the constraint is tight and the objective
    equals J* = tr(P) sigma_w^2; the gain is recovered from the covariance
    blocks.  Solved in inequality form (the equality-form feasible set has
    empty interior, while the two share optimum and optimizer).
    """
    if model.sigma_w <= 0:
        raise ConfigurationError("exact_sdp requires W > 0", field="sigma_w")
    n, m = model.n, model.m
    V = np.eye(n + m)
    problem = build_relaxed_primal(model.theta_star, model, mu=0.0, V_t=V)
    try:
        Sigma = solve_relaxed_primal(problem, tol=tol)
    except Exception as exc:  # solver-level failure => model invariant broken
        raise ModelInvariantError(f"exact SDP failed: {exc}") from exc
    K = extract_policy(Sigma, n)
    return Sigma, K
