import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from alqr.exceptions import ConfigurationError, IncompleteTrajectoryError
from alqr.linalg import matvec_rows, quad_rows, row_blocks
from alqr.loops import PolicyEpoch, run_aslo, run_warmup
from alqr.lqr import SystemModel, solve_dare, stability_certificate
from alqr.regret import (
    R_NAMES,
    RegretLedger,
    decompose,
    realized_regret,
    slope,
    term_bounds,
    warmup_regret_bound,
)
from alqr.schedules import build_schedule


class FakeTraj:
    def __init__(self, cost):
        self.cost = np.asarray(cost, dtype=float)


class TestRealizedRegret:
    def test_zero_cost_zero_jstar(self):
        assert np.array_equal(realized_regret(FakeTraj([0.0, 0.0]), 0.0), [0.0, 0.0])

    def test_single_step(self):
        assert realized_regret(FakeTraj([5.0]), 2.0)[0] == pytest.approx(3.0)

    def test_optimal_policy_average_vanishes(self):
        m = SystemModel(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=1.0, theta_bound=1.5)
        sol = solve_dare(m)
        a, b, k = m.A[0, 0], m.B[0, 0], sol.K_star[0, 0]
        T = 20_000
        avgs = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal(T)
            x, total = 0.0, 0.0
            for t in range(T):
                u = k * x
                total += x * x + u * u
                x = a * x + b * u + w[t]
            avgs.append(abs(total / T - sol.J_star))
        assert np.mean(avgs) <= 0.1 * sol.J_star


class TestDecompose:
    def test_noise_free_terms_vanish(self):
        m1 = SystemModel(A=[[0.5, 0.1], [0.0, 0.4]], B=np.eye(2),
                         Q=np.eye(2), R=np.eye(2), sigma_w=1.0)
        params = replace(build_schedule(m1, nu=50.0, constants_mode="practical"),
                         sigma_w=0.0)
        m0 = SystemModel(A=m1.A, B=m1.B, Q=m1.Q, R=m1.R, sigma_w=0.0,
                         theta_bound=m1.theta_bound)
        rec, hist, ledger = run_aslo(m0, m0.theta_star, 0.0, T=60, params=params,
                                     seed=0, x0=[1.0, -1.0], mu_override=0.0)
        R = decompose(rec, hist, params, m0)
        assert R[1] == 0.0  # omega cross term
        assert R[4] == 0.0  # eta cross term
        assert R[5] == 0.0  # eta quadratic
        assert np.max(np.abs(R - ledger.R)) <= 1e-10

    def test_single_epoch_pure_telescope(self, bench2x2, bench2x2_params,
                                         bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        # a huge fixed beta keeps the first policy for the whole run
        params = replace(bench2x2_params, criterion="fixed_beta", beta=1e12)
        rec, hist, _ = run_aslo(bench2x2, theta0, eps, T=120, params=params, seed=2)
        assert len(hist) == 1
        R = decompose(rec, hist, params, bench2x2)
        P = hist[0].P_dual
        expect = float(rec.x[0] @ P @ rec.x[0] - rec.x[-1] @ P @ rec.x[-1])
        assert R[0] == pytest.approx(expect, abs=1e-9)

    def test_matches_online_ledger(self, bench2x2, bench2x2_params, bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, hist, ledger = run_aslo(bench2x2, theta0, eps, T=250,
                                     params=bench2x2_params, seed=6)
        R = decompose(rec, hist, bench2x2_params, bench2x2)
        scale = np.maximum(1.0, np.abs(ledger.R))
        assert np.max(np.abs(R - ledger.R) / scale) <= 1e-8

    def test_replay_equals_online_ledger_exactly(self, bench2x2, bench2x2_params,
                                                 bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, hist, ledger = run_aslo(bench2x2, theta0, eps, T=120,
                                     params=bench2x2_params, seed=4)
        assert np.array_equal(decompose(rec, hist, bench2x2_params, bench2x2), ledger.R)

    def test_missing_noise_rejected(self, bench2x2, bench2x2_params, bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, hist, _ = run_aslo(bench2x2, theta0, eps, T=30,
                                params=bench2x2_params, seed=1)
        rec.omega = np.full_like(rec.omega, np.nan)
        with pytest.raises(IncompleteTrajectoryError):
            decompose(rec, hist, bench2x2_params, bench2x2)


def scalar_instrumentation(rec, hist, params, model):
    """R1..R6 and the anynum flags from the per-step formulas, written out:
    V_t rebuilt from the raw regressors, one solve and one eigvalsh a step."""
    by_epoch = {p.epoch_index: p for p in hist}
    dim_z = model.n + model.m
    gram = np.zeros((dim_z, dim_z))
    R = np.zeros(6)
    flags = []
    factor = 2.0 * params.nu / model.sigma_w**2
    rhs = -math.log(16.0) - 10.0 * math.log(params.kappa)
    for s in range(rec.T):
        pol = by_epoch[int(rec.policy_id[s])]
        P, K = pol.P_dual, pol.K
        M = model.A + model.B @ K
        x_t, x_next, w, e = rec.x[s], rec.x[s + 1], rec.omega[s], rec.eta[s]
        z = np.concatenate([x_t, rec.u[s]])
        V = rec.lambda_t[s] * np.eye(dim_z) + gram
        q_t = float(z @ np.linalg.solve(V, z))
        R[0] += float(x_t @ P @ x_t - x_next @ P @ x_next)
        R[1] += float(w @ P @ (M @ x_t))
        R[2] += float(w @ P @ w) - model.sigma_w**2 * float(np.trace(P))
        if params.criterion == "adaptive_beta":
            R[3] += factor * pol.mu * q_t
            R[3] += factor * pol.beta * pol.r * q_t
            R[3] += 2.0 * factor * params.theta_bound * pol.beta \
                * math.sqrt(pol.r * pol.normV_tau) * q_t
        else:
            R[3] += factor * (1.0 + pol.beta) * pol.mu * q_t
        R[4] += 2.0 * float(e @ model.R @ (K @ x_t))
        R[5] += float(e @ model.R @ e)
        w_min = np.linalg.eigvalsh(0.5 * (V + V.T))[0]
        flags.append(pol.mu <= 0 or math.log(pol.mu) - math.log(w_min) <= rhs)
        gram += np.outer(z, z)
    return R, flags


class TestScalarOracle:
    """The blocked, stacked instrumentation equals the per-step formulas bit
    for bit over more than two blocks of steps."""

    @pytest.mark.parametrize("criterion, mu_override", [
        ("det2", None),
        ("adaptive_beta", None),
        # a mu small enough that the anynum flag turns on as V_t grows
        ("det2", 1e-17),
    ])
    def test_ledger_decompose_and_flags(self, bench2x2, bench2x2_params,
                                        bench2x2_anchor, criterion, mu_override):
        theta0, eps = bench2x2_anchor
        params = replace(bench2x2_params, criterion=criterion)
        rec, hist, ledger = run_aslo(bench2x2, theta0, eps, T=2500, params=params,
                                     seed=8, mu_override=mu_override)
        R, flags = scalar_instrumentation(rec, hist, params, bench2x2)
        assert np.array_equal(ledger.R, R)
        assert np.array_equal(decompose(rec, hist, params, bench2x2), R)
        assert rec.diagnostics["anynum_condition"] == flags
        if mu_override is not None:
            assert 0 < sum(flags) < len(flags)


def per_run_ledger(x, omega, eta, q, policy_id, policies, model, params, nu):
    """R1..R6 and the run count as the ledger took them one policy run at a
    time: each run's P, K and M = A + BK, its terms from stacked rows in
    blocks of the run's steps, added to the sums in step order."""
    R = np.zeros(6)
    by_epoch = {p.epoch_index: p for p in policies}
    starts = np.flatnonzero(np.diff(policy_id, prepend=-1)).tolist()
    factor = 2.0 * nu / model.sigma_w**2 if model.sigma_w > 0 else 0.0
    for lo, hi in zip(starts, starts[1:] + [len(q)]):
        pol = by_epoch[int(policy_id[lo])]
        P, K = pol.P_dual, pol.K
        M = model.A + model.B @ K
        noise_trace = model.sigma_w**2 * float(np.trace(P))
        for a, b in row_blocks(hi - lo):
            a, b = lo + a, lo + b
            xPx = quad_rows(x[a:b + 1], P)
            x_t, w, e, qb = x[a:b], omega[a:b], eta[a:b], q[a:b]
            if params.criterion == "adaptive_beta":
                r4 = np.stack([
                    factor * pol.mu * qb,
                    factor * pol.beta * pol.r * qb,
                    2.0 * factor * params.theta_bound * pol.beta
                    * math.sqrt(pol.r * pol.normV_tau) * qb,
                ], axis=1)
            else:
                r4 = factor * (1.0 + pol.beta) * pol.mu * qb
            steps = (
                xPx[:-1] - xPx[1:],
                quad_rows(w, P, matvec_rows(M, x_t)),
                quad_rows(w, P) - noise_trace,
                r4,
                2.0 * quad_rows(e, model.R, matvec_rows(K, x_t)),
                quad_rows(e, model.R),
            )
            for i, v in enumerate(steps):
                for value in v.ravel().tolist():
                    R[i] += value
    return R, len(starts)


class TestOnePassLedger:
    """``accumulate_trajectory`` walks a trajectory in blocks of rows that may
    span policy runs; it must give the per-run ledger's bits."""

    # run lengths: one-step runs at and beside the 256-row block edges, runs
    # across one and across two edges, and a tail shorter than a block
    RUNS = [1, 1, 253, 1, 1, 300, 1, 210, 2, 5, 1, 520, 1, 7]

    @staticmethod
    def case(n, m, sigma_w, runs, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
        model = SystemModel(A=A, B=rng.standard_normal((n, m)), Q=np.eye(n),
                            R=np.diag(rng.uniform(0.5, 2.0, m)), sigma_w=sigma_w)
        # epochs listed out of order, one of them never in force; the last
        # epoch returns after another, as no runner does but the ledger allows
        ids = rng.permutation(len(runs) + 1)[:len(runs)]
        if len(runs) > 2:
            ids[-1] = ids[-3]
        policies = []
        for e in sorted(set(ids.tolist()) | {len(runs) + 5}, reverse=True):
            G = rng.standard_normal((n, n))
            policies.append(PolicyEpoch(
                epoch_index=e, tau=1, K=rng.standard_normal((m, n)),
                P_dual=G @ G.T + np.eye(n), mu=float(rng.uniform(0, 1e-3)),
                r=float(rng.uniform(0.1, 5.0)), beta=float(rng.uniform(0, 1)),
                lambda_tau=1.0, logdet_V_tau=0.0, normV_tau=float(rng.uniform(1, 1e4))))
        policy_id = np.repeat(ids, runs)
        T = len(policy_id)
        x = rng.standard_normal((T + 1, n)) * 10.0 ** rng.uniform(-2, 2, (T + 1, 1))
        omega = sigma_w * rng.standard_normal((T, n))
        eta = rng.standard_normal((T, m))
        q = rng.uniform(0, 2, T)
        return model, policies, (x, omega, eta, q, policy_id)

    @pytest.mark.parametrize("criterion", ["det_double", "adaptive_beta"])
    @pytest.mark.parametrize("n, m, sigma_w", [(2, 2, 1.0), (3, 2, 0.7), (4, 1, 1.3),
                                               (2, 1, 0.0)])
    def test_bits_equal_per_run_ledger(self, criterion, n, m, sigma_w):
        model, policies, arrays = self.case(n, m, sigma_w, self.RUNS, seed=n + 10 * m)
        params = SimpleNamespace(criterion=criterion, theta_bound=2.5)
        ledger = RegretLedger(nu=3.0, sigma_w=sigma_w)
        ledger.accumulate_trajectory(*arrays, policies, model, params)
        R, runs = per_run_ledger(*arrays, policies, model, params, nu=3.0)
        assert np.array_equal(ledger.R, R)
        assert ledger.policy_runs == runs == len(self.RUNS)
        assert ledger.n_updates() == runs - 1
        if sigma_w == 0.0:
            assert R[3] == 0.0  # R4 carries factor 0 without noise

    @pytest.mark.parametrize("runs", [[1], [1] * 300, [256], [257], [255, 1, 256]])
    def test_run_shapes(self, runs):
        model, policies, arrays = self.case(2, 2, 1.0, runs, seed=len(runs))
        params = SimpleNamespace(criterion="adaptive_beta", theta_bound=2.5)
        ledger = RegretLedger(nu=3.0, sigma_w=1.0)
        ledger.accumulate_trajectory(*arrays, policies, model, params)
        R, count = per_run_ledger(*arrays, policies, model, params, nu=3.0)
        assert np.array_equal(ledger.R, R) and ledger.policy_runs == count

    def test_unknown_epoch_raises(self):
        model, policies, arrays = self.case(2, 2, 1.0, [3, 4], seed=0)
        params = SimpleNamespace(criterion="det_double", theta_bound=2.5)
        with pytest.raises(KeyError):
            RegretLedger(nu=3.0, sigma_w=1.0).accumulate_trajectory(
                *arrays, policies[1:2], model, params)


class TestTermBounds:
    @staticmethod
    def stats():
        return {"X_T": 3.0, "Z_T": 10.0, "r_T": 5.0, "lambda_T": 12.0,
                "lambda_1": 2.3, "beta": 1.0}

    def test_r6_at_t1(self, bench2x2_params):
        p = bench2x2_params
        bounds = term_bounds(1, p, self.stats())
        expect = 10.0 * p.alpha1 * p.m * p.sigma_w**2 * p.kappa**2
        assert bounds["R6"] == pytest.approx(expect)

    def test_r2_sqrt_scaling(self, bench2x2_params):
        b1 = term_bounds(1000, bench2x2_params, self.stats())["R2"]
        b4 = term_bounds(4000, bench2x2_params, self.stats())["R2"]
        assert b4 / b1 == pytest.approx(2.0)

    def test_all_positive(self, bench2x2_params):
        bounds = term_bounds(500, bench2x2_params, self.stats())
        assert all(v > 0 for v in bounds.values())

    def test_measured_terms_within_bounds(self, bench2x2, bench2x2_params,
                                          bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        hits = 0
        for seed in range(5):
            rec, hist, ledger = run_aslo(bench2x2, theta0, eps, T=2000,
                                         params=bench2x2_params, seed=seed)
            stats = {
                "X_T": rec.max_state_norm(),
                "Z_T": float(np.max(np.sum(np.hstack([rec.x[:-1], rec.u])**2, axis=1))),
                "r_T": float(rec.r_t[-1]),
                "lambda_T": float(rec.lambda_t[-1]),
                "lambda_1": float(rec.lambda_t[0]),
                "beta": 1.0,
            }
            bounds = term_bounds(2000, bench2x2_params, stats)
            if all(ledger.terms()[k] <= bounds[k] for k in R_NAMES):
                hits += 1
        assert hits >= 4  # >= 1 - delta of runs


class TestWarmupRegretBound:
    def test_growth_order(self, bench2x2_params):
        vals = [warmup_regret_bound(T0, bench2x2_params, kappa0=2.0, gamma0=0.3)
                / (T0 * math.log(T0)) for T0 in (100, 1000, 10_000, 100_000)]
        assert max(vals) / min(vals) <= 5.0  # bounded ratio: T log T growth

    def test_positive(self, bench2x2_params):
        assert warmup_regret_bound(1, bench2x2_params, kappa0=1.0, gamma0=0.5) > 0

    def test_dominates_measured_warmup_regret(self):
        m = SystemModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=1.0, theta_bound=1.2)
        K0 = np.array([[-0.25]])
        cert0 = stability_certificate(m, K0)
        params = build_schedule(m, cert0=cert0, delta=0.1, phi=1.1,
                                constants_mode="practical")
        J = solve_dare(m).J_star
        T0 = 200
        bound = warmup_regret_bound(T0, params)
        hits = 0
        for seed in range(20):
            _, rec = run_warmup(m, K0, T0, seed=seed)
            if float(np.sum(rec.cost) - T0 * J) <= bound:
                hits += 1
        assert hits >= 18


class TestSlope:
    def test_sqrt_series(self):
        t = np.arange(1, 5001)
        assert slope(np.sqrt(t), (10, 5000)) == pytest.approx(0.5, abs=1e-9)

    def test_constant_series(self):
        assert slope(np.full(1000, 3.7), (10, 1000)) == pytest.approx(0.0, abs=1e-12)

    def test_power_law_with_log_factor(self):
        t = np.arange(1, 10**6 + 1, dtype=float)
        series = t**0.33 * np.log(np.maximum(t, 2.0))
        got = slope(series, (1000, 10**6))
        assert 0.40 < got < 0.43  # 0.33 plus the log-factor drift on this window

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            slope(np.array([1.0, -1.0, 2.0]), (1, 3))


class TestDistributionalProperties:
    def test_r3_summands_center(self):
        rng = np.random.default_rng(0)
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        sigma = 1.3
        draws = sigma * rng.standard_normal((10_000, 2))
        vals = np.einsum("ti,ij,tj->t", draws, P, draws) - sigma**2 * np.trace(P)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 3 * se

    def test_r6_nonnegative(self, bench2x2, bench2x2_params, bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        _, _, ledger = run_aslo(bench2x2, theta0, eps, T=200,
                                params=bench2x2_params, seed=4)
        assert ledger.R[5] >= 0.0
