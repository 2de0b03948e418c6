import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from alqr import loops, schedules, synthesis
from alqr.benchmarks import bench_2x2
from alqr.exceptions import BlowUpError, CertificateError, ConfigurationError, SynthesisError
from alqr.estimation import EstimatorState, ellipsoid, ellipsoid_contains, estimate, ingest
from alqr.linalg import logdet_pd
from alqr.loops import (
    _streams,
    perturbation_variance,
    replay_states,
    run_aslo,
    run_doubling,
    run_fixed_policy,
    run_warmup,
    sample_perturbation,
)
from alqr.lqr import SystemModel, solve_dare, stability_certificate
from alqr.schedules import build_schedule, warmup_duration


def scalar_warmup_setup(eps=1.0):
    m = SystemModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                    sigma_w=1.0, theta_bound=1.2)
    K0 = np.array([[-0.25]])
    cert0 = stability_certificate(m, K0)
    params = build_schedule(m, cert0=cert0, delta=0.1, phi=1.1,
                            constants_mode="practical")
    return m, K0, params, warmup_duration(eps, params)


class TestRunWarmup:
    def test_degenerate_noiseless(self):
        m = SystemModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=0.0, theta_bound=1.2)
        theta0, rec = run_warmup(m, [[-0.25]], 50, seed=0)
        assert np.all(rec.x == 0.0)
        assert np.all(theta0 == 0.0)
        assert np.all(rec.cost == 0.0)

    def test_fixed_seed_determinism(self):
        m, K0, _, _ = scalar_warmup_setup()
        th1, r1 = run_warmup(m, K0, 200, seed=42)
        th2, r2 = run_warmup(m, K0, 200, seed=42)
        assert np.array_equal(th1, th2)
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.omega, r2.omega)

    def test_requires_stabilizing_gain(self):
        m = bench_2x2()  # rho(A) = 1.05, K = 0 does not stabilize
        from alqr.exceptions import NotStabilizingError
        with pytest.raises(NotStabilizingError):
            run_warmup(m, np.zeros((2, 2)), 10, seed=0)

    def test_monte_carlo_hits_target_neighborhood(self):
        # duration from the warm-up theorem must reach the eps ball in
        # at least a 1-delta fraction of runs (delta = 0.1)
        eps = 1.0
        m, K0, params, T0 = scalar_warmup_setup(eps)
        hits = 0
        for seed in range(200):
            theta0, _ = run_warmup(m, K0, T0, seed=seed)
            if np.linalg.norm(theta0 - m.theta_star) <= eps:
                hits += 1
        assert hits / 200 >= 0.9

    def test_blow_up_aborts_with_diagnostics(self):
        m, K0, _, _ = scalar_warmup_setup()
        with pytest.raises(BlowUpError) as exc:
            run_warmup(m, K0, 10, seed=0, x0=[1e8])
        assert "warm-up" in str(exc.value)
        assert exc.value.diagnostics["t"] == 1
        assert exc.value.diagnostics["x_norm"] > 1e6


class TestSamplePerturbation:
    def test_variance_at_t1(self, bench2x2_params):
        params = replace(bench2x2_params, noise_scale=1.0)
        expect = 2 * params.sigma_w**2 * params.kappa**2
        assert perturbation_variance(1, params) == pytest.approx(expect)

    def test_monte_carlo_moment(self, bench2x2_params):
        params = replace(bench2x2_params, noise_scale=1.0)
        rng = np.random.default_rng(0)
        draws = np.concatenate(
            [sample_perturbation(1, params, rng) for _ in range(50_000)])
        expect = perturbation_variance(1, params)
        assert np.var(draws) == pytest.approx(expect, rel=0.05)

    def test_variance_decay_slope(self, bench2x2_params):
        ts = np.logspace(4, 10, 30)
        vals = np.array([perturbation_variance(int(t), bench2x2_params) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert -0.5 < slope < -0.40

    def test_time_domain(self, bench2x2_params):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_perturbation(0, bench2x2_params, rng)

    def test_steps_draw_like_one_call_per_step(self, bench2x2_params):
        steps = np.arange(1, 301)
        rows = sample_perturbation(steps, bench2x2_params, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        one_by_one = [sample_perturbation(int(t), bench2x2_params, rng) for t in steps]
        assert rows.shape == (300, bench2x2_params.m)
        assert np.array_equal(rows, np.array(one_by_one))
        with pytest.raises(ConfigurationError):
            sample_perturbation(np.arange(0, 5), bench2x2_params, rng)


class TestRunAslo:
    def test_degenerate_sanity(self):
        m1 = SystemModel(A=[[0.5, 0.1], [0.0, 0.4]], B=np.eye(2),
                         Q=np.eye(2), R=np.eye(2), sigma_w=1.0)
        params = replace(build_schedule(m1, nu=50.0, constants_mode="practical"),
                         sigma_w=0.0)
        m0 = SystemModel(A=m1.A, B=m1.B, Q=m1.Q, R=m1.R, sigma_w=0.0,
                         theta_bound=m1.theta_bound)
        rec, hist, ledger = run_aslo(m0, m0.theta_star, 0.0, T=40, params=params,
                                     seed=0, mu_override=0.0)
        assert np.all(rec.u == 0.0)
        assert np.all(rec.cost == 0.0)
        assert np.all(rec.x == 0.0)

    def test_fixed_seed_determinism(self, bench2x2, bench2x2_params, bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        r1, h1, l1 = run_aslo(bench2x2, theta0, eps, T=300, params=bench2x2_params, seed=7)
        r2, h2, l2 = run_aslo(bench2x2, theta0, eps, T=300, params=bench2x2_params, seed=7)
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.logdet_V, r2.logdet_V)
        assert np.array_equal(l1.R, l2.R)
        assert len(h1) == len(h2)

    def test_policy_constant_between_updates(self, bench2x2, bench2x2_params,
                                             bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, hist, _ = run_aslo(bench2x2, theta0, eps, T=400,
                                params=bench2x2_params, seed=3)
        switches = np.flatnonzero(np.diff(rec.policy_id)) + 1
        update_steps = {p.tau - 1 for p in hist}
        assert set(switches.tolist()) <= update_steps

    def test_cost_recomputes_from_stored_arrays(self, bench2x2, bench2x2_params,
                                                bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, _, _ = run_aslo(bench2x2, theta0, eps, T=200,
                             params=bench2x2_params, seed=5)
        c = np.einsum("ti,ij,tj->t", rec.x[:-1], bench2x2.Q, rec.x[:-1]) \
            + np.einsum("ti,ij,tj->t", rec.u, bench2x2.R, rec.u)
        assert np.max(np.abs(c - rec.cost)) <= 1e-12

    def test_replay_invariant(self, bench2x2, bench2x2_params, bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, _, _ = run_aslo(bench2x2, theta0, eps, T=150,
                             params=bench2x2_params, seed=11)
        assert np.array_equal(replay_states(rec, bench2x2), rec.x)

    def test_blow_up_aborts_with_diagnostics(self, bench2x2, bench2x2_params,
                                             bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        with pytest.raises(BlowUpError) as exc:
            run_aslo(bench2x2, theta0, eps, T=100, params=bench2x2_params,
                     seed=0, x0=[2e6, 0.0])
        assert "x_norm" in exc.value.diagnostics

    def test_synthesis_failure_keeps_previous_policy(self, bench2x2, bench2x2_params,
                                                     bench2x2_anchor, monkeypatch):
        theta0, eps = bench2x2_anchor
        real = synthesis.synthesize_policy
        real_lambda = schedules.lambda_t
        steps, calls = [], []

        def lambda_t(t, params):
            steps.append(t)  # run_aslo evaluates lambda_t once per step
            return real_lambda(t, params)

        def fail_once(*args, **kwargs):
            # the first firing from t = 50 on fails; early epochs fire every step
            calls.append(steps[-1])
            if steps[-1] >= 50 and sum(c >= 50 for c in calls) == 1:
                raise SynthesisError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(schedules, "lambda_t", lambda_t)
        monkeypatch.setattr(synthesis, "synthesize_policy", fail_once)
        rec, hist, _ = run_aslo(bench2x2, theta0, eps, T=400,
                                params=bench2x2_params, seed=3)
        k = sum(c < 50 for c in calls)
        assert len(calls) >= k + 2
        t_fail, t_next = calls[k], calls[k + 1]
        assert rec.diagnostics["synthesis_failures"] == 1
        assert [p.tau for p in hist[:k + 1]] == calls[:k] + [t_next]
        # the previous gain stays in force from the failure until the next firing
        prev = hist[k - 1]
        s = np.arange(t_fail - 1, t_next - 1)
        assert np.all(rec.policy_id[s] == prev.epoch_index)
        assert np.allclose(rec.u[s] - rec.eta[s], rec.x[s] @ prev.K.T, rtol=0, atol=1e-9)
        # the epoch clock restarts at the failure step: the next firing is the
        # first step whose log det V clears the failure step's by log(1+beta)
        limit = rec.logdet_V[t_fail - 1] + math.log1p(bench2x2_params.beta)
        assert t_next == t_fail + 1 + int(np.argmax(rec.logdet_V[t_fail:] > limit))
        assert t_next > t_fail + 1  # timed from the last success it would fire at once

    def test_riccati_declines_counted(self, bench2x2, bench2x2_params,
                                      bench2x2_anchor, monkeypatch, caplog):
        real = synthesis.solve_relaxed_riccati
        calls = []

        def decline_after_first(*args):
            calls.append(args)
            if len(calls) > 1:
                raise CertificateError("declined for the test")
            return real(*args)

        monkeypatch.setattr(synthesis, "solve_relaxed_riccati", decline_after_first)
        theta0, eps = bench2x2_anchor
        with caplog.at_level(logging.WARNING, logger="alqr.loops"):
            rec, hist, _ = run_aslo(bench2x2, theta0, eps, T=20,
                                    params=bench2x2_params, seed=2)
        assert len(calls) >= 2
        assert rec.diagnostics["synthesis_failures"] == len(calls) - 1
        assert len(hist) == 1 and hist[0].tau == 1
        assert np.all(rec.policy_id == 0)
        assert np.allclose(rec.u - rec.eta, rec.x[:-1] @ hist[0].K.T, rtol=0, atol=1e-9)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == len(calls) - 1
        assert all("Riccati path declined: CertificateError: declined for the test" in msg
                   for msg in messages)

    def test_no_blowup_over_fifty_seeds(self, bench2x2, bench2x2_params,
                                        bench2x2_anchor, p5_runs):
        # default practical scaling keeps the benchmark stable over T = 1e4;
        # seeds 0..19 come from the shared batch, 20..49 run fresh here
        theta0, eps = bench2x2_anchor
        worst = max(rec.max_state_norm() for rec, _, _ in p5_runs)
        for seed in range(20, 50):
            rec, _, _ = run_aslo(bench2x2, theta0, eps, T=10_000,
                                 params=bench2x2_params, seed=seed)
            worst = max(worst, rec.max_state_norm())
        assert worst <= 1e3


def per_step_rollout(model, K, T, seed, params, x0=None):
    """The fixed-gain closed loop on the runners' streams, one step at a time."""
    omega_rng, eta_rng, _ = _streams(seed)
    eta = sample_perturbation(np.arange(1, T + 1), params, eta_rng)
    omega = model.sigma_w * omega_rng.standard_normal((T, model.n))
    x = np.zeros((T + 1, model.n))
    if x0 is not None:
        x[0] = x0
    u = np.zeros((T, model.m))
    for s in range(T):
        u[s] = K @ x[s] + eta[s]
        x[s + 1] = model.A @ x[s] + model.B @ u[s] + omega[s]
    return x, u


class TestRunFixedPolicy:
    def test_blow_up_on_unstable_loop(self, bench2x2, bench2x2_params):
        K, x0 = np.zeros((2, 2)), [50.0, 50.0]
        with pytest.raises(BlowUpError) as exc:
            run_fixed_policy(bench2x2, K, 2000, seed=0,
                             params=bench2x2_params, x0=x0)
        # the first step past the runaway threshold, found one step at a time
        x, _ = per_step_rollout(bench2x2, K, 2000, 0, bench2x2_params, x0=x0)
        norms = [float(np.linalg.norm(v)) for v in x[1:]]
        t = next(s + 1 for s, v in enumerate(norms) if v > 1e6)
        assert "fixed-policy" in str(exc.value)
        assert exc.value.diagnostics == {"t": t, "x_norm": norms[t - 1]}

    def test_ingests_every_step(self, bench2x2, bench2x2_params, bench2x2_gain):
        cost, est, _ = run_fixed_policy(bench2x2, bench2x2_gain, 64, seed=0,
                                        params=bench2x2_params)
        assert est.t == 64
        assert cost.shape == (64,)


def per_step_costs(model, x, u):
    return [float(x[s] @ model.Q @ x[s] + u[s] @ model.R @ u[s]) for s in range(len(u))]


class TestComputedAfterTheLoop:
    """Log-dets and stage costs are computed from the record after each
    runner's loop; they equal the per-step formulas bit for bit."""

    def test_warmup_logdets_equal_per_step_recomputation(self, bench2x2,
                                                         bench2x2_gain):
        theta0, rec = run_warmup(bench2x2, bench2x2_gain, 2500, seed=3)
        rho = bench2x2.sigma_w**2 / bench2x2.theta_bound**2
        est = EstimatorState(dim_z=bench2x2.n + bench2x2.m, dim_x=bench2x2.n)
        expect = []
        for s in range(rec.T):
            ingest(est, np.concatenate([rec.x[s], rec.u[s]]), rec.x[s + 1])
            expect.append(logdet_pd(est.covariance(rho)))
        assert np.array_equal(rec.logdet_V, expect)
        assert np.array_equal(theta0, estimate(est, rho))

    def test_warmup_and_aslo_costs(self, bench2x2, bench2x2_gain, bench2x2_params,
                                   bench2x2_anchor):
        _, wrec = run_warmup(bench2x2, bench2x2_gain, 1500, seed=1)
        theta0, eps = bench2x2_anchor
        arec, _, _ = run_aslo(bench2x2, theta0, eps, T=1500,
                              params=bench2x2_params, seed=1)
        for rec in (wrec, arec):
            assert np.array_equal(rec.cost, per_step_costs(bench2x2, rec.x, rec.u))

    def test_fixed_policy_costs(self, bench2x2, bench2x2_gain, bench2x2_params,
                                bench2x2_anchor, monkeypatch):
        T, model, K, params = 1500, bench2x2, bench2x2_gain, bench2x2_params
        theta0, eps = bench2x2_anchor
        seen = []  # the run's moments at each containment check
        holds_truth = loops._holds_truth

        def spy(est, *args):
            seen.append((est.t, est.gram.copy(), est.cross.copy()))
            return holds_truth(est, *args)

        monkeypatch.setattr(loops, "_holds_truth", spy)
        # a duplicate, T itself and one past T
        cost, est, containment = run_fixed_policy(
            model, K, T, seed=2, params=params, anchor=(theta0, eps),
            checkpoints=(1000, 500, 500, T, T + 100))
        # the same closed loop on the same streams, one step at a time
        x, u = per_step_rollout(model, K, T, 2, params)
        replay = EstimatorState(dim_z=model.n + model.m, dim_x=model.n,
                                anchor=theta0, anchor_error=eps)
        expect = []
        for s in range(T):
            ingest(replay, np.concatenate([x[s], u[s]]), x[s + 1])
            t = s + 1
            if t in (500, 1000, T):
                ell = ellipsoid(replay, params.delta, schedules.lambda_t(t, params),
                                model.sigma_w, "anchored", eps=eps)
                expect.append((t, replay.gram.copy(), replay.cross.copy(),
                               ellipsoid_contains(ell, model.theta_star)))
        assert containment == [(t, ok) for t, _, _, ok in expect]
        assert len(seen) == len(expect)
        for (t, gram, cross), (t_replay, gram_replay, cross_replay, _) in zip(seen, expect):
            assert t == t_replay
            assert np.array_equal(gram, gram_replay)
            assert np.array_equal(cross, cross_replay)
        assert est.t == replay.t == T
        assert np.array_equal(est.gram, replay.gram)
        assert np.array_equal(est.cross, replay.cross)
        assert np.array_equal(cost, per_step_costs(model, x, u))


class TestRunDoubling:
    def test_segment_boundaries_geometric(self, bench2x2, bench2x2_params,
                                          bench2x2_gain):
        rec = run_doubling(bench2x2, bench2x2_gain, base_horizon=32,
                           total_T=32 * (2**4 - 1), params=bench2x2_params, seed=0)
        bounds = rec.diagnostics["segment_bounds"]
        cumulative = [32 * (2**k - 1) for k in range(1, 5)]
        # warm-up and control sub-records both appear; segment ends must match
        assert set(cumulative) <= set(bounds)
        assert rec.T == 32 * (2**4 - 1)

    def test_segments_draw_independent_noise(self, bench2x2, bench2x2_params,
                                             bench2x2_gain):
        rec = run_doubling(bench2x2, bench2x2_gain, 16, 16 * 7,
                           params=bench2x2_params, seed=4)
        starts = [0] + rec.diagnostics["segment_bounds"][:-1]
        assert len(starts) == 6  # three warm-up and three ASLO segments
        first = {tuple(w) for w in rec.omega[starts]}
        assert len(first) == len(starts)

    def test_fixed_seed_determinism(self, bench2x2, bench2x2_params, bench2x2_gain):
        r1 = run_doubling(bench2x2, bench2x2_gain, 16, 100,
                          params=bench2x2_params, seed=9)
        r2 = run_doubling(bench2x2, bench2x2_gain, 16, 100,
                          params=bench2x2_params, seed=9)
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.cost, r2.cost)

    def test_comparable_against_aslo(self, bench2x2, bench2x2_params,
                                     bench2x2_gain, bench2x2_anchor):
        # comparative report only; no ordering asserted
        J = solve_dare(bench2x2).J_star
        rec_d = run_doubling(bench2x2, bench2x2_gain, 32, 300,
                             params=bench2x2_params, seed=1)
        theta0, eps = bench2x2_anchor
        rec_a, _, _ = run_aslo(bench2x2, theta0, eps, T=300,
                               params=bench2x2_params, seed=1)
        reg_d = float(np.sum(rec_d.cost) - 300 * J)
        reg_a = float(np.sum(rec_a.cost) - 300 * J)
        assert math.isfinite(reg_d) and math.isfinite(reg_a)
