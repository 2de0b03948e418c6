import logging
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from alqr import estimation, harness, loops, regret, schedules, synthesis
from alqr.benchmarks import bench_2x2, bench_3x2, perturbed_gain, scalar_golden
from alqr.exceptions import BlowUpError, CertificateError, ConfigurationError, SynthesisError
from alqr.estimation import (
    EstimatorState,
    confidence_radius,
    covariance_blocks,
    ellipsoid,
    ellipsoid_contains,
    estimate,
    ingest,
)
from alqr.linalg import logdet_pd, nuclear_norm, spectral_norm
from alqr.loops import (
    _streams,
    perturbation_variance,
    run_aslo,
    run_fixed_policy,
    run_segments,
    run_warmup,
    sample_perturbation,
)
from alqr.lqr import SystemModel, solve_dare, stability_certificate
from alqr.schedules import build_schedule, warmup_duration
from test_synthesis import PLANT_SHAPES, random_stable_model


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

    def test_replay_invariant(self, bench2x2, bench2x2_gain):
        _, rec = run_warmup(bench2x2, np.asfortranarray(bench2x2_gain), 700, seed=4,
                            x0=[2.0, -1.0])
        assert_replays(bench2x2, [(0, bench2x2_gain)], rec.x, rec.u, rec.eta, rec.omega)

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

    @pytest.mark.parametrize("phi, noise_scale", [
        (1.0, 1.0), (1.1, 1.0), (1.5, 0.3), (2.0, 1.7), (3.3, 1e-3)])
    def test_array_of_steps_equals_per_step(self, bench2x2_params, phi, noise_scale):
        params = replace(bench2x2_params, phi=phi, noise_scale=noise_scale)
        steps = np.arange(1, 100_001)
        per_step = [math.sqrt(perturbation_variance(t, params)) for t in steps.tolist()]
        assert np.array_equal(np.sqrt(perturbation_variance(steps, params)), per_step)
        # the scalar path keeps the bits of the formula written out per step
        for t in (1, 2, 7, 1000, 99_999):
            assert perturbation_variance(t, params) == (
                2.0 * params.sigma_w**2 * params.kappa**2
                * schedules.p_bar(t, params.delta, params.phi) / math.sqrt(t)
                * params.noise_scale)
            assert schedules.p_bar(t, params.delta, params.phi) == float(
                (math.log(t / params.delta) / math.log(1.0 / params.delta)) ** params.phi)

    def test_steps_draw_like_one_call_per_step(self, bench2x2_params):
        steps = np.arange(1, 301)
        rows = sample_perturbation(steps, bench2x2_params, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        one_by_one = [sample_perturbation(int(t), bench2x2_params, rng) for t in steps]
        assert rows.shape == (300, bench2x2_params.m)
        assert np.array_equal(rows, np.array(one_by_one))
        with pytest.raises(ConfigurationError):
            sample_perturbation(np.arange(0, 5), bench2x2_params, rng)


def subblock_powers(model, K):
    """(K, M, Phi, Gamma, L_ok) of a gain as the kernel forms them: K in C
    order, M = A + B K, Phi = [M; ...; M^L] and the block-lower-Toeplitz
    Gamma of M^0..M^(L-1), L = ``loops._SUB``, the powers by stacked doubling
    (M^(h+j) = M^j M^h for j = 1..h), and L_ok, the number of leading rows of
    a sub-block whose powers are all finite."""
    K = np.ascontiguousarray(K)
    M = model.A + model.B @ K
    L, n = loops._SUB, model.n
    P = [np.eye(n), M]  # P[k] = M^k
    with np.errstate(over="ignore", invalid="ignore"):
        while len(P) <= L:
            h = len(P) - 1
            P += [P[j] @ P[h] for j in range(1, h + 1)]
    L_ok = next((k - 1 for k in range(1, L + 1) if not np.all(np.isfinite(P[k]))), L)
    Gamma = np.block([[P[i - j] if i >= j else np.zeros((n, n)) for j in range(L)]
                      for i in range(L)])
    return K, M, np.vstack(P[1:L + 1]), Gamma, L_ok


def closed_loop_rows(model, K, s, eta, omega):
    """The anchored sub-block reference of the closed loop: (u, x) for the
    len(eta) steps after the anchor state s, with u = K x + eta.

    Each sub-block of L rows is written with ``@`` as Phi @ s + Gamma @ D_b,
    D_b being its drives B @ eta + omega, zero-padded to L rows past the
    end, and s the last row of the sub-block before.  A non-finite drive
    enters the product as zero, and the rows of its sub-block from it on,
    like those from L_ok on, step x' = M @ x + d one at a time.
    """
    K, M, Phi, Gamma, L_ok = subblock_powers(model, K)
    L, n, T = loops._SUB, model.n, len(eta)
    drives = [model.B @ e + w for e, w in zip(eta, omega)]
    x = [np.asarray(s, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(0, T, L):
            D = np.zeros((L, n))
            D[:min(L, T - p)] = drives[p:p + L]
            ok = np.isfinite(D).all(axis=1)
            rows = (Phi @ x[p] + Gamma @ np.where(ok[:, None], D, 0.0).ravel()).reshape(L, n)
            for i in range(min([L_ok] + np.flatnonzero(~ok).tolist()), L):
                rows[i] = M @ (rows[i - 1] if i else x[p]) + D[i]
            x.extend(rows[:T - p])
        u = [K @ xs + e for xs, e in zip(x, eta)]
    return np.reshape(u, (T, model.m)), np.reshape(x[1:], (T, n))


def policy_segments(rec, history):
    """(row, K) where each policy of an ASLO run takes over: its sub-blocks'
    origin."""
    starts = np.flatnonzero(np.diff(rec.policy_id, prepend=-1))
    return [(int(s), history[rec.policy_id[s]].K) for s in starts]


def assert_replays(model, segments, x, u, eta, omega):
    """x and u have the bits of the anchored reference from x[0], each gain
    rolled out from the row where it takes over (``segments``, (row, K) in
    order) with the stored perturbation and noise."""
    x_ref, u_ref = np.empty_like(x), np.empty_like(u)
    x_ref[0] = x[0]
    ends = [row for row, _ in segments[1:]] + [len(u)]
    for (lo, K), hi in zip(segments, ends):
        u_ref[lo:hi], x_ref[lo + 1:hi + 1] = closed_loop_rows(
            model, K, x_ref[lo], eta[lo:hi], omega[lo:hi])
    assert np.array_equal(x_ref, x)
    assert np.array_equal(u_ref, u)


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
        rec, hist, _ = run_aslo(bench2x2, theta0, eps, T=600,
                                params=bench2x2_params, seed=11)
        assert len(hist) > 3  # the replay crosses epochs
        assert_replays(bench2x2, policy_segments(rec, hist),
                       rec.x, rec.u, rec.eta, rec.omega)

    def test_blow_up_aborts_with_diagnostics(self, bench2x2, bench2x2_params,
                                             bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        with pytest.raises(BlowUpError) as exc:
            run_aslo(bench2x2, theta0, eps, T=100, params=bench2x2_params,
                     seed=0, x0=[2e6, 0.0])
        assert "x_norm" in exc.value.diagnostics

    def test_decline_at_first_firing_aborts(self, bench2x2, bench2x2_params,
                                            bench2x2_anchor, monkeypatch):
        # with no policy in force there is nothing to keep: the decline propagates
        def decline(*args, **kwargs):
            raise SynthesisError("injected failure")

        monkeypatch.setattr(synthesis, "synthesize_policy", decline)
        theta0, eps = bench2x2_anchor
        with pytest.raises(SynthesisError, match="injected failure"):
            run_aslo(bench2x2, theta0, eps, T=20, params=bench2x2_params, seed=0)

    def test_synthesis_failure_keeps_previous_policy(self, bench2x2, bench2x2_params,
                                                     bench2x2_anchor, monkeypatch):
        theta0, eps = bench2x2_anchor
        real = synthesis.synthesize_policy
        real_estimate = estimation.estimate
        steps, calls = [], []

        def estimate(est, lam):
            # a firing at step t estimates Theta from the est.t = t - 1 rows
            # ingested before it, just before its synthesis
            steps.append(est.t + 1)
            return real_estimate(est, lam)

        def fail_once(*args, **kwargs):
            # the first firing from t = 50 on fails; early epochs fire every step
            calls.append(steps[-1])
            if steps[-1] >= 50 and sum(c >= 50 for c in calls) == 1:
                raise SynthesisError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(estimation, "estimate", estimate)
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
    """The fixed-gain closed loop on the runners' streams, from the reference
    anchored at row 0."""
    omega_rng, eta_rng, _ = _streams(seed)
    eta = sample_perturbation(np.arange(1, T + 1), params, eta_rng)
    omega = model.sigma_w * omega_rng.standard_normal((T, model.n))
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    u, rows = closed_loop_rows(model, K, x0, eta, omega)
    return np.vstack([x0, rows]), u


def per_step_kernel(model, K, x, u, eta, omega, runner, origin, lo, hi):
    """``_rollout`` from ``closed_loop_rows``: the rows from the anchor of
    lo's sub-block, written and tested for a runaway one step at a time."""
    p = lo - (lo - origin) % loops._SUB
    us, xs = closed_loop_rows(model, K, x[p], eta[p:hi], omega[p:hi])
    for s in range(lo, hi):
        u[s], x[s + 1] = us[s - p], xs[s - p]
        x_norm = float(np.linalg.norm(x[s + 1]))
        if x_norm > loops.BLOWUP_NORM:
            raise BlowUpError(f"{runner} state blow-up",
                              diagnostics={"t": s + 1, "x_norm": x_norm})


def rollout_plants():
    """scalar-golden, bench-2x2, bench-3x2 and the seeded random stable plant
    of each (n, m) with n + m <= 5 (``TestRiccatiOracle``'s generator)."""
    named = [("scalar_golden", scalar_golden), ("bench_2x2", bench_2x2),
             ("bench_3x2", bench_3x2)]
    shaped = [(f"random_{n}x{m}", lambda n=n, m=m: random_stable_model(
        np.random.default_rng(10 * n + m), n, m)) for n, m in PLANT_SHAPES]
    return [pytest.param(make, id=name) for name, make in named + shaped]


class TestRollout:
    """The rollout kernel writes the bits of the anchored sub-block reference
    (``closed_loop_rows``), with the gain in C order, into its segment's rows
    and nothing else: both layouts of a gain give the same bits.  The first
    cases roll a segment out from its origin; the later ones run the DARE
    gain of every plant from origin 0."""

    SENTINEL = -7.25

    @staticmethod
    def arrays(model, lo, hi, x0, seed):
        rng = np.random.default_rng(seed)
        T = hi + 3  # rows after the segment; lo > 0 leaves rows before it
        x = np.full((T + 1, model.n), TestRollout.SENTINEL)
        x[lo] = x0
        u = np.full((T, model.m), TestRollout.SENTINEL)
        eta = rng.standard_normal((T, model.m))
        omega = model.sigma_w * rng.standard_normal((T, model.n))
        return x, u, eta, omega

    @staticmethod
    def gain(model, order, seed):
        # the DARE gain with full-precision entries: @ gives different bits
        # for its F-ordered and C-ordered copies on some steps, so the F case
        # shows that the kernel takes the C-ordered gain's
        K = solve_dare(model).K_star + 1e-3 * np.random.default_rng(seed).standard_normal(
            (model.m, model.n))
        return np.asfortranarray(K) if order == "F" else np.ascontiguousarray(K)

    @pytest.mark.parametrize("make", [scalar_golden, bench_2x2, bench_3x2])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lo, size", [(5, 1), (9, 2), (3, 256)])
    def test_segment_equals_per_step_formula(self, make, order, lo, size):
        model = make()
        hi = lo + size
        K = self.gain(model, order, seed=lo)
        x0 = np.random.default_rng(size).standard_normal(model.n)
        x, u, eta, omega = self.arrays(model, lo, hi, x0, seed=size)
        x_ref, u_ref = x.copy(), u.copy()
        loops._rollout(loops._Plan(model, K), x, u, eta, omega, "test", lo, lo, hi)
        per_step_kernel(model, K, x_ref, u_ref, eta, omega, "test", lo, lo, hi)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(u, u_ref)
        # only u[lo:hi] and x[lo+1:hi+1] are written
        assert np.all(x[:lo] == self.SENTINEL) and np.all(x[hi + 1:] == self.SENTINEL)
        assert np.all(u[:lo] == self.SENTINEL) and np.all(u[hi:] == self.SENTINEL)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blow_up_on_first_row_mid_array(self, bench2x2, order):
        lo, hi = 7, 7 + 256
        K = self.gain(bench2x2, order, seed=0)
        x, u, eta, omega = self.arrays(bench2x2, lo, hi, [3e6, -1e6], seed=1)
        x_ref, u_ref = x.copy(), u.copy()
        with pytest.raises(BlowUpError) as exc:
            loops._rollout(loops._Plan(bench2x2, K), x, u, eta, omega, "fixed-policy",
                           lo, lo, hi)
        with pytest.raises(BlowUpError) as ref:
            per_step_kernel(bench2x2, K, x_ref, u_ref, eta, omega, "fixed-policy",
                            lo, lo, hi)
        assert str(exc.value) == str(ref.value) == "fixed-policy state blow-up"
        assert exc.value.diagnostics == ref.value.diagnostics
        assert exc.value.diagnostics["t"] == lo + 1
        assert np.array_equal(x, x_ref) and np.array_equal(u, u_ref)
        assert np.all(x[lo + 2:] == self.SENTINEL) and np.all(u[lo + 1:] == self.SENTINEL)

    # kicks of the process noise at steps lo + offset, as (offset, omega row):
    # a runaway at the last row of the first chunk, at the first row of the
    # second, and one that the rows rolled after it carry past the largest float
    KICKS = {
        "last-of-chunk": [(loops._BLOCK - 1, [3e6, 0.0])],
        "first-of-next": [(loops._BLOCK, [0.0, -2e6])],
        "overflow": [(40, [2e6, 0.0]), (41, [1.5e308, 1.5e308]), (42, [1.5e308, 1.5e308])],
    }

    @pytest.mark.parametrize("make", [scalar_golden, bench_2x2, bench_3x2])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", sorted(KICKS))
    def test_blow_up_across_chunks(self, make, order, case):
        model = make()
        lo, hi = 5, 5 + 2 * loops._BLOCK + 88
        K = self.gain(model, order, seed=2)
        x, u, eta, omega = self.arrays(model, lo, hi, np.ones(model.n), seed=4)
        for offset, kick in self.KICKS[case]:
            # the scalar plant takes the kick's largest entry
            omega[lo + offset, :2] = kick if model.n > 1 else max(kick, key=abs)
        first = lo + self.KICKS[case][0][0]
        if case == "overflow":  # the rows rolled past the runaway do overflow
            _, xs = closed_loop_rows(model, K, x[lo], eta[lo:first + 3], omega[lo:first + 3])
            assert not np.all(np.isfinite(xs[-1]))
        x_ref, u_ref = x.copy(), u.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as exc:
                loops._rollout(loops._Plan(model, K), x, u, eta, omega, "ASLO", lo, lo, hi)
        with pytest.raises(BlowUpError) as ref:
            per_step_kernel(model, K, x_ref, u_ref, eta, omega, "ASLO", lo, lo, hi)
        assert exc.value.diagnostics == ref.value.diagnostics
        assert exc.value.diagnostics["t"] == first + 1
        assert np.array_equal(x, x_ref) and np.array_equal(u, u_ref)
        # the rows rolled past the runaway hold what they held before
        assert np.all(x[first + 2:] == self.SENTINEL) and np.all(u[first + 1:] == self.SENTINEL)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_near_threshold_and_nan_states_pass(self, order):
        # a row the stacked norm flags but the exact test passes, then nan rows
        model = bench_2x2()
        lo, hi = 3, 3 + loops._BLOCK + 20
        K = self.gain(model, order, seed=5)
        x, u, eta, omega = self.arrays(model, lo, hi, np.zeros(model.n), seed=6)
        omega[lo + 10] = [9e5, 0.0]
        omega[lo + 200] = [np.nan, 0.0]
        x_ref, u_ref = x.copy(), u.copy()
        loops._rollout(loops._Plan(model, K), x, u, eta, omega, "test", lo, lo, hi)
        per_step_kernel(model, K, x_ref, u_ref, eta, omega, "test", lo, lo, hi)
        assert 0.5 * loops.BLOWUP_NORM**2 < x[lo + 11].dot(x[lo + 11]) <= loops.BLOWUP_NORM**2
        assert np.isnan(x[lo + 201, 0]) and np.all(np.isnan(x[lo + 202:hi + 1]))
        assert np.array_equal(x, x_ref, equal_nan=True)
        assert np.array_equal(u, u_ref, equal_nan=True)

    # the sub-block kernel on every plant: its rows do not depend on how a
    # rollout is split into calls, the first row of each sub-block keeps the
    # per-step bits, the error stays at a few ulps over a long horizon, and
    # neither a non-finite drive nor an overflowing power turns the rows
    # before it into nan
    @staticmethod
    def plant_arrays(make, T, seed=0):
        model = make()
        rng = np.random.default_rng(seed)
        K = np.ascontiguousarray(solve_dare(model).K_star)
        x = np.zeros((T + 1, model.n))
        x[0] = rng.standard_normal(model.n)
        eta = rng.standard_normal((T, model.m))
        omega = model.sigma_w * rng.standard_normal((T, model.n))
        return model, K, x, np.zeros((T, model.m)), eta, omega

    @staticmethod
    def roll(model, K, x, u, eta, omega, cuts):
        """The rollout over consecutive calls [cuts[i], cuts[i+1]), origin 0;
        (x, u) or the BlowUpError's diagnostics."""
        plan = loops._Plan(model, K)
        try:
            for lo, hi in zip(cuts, cuts[1:]):
                loops._rollout(plan, x, u, eta, omega, "test", 0, lo, hi)
        except BlowUpError as exc:
            return exc.diagnostics
        return x, u

    @pytest.mark.parametrize("make", rollout_plants())
    def test_partition_invariance(self, make):
        T = 1000
        model, K, x, u, eta, omega = self.plant_arrays(make, T)
        x_one, u_one = self.roll(model, K, x.copy(), u.copy(), eta, omega, [0, T])
        u_ref, x_ref = closed_loop_rows(model, K, x[0], eta, omega)
        assert np.array_equal(x_one[1:], x_ref) and np.array_equal(u_one, u_ref)
        rng = np.random.default_rng(1)
        for _ in range(4):
            # one-row calls at an anchor and inside a sub-block among random cuts
            cuts = sorted({0, 32, 33, 34, 64, 65, T} | set(rng.integers(1, T, 40).tolist()))
            x_cut, u_cut = self.roll(model, K, x.copy(), u.copy(), eta, omega, cuts)
            assert np.array_equal(x_cut, x_one) and np.array_equal(u_cut, u_one)

    @pytest.mark.parametrize("make", rollout_plants())
    def test_first_row_of_each_sub_block_has_per_step_bits(self, make):
        T = 600
        model, K, x, u, eta, omega = self.plant_arrays(make, T, seed=2)
        x, u = self.roll(model, K, x, u, eta, omega, [0, T])
        M = model.A + model.B @ K
        for p in range(0, T, loops._SUB):
            assert np.array_equal(x[p + 1], M @ x[p] + (model.B @ eta[p] + omega[p]))
            assert np.array_equal(u[p], K @ x[p] + eta[p])

    @pytest.mark.parametrize("make", rollout_plants())
    def test_error_against_long_double_recursion(self, make):
        T = 20_000
        model, K, x, u, eta, omega = self.plant_arrays(make, T, seed=3)
        x, _ = self.roll(model, K, x, u, eta, omega, [0, T])
        A, B = (np.asarray(a, dtype=np.longdouble) for a in (model.A, model.B))
        M = A + B @ np.asarray(K, dtype=np.longdouble)
        drives = eta.astype(np.longdouble) @ B.T + omega
        exact = np.empty((T + 1, model.n), dtype=np.longdouble)
        exact[0] = x[0]
        for s in range(T):
            exact[s + 1] = M @ exact[s] + drives[s]
        err = float(np.max(np.abs(x - exact)))
        assert err <= 64 * np.finfo(float).eps * float(np.max(np.abs(x)))

    @pytest.mark.parametrize("make", rollout_plants())
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("j", [64, 64 + 17])
    def test_non_finite_drive_leaves_earlier_rows(self, make, bad, j):
        T = 200
        model, K, x, u, eta, omega = self.plant_arrays(make, T, seed=4)
        x_ok, u_ok = self.roll(model, K, x.copy(), u.copy(), eta, omega, [0, T])
        omega[j, 0] = bad
        x_bad, u_bad = x.copy(), u.copy()
        out = self.roll(model, K, x_bad, u_bad, eta, omega, [0, T])
        # the rows before the drive have the bits a finite drive gives
        assert np.array_equal(x_bad[:j + 1], x_ok[:j + 1])
        assert np.array_equal(u_bad[:j + 1], u_ok[:j + 1])
        x_ref, u_ref = x.copy(), u.copy()
        try:
            per_step_kernel(model, K, x_ref, u_ref, eta, omega, "test", 0, 0, T)
            ref = x_ref, u_ref
        except BlowUpError as exc:
            ref = exc.diagnostics
        if isinstance(out, dict):  # an infinite drive runs away at once
            assert out == ref and out["t"] == j + 1
        assert np.array_equal(x_bad, x_ref, equal_nan=True)
        assert np.array_equal(u_bad, u_ref, equal_nan=True)

    def test_overflowing_powers_keep_finite_states(self):
        # |M| ~ 1e12, so M^26 overflows within a sub-block of 32 rows
        model = SystemModel(A=1e12 * np.array([[1.0, 0.5], [-0.2, 1.0]]), B=np.eye(2),
                            Q=np.eye(2), R=np.eye(2), sigma_w=1.0)
        K, T = np.zeros((2, 2)), 300
        assert loops._Plan(model, K).powers[2] == 25
        x, u = np.zeros((T + 1, 2)), np.zeros((T, 2))
        zeros = np.zeros((T, 2))
        x, u = self.roll(model, K, x, u, zeros, zeros, [0, 7, T])
        assert np.all(x == 0.0) and np.all(u == 0.0)
        # a tiny kick runs away at the step where x' = M x + d does
        omega = zeros.copy()
        omega[40, 1] = 1e-290
        out = self.roll(model, K, np.zeros((T + 1, 2)), np.zeros((T, 2)), zeros, omega,
                        [0, 50, T])
        xs = np.zeros(2)
        for s in range(T):
            xs = model.A @ xs + omega[s]
            if np.linalg.norm(xs) > loops.BLOWUP_NORM:
                break
        assert out["t"] == s + 1
        x_ref = np.zeros((T + 1, 2))
        with pytest.raises(BlowUpError) as ref:
            per_step_kernel(model, K, x_ref, np.zeros((T, 2)), zeros, omega, "test", 0, 0, T)
        assert out == ref.value.diagnostics

class TestRunnerGuards:
    @pytest.mark.parametrize("run, field", [
        (lambda m, K, p, a: run_warmup(m, K, 0, seed=0), "T0"),
        (lambda m, K, p, a: run_aslo(m, *a, T=0, params=p, seed=0), "T"),
        (lambda m, K, p, a: run_aslo(m, *a, T=10, seed=0, params=replace(
            p, constants_mode="theory", G_phi=math.inf)), "constants_mode"),
        (lambda m, K, p, a: doubling_plan(m, 0, 10, p), "base_horizon"),
    ], ids=["warmup-T0", "aslo-T", "aslo-infinite-G", "doubling-base-horizon"])
    def test_out_of_domain_run_rejected(self, bench2x2, bench2x2_gain, bench2x2_params,
                                        bench2x2_anchor, run, field):
        with pytest.raises(ConfigurationError) as exc:
            run(bench2x2, bench2x2_gain, bench2x2_params, bench2x2_anchor)
        assert exc.value.field == field

    @pytest.mark.parametrize("run", [
        lambda m, K, p, a, x0: run_warmup(m, K, 10, seed=0, x0=x0),
        lambda m, K, p, a, x0: run_aslo(m, *a, T=10, params=p, seed=0, x0=x0),
        lambda m, K, p, a, x0: run_fixed_policy(m, K, 10, seed=0, params=p, x0=x0),
        lambda m, K, p, a, x0: list(run_segments(m, K, doubling_plan(m, 4, 10, p), p, x0)),
    ], ids=["warmup", "aslo", "fixed-policy", "doubling"])
    @pytest.mark.parametrize("x0", [[1.0], [[1.0, 2.0]]], ids=["one-value", "nested"])
    def test_x0_not_one_value_per_state_rejected(self, bench2x2, bench2x2_gain,
                                                 bench2x2_params, bench2x2_anchor, run, x0):
        # numpy would broadcast either into the start state [1, 1] or [1, 2]
        with pytest.raises(ConfigurationError) as exc:
            run(bench2x2, bench2x2_gain, bench2x2_params, bench2x2_anchor, x0)
        assert exc.value.field == "x0"


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

    def test_replay_invariant(self, bench2x2, bench2x2_params, bench2x2_gain,
                              monkeypatch):
        # the runner's own arrays, taken from its rollout calls
        seen, rollout = [], loops._rollout

        def spy(plan, x, u, eta, omega, *args):
            seen.append((x, u, eta, omega))
            return rollout(plan, x, u, eta, omega, *args)

        monkeypatch.setattr(loops, "_rollout", spy)
        run_fixed_policy(bench2x2, bench2x2_gain, 700, seed=5, params=bench2x2_params,
                         x0=[1.0, 3.0], checkpoints=(256, 300))
        assert len(seen) == 3 and all(arrays[0] is seen[0][0] for arrays in seen)
        assert_replays(bench2x2, [(0, bench2x2_gain)], *seen[0])

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

    def test_warmup_moments_equal_ingest(self, monkeypatch):
        # a full-3x2-shaped warm-up over more than two blocks: the Gram taken
        # from the log-det sums and the cross moments equal a plain ingest's
        model = bench_3x2()
        K0 = perturbed_gain(model, 0.2, seed=0)
        seen = []
        real_estimate = estimation.estimate

        def spy(est, lam):
            seen.append(est)
            return real_estimate(est, lam)

        monkeypatch.setattr(estimation, "estimate", spy)
        theta0, rec = run_warmup(model, K0, 700, seed=1879296147)
        (est,) = seen
        replay = EstimatorState(dim_z=model.n + model.m, dim_x=model.n)
        ingest(replay, np.hstack([rec.x[:-1], rec.u]), rec.x[1:])
        assert est.t == replay.t == 700
        assert np.array_equal(est.gram, replay.gram)
        assert np.array_equal(est.cross, replay.cross)

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


def doubling_plan(model, base_horizon, total_T, params, seed=0):
    """The doubling baseline's plan for one seed, as ``harness`` builds it."""
    config = harness.ExperimentConfig(benchmark="bench-2x2", mode="doubling", T=total_T,
                                      base_horizon=base_horizon)
    shared = harness.SharedSetup(model=model, K0=None, params=params, J_star=0.0)
    return harness._segment_plan(config, shared, seed)[0]


def join_records(parts):
    """Records joined end to end as one run: the states after each part's
    first, the policy ids offset past the part before, and the parts' ends
    as ``segment_bounds``."""
    offsets = np.cumsum([0] + [int(p.policy_id.max()) + 1 for p in parts[:-1]])
    cat = {name: np.concatenate([getattr(p, name) for p in parts])
           for name in ("u", "eta", "omega", "cost", "lambda_t", "r_t", "logdet_V",
                        "beta_used", "est_error")}
    return SimpleNamespace(
        **cat, x=np.concatenate([parts[0].x] + [p.x[1:] for p in parts[1:]]),
        policy_id=np.concatenate([p.policy_id + o for p, o in zip(parts, offsets)]),
        T=sum(p.T for p in parts), segment_bounds=np.cumsum([p.T for p in parts]).tolist())


def run_doubling(model, K0, base_horizon, total_T, params, seed, x0=None):
    """The doubling plan through the segment driver, its records joined."""
    plan = doubling_plan(model, base_horizon, total_T, params, seed)
    return join_records([rec for _, rec, _ in run_segments(model, K0, plan, params, x0)])


class TestRunDoubling:
    def test_replay_invariant_across_seams(self, bench2x2, bench2x2_params,
                                           bench2x2_gain, monkeypatch):
        # where each gain takes over: K0 at each warm-up's first row, each
        # ASLO segment's policies where its own policy_id moves to them
        segments, done, warmup, aslo = [], [0], loops.run_warmup, loops.run_aslo

        def warmup_spy(model, K0, T0, **kwargs):
            out = warmup(model, K0, T0, **kwargs)
            segments.append((done[0], K0))
            done[0] += T0
            return out

        def aslo_spy(*args, **kwargs):
            rec, hist, ledger = aslo(*args, **kwargs)
            segments.extend((done[0] + row, K) for row, K in policy_segments(rec, hist))
            done[0] += rec.T
            return rec, hist, ledger

        monkeypatch.setattr(loops, "run_warmup", warmup_spy)
        monkeypatch.setattr(loops, "run_aslo", aslo_spy)
        rec = run_doubling(bench2x2, bench2x2_gain, base_horizon=16, total_T=400,
                           params=bench2x2_params, seed=6, x0=[0.5, -0.5])
        assert len(rec.segment_bounds) > 4  # several seams
        assert done[0] == rec.T
        assert_replays(bench2x2, segments, rec.x, rec.u, rec.eta, rec.omega)

    def test_segment_boundaries_geometric(self, bench2x2, bench2x2_params,
                                          bench2x2_gain):
        rec = run_doubling(bench2x2, bench2x2_gain, base_horizon=32,
                           total_T=32 * (2**4 - 1), params=bench2x2_params, seed=0)
        bounds = rec.segment_bounds
        cumulative = [32 * (2**k - 1) for k in range(1, 5)]
        # warm-up and control sub-records both appear; segment ends must match
        assert set(cumulative) <= set(bounds)
        assert rec.T == 32 * (2**4 - 1)

    def test_segments_draw_independent_noise(self, bench2x2, bench2x2_params,
                                             bench2x2_gain):
        rec = run_doubling(bench2x2, bench2x2_gain, 16, 16 * 7,
                           params=bench2x2_params, seed=4)
        starts = [0] + rec.segment_bounds[:-1]
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

    def test_first_warm_up_starts_at_x0(self, bench2x2, bench2x2_params, bench2x2_gain):
        args = (bench2x2, bench2x2_gain, 16, 100)
        rec = run_doubling(*args, params=bench2x2_params, seed=9, x0=[3.0, -2.0])
        zero = run_doubling(*args, params=bench2x2_params, seed=9)
        assert np.array_equal(rec.x[0], [3.0, -2.0])
        assert np.array_equal(rec.omega, zero.omega)  # the same noise, another start
        assert not np.array_equal(rec.cost, zero.cost)
        with pytest.raises(BlowUpError):
            run_doubling(*args, params=bench2x2_params, seed=9, x0=[5e6, 0.0])

    def test_segments_freeze_lambda_t_at_their_horizon(self, bench2x2, bench2x2_gain):
        # relaxed-sequential's lambda_t carries G* and the log power 1/(1-chi)
        params = build_schedule(bench2x2, cert0=stability_certificate(bench2x2, bench2x2_gain),
                                delta=0.1, constants_mode="practical",
                                criterion="relaxed_sequential", chi=0.1)
        rec = run_doubling(bench2x2, bench2x2_gain, 16, 16 * 7, params=params, seed=4)
        bounds = [0] + rec.segment_bounds
        # warm-up and ASLO parts alternate; segment i spans T_i = 16 * 2**i steps
        aslo_parts = list(zip(bounds[1::2], bounds[2::2]))
        assert len(aslo_parts) == 3
        for i, (lo, hi) in enumerate(aslo_parts):
            assert np.all(rec.lambda_t[lo:hi] == schedules.lambda_t(16 * 2**i, params))



def assert_same_record(a, b):
    for name in ("x", "u", "eta", "omega", "cost", "policy_id", "lambda_t", "r_t",
                 "logdet_V", "beta_used", "est_error"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert a.diagnostics == b.diagnostics


class TestRunSegments:
    """One driver for every mode: each segment on the seed its plan entry
    names, from the state the segment before ended in."""

    def test_one_warmup_segment_is_run_warmup(self, bench2x2, bench2x2_gain, bench2x2_params):
        (kind, rec, (theta, out_rec)), = run_segments(
            bench2x2, bench2x2_gain, [("warmup", 60, 5, {})], bench2x2_params, x0=[0.5, 0.0])
        theta_ref, ref = run_warmup(bench2x2, bench2x2_gain, 60, seed=5, x0=[0.5, 0.0])
        assert kind == "warmup" and rec is out_rec and rec.seed == 5
        assert np.array_equal(theta, theta_ref)
        assert_same_record(rec, ref)

    def test_one_aslo_segment_is_run_aslo(self, bench2x2, bench2x2_gain, bench2x2_params,
                                          bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        plan = [("aslo", 120, 7, {"Theta_0": theta0, "anchor_eps": eps, "checkpoints": [60]})]
        (kind, rec, (out_rec, hist, ledger)), = run_segments(bench2x2, bench2x2_gain, plan,
                                                            bench2x2_params)
        ref, hist_ref, ledger_ref = run_aslo(bench2x2, theta0, eps, T=120,
                                             params=bench2x2_params, seed=7, checkpoints=[60])
        assert kind == "aslo" and rec is out_rec and rec.seed == 7
        assert_same_record(rec, ref)
        assert [p.tau for p in hist] == [p.tau for p in hist_ref]
        assert ledger.terms() == ledger_ref.terms()

    def test_later_segments_start_where_the_last_ended(self, bench2x2, bench2x2_gain,
                                                       bench2x2_params):
        plan = [("warmup", 30, 2, {}), ("aslo", 40, 3, {"anchor_eps": 0.5})]
        (_, wrec, (theta, _)), (_, arec, _) = run_segments(
            bench2x2, bench2x2_gain, plan, bench2x2_params, x0=[1.0, -1.0])
        assert np.array_equal(wrec.x[0], [1.0, -1.0])
        assert np.array_equal(arec.x[0], wrec.x[-1])
        assert (wrec.seed, arec.seed) == (2, 3)
        # the ASLO segment is anchored on the warm-up's estimate
        ref, _, _ = run_aslo(bench2x2, theta, 0.5, T=40, params=bench2x2_params,
                             seed=3, x0=wrec.x[-1])
        assert_same_record(arec, ref)


def per_step_aslo(model, Theta_0, anchor_eps, T, params, seed, x0=None,
                  checkpoints=(), mu_override=None, lambda_override=None):
    """ASLO one step at a time: the criterion, ingest and log det at every
    step, as ``run_aslo`` ran before it rolled out fixed-gain segments.  Each
    step's row is the anchored reference's, its sub-blocks anchored at the
    firing that put the policy in force."""
    n, m = model.n, model.m
    Theta_0 = np.asarray(Theta_0, dtype=float)
    omega_rng, eta_rng, _ = _streams(seed)
    est = EstimatorState(dim_z=n + m, dim_x=n, anchor=Theta_0, anchor_error=anchor_eps)
    x = np.zeros((T + 1, n))
    if x0 is not None:
        x[0] = np.asarray(x0, dtype=float)
    u = np.zeros((T, m))
    eta = sample_perturbation(np.arange(1, T + 1), params, eta_rng)
    omega = model.sigma_w * omega_rng.standard_normal((T, n))
    policy_id = np.zeros(T, dtype=int)
    lam_arr, r_arr, logdet_arr = np.zeros(T), np.zeros(T), np.zeros(T)
    beta_arr, err_arr = np.zeros(T), np.zeros(T)
    history = []
    ledger = regret.RegretLedger(nu=params.nu, sigma_w=model.sigma_w)
    checkpoints = set(int(c) for c in checkpoints)
    containment = []
    failures = 0
    current = None
    beta_in_force = params.beta
    logdet_tau = -math.inf
    block = None  # (anchor, policy, (u, x)) of the sub-block in force
    for s in range(T):
        t = s + 1
        lam = schedules.lambda_t(t, params) if lambda_override is None else lambda_override
        V = est.covariance(lam)
        logdetV = logdet_pd(V)
        if current is None or schedules.should_update(logdetV, logdet_tau, beta_in_force):
            theta_hat = estimate(est, lam)
            if params.radius_variant == "anchored":
                r = confidence_radius(est, params.delta, lam, model.sigma_w,
                                      "anchored", eps=anchor_eps)
            else:
                r = confidence_radius(est, params.delta, lam, model.sigma_w,
                                      "unanchored", theta_bound=model.theta_bound)
            mu_t = synthesis.mu(r, model.theta_bound, spectral_norm(V), params.mu_mode)
            if mu_override is not None:
                mu_t = mu_override
            elif params.mu_clamp and params.constants_mode == "practical":
                mu_t = min(mu_t, loops._mu_cap(params, V))
            s0 = 0.0 if current is None else float(current.P_dual.trace())
            try:
                K, P = synthesis.synthesize_policy(theta_hat, model, mu_t, V, s0)
                if params.criterion == "adaptive_beta":
                    beta_in_force = schedules.adaptive_beta(t, r, params)
                current = loops.PolicyEpoch(
                    epoch_index=0 if current is None else current.epoch_index + 1,
                    tau=t, K=K, P_dual=P, mu=mu_t, r=r, beta=beta_in_force,
                    lambda_tau=lam, logdet_V_tau=logdetV, normV_tau=spectral_norm(V),
                    est_error=nuclear_norm(theta_hat - model.theta_star))
                history.append(current)
                origin = s
                logdet_tau = logdetV
            except SynthesisError:
                failures += 1
                if current is None:
                    raise
                logdet_tau = logdetV
        p = s - (s - origin) % loops._SUB
        if block is None or block[:2] != (p, current.epoch_index):
            block = p, current.epoch_index, closed_loop_rows(
                model, current.K, x[p], eta[p:p + loops._SUB], omega[p:p + loops._SUB])
        u[s], x[t] = block[2][0][s - p], block[2][1][s - p]
        x_norm = float(np.linalg.norm(x[t]))
        if x_norm > loops.BLOWUP_NORM:
            raise BlowUpError("ASLO state blow-up", diagnostics={"t": t, "x_norm": x_norm})
        ingest(est, np.concatenate([x[s], u[s]]), x[t])
        policy_id[s] = current.epoch_index
        lam_arr[s] = lam
        r_arr[s] = current.r
        logdet_arr[s] = logdetV
        beta_arr[s] = current.beta
        err_arr[s] = current.est_error
        if t in checkpoints:
            ell = ellipsoid(est, params.delta, lam, model.sigma_w, params.radius_variant,
                            eps=anchor_eps, theta_bound=model.theta_bound)
            containment.append((t, ellipsoid_contains(ell, model.theta_star)))
    mu_steps = np.array([p.mu for p in history])[policy_id]
    q = np.empty(T)
    anynum = np.empty(T, dtype=bool)
    for lo, z, V in covariance_blocks(x, u, lam_arr):
        q[lo:lo + len(z)] = regret.q_values(z, V)
        anynum[lo:lo + len(z)] = schedules.anynum_condition(
            mu_steps[lo:lo + len(z)], V, params.kappa)
    ledger.accumulate_trajectory(x, omega, eta, q, policy_id, history, model, params)
    record = dict(x=x, u=u, eta=eta, omega=omega, policy_id=policy_id, lambda_t=lam_arr,
                  r_t=r_arr, logdet_V=logdet_arr, beta_used=beta_arr, est_error=err_arr)
    diagnostics = {"synthesis_failures": failures, "containment": containment,
                   "anynum_condition": anynum.tolist()}
    return record, diagnostics, history, ledger


class TestSegmentOracle:
    """ASLO's fixed-gain segments reproduce the per-step loop bit for bit:
    the record, the policy history, the diagnostics and the ledger."""

    @staticmethod
    def assert_same(model, theta0, eps, T, params, seed, calls=None, **kwargs):
        rec, hist, ledger = run_aslo(model, theta0, eps, T=T, params=params,
                                     seed=seed, **kwargs)
        if calls is not None:
            calls.clear()  # the reference runs on a fresh count of syntheses
        expect, diagnostics, hist_ref, ledger_ref = per_step_aslo(
            model, theta0, eps, T, params, seed, **kwargs)
        for name, value in expect.items():
            assert np.array_equal(getattr(rec, name), value), name
        assert np.array_equal(rec.cost, per_step_costs(model, rec.x, rec.u))
        for key, value in diagnostics.items():
            assert rec.diagnostics[key] == value, key
        assert len(hist) == len(hist_ref)
        for p, ref in zip(hist, hist_ref):
            assert (p.epoch_index, p.tau, p.mu, p.r, p.beta) == \
                (ref.epoch_index, ref.tau, ref.mu, ref.r, ref.beta)
            assert (p.lambda_tau, p.logdet_V_tau, p.normV_tau, p.est_error) == \
                (ref.lambda_tau, ref.logdet_V_tau, ref.normV_tau, ref.est_error)
            assert np.array_equal(p.K, ref.K)
            assert np.array_equal(p.P_dual, ref.P_dual)
        assert np.array_equal(ledger.R, ledger_ref.R)
        return rec, hist

    @pytest.mark.parametrize("criterion, beta, T", [
        ("det_double", None, 2000),
        ("fixed_beta", 0.25, 1500),
        ("adaptive_beta", None, 60),
        ("relaxed_sequential", None, 1500),
    ])
    def test_criteria(self, bench2x2, bench2x2_params, bench2x2_anchor,
                      criterion, beta, T):
        theta0, eps = bench2x2_anchor
        params = replace(bench2x2_params, criterion=criterion)
        if beta is not None:
            params = replace(params, beta=beta)
        _, hist = self.assert_same(bench2x2, theta0, eps, T, params, seed=4)
        assert len(hist) >= 5

    def test_checkpoints_inside_segments(self, bench2x2, bench2x2_params,
                                         bench2x2_anchor, monkeypatch):
        theta0, eps = bench2x2_anchor
        seen = []  # the moments and lambda at each containment check
        holds_truth = loops._holds_truth

        def spy(est, model, params, lam, *args):
            seen.append((est.t, est.gram.copy(), est.cross.copy(), lam))
            return holds_truth(est, model, params, lam, *args)

        monkeypatch.setattr(loops, "_holds_truth", spy)
        rec, hist = self.assert_same(
            bench2x2, theta0, eps, 1800, bench2x2_params, seed=6,
            checkpoints=(1, 2, 3, 5, 100, 257, 513, 1000, 1001, 1000, 1799, 1800, 5000))
        taus = {p.tau for p in hist}
        assert len(rec.diagnostics["containment"]) == 11
        assert {1000, 1001, 1799} - taus  # some checkpoints fall between firings
        # each check sees the moments through step t, one step at a time, and lambda_t
        replay = EstimatorState(dim_z=4, dim_x=2, anchor=theta0, anchor_error=eps)
        for t, gram, cross, lam in seen:
            for s in range(replay.t, t):
                ingest(replay, np.concatenate([rec.x[s], rec.u[s]]), rec.x[s + 1])
            assert np.array_equal(gram, replay.gram) and np.array_equal(cross, replay.cross)
            assert lam == schedules.lambda_t(t, bench2x2_params)

    def test_lambda_override(self, bench2x2, bench2x2_params, bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, _ = self.assert_same(bench2x2, theta0, eps, 1200, bench2x2_params,
                                  seed=2, lambda_override=37.5, checkpoints=(600,))
        assert np.all(rec.lambda_t == 37.5)

    def test_noiseless_plant(self):
        m1 = SystemModel(A=[[0.5, 0.1], [0.0, 0.4]], B=np.eye(2),
                         Q=np.eye(2), R=np.eye(2), sigma_w=1.0)
        params = replace(build_schedule(m1, nu=50.0, constants_mode="practical"),
                         sigma_w=0.0)
        m0 = SystemModel(A=m1.A, B=m1.B, Q=m1.Q, R=m1.R, sigma_w=0.0,
                         theta_bound=m1.theta_bound)
        rec, _ = self.assert_same(m0, m0.theta_star, 0.0, 300, params, seed=0,
                                  x0=[3.0, -2.0], mu_override=0.0)
        assert np.all(rec.omega == 0.0) and np.any(rec.x != 0.0)

    def test_unclamped_mu_with_declines(self, bench2x2, bench2x2_params,
                                        bench2x2_anchor):
        theta0, eps = bench2x2_anchor
        rec, _ = self.assert_same(bench2x2, theta0, eps, 300,
                                  replace(bench2x2_params, mu_clamp=False), seed=0)
        assert rec.diagnostics["synthesis_failures"] > 0

    @staticmethod
    def hand_out_gain(monkeypatch, at, K_bad, then_decline):
        """Synthesis returns K_bad at its ``at``-th call; later calls decline
        when ``then_decline``, else synthesize as usual."""
        real, calls = synthesis.synthesize_policy, []

        def patched(*args, **kwargs):
            calls.append(1)
            K, P = real(*args, **kwargs)
            if len(calls) == at:
                return K_bad, P
            if len(calls) > at and then_decline:
                raise SynthesisError("declined for the test")
            return K, P

        monkeypatch.setattr(synthesis, "synthesize_policy", patched)
        return calls

    def test_speculative_blow_up_past_a_firing_does_not_raise(
            self, bench2x2, bench2x2_params, bench2x2_anchor, monkeypatch):
        # one gain with closed-loop gain ~10 under a criterion that waits for
        # det V to grow 1e6-fold: a block rolls it out past the step that
        # fires on the growth, and a row past that step runs away
        theta0, eps = bench2x2_anchor
        params = replace(bench2x2_params, criterion="fixed_beta", beta=1e6)
        calls = self.hand_out_gain(monkeypatch, 2, 8.95 * np.eye(2), then_decline=False)
        rollout, raised = loops._rollout, []

        def spy(*args):
            try:
                rollout(*args)
            except BlowUpError as exc:
                raised.append((args[-2], exc.diagnostics["t"]))
                raise

        monkeypatch.setattr(loops, "_rollout", spy)
        rec, hist = self.assert_same(bench2x2, theta0, eps, 400, params, seed=1,
                                     calls=calls)
        # the block began before a firing and ran away at or after it
        assert any(lo + 2 <= p.tau <= t for lo, t in raised for p in hist)
        assert np.all(np.linalg.norm(rec.x, axis=1) <= loops.BLOWUP_NORM)

    def test_blow_up_matches_per_step(self, bench2x2, bench2x2_params,
                                      bench2x2_anchor, monkeypatch):
        # a destabilizing gain stays in force because every later synthesis declines
        theta0, eps = bench2x2_anchor
        self.hand_out_gain(monkeypatch, 3, -0.5 * np.eye(2) + np.diag([0.5, 0.6]),
                           then_decline=True)
        with pytest.raises(BlowUpError) as ref:
            per_step_aslo(bench2x2, theta0, eps, 2000, bench2x2_params, seed=3)
        monkeypatch.undo()
        self.hand_out_gain(monkeypatch, 3, -0.5 * np.eye(2) + np.diag([0.5, 0.6]),
                           then_decline=True)
        with pytest.raises(BlowUpError) as exc:
            run_aslo(bench2x2, theta0, eps, T=2000, params=bench2x2_params, seed=3)
        assert str(exc.value) == str(ref.value)
        assert exc.value.diagnostics == ref.value.diagnostics
        assert exc.value.diagnostics["t"] > 20


class TestAsloBookkeeping:
    """What a run costs outside the rollout kernel, on bench-2x2 under det2."""

    def test_blocks_sized_from_the_last_epoch_waste_less(self, bench2x2, bench2x2_params,
                                                         bench2x2_anchor, monkeypatch):
        # blocks that restarted at 1 row after each firing and doubled asked
        # _rollout for 2692 rows in 145 blocks on this run (30 epochs)
        rollout, asked = loops._rollout, []

        def spy(*args):
            asked.append(args[-1] - args[-2])
            return rollout(*args)

        monkeypatch.setattr(loops, "_rollout", spy)
        theta0, eps = bench2x2_anchor
        run_aslo(bench2x2, theta0, eps, T=2000, params=bench2x2_params, seed=0)
        assert sum(asked) < 2692
        assert len(asked) < 145

    def test_screen_decides_every_anynum_flag(self, bench2x2, bench2x2_params,
                                              bench2x2_anchor, monkeypatch):
        exact_flags, exact = schedules._exact_flags, []

        def spy(mu, V, rhs):
            exact.append(len(V))
            return exact_flags(mu, V, rhs)

        monkeypatch.setattr(schedules, "_exact_flags", spy)
        theta0, eps = bench2x2_anchor
        rec, _, _ = run_aslo(bench2x2, theta0, eps, T=2000, params=bench2x2_params, seed=0)
        assert len(rec.diagnostics["anynum_condition"]) == 2000
        assert sum(exact) == 0
