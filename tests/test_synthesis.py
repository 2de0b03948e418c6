import math
import re
from dataclasses import replace

import numpy as np
import pytest

from alqr import estimation, lqr, synthesis
from alqr.benchmarks import bench_2x2
from alqr.exceptions import (
    CertificateError,
    DegenerateSolutionError,
    InvalidSampleError,
    NotStabilizableError,
    SynthesisError,
)
from alqr.harness import ExperimentConfig, _epoch_diagnostics, run_seed, shared_setup
from alqr.linalg import (
    chol_solve,
    psd_roots,
    psd_sqrt,
    solve_discrete_lyapunov,
    spectral_norm,
    sym,
)
from alqr.loops import _mu_cap, run_aslo, run_fixed_policy
from alqr.lqr import SystemModel, solve_dare
from alqr.schedules import lambda_t
from alqr.sdp import (
    build_relaxed_primal,
    extract_policy,
    solve_relaxed_dual,
    solve_relaxed_primal,
)
from alqr.synthesis import (
    mu,
    perturbation_check,
    sequential_gap,
    sequential_gaps,
    solve_relaxed_riccati,
    synthesize_policy,
)

GOLDEN = (1 + np.sqrt(5)) / 2


def golden_model():
    return SystemModel(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       sigma_w=1.0, theta_bound=1.5)


def random_stable_model(rng, n=2, m=2):
    A = rng.standard_normal((n, n))
    r = np.max(np.abs(np.linalg.eigvals(A)))
    if r > 0:
        A *= 0.9 / r
    B = rng.standard_normal((n, m))
    return SystemModel(A=A, B=B, Q=np.eye(n), R=np.eye(m), sigma_w=1.0)


def primal_objective(model, Sigma):
    n = model.n
    return float(np.trace(Sigma[:n, :n] @ model.Q) + np.trace(Sigma[n:, n:] @ model.R))


class TestMu:
    def test_paper_mode(self):
        assert mu(4.0, 2.0, 9.0, "paper") == pytest.approx(16.0)

    def test_lemma_mode(self):
        assert mu(4.0, 2.0, 9.0, "lemma") == pytest.approx(28.0)

    def test_exact_knowledge(self):
        assert mu(0.0, 2.0, 9.0, "paper") == 0.0
        assert mu(0.0, 2.0, 9.0, "lemma") == 0.0


class TestBuildRelaxedPrimal:
    def test_fields_round_trip(self):
        m = golden_model()
        V = 3.0 * np.eye(2)
        prob = build_relaxed_primal(m.theta_star, m, 0.7, V)
        assert np.array_equal(prob.theta_hat, m.theta_star)
        assert np.array_equal(prob.Q, m.Q)
        assert np.array_equal(prob.R, m.R)
        assert np.array_equal(prob.W, m.W)
        assert prob.mu == 0.7
        assert np.allclose(prob.V_inv, np.eye(2) / 3.0)

    def test_mu_zero_drops_coupling(self):
        m = golden_model()
        V = 5.0 * np.eye(2)
        with_mu = build_relaxed_primal(m.theta_star, m, 0.0, V).compile()
        # manual program without any V^{-1} coupling term
        import alqr.sdp as sdp
        E = sdp.sym_basis(2)
        cov = np.stack([Ei[:1, :1] - m.theta_star.T @ Ei @ m.theta_star for Ei in E])
        assert np.allclose(with_mu.blocks[0].coeffs, cov)
        assert np.allclose(with_mu.blocks[0].const, -m.W)

    def test_true_parameters_reach_optimal_cost(self):
        m = golden_model()
        prob = build_relaxed_primal(m.theta_star, m, 0.0, np.eye(2))
        Sigma = solve_relaxed_primal(prob)
        assert primal_objective(m, Sigma) == pytest.approx(GOLDEN, abs=1e-4)


class TestSolveRelaxedPrimal:
    def test_memoryless_exact(self):
        m = SystemModel(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], sigma_w=1.0)
        prob = build_relaxed_primal(m.theta_star, m, 0.0, np.eye(2))
        Sigma = solve_relaxed_primal(prob)
        assert Sigma[0, 0] == pytest.approx(1.0, abs=1e-5)
        assert Sigma[1, 0] == pytest.approx(0.0, abs=1e-5)
        assert primal_objective(m, Sigma) == pytest.approx(1.0, abs=1e-5)

    def test_matches_exact_sdp_on_random_plants(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            m = random_stable_model(rng)
            sol = solve_dare(m)
            prob = build_relaxed_primal(m.theta_star, m, 0.0, np.eye(4))
            Sigma = solve_relaxed_primal(prob)
            assert primal_objective(m, Sigma) == pytest.approx(sol.J_star, abs=1e-4)
            K = extract_policy(Sigma, m.n)
            assert np.max(np.abs(K - sol.K_star)) <= 1e-4

    def test_solution_feasible(self):
        rng = np.random.default_rng(4)
        m = random_stable_model(rng)
        V = 4.0 * np.eye(4)
        mu_t = 0.3
        prob = build_relaxed_primal(m.theta_star, m, mu_t, V)
        Sigma = solve_relaxed_primal(prob)
        resid = Sigma[:2, :2] - (
            m.theta_star.T @ Sigma @ m.theta_star + m.W
            - mu_t * float(np.sum(Sigma * np.linalg.inv(V))) * np.eye(2))
        assert np.min(np.linalg.eigvalsh(resid)) >= -1e-9
        assert np.min(np.linalg.eigvalsh(Sigma)) >= -1e-12

    def test_objective_nonincreasing_in_mu(self):
        # larger mu enlarges the feasible set (optimism): objective cannot rise
        m = SystemModel(A=[[0.7, 0.2], [0.0, 0.5]], B=np.eye(2),
                        Q=np.eye(2), R=np.eye(2), sigma_w=1.0)
        V = 5.0 * np.eye(4)
        vals = []
        for mu_t in [0.0, 0.2, 1.0, 3.0]:
            Sigma = solve_relaxed_primal(build_relaxed_primal(m.theta_star, m, mu_t, V))
            vals.append(primal_objective(m, Sigma))
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))


class TestExtractPolicy:
    def test_zero_cross_block(self):
        Sigma = np.diag([2.0, 2.0, 1.0])
        assert np.allclose(extract_policy(Sigma, 2), np.zeros((1, 2)))

    def test_half_identity(self):
        Sigma = np.zeros((4, 4))
        Sigma[:2, :2] = 2 * np.eye(2)
        Sigma[2:, :2] = np.eye(2)
        Sigma[:2, 2:] = np.eye(2)
        Sigma[2:, 2:] = 2 * np.eye(2)
        assert np.allclose(extract_policy(Sigma, 2), 0.5 * np.eye(2))

    def test_golden_gain(self):
        m = golden_model()
        Sigma = solve_relaxed_primal(build_relaxed_primal(m.theta_star, m, 0.0, np.eye(2)))
        K = extract_policy(Sigma, 1)
        assert K[0, 0] == pytest.approx(-1 / GOLDEN, abs=1e-4)

    def test_degenerate(self):
        with pytest.raises(DegenerateSolutionError):
            extract_policy(np.diag([1e-14, 1e-14, 1.0]), 2)


class TestSolveRelaxedDual:
    def test_golden_riccati(self):
        m = golden_model()
        P = solve_relaxed_dual(m.theta_star, m, 0.0, np.eye(2))
        assert P[0, 0] == pytest.approx(GOLDEN, abs=1e-4)

    def test_strong_duality(self):
        rng = np.random.default_rng(31)
        m = random_stable_model(rng)
        Sigma = solve_relaxed_primal(build_relaxed_primal(m.theta_star, m, 0.0, np.eye(4)))
        P = solve_relaxed_dual(m.theta_star, m, 0.0, np.eye(4))
        assert float(np.sum(P * m.W)) == pytest.approx(primal_objective(m, Sigma), abs=1e-4)

    def test_dual_psd(self):
        rng = np.random.default_rng(41)
        m = random_stable_model(rng)
        P = solve_relaxed_dual(m.theta_star, m, 0.5, 10.0 * np.eye(4))
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-10


def barrier_oracle(theta, model, mu_t, V):
    Sigma = solve_relaxed_primal(build_relaxed_primal(theta, model, mu_t, V))
    return extract_policy(Sigma, model.n), solve_relaxed_dual(theta, model, mu_t, V)


def rel_err(X, ref):
    return float(np.max(np.abs(X - ref)) / max(1.0, np.max(np.abs(ref))))


def bisect_case():
    """(model, theta, mu, V) of a Newton probe past the input-weight boundary.

    bench-2x2 with mu_clamp=False, seed 0: the synthesis at tau = 2.
    R~(s) = R - mu s (V^{-1})_uu is PD only below s_max = 0.043654; the
    fixed point is at 0.043380, but the first Newton step from s = 0 lands
    at 0.0461, where the solve used to decline.
    """
    theta = np.array([[1.133798320454824, -0.10493332882485934],
                      [0.11716676607740346, 0.926687885913614],
                      [1.1031385104794076, -0.09829881006313526],
                      [-0.3720287865588053, 1.2029095551999411]])
    lam = 2.995732273553991
    V = np.diag([lam, lam, 0.0, 0.0])
    V[2:, 2:] = [[4.292070390609641, -3.078757493115257],
                 [-3.078757493115257, 10.307673175933884]]
    return bench_2x2(), theta, 68.62383629731475, V


class TestSolveRelaxedRiccati:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 1)])
    def test_matches_barrier_oracle(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        model = random_stable_model(rng, n, m)
        theta = model.theta_star + 0.05 * rng.standard_normal(model.theta_star.shape)
        G = rng.standard_normal((n + m, n + m))
        # scalar V keeps C(s) block-diagonal; the full V exercises the cross term
        for V in (np.eye(n + m), 10.0 * np.eye(n + m), G @ G.T + np.eye(n + m)):
            for mu_t in (0.0, 0.01, 0.1):
                K, P = solve_relaxed_riccati(theta, model, mu_t, V)
                K_ref, P_ref = barrier_oracle(theta, model, mu_t, V)
                assert K.shape == (m, n)
                assert rel_err(K, K_ref) <= 1e-7
                assert rel_err(P, P_ref) <= 1e-7

    def test_synthesize_policy_is_riccati_solution(self):
        rng = np.random.default_rng(5)
        model = random_stable_model(rng, 3, 2)
        G = rng.standard_normal((5, 5))
        V = G @ G.T + 2.0 * np.eye(5)
        K_pol, P_pol = synthesize_policy(model.theta_star, model, 0.05, V)
        K, P = solve_relaxed_riccati(model.theta_star, model, 0.05, V)
        assert np.array_equal(K_pol, K) and np.array_equal(P_pol, P)

    def test_newton_probe_past_input_weight_boundary_bisects(self):
        model, theta, mu_t, V = bisect_case()
        L = np.linalg.cholesky(model.R)
        LiV = np.linalg.solve(L, np.linalg.inv(V)[2:, 2:])
        s_max = 1.0 / (mu_t * np.max(np.linalg.eigvalsh(np.linalg.solve(L, LiV.T))))
        K, P = solve_relaxed_riccati(theta, model, mu_t, V)
        assert 0.0 < np.trace(P) < s_max
        K_ref, P_ref = barrier_oracle(theta, model, mu_t, V)
        assert rel_err(K, K_ref) <= 1e-4
        assert rel_err(P, P_ref) <= 1e-4

    def test_unstabilizable_estimate_declines(self):
        # B-hat = 0 leaves A-hat = 1.5 I unstable under every gain
        model = bench_2x2()
        theta = np.vstack([1.5 * np.eye(2), np.zeros((2, 2))])
        with pytest.raises(SynthesisError) as exc:
            synthesize_policy(theta, model, 0.0, np.eye(4))
        assert str(exc.value) == ("Riccati path declined: NotStabilizableError: "
                                  "doubling iteration diverged")

    def test_indefinite_input_weight_falls_back(self):
        # V^{-1} concentrated on the input block: R - mu tr(P) V^{-1}_uu is
        # not PSD at the relaxed optimum, so the Riccati path must decline and
        # synthesis fails (the runners keep the previous policy)
        model = bench_2x2()
        V = np.diag([100.0, 100.0, 0.1, 0.1])
        mu_t = 0.1
        with pytest.raises(CertificateError):
            solve_relaxed_riccati(model.theta_star, model, mu_t, V)
        with pytest.raises(SynthesisError, match="Riccati path declined"):
            synthesize_policy(model.theta_star, model, mu_t, V)
        _, P_ref = barrier_oracle(model.theta_star, model, mu_t, V)
        R_tilde = model.R - mu_t * np.trace(P_ref) * np.linalg.inv(V)[2:, 2:]
        assert np.min(np.linalg.eigvalsh(R_tilde)) < 0


def oracle_dare_doubling(A, B, Q, R, tol=1e-12, max_iter=200):
    """The doubling iteration with every product written out in full."""
    n = A.shape[0]
    Ak = A.copy()
    Gk = B @ np.linalg.solve(R, B.T)
    Hk = Q.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            Minv = np.linalg.inv(np.eye(n) + Gk @ Hk)
            An = Ak @ Minv @ Ak
            Gn = Gk + Ak @ Minv @ Gk @ Ak.T
            Hn = Hk + Ak.T @ Hk @ Minv @ Ak
            assert np.all(np.isfinite(An)) and np.all(np.isfinite(Gn)) \
                and np.all(np.isfinite(Hn))
            delta = float(np.max(np.abs(Hn - Hk)))
            Ak, Gk, Hk = An, sym(Gn), sym(Hn)
            if delta <= tol * max(1.0, float(np.max(np.abs(Hk)))):
                return Hk
    raise AssertionError("oracle doubling did not converge")


def oracle_lyapunov(M, S):
    n = M.shape[0]
    x = np.linalg.solve(np.eye(n * n) - np.kron(M, M), S.reshape(-1))
    return sym(x.reshape(n, n))


def oracle_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def oracle_dare_newton(A, B, C, K, tol=1e-12, max_iter=8):
    """The Newton-Kleinman iteration with every product written out; None
    where the solver falls back to the doubling."""
    n = A.shape[0]
    S, R = C[:n, n:], C[n:, n:]
    if not oracle_radius(A + B @ K) < 1.0:
        return None
    P_prev = None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            IK = np.vstack([np.eye(n), K])
            try:
                P = oracle_lyapunov((A + B @ K).T, IK.T @ C @ IK)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(P)):
                return None
            if P_prev is not None and float(np.max(np.abs(P - P_prev))) \
                    <= tol * max(1.0, float(np.max(np.abs(P)))):
                return P
            try:
                K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A + S.T)
            except np.linalg.LinAlgError:
                return None
            P_prev = P
    return None


def same_entry(a, b):
    """Equal bits, entry by entry: arrays, None, or tuples of them."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
                and all(same_entry(x, y) for x, y in zip(a, b)))
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


def oracle_relaxed_riccati(theta, model, mu_t, V, trail, s0=0.0):
    """``solve_relaxed_riccati``'s Newton loop, expression for expression,
    on the oracle DARE and Lyapunov solves; the certificate is left out.
    Each DARE after the first is re-solved by Newton-Kleinman from the gain
    at the last s, kept when its gain stabilises the estimate.  Appends to
    ``trail`` each cost C(s) the loop solves at with the gain it starts
    from (None for the doubling), and each X."""
    n, m = model.n, model.m
    A, B = theta[:n, :].T, theta[n:, :].T
    V_inv = sym(chol_solve(V, np.eye(n + m)))
    C0 = np.zeros((n + m, n + m))
    C0[:n, :n] = sym(model.Q)
    C0[n:, n:] = sym(model.R)

    def solve_at(s, K=None):
        C = C0 - mu_t * s * V_inv
        trail.append((C, K))
        Q, S, R = C[:n, :n], C[:n, n:], C[n:, n:]
        P = None if K is None else oracle_dare_newton(A, B, C, K)
        if P is not None:
            K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A + S.T)
            if oracle_radius(A + B @ K) < 1.0:
                return P, K
        RiSt = np.linalg.solve(R, S.T)
        P = oracle_dare_doubling(A - B @ RiSt, B, sym(Q - S @ RiSt), R)
        return P, -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A + S.T)

    s_max = math.inf
    if mu_t > 0:
        L = np.linalg.cholesky(C0[n:, n:])
        LiV = np.linalg.solve(L, V_inv[n:, n:])
        s_max = 1.0 / (mu_t * spectral_norm(np.linalg.solve(L, LiV.T)))
    s = float(s0) if mu_t > 0 and 0.0 < s0 < s_max else 0.0
    lo, hi = 0.0, s_max
    P, K = solve_at(s)
    for _ in range(synthesis.RICCATI_MAX_ITER if mu_t > 0 else 0):
        tr = float(np.trace(P))
        f = tr - s
        if f > 0:
            lo = s
        else:
            hi = s
        IK = np.vstack([np.eye(n), K])
        X = oracle_lyapunov((A + B @ K).T, IK.T @ V_inv @ IK)
        trail.append(X)
        slope = mu_t * float(np.trace(X))
        step = f / (1.0 + slope)
        if (abs(f) <= 0.1 * synthesis.RICCATI_TOL * max(1.0, s)
                and slope * abs(step) <= 1e-12 * max(1.0, tr)):
            break
        s_next = s + step
        s = s_next if lo < s_next < hi else 0.5 * (lo + hi)
        P, K = solve_at(s, K)
    return K, sym(P)


def oracle_gap(P_prev, P_next):
    """|P_next^{-1/2} P_prev^{1/2}| from a fresh eigensystem of each P."""
    w, U = np.linalg.eigh(sym(P_prev))
    root_prev = (U * np.sqrt(np.maximum(w, 1e-12))) @ U.T
    w, U = np.linalg.eigh(sym(P_next))
    inv_root_next = (U / np.sqrt(np.maximum(w, 1e-12))) @ U.T
    return spectral_norm(inv_root_next @ root_prev)


def config_inputs(config, T=200, seed=11):
    """(model, theta-hat, [0, clamped mu], V) after a fixed-gain rollout of K0."""
    setup = shared_setup(config)
    model, params = setup.model, setup.params
    _, est, _ = run_fixed_policy(model, setup.K0, T, seed=seed, params=params)
    lam = lambda_t(T, params)
    V = est.covariance(lam)
    r = estimation.confidence_radius(est, params.delta, lam, model.sigma_w, "unanchored",
                                     theta_bound=model.theta_bound)
    mu_t = min(synthesis.mu(r, model.theta_bound, spectral_norm(V), params.mu_mode),
               _mu_cap(params, V))
    return model, estimation.estimate(est, lam), [0.0, mu_t], V


def estimate_inputs(name, T=200, seed=11):
    """``config_inputs`` on a named benchmark plant."""
    return config_inputs(ExperimentConfig(benchmark=name, T=T, seeds=[0]), T, seed)


# every (n, m) of the north star's n + m <= 5, m > n and m = 1 among them
PLANT_SHAPES = [(n, m) for n in range(1, 5) for m in range(1, 6 - n)]


def plant_inputs(n, m, T=200, seed=11):
    """``config_inputs`` on a seeded random stable plant of shape (n, m)."""
    plant = random_stable_model(np.random.default_rng(10 * n + m), n, m)
    spec = {key: getattr(plant, key).tolist() for key in ("A", "B", "Q", "R")}
    config = ExperimentConfig(benchmark=None, model=spec, T=T, seeds=[0])
    return config_inputs(config, T, seed)


def outcome(solve, *args):
    """The shapes and bits of what a solve returns, or the type and message
    of what it raises."""
    try:
        out = solve(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    arrays = out if isinstance(out, tuple) else (out,)
    return "returned", [(a.shape, a.tobytes()) for a in arrays]


class TestRiccatiOracle:
    """Synthesis reproduces the written-out doubling DARE, Newton-Kleinman
    re-solve, Kronecker Lyapunov solve and Newton loop bit for bit, so no
    product is reassociated: the gain, the value matrix, each Newton
    iterate's cost C(s) with the gain its DARE starts from, and each X of
    the slope d tr P*/ds agree."""

    @staticmethod
    def trace_newton(monkeypatch):
        """Record each cost C(s) that synthesis hands to the DARE with the
        gain it starts from, and each solution X of the slope's Lyapunov
        equation, in order."""
        trail = []
        real_cross, real_lyap = synthesis._dare_cross, synthesis.solve_discrete_lyapunov

        def cross(A, B, C, K=None):
            trail.append((C.copy(), None if K is None else K.copy()))
            return real_cross(A, B, C, K)

        def lyap(M, S):
            trail.append(real_lyap(M, S))
            return trail[-1]

        monkeypatch.setattr(synthesis, "_dare_cross", cross)
        monkeypatch.setattr(synthesis, "solve_discrete_lyapunov", lyap)
        return trail

    @staticmethod
    def assert_same(theta, model, mu_t, V, K, P, trail, s0=0.0):
        ref = []
        K_ref, P_ref = oracle_relaxed_riccati(theta, model, mu_t, V, ref, s0)
        assert np.array_equal(K, K_ref) and np.array_equal(P, P_ref)
        assert len(trail) == len(ref)
        assert all(same_entry(c, r) for c, r in zip(trail, ref))

    def solve_and_compare(self, monkeypatch, theta, model, mu_t, V):
        trail = self.trace_newton(monkeypatch)
        K, P = solve_relaxed_riccati(theta, model, mu_t, V)
        self.assert_same(theta, model, mu_t, V, K, P, trail)
        return trail

    @pytest.mark.parametrize("name", ["bench-2x2", "bench-3x2"])
    def test_bench_estimates(self, monkeypatch, name):
        model, theta, mus, V = estimate_inputs(name)
        assert mus[1] > 0
        assert len(self.solve_and_compare(monkeypatch, theta, model, mus[0], V)) == 1
        assert len(self.solve_and_compare(monkeypatch, theta, model, mus[1], V)) > 2

    def test_bisect_case(self, monkeypatch):
        model, theta, mu_t, V = bisect_case()
        self.solve_and_compare(monkeypatch, theta, model, mu_t, V)

    def test_every_firing_of_adaptive_run(self, bench2x2, bench2x2_params,
                                          bench2x2_anchor, monkeypatch):
        trail = self.trace_newton(monkeypatch)
        seen, real = [], synthesis.synthesize_policy

        def spy(theta, model, mu_t, V, s0):
            start = len(trail)
            out = real(theta, model, mu_t, V, s0)
            seen.append((theta.copy(), mu_t, V.copy(), s0, out, trail[start:]))
            return out

        monkeypatch.setattr(synthesis, "synthesize_policy", spy)
        params = replace(bench2x2_params, criterion="adaptive_beta")
        theta0, eps = bench2x2_anchor
        _, hist, _ = run_aslo(bench2x2, theta0, eps, T=60, params=params, seed=4)
        assert len(seen) == len(hist) == 60
        for theta, mu_t, V, s0, (K, P), costs in seen:
            self.assert_same(theta, bench2x2, mu_t, V, K, P, costs, s0)
            M = theta[:2].T + theta[2:].T @ K
            S = np.eye(2) + K.T @ K
            assert np.array_equal(solve_discrete_lyapunov(M.T, S), oracle_lyapunov(M.T, S))
        # one eigensystem per P gives both of its roots with the bits of two
        for p in hist:
            w, U = np.linalg.eigh(sym(p.P_dual))
            root, inv_root = psd_roots(p.P_dual)
            assert np.array_equal(root, psd_sqrt(p.P_dual))
            assert np.array_equal(inv_root, (U / np.sqrt(np.maximum(w, 1e-12))) @ U.T)
        gaps = _epoch_diagnostics(params, hist)["sequential_gaps"]
        pairs = list(zip(hist, hist[1:]))
        assert gaps == [sequential_gap(a.P_dual, b.P_dual) for a, b in pairs]
        assert gaps == [oracle_gap(a.P_dual, b.P_dual) for a, b in pairs]

    @pytest.mark.parametrize("n, m", PLANT_SHAPES)
    def test_random_plant_of_each_shape(self, monkeypatch, n, m):
        model, theta, mus, V = plant_inputs(n, m)
        assert mus[1] > 0
        Q, R = sym(model.Q), sym(model.R)
        for A, B in ((model.A, model.B), (theta[:n].T, theta[n:].T)):
            assert outcome(lqr._dare_doubling, A, B, Q, R) == \
                outcome(oracle_dare_doubling, A, B, Q, R)
        trail = self.trace_newton(monkeypatch)
        for mu_t in mus:
            ref = []
            trail.clear()
            assert outcome(solve_relaxed_riccati, theta, model, mu_t, V) == \
                outcome(oracle_relaxed_riccati, theta, model, mu_t, V, ref)
            assert len(trail) == len(ref)
            assert all(same_entry(c, r) for c, r in zip(trail, ref))

    @pytest.mark.parametrize("model", [bench_2x2(), golden_model()])
    def test_solve_dare(self, model):
        sol = solve_dare(model)
        A, B, Q, R = model.A, model.B, sym(model.Q), sym(model.R)
        P = oracle_dare_doubling(A, B, Q, R)
        assert np.array_equal(sol.P_star, sym(P))
        assert np.array_equal(sol.K_star, -np.linalg.solve(B.T @ P @ B + R, B.T @ P @ A))

    def test_doubling_exits(self):
        one = np.ones((1, 1))
        # I + G H = 1 + (-1)(1) is singular
        with pytest.raises(NotStabilizableError, match="^doubling iteration broke down$"):
            lqr._dare_doubling(0.5 * one, one, one, -one)
        with pytest.raises(NotStabilizableError, match="^doubling iteration diverged$"):
            lqr._dare_doubling(1.5 * np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2))
        with pytest.raises(NotStabilizableError, match="^doubling iteration did not converge$"):
            lqr._dare_doubling(0.9 * one, one, one, one, max_iter=1)

    def test_doubling_gives_up_after_64_steps(self, monkeypatch):
        # a declined firing of aslo-no-mu-clamp (seed 0, t = 4): its cost on
        # x is indefinite, and no stabilising solution exists
        A, B, Q, R = (np.array([float.fromhex(h) for h in row]).reshape(2, 2) for row in (
            ("0x1.146c50817f9d0p+2", "-0x1.cc7ccacf439d6p-1",
             "0x1.2a7f67f971da3p+3", "0x1.51aaf36a42ac6p-1"),
            ("0x1.0c2d302e1f5acp+0", "-0x1.5f5ded10fdc5fp-2",
             "-0x1.acccb870e83f4p-5", "0x1.32750833d3e2ep+0"),
            ("-0x1.07c09c62ec380p+3", "0x1.29a5474095c52p+0",
             "0x1.29a5474095c52p+0", "0x1.41d5d07a1ab08p-2"),
            ("0x1.9c03fe1d39a60p-2", "-0x1.66855a077ffafp-3",
             "-0x1.66855a077ffafp-3", "0x1.4717f59c45cb4p-3")))
        real_inv, inversions = lqr.inv, []

        def inv(M):
            inversions.append(1)
            return real_inv(M)

        monkeypatch.setattr(lqr, "inv", inv)
        # the old cap of 200 steps declines it with the same message
        for kwargs, steps in (({}, 64), ({"max_iter": 200}, 200)):
            inversions.clear()
            with pytest.raises(NotStabilizableError,
                               match="^doubling iteration did not converge$"):
                lqr._dare_doubling(A, B, Q, R, **kwargs)
            assert len(inversions) == steps


def aslo_firings(monkeypatch, config, seed):
    """The model and, at each firing of ``config``'s ASLO run that returns a
    policy, (theta, mu, V, s0, K, P) and the numbers of DAREs it solved by
    doubling and by Newton-Kleinman, as a pair."""
    setup = shared_setup(config)
    seen, dares = [], []
    real_policy = synthesis.synthesize_policy
    real = {name: getattr(lqr, name) for name in ("_dare_doubling", "_dare_newton")}

    def counted(name):
        def solve(*args, **kwargs):
            dares.append(name)
            return real[name](*args, **kwargs)
        return solve

    def spy(theta, model, mu_t, V, s0):
        dares.clear()
        K, P = real_policy(theta, model, mu_t, V, s0)
        seen.append((theta, mu_t, V, s0, K, P,
                     (dares.count("_dare_doubling"), dares.count("_dare_newton"))))
        return K, P

    for name in real:
        monkeypatch.setattr(lqr, name, counted(name))
    monkeypatch.setattr(synthesis, "synthesize_policy", spy)
    run_seed(config, setup, seed)
    return setup.model, seen


ADAPTIVE_2X2 = ExperimentConfig(benchmark="bench-2x2", criterion="adaptive", T=60, seeds=[4])
DET2_3X2 = ExperimentConfig(benchmark="bench-3x2", criterion="det2", T=1500, seeds=[0])


class TestWarmStart:
    """Each firing starts its Newton search at tr P of the policy in force."""

    @pytest.mark.parametrize("config", [ADAPTIVE_2X2, DET2_3X2],
                             ids=["adaptive-bench-2x2", "det2-bench-3x2"])
    def test_warm_start_lands_on_cold_fixed_point(self, monkeypatch, config):
        model, seen = aslo_firings(monkeypatch, config, config.seeds[0])
        assert len(seen) > 3 and seen[0][3] == 0.0
        for (*_, P_prev, _), (theta, mu_t, V, s0, K, P, _) in zip(seen, seen[1:]):
            assert s0 == float(np.trace(P_prev)) > 0  # tr P of the policy in force
            # a certificate check that failed would have raised
            _, P_cold = solve_relaxed_riccati(theta, model, mu_t, V)
            tr = float(np.trace(P_cold))
            assert abs(float(np.trace(P)) - tr) <= 1e-8 * max(1.0, tr)

    def test_two_dares_per_firing(self, monkeypatch):
        _, seen = aslo_firings(monkeypatch, ADAPTIVE_2X2, ADAPTIVE_2X2.seeds[0])
        assert len(seen) == 60
        counts = [c for *_, c in seen]
        assert sum(d + k for d, k in counts[1:]) / len(counts[1:]) <= 2.1
        # the first solve of each firing is the doubling's, and no
        # Newton-Kleinman re-solve fell back to it
        assert all(d == 1 for d, _ in counts)
        assert all(k >= 1 for _, k in counts)

    @pytest.mark.parametrize("start", ["-1", "-inf", "nan", "inf", "s_max", "2 s_max"])
    def test_start_outside_bracket_keeps_cold_bits(self, start):
        model, theta, (_, mu_t), V = estimate_inputs("bench-2x2")
        n = model.n
        V_inv = sym(chol_solve(V, np.eye(V.shape[0])))
        L = np.linalg.cholesky(sym(model.R))
        LiV = np.linalg.solve(L, V_inv[n:, n:])
        s_max = 1.0 / (mu_t * spectral_norm(np.linalg.solve(L, LiV.T)))
        scale = {"s_max": 1.0, "2 s_max": 2.0}
        s0 = scale[start] * s_max if start in scale else float(start)
        cold = outcome(solve_relaxed_riccati, theta, model, mu_t, V)
        assert cold[0] == "returned"
        assert outcome(solve_relaxed_riccati, theta, model, mu_t, V, s0) == cold

    def test_start_ignored_without_relaxation(self):
        model, theta, (mu_t, _), V = estimate_inputs("bench-2x2")
        assert mu_t == 0.0
        assert outcome(solve_relaxed_riccati, theta, model, mu_t, V, 5.0) == \
            outcome(solve_relaxed_riccati, theta, model, mu_t, V)


class TestNewtonKleinman:
    """Every DARE after a firing's first is re-solved by Newton-Kleinman from
    the gain at the last s; it falls back to the doubling when it cannot
    be trusted."""

    @staticmethod
    def newton_steps(monkeypatch, A, B, C, K):
        """``_dare_newton``'s result and its number of Lyapunov solves."""
        steps, real = [], lqr.solve_discrete_lyapunov

        def lyap(M, S):
            steps.append(1)
            return real(M, S)

        with monkeypatch.context() as mp:
            mp.setattr(lqr, "solve_discrete_lyapunov", lyap)
            P = lqr._dare_newton(A, B, C, K)
        return P, len(steps)

    @pytest.mark.parametrize("config", [ADAPTIVE_2X2, DET2_3X2],
                             ids=["adaptive-bench-2x2", "det2-bench-3x2"])
    def test_agrees_with_cold_doubling(self, monkeypatch, config):
        calls, real = [], synthesis._dare_cross

        def cross(A, B, C, K=None):
            out = real(A, B, C, K)
            if K is not None:
                calls.append((A, B, C.copy(), K.copy(), out))
            return out

        monkeypatch.setattr(synthesis, "_dare_cross", cross)
        run_seed(config, shared_setup(config), config.seeds[0])
        monkeypatch.undo()
        assert len(calls) >= 30
        for A, B, C, K0, (P, K, H) in calls:
            P_newton, steps = self.newton_steps(monkeypatch, A, B, C, K0)
            assert P_newton is not None and steps <= 4  # no fallback
            assert np.array_equal(P, P_newton)
            P_cold, K_cold, _ = lqr._dare_cross(A, B, C)
            assert rel_err(P, P_cold) <= 1e-12 and rel_err(K, K_cold) <= 1e-12

    @staticmethod
    def solved_inputs():
        """(A-hat, B-hat, C(s) at the fixed point, its gain) on bench-2x2."""
        model, theta, (_, mu_t), V = estimate_inputs("bench-2x2")
        K, P = solve_relaxed_riccati(theta, model, mu_t, V)
        n = model.n
        C = np.zeros((4, 4))
        C[:n, :n], C[n:, n:] = model.Q, model.R
        C -= mu_t * float(np.trace(P)) * sym(chol_solve(V, np.eye(4)))
        return theta[:n].T, theta[n:].T, C, K

    def test_non_stabilising_gain_falls_back(self):
        A, B, C, K = self.solved_inputs()
        K_bad = np.full_like(K, 3.0)
        assert np.max(np.abs(np.linalg.eigvals(A + B @ K_bad))) >= 1.0
        assert lqr._dare_newton(A, B, C, K_bad) is None
        assert outcome(lqr._dare_cross, A, B, C, K_bad) == outcome(lqr._dare_cross, A, B, C)
        # a stabilising start keeps its own result, within the doubling's tolerance
        P, K_new, _ = lqr._dare_cross(A, B, C, K)
        P_cold, K_cold, _ = lqr._dare_cross(A, B, C)
        assert rel_err(P, P_cold) <= 1e-12 and not np.array_equal(P, P_cold)

    def test_budget_and_non_finite_iterates_fall_back(self, monkeypatch):
        A, B, C, K = self.solved_inputs()
        assert lqr._dare_newton(A, B, C, K, max_iter=1) is None  # no pair to test
        assert lqr._dare_newton(A, B, C, K, max_iter=2) is not None
        C_nan = C.copy()
        C_nan[0, 0] = np.nan
        assert lqr._dare_newton(A, B, C_nan, K) is None

    def test_unstable_converged_gain_falls_back(self, monkeypatch):
        # the initial gain passes the check and the converged one fails it
        A, B, C, K = self.solved_inputs()
        radii = iter([0.5, 1.0])
        monkeypatch.setattr(lqr, "spectral_radius", lambda M: next(radii))
        assert outcome(lqr._dare_cross, A, B, C, K) == outcome(lqr._dare_cross, A, B, C)
        assert next(radii, None) is None


class TestCertificateChecks:
    """Each final check of ``solve_relaxed_riccati`` declines a result that
    fails it; the doctored solves stand in for a doubling that went wrong."""

    @staticmethod
    def doctor(change):
        def fault(monkeypatch):
            real = synthesis._dare_cross
            monkeypatch.setattr(synthesis, "_dare_cross",
                                lambda A, B, C, K=None: change(*real(A, B, C, K)))
        return fault

    @staticmethod
    def unstable(monkeypatch):
        # a gain doctored alone fails the residual, which reads K, first
        monkeypatch.setattr(synthesis, "spectral_radius", lambda M: 1.0)

    @pytest.mark.parametrize("fault, message", [
        (doctor(lambda P, K, H: (P, K, -H)), "R~ + B'PB is not PD"),
        (doctor(lambda P, K, H: (-P, K, H)), "P is not PSD"),
        (doctor(lambda P, K, H: (P + 1e-3 * np.eye(len(P)), K, H)), "Riccati residual"),
        (unstable, "does not stabilise"),
    ], ids=["gain-weight", "psd", "residual", "stability"])
    def test_check_declines(self, monkeypatch, fault, message):
        model = bench_2x2()
        fault(monkeypatch)
        with pytest.raises(CertificateError, match=re.escape(message)):
            solve_relaxed_riccati(model.theta_star, model, 0.0, np.eye(4))

    def test_trace_off_fixed_point_declines(self, monkeypatch):
        model, theta, mu_t, V = bisect_case()
        monkeypatch.setattr(synthesis, "RICCATI_MAX_ITER", 0)  # P stays at s = 0
        with pytest.raises(CertificateError, match="misses s"):
            solve_relaxed_riccati(theta, model, mu_t, V)


class TestSequentialGap:
    def test_identity(self):
        assert sequential_gap(np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_quarter(self):
        assert sequential_gap(np.eye(2), 4 * np.eye(2)) == pytest.approx(0.5)

    def test_non_pd_rejected(self):
        with pytest.raises(CertificateError):
            sequential_gap(np.eye(2), np.diag([1.0, -1.0]))

    def test_first_non_pd_named(self):
        Ps = [np.eye(2), 2.0 * np.eye(2), np.diag([1.0, -0.5]), np.diag([-4.0, 1.0])]
        with pytest.raises(CertificateError, match=r"^matrix is not PD \(min eig -0.5\)$"):
            sequential_gaps(Ps)
        with pytest.raises(CertificateError, match=r"^matrix is not PD \(min eig -4\)$"):
            sequential_gaps([np.diag([-4.0, 1.0])])  # one epoch is checked too

    def test_short_histories(self):
        assert sequential_gaps([]) == []
        assert sequential_gaps([np.eye(3)]) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stacked_gaps_equal_per_pair(self, n):
        rng = np.random.default_rng(n)
        G = rng.standard_normal((30, n, n))
        Ps = list(G @ G.swapaxes(1, 2) + 0.01 * np.eye(n))
        gaps = sequential_gaps(Ps)
        assert gaps == [oracle_gap(a, b) for a, b in zip(Ps, Ps[1:])]
        assert all(type(g) is float for g in gaps)


class TestPerturbationCheck:
    def test_zero_delta(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 3))
        P = np.eye(3)
        V = 2.0 * np.eye(3)
        assert perturbation_check(X, np.zeros((3, 3)), P, V, 1.0)

    def test_zero_radius(self):
        X = np.eye(2)
        assert perturbation_check(X, np.zeros((2, 2)), np.eye(2), np.eye(2), 0.0)

    def test_precondition_enforced(self):
        with pytest.raises(InvalidSampleError):
            perturbation_check(np.eye(2), 10.0 * np.eye(2), np.eye(2), np.eye(2), 1e-4)

    def test_random_samples_hold(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = rng.integers(1, 5)
            X = rng.standard_normal((d, d))
            Gp = rng.standard_normal((d, d))
            P = Gp @ Gp.T
            Gv = rng.standard_normal((d, d))
            V = Gv @ Gv.T + 0.5 * np.eye(d)
            r = float(rng.uniform(0.01, 5.0))
            M = r * np.linalg.inv(V)
            Gd = rng.standard_normal((d, d))
            Gd *= rng.uniform(0, 1) / max(np.linalg.norm(Gd, 2), 1e-12)
            Delta = Gd @ psd_sqrt(M)
            assert perturbation_check(X, Delta, P, V, r)
