import numpy as np
import pytest

from alqr.benchmarks import bench_2x2
from alqr.exceptions import (
    CertificateError,
    DegenerateSolutionError,
    InvalidSampleError,
    SynthesisError,
)
from alqr.lqr import SystemModel, solve_dare
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
        assert mu(4.0, 2.0, 9.0 * np.eye(2), "paper") == pytest.approx(16.0)

    def test_lemma_mode(self):
        assert mu(4.0, 2.0, 9.0 * np.eye(2), "lemma") == pytest.approx(28.0)

    def test_exact_knowledge(self):
        assert mu(0.0, 2.0, 9.0 * np.eye(2), "paper") == 0.0
        assert mu(0.0, 2.0, 9.0 * np.eye(2), "lemma") == 0.0


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
        # bench-2x2 with mu_clamp=False, seed 0: the synthesis at tau = 2.
        # R~(s) = R - mu s (V^{-1})_uu is PD only below s_max = 0.043654; the
        # fixed point is at 0.043380, but the first Newton step from s = 0
        # lands at 0.0461, where the solve used to decline
        model = bench_2x2()
        theta = np.array([[1.133798320454824, -0.10493332882485934],
                          [0.11716676607740346, 0.926687885913614],
                          [1.1031385104794076, -0.09829881006313526],
                          [-0.3720287865588053, 1.2029095551999411]])
        lam = 2.995732273553991
        V = np.diag([lam, lam, 0.0, 0.0])
        V[2:, 2:] = [[4.292070390609641, -3.078757493115257],
                     [-3.078757493115257, 10.307673175933884]]
        mu_t = 68.62383629731475
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


class TestSequentialGap:
    def test_identity(self):
        assert sequential_gap(np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_quarter(self):
        assert sequential_gap(np.eye(2), 4 * np.eye(2)) == pytest.approx(0.5)

    def test_non_pd_rejected(self):
        with pytest.raises(CertificateError):
            sequential_gap(np.eye(2), np.diag([1.0, -1.0]))


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
            from alqr.linalg import psd_sqrt
            M = r * np.linalg.inv(V)
            Gd = rng.standard_normal((d, d))
            Gd *= rng.uniform(0, 1) / max(np.linalg.norm(Gd, 2), 1e-12)
            Delta = Gd @ psd_sqrt(M)
            assert perturbation_check(X, Delta, P, V, r)
