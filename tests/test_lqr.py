import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqr.exceptions import (
    ConfigurationError,
    NotStabilizableError,
    NotStabilizingError,
)
from alqr.linalg import spectral_norm, spectral_radius
from alqr.lqr import (
    SystemModel,
    kappa_gamma,
    nu_bound,
    solve_dare,
    stability_certificate,
    step,
)
from alqr.sdp import exact_sdp

GOLDEN = (1 + np.sqrt(5)) / 2


def scalar_model(a, b, sigma_w=1.0):
    return SystemModel(A=[[a]], B=[[b]], Q=[[1.0]], R=[[1.0]],
                       sigma_w=sigma_w, theta_bound=2.0)


def random_stable_model(rng, n, m, rho_target=0.9):
    A = rng.standard_normal((n, n))
    r = spectral_radius(A)
    if r > 0:
        A *= rho_target / r
    B = rng.standard_normal((n, m))
    return SystemModel(A=A, B=B, Q=np.eye(n), R=np.eye(m), sigma_w=1.0)


def value_iteration(model, tol=1e-12, max_iter=200_000):
    """Independent fixed-point oracle for the DARE."""
    A, B, Q, R = model.A, model.B, model.Q, model.R
    P = Q.copy()
    for _ in range(max_iter):
        S = B.T @ P @ B + R
        G = B.T @ P @ A
        Pn = Q + A.T @ P @ A - G.T @ np.linalg.solve(S, G)
        if np.max(np.abs(Pn - P)) <= tol:
            return Pn
        P = Pn
    raise AssertionError("value iteration did not converge")


class TestStep:
    def test_zero_dynamics(self):
        m = scalar_model(0.0, 0.0)
        assert step(m, [3.0], [7.0], [0.0]) == pytest.approx(0.0)

    def test_direct_arithmetic(self):
        m = scalar_model(1.0, 1.0)
        assert step(m, [1.0], [2.0], [0.5])[0] == pytest.approx(3.5)

    def test_against_dense_matvec_oracle(self):
        rng = np.random.default_rng(7)
        m = random_stable_model(rng, 3, 2)
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        w = rng.standard_normal(3)
        # explicit row-by-row products, independent of the implementation
        expect = np.array([
            sum(m.A[i, j] * x[j] for j in range(3))
            + sum(m.B[i, j] * u[j] for j in range(2)) + w[i]
            for i in range(3)
        ])
        assert np.max(np.abs(step(m, x, u, w) - expect)) <= 1e-14

    def test_dimension_mismatch(self):
        m = scalar_model(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            step(m, [1.0, 2.0], [0.0], [0.0])
        with pytest.raises(ConfigurationError):
            step(m, [1.0], [0.0, 1.0], [0.0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        m = random_stable_model(rng, 2, 2)
        x1, x2 = rng.standard_normal((2, 2))
        u1, u2 = rng.standard_normal((2, 2))
        w1, w2 = rng.standard_normal((2, 2))
        lhs = step(m, x1 + x2, u1 + u2, w1 + w2)
        rhs = step(m, x1, u1, w1) + step(m, x2, u2, w2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestSolveDare:
    def test_memoryless_plant(self):
        sol = solve_dare(scalar_model(0.0, 1.0, sigma_w=0.7))
        assert sol.P_star[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sol.K_star[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert sol.J_star == pytest.approx(0.49, abs=1e-12)

    def test_golden_ratio(self):
        sol = solve_dare(scalar_model(1.0, 1.0))
        assert sol.P_star[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert sol.K_star[0, 0] == pytest.approx(-1 / GOLDEN, abs=1e-12)

    def test_against_value_iteration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_stable_model(rng, 2, 2)
            sol = solve_dare(m)
            P_vi = value_iteration(m)
            assert np.max(np.abs(sol.P_star - P_vi)) <= 1e-9

    def test_residual_and_stability(self):
        rng = np.random.default_rng(5)
        m = random_stable_model(rng, 3, 3)
        sol = solve_dare(m)
        assert sol.residual <= 1e-8
        assert spectral_radius(m.A + m.B @ sol.K_star) < 1.0

    def test_unstabilizable_plant_raises(self):
        m = SystemModel(A=[[2.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=1.0, theta_bound=2.5)
        with pytest.raises(NotStabilizableError):
            solve_dare(m)

    def test_jstar_is_trace_times_variance(self):
        m = scalar_model(1.0, 1.0, sigma_w=2.0)
        sol = solve_dare(m)
        assert sol.J_star == pytest.approx(np.trace(sol.P_star) * 4.0)


class TestExactSdp:
    def test_memoryless_plant(self):
        m = scalar_model(0.0, 1.0)
        Sigma, K = exact_sdp(m)
        obj = np.trace(Sigma @ np.eye(2))
        assert obj == pytest.approx(1.0, abs=1e-4)
        assert K[0, 0] == pytest.approx(0.0, abs=1e-4)

    def test_golden_objective(self):
        m = scalar_model(1.0, 1.0)
        Sigma, K = exact_sdp(m)
        obj = float(np.trace(Sigma))
        assert obj == pytest.approx(GOLDEN, abs=1e-4)
        assert K[0, 0] == pytest.approx(-1 / GOLDEN, abs=1e-4)

    def test_returned_solution_feasible(self):
        rng = np.random.default_rng(3)
        m = random_stable_model(rng, 2, 2)
        Sigma, _ = exact_sdp(m)
        assert np.min(np.linalg.eigvalsh(Sigma)) >= -1e-9
        slack = Sigma[:2, :2] - (m.theta_star.T @ Sigma @ m.theta_star + m.W)
        # covariance equality is attained at the optimum up to solver accuracy
        assert np.min(np.linalg.eigvalsh(slack)) >= -1e-9
        assert spectral_norm(slack) <= 1e-4

    def test_non_square_plant_splits_at_n(self):
        from alqr.benchmarks import bench_3x2
        m = bench_3x2()
        _, K = exact_sdp(m)
        assert K.shape == (2, 3)
        assert np.max(np.abs(K - solve_dare(m).K_star)) <= 1e-4

    def test_unstabilizable_plant_rejected(self):
        from alqr.exceptions import ModelInvariantError
        m = SystemModel(A=[[2.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]],
                        sigma_w=1.0, theta_bound=2.5)
        with pytest.raises(ModelInvariantError):
            exact_sdp(m)


class TestStabilityCcertificate:
    def test_zero_closed_loop_clips_gamma(self):
        m = scalar_model(0.0, 0.0)
        cert = stability_certificate(m, [[0.0]])
        assert cert.gamma == pytest.approx(1.0 - 1e-9)
        assert cert.kappa == pytest.approx(1.0)
        assert cert.spectral_radius == 0.0

    def test_scalar_half(self):
        m = scalar_model(1.0, 1.0)
        cert = stability_certificate(m, [[-0.5]])
        assert cert.gamma == pytest.approx(0.5)
        assert spectral_norm(cert.L) == pytest.approx(0.5)
        assert spectral_norm(cert.L) <= 1 - cert.gamma + 1e-12

    def test_reconstruction_on_random_3x3(self):
        rng = np.random.default_rng(19)
        m = random_stable_model(rng, 3, 3)
        K = solve_dare(m).K_star
        cert = stability_certificate(m, K)
        M = m.A + m.B @ K
        recon = cert.H @ cert.L @ np.linalg.inv(cert.H)
        assert spectral_norm(recon - M) <= 1e-8
        assert spectral_norm(cert.L) <= 1 - cert.gamma + 1e-9
        Hinv = np.linalg.inv(cert.H)
        assert spectral_norm(cert.H) * spectral_norm(Hinv) <= cert.kappa + 1e-9

    def test_not_stabilizing(self):
        m = SystemModel(A=[[1.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], sigma_w=1.0)
        with pytest.raises(NotStabilizingError) as exc:
            stability_certificate(m, [[0.0]])
        assert exc.value.spectral_radius == pytest.approx(1.5)


class TestNuBound:
    def test_direct_formula(self):
        from alqr.lqr import StabilityCert
        m = scalar_model(0.5, 1.0)
        cert = StabilityCert(kappa=1.0, gamma=0.5, H=np.eye(1), L=np.zeros((1, 1)),
                             spectral_radius=0.5)
        assert nu_bound(m, cert) == pytest.approx(8.0)

    def test_direct_formula_multidim(self):
        from alqr.lqr import StabilityCert
        m = SystemModel(A=np.eye(2) * 0.5, B=[[1.0], [0.0]], Q=2 * np.eye(2),
                        R=[[2.0]], sigma_w=1.0, alpha0=2.0, alpha1=2.0)
        cert = StabilityCert(kappa=2.0, gamma=0.25, H=np.eye(2),
                             L=np.zeros((2, 2)), spectral_radius=0.75)
        assert nu_bound(m, cert) == pytest.approx(480.0)

    def test_dominates_empirical_cost(self, golden):
        sol = solve_dare(golden)
        K0 = np.array([[sol.K_star[0, 0] * 0.8]])  # suboptimal but stabilizing
        cert = stability_certificate(golden, K0)
        nu = nu_bound(golden, cert)
        a, b, k = golden.A[0, 0], golden.B[0, 0], K0[0, 0]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x, total = 0.0, 0.0
            w = rng.standard_normal(100_000)
            for t in range(100_000):
                u = k * x
                total += x * x + u * u
                x = a * x + b * u + w[t]
            assert total / 100_000 <= nu


class TestKappaGamma:
    def test_direct(self):
        k, g = kappa_gamma(8.0, 1.0, 1.0)
        assert k == pytest.approx(4.0)
        assert g == pytest.approx(1 / 32)

    def test_unit_case(self):
        k, g = kappa_gamma(0.5, 1.0, 1.0)
        assert k == pytest.approx(1.0)
        assert g == pytest.approx(0.5)

    @given(st.floats(0.1, 1e6), st.floats(0.01, 100), st.floats(0.01, 100))
    @settings(max_examples=50, deadline=None)
    def test_identity(self, nu, alpha0, sigma):
        k, g = kappa_gamma(nu, alpha0, sigma)
        assert g * 2 * k**2 == pytest.approx(1.0, rel=1e-12)
