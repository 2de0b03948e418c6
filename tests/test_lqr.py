import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqr import benchmarks
from alqr.exceptions import ConfigurationError, NotStabilizableError, NotStabilizingError
from alqr.linalg import spectral_norm, spectral_radius
from alqr.lqr import (
    SystemModel,
    kappa_gamma,
    nu_bound,
    solve_dare,
    stability_certificate,
)
from alqr.sdp import exact_sdp

GOLDEN = (1 + np.sqrt(5)) / 2


def scalar_model(a, b, sigma_w=1.0):
    return SystemModel(A=[[a]], B=[[b]], Q=[[1.0]], R=[[1.0]],
                       sigma_w=sigma_w, theta_bound=2.0)


def assert_certifies(cert, M):
    """M = H L H^{-1} with |L| <= 1 - gamma and cond(H) <= kappa."""
    recon = cert.H @ cert.L @ np.linalg.inv(cert.H)
    assert spectral_norm(recon - M) <= 1e-8
    assert spectral_norm(cert.L) <= 1 - cert.gamma + 1e-9
    Hinv = np.linalg.inv(cert.H)
    assert spectral_norm(cert.H) * spectral_norm(Hinv) <= cert.kappa + 1e-9


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


class TestPerturbedGain:
    """``perturbed_gain`` redraws the offset only when a solve fails as a
    plant can: with a package error or a LinAlgError."""

    @pytest.mark.parametrize("error", [NotStabilizableError("injected"),
                                       np.linalg.LinAlgError("injected")])
    def test_solver_failures_are_redrawn(self, monkeypatch, error):
        calls = []

        def failing(model):
            calls.append(model)
            raise error

        monkeypatch.setattr(benchmarks, "solve_dare", failing)
        with pytest.raises(ConfigurationError, match="could not build"):
            benchmarks.perturbed_gain(benchmarks.bench_2x2())
        assert len(calls) == 32

    def test_other_errors_propagate(self, monkeypatch):
        def broken(model):
            raise TypeError("injected")

        monkeypatch.setattr(benchmarks, "solve_dare", broken)
        with pytest.raises(TypeError, match="injected"):
            benchmarks.perturbed_gain(benchmarks.bench_2x2())


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
        assert_certifies(stability_certificate(m, K), m.A + m.B @ K)

    def test_nilpotent_closed_loop_certificate_is_valid(self):
        # rho = 0 but |A + BK| = 1: H = I cannot certify gamma near 1
        m = SystemModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                        Q=np.eye(2), R=[[1.0]], sigma_w=1.0)
        assert_certifies(stability_certificate(m, [[0.0, 0.0]]), m.A)

    def test_not_stabilizing(self):
        m = SystemModel(A=[[1.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], sigma_w=1.0)
        with pytest.raises(NotStabilizingError) as exc:
            stability_certificate(m, [[0.0]])
        assert exc.value.spectral_radius == pytest.approx(1.5)


class TestModelValidation:
    @pytest.mark.parametrize("overrides, field, match", [
        (dict(A=[[0.5, 0.1]]), "A", "A must be square"),
        (dict(B=[[1.0], [1.0]]), "B", "B row count"),
        (dict(Q=np.eye(2)), "Q", "Q must be n x n"),
        (dict(R=np.eye(2)), "R", "R must be m x m"),
        (dict(Q=[[-1.0]]), "Q", "must be PSD"),
        (dict(R=[[-1.0]]), "Q", "must be PSD"),
        (dict(alpha0=2.0), "alpha0", "<= Q <="),
        (dict(R=[[5.0]], alpha0=1.0, alpha1=2.0), "alpha0", "<= R <="),
        (dict(sigma_w=-1.0), "sigma_w", "sigma_w"),
        (dict(theta_bound=0.1), "theta_bound", "exceeds theta_bound"),
        (dict(A=[[math.inf]]), "A", "A must be finite"),
        (dict(Q=[[math.nan]]), "Q", "Q must be finite"),
        (dict(sigma_w=math.nan), "sigma_w", "sigma_w must be finite"),
        (dict(theta_bound=math.nan), "theta_bound", "theta_bound must be finite"),
        (dict(alpha1=math.inf), "alpha1", "alpha1 must be finite"),
    ], ids=["A-not-square", "B-rows", "Q-shape", "R-shape", "Q-not-psd", "R-not-psd",
            "Q-alpha-bounds", "R-alpha-bounds", "negative-sigma", "theta-bound",
            "A-not-finite", "Q-not-finite", "sigma-not-finite", "theta-bound-not-finite",
            "alpha1-not-finite"])
    def test_invalid_model_rejected(self, overrides, field, match):
        spec = dict(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], sigma_w=1.0)
        with pytest.raises(ConfigurationError, match=match) as exc:
            SystemModel(**{**spec, **overrides})
        assert exc.value.field == field

    def test_dare_needs_positive_definite_R(self):
        m = SystemModel(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[0.0]])
        with pytest.raises(ConfigurationError) as exc:
            solve_dare(m)
        assert exc.value.field == "R"

    def test_certificate_needs_an_m_by_n_gain(self):
        with pytest.raises(ConfigurationError) as exc:
            stability_certificate(scalar_model(0.5, 1.0), np.zeros((2, 1)))
        assert exc.value.field == "K"


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
