import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alqr.estimation import (
    ConfidenceEllipsoid,
    EstimatorState,
    confidence_radius,
    covariance_blocks,
    ellipsoid,
    ellipsoid_contains,
    estimate,
    estimation_error_bound,
    gram_sums,
    ingest,
    min_eig_prediction,
)
from alqr.exceptions import ConfigurationError
from alqr.harness import ExperimentConfig, shared_setup
from alqr.linalg import _BLOCK, logdet_pd, sym
from alqr.schedules import build_schedule, lambda_t, p_bar


def lse_objective(state: EstimatorState, lambda_t: float, Theta) -> float:
    """Regularized LS objective through the stored moments, up to the
    Theta-independent sum |x|^2 (enough for minimizer checks).

    e(Theta) = lambda tr((Theta-Theta_0)'(Theta-Theta_0)) + sum |x' - Theta' z|^2
    """
    Theta = np.asarray(Theta, dtype=float)
    anchor = state.anchor if state.anchored else np.zeros_like(Theta)
    D = Theta - anchor
    val = lambda_t * float(np.sum(D * D))
    val += float(np.sum(Theta * (state.gram @ Theta))) - 2.0 * float(np.sum(Theta * state.cross))
    return val


def fresh(dim_z=2, dim_x=1, anchor=None, eps=None):
    return EstimatorState(dim_z=dim_z, dim_x=dim_x, anchor=anchor, anchor_error=eps)


class TestCovarianceBlocks:
    def test_replays_online_covariances_bit_for_bit(self):
        # T = 256 is one block, 257 one row past it, 2100 nine blocks
        for (n, m), T in itertools.product([(1, 1), (2, 1), (3, 2), (4, 1)],
                                           [256, 257, 2100]):
            rng = np.random.default_rng(0)
            x = rng.standard_normal((T + 1, n)) * rng.exponential(3.0, (T + 1, 1))
            u = rng.standard_normal((T, m))
            lam = rng.uniform(1.0, 3.0, T)
            st_ = fresh(dim_z=n + m, dim_x=n)
            before = []
            for s in range(T):
                before.append(st_.covariance(lam[s]))
                ingest(st_, np.concatenate([x[s], u[s]]), x[s + 1])
            blocks = list(covariance_blocks(x, u, lam))
            assert len(blocks) == -(-T // _BLOCK)
            assert [lo for lo, _, _ in blocks] == np.cumsum(
                [0] + [len(z) for _, z, _ in blocks[:-1]]).tolist()
            assert np.array_equal(np.concatenate([z for _, z, _ in blocks]),
                                  np.hstack([x[:-1], u]))
            assert np.array_equal(np.concatenate([V for _, _, V in blocks]),
                                  np.array(before)), (n, m, T)


class TestIngest:
    def test_single_basis_vector(self):
        st_ = fresh()
        ingest(st_, [1.0, 0.0], [0.0])
        assert np.allclose(st_.gram, [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(st_.cross, 0.0)
        assert st_.t == 1

    def test_additivity(self):
        st_ = fresh()
        for _ in range(2):
            ingest(st_, [1.0, 2.0], [3.0])
        assert np.allclose(st_.gram, 2 * np.outer([1, 2], [1, 2]))

    def test_batch_recompute_oracle(self):
        rng = np.random.default_rng(0)
        st_ = fresh(dim_z=4, dim_x=2)
        Z = rng.standard_normal((700, 4))
        X = rng.standard_normal((700, 2))
        for z, x in zip(Z[:100], X[:100]):
            ingest(st_, z, x)
        assert np.max(np.abs(st_.gram - Z[:100].T @ Z[:100])) <= 1e-10
        assert np.max(np.abs(st_.cross - Z[:100].T @ X[:100])) <= 1e-10
        assert st_.t == 100
        # k rows in one call on top of those 100 give the bits of k one-row
        # ingests; 300 and 600 rows cross the 256-row block boundaries
        for k in (1, 2, 300, 600):
            rows = copy.deepcopy(st_)
            assert ingest(rows, Z[100:100 + k], X[100:100 + k]) is rows
            one = fresh(dim_z=4, dim_x=2)
            for z, x in zip(Z[:100 + k], X[:100 + k]):
                ingest(one, z, x)
            assert np.array_equal(rows.gram, one.gram)
            assert np.array_equal(rows.cross, one.cross)
            assert rows.t == one.t == 100 + k

    def test_gram_sums_hand_off_has_ingest_bits(self):
        # the sums of a speculative block give V_t of its steps; ingesting the
        # first k rows, the ones kept, leaves the Gram with the same bits
        rng = np.random.default_rng(1)
        Z, X = rng.standard_normal((300, 4)) * 3.0, rng.standard_normal((300, 2))
        start = ingest(fresh(dim_z=4, dim_x=2), Z[:40], X[:40])
        for k in (1, 37, 256):
            kept = copy.deepcopy(start)
            S = gram_sums(kept, Z[40:44 + k])
            assert kept.t == 40 and np.array_equal(kept.gram, start.gram)
            ingest(kept, Z[40:40 + k], X[40:40 + k])
            assert np.array_equal(kept.gram, S[k - 1])
            assert kept.t == 40 + k

    @staticmethod
    def wide_rows(rng, k, dim):
        """Rows whose magnitudes span 1e-8..1e8, where a pairwise sum and a
        step-order sum of their products differ."""
        return rng.standard_normal((k, dim)) * 10.0 ** rng.uniform(-8, 8, (k, 1))

    @pytest.mark.parametrize("dim_z", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim_x", [1, 2, 3])
    def test_rows_and_sums_have_one_row_bits(self, dim_z, dim_x):
        rng = np.random.default_rng(10 * dim_z + dim_x)
        k = 600  # crosses two 256-row block edges
        Z, X = self.wide_rows(rng, k + 5, dim_z), self.wide_rows(rng, k + 5, dim_x)
        start = ingest(fresh(dim_z=dim_z, dim_x=dim_x), Z[:5], X[:5])
        one, grams = copy.deepcopy(start), []
        for z, x in zip(Z[5:], X[5:]):
            ingest(one, z, x)
            grams.append(one.gram.copy())
        rows = ingest(copy.deepcopy(start), Z[5:], X[5:])
        assert np.array_equal(rows.gram, one.gram)
        assert np.array_equal(rows.cross, one.cross)
        assert rows.t == one.t == k + 5
        assert np.array_equal(gram_sums(start, Z[5:]), np.array(grams))

    def test_gram_is_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        est = fresh(dim_z=5, dim_x=3)
        for k in rng.integers(1, 400, 12).tolist():
            ingest(est, self.wide_rows(rng, k, 5), self.wide_rows(rng, k, 3))
            assert np.array_equal(est.gram, est.gram.T)
            V = est.covariance(0.37)
            assert np.array_equal(V, V.T)

    def test_dimension_mismatch(self):
        for z, x_next in (([1.0], [0.0]),
                          ([1.0, 2.0], [0.0, 1.0]),
                          (np.ones((3, 2)), np.ones((2, 1))),  # row counts differ
                          ([1.0, 2.0], [[0.0], [1.0]]),
                          (np.ones((2, 2, 2)), np.ones((2, 2, 1)))):
            with pytest.raises(ConfigurationError):
                ingest(fresh(), z, x_next)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_gram_always_psd(self, seed, count):
        rng = np.random.default_rng(seed)
        st_ = fresh(dim_z=3, dim_x=2)
        for _ in range(count):
            ingest(st_, rng.standard_normal(3), rng.standard_normal(2))
        assert np.min(np.linalg.eigvalsh(st_.gram)) >= -1e-10
        assert st_.t == count


class TestRunnerCovariances:
    """V_t = lambda I + S as the runners build it is exactly symmetric, so
    ``logdet_pd`` takes it as it is, with the bits of a symmetrised one."""

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2), (4, 1)])
    def test_logdet_pd_has_symmetrised_bits(self, n, m):
        rng = np.random.default_rng(n + 7 * m)
        p, k = n + m, 300
        Z = rng.standard_normal((k, p)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
        X = rng.standard_normal((k + 1, n))
        lam = rng.uniform(0.5, 50.0, k)
        est = ingest(fresh(dim_z=p, dim_x=n), Z[:20], X[1:21])
        S = gram_sums(est, Z[20:])
        stacks = [
            0.01 * np.eye(p) + S,  # the warm-up's, rho I + S after each row
            lam[21:, None, None] * np.eye(p) + S[:-1],  # ASLO's block criterion
            np.array([est.covariance(v) for v in lam[:5]]),  # ASLO's block opening
        ]
        stacks += [V for _, _, V in covariance_blocks(X[:-1, :n], Z[:, n:], lam)]
        for V in stacks:
            assert np.array_equal(V, V.swapaxes(-1, -2))
            assert np.array_equal(logdet_pd(V), np.linalg.slogdet(sym(V))[1])
            assert np.array_equal(logdet_pd(V[0]), np.linalg.slogdet(sym(V[0]))[1])

    def test_ellipsoid_parts_have_their_functions_bits(self):
        rng = np.random.default_rng(5)
        anchor = rng.standard_normal((4, 2))
        for variant in ("anchored", "unanchored"):
            est = fresh(dim_z=4, dim_x=2, anchor=anchor if variant == "anchored" else None,
                        eps=0.3)
            ingest(est, rng.standard_normal((50, 4)), rng.standard_normal((50, 2)))
            ell = ellipsoid(est, 0.05, 2.5, 1.0, variant, theta_bound=4.0)
            assert np.array_equal(ell.center, estimate(est, 2.5))
            assert np.array_equal(ell.shape, est.covariance(2.5))
            assert ell.radius == confidence_radius(est, 0.05, 2.5, 1.0, variant,
                                                   theta_bound=4.0)


class TestEstimate:
    def test_no_data_returns_anchor(self):
        anchor = np.array([[0.3], [0.7]])
        st_ = fresh(anchor=anchor, eps=1.0)
        assert np.array_equal(estimate(st_, 2.0), anchor)

    def test_scalar_shrinkage(self):
        st_ = fresh(dim_z=1, dim_x=1, anchor=np.zeros((1, 1)), eps=1.0)
        ingest(st_, [1.0], [0.8])
        assert estimate(st_, 1.0)[0, 0] == pytest.approx(0.4)

    def test_noiseless_consistency(self):
        rng = np.random.default_rng(5)
        theta = rng.standard_normal((3, 2))
        st_ = fresh(dim_z=3, dim_x=2, anchor=np.zeros((3, 2)), eps=10.0)
        for _ in range(200):
            z = rng.standard_normal(3)
            ingest(st_, z, theta.T @ z)
        err = np.linalg.norm(estimate(st_, 1e-6) - theta)
        assert err <= 1e-5

    def test_minimizes_regularized_objective(self):
        rng = np.random.default_rng(9)
        st_ = fresh(dim_z=3, dim_x=2, anchor=rng.standard_normal((3, 2)), eps=1.0)
        for _ in range(20):
            ingest(st_, rng.standard_normal(3), rng.standard_normal(2))
        lam = 0.7
        theta_hat = estimate(st_, lam)
        base = lse_objective(st_, lam, theta_hat)
        for _ in range(50):
            D = rng.standard_normal(theta_hat.shape)
            D *= 1e-4 / np.linalg.norm(D)
            assert lse_objective(st_, lam, theta_hat + D) - base >= -1e-12

    def test_covariance_floor(self):
        rng = np.random.default_rng(2)
        st_ = fresh(dim_z=3, dim_x=1)
        for _ in range(7):
            ingest(st_, rng.standard_normal(3), rng.standard_normal(1))
        lam = 0.42
        V = st_.covariance(lam)
        assert np.min(np.linalg.eigvalsh(V - lam * np.eye(3))) >= -1e-12


class TestConfidenceRadius:
    def test_direct_evaluation_at_t0(self):
        st_ = fresh(dim_z=1, dim_x=1, anchor=np.zeros((1, 1)), eps=1.0)
        r = confidence_radius(st_, 0.1, 1.0, 1.0, "anchored")
        # single-expression oracle: V = lambda I so the det ratio is 1
        expect = (math.sqrt(2 * math.log(10)) + 1.0) ** 2
        assert r == pytest.approx(expect, rel=1e-12)

    def test_zero_anchor_error(self):
        st_ = fresh(dim_z=3, dim_x=2, anchor=np.zeros((3, 2)), eps=0.0)
        r = confidence_radius(st_, 0.1, 2.0, 1.5, "anchored")
        assert r == pytest.approx(2 * 2 * 1.5**2 * math.log(2 / 0.1), rel=1e-12)

    def test_nondecreasing_in_det(self):
        rng = np.random.default_rng(1)
        st_ = fresh(dim_z=2, dim_x=1, anchor=np.zeros((2, 1)), eps=0.5)
        last = confidence_radius(st_, 0.1, 1.0, 1.0, "anchored")
        for _ in range(20):
            ingest(st_, rng.standard_normal(2), rng.standard_normal(1))
            r = confidence_radius(st_, 0.1, 1.0, 1.0, "anchored")
            assert r >= last - 1e-12
            last = r

    def test_unanchored_uses_theta_bound(self):
        st_ = fresh(dim_z=1, dim_x=1)
        r = confidence_radius(st_, 0.1, 4.0, 1.0, "unanchored", theta_bound=2.0)
        expect = (math.sqrt(2 * math.log(10)) + 2.0 * 2.0) ** 2
        assert r == pytest.approx(expect, rel=1e-12)

    def test_delta_domain(self):
        with pytest.raises(ConfigurationError):
            confidence_radius(fresh(anchor=np.zeros((2, 1)), eps=1.0), 1.5, 1.0, 1.0)

    @pytest.mark.parametrize("radius", [confidence_radius, ellipsoid])
    def test_refusals(self, radius):
        # the anchored radius reads the state's anchor error, and refuses a
        # state without one, even with a theta_bound at hand
        with pytest.raises(ConfigurationError) as exc:
            radius(fresh(anchor=np.zeros((2, 1))), 0.1, 1.0, 1.0, "anchored",
                   theta_bound=2.0)
        assert exc.value.field == "anchor_error"
        # the unanchored radius refuses a missing theta_bound, even with an
        # anchor error at hand
        with pytest.raises(ConfigurationError) as exc:
            radius(fresh(anchor=np.zeros((2, 1)), eps=1.0), 0.1, 1.0, 1.0, "unanchored")
        assert exc.value.field == "theta_bound"


class TestEllipsoidContains:
    def test_center(self):
        ell = ConfidenceEllipsoid(center=np.ones((2, 1)), shape=np.eye(2),
                                  radius=0.5)
        assert ellipsoid_contains(ell, np.ones((2, 1)))

    def test_boundary_inclusive(self):
        ell = ConfidenceEllipsoid(center=np.zeros((1, 1)), shape=4.0 * np.eye(1),
                                  radius=1.0)
        assert ellipsoid_contains(ell, np.array([[0.5]]))
        assert not ellipsoid_contains(ell, np.array([[0.5000001]]))

    def test_assembled_ellipsoid(self):
        rng = np.random.default_rng(3)
        st_ = fresh(dim_z=2, dim_x=1, anchor=np.zeros((2, 1)), eps=1.0)
        for _ in range(10):
            ingest(st_, rng.standard_normal(2), rng.standard_normal(1))
        ell = ellipsoid(st_, 0.1, 1.0, 1.0, "anchored")
        assert ellipsoid_contains(ell, ell.center)
        assert ell.radius > 0


class TestMinEigPrediction:
    def test_direct(self):
        assert min_eig_prediction(1600, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_time(self):
        assert min_eig_prediction(0, 1.0, 1.0) == 0.0


class TestEstimationErrorBound:
    def test_positive(self, bench2x2_params):
        assert estimation_error_bound(100, bench2x2_params) > 0

    def test_formula_slope(self, bench2x2_params):
        # numeric slope of the bound itself over tau in [1e2, 1e6]; the
        # sqrt(p_bar) denominator makes it slightly steeper than -1/4
        taus = np.logspace(2, 6, 40)
        vals = np.array([estimation_error_bound(int(t), bench2x2_params)
                         for t in taus])
        slope = np.polyfit(np.log(taus), np.log(vals), 1)[0]
        assert -0.35 < slope < -0.20

    @pytest.mark.parametrize("criterion, chi", [("det_double", 0.0),
                                                ("relaxed_sequential", 0.1)])
    def test_practical_matches_linear_form(self, golden, criterion, chi):
        # a large lambda scale makes sqrt(lambda_tau) eps_bar a visible share
        params = build_schedule(golden, nu=2.0, criterion=criterion, chi=chi,
                                beta=3.0, lambda_scale=1e12)
        sigma, n, delta = params.sigma_w, params.n, params.delta
        for tau in (1, 7, 100, 12345):
            lead = math.sqrt(40.0) / (sigma * math.sqrt(p_bar(tau, delta, params.phi))
                                      * tau**0.25)
            inner = 2.0 * n * math.log((n / delta) * (1.0 + params.alpha_bar / params.G_phi)
                                       * tau)
            tail = math.sqrt(lambda_t(tau, params)) * params.eps_bar
            assert tail > 1e-3 * sigma * math.sqrt(inner)
            assert estimation_error_bound(tau, params) == pytest.approx(
                lead * (sigma * math.sqrt(inner) + tail), rel=1e-12, abs=0)

    def test_theory_mode_finite(self):
        params = shared_setup(ExperimentConfig(benchmark="bench-3x2",
                                               constants="theory")).params
        for tau in (1, 100, 10**6):
            assert 0 < estimation_error_bound(tau, params) < math.inf
