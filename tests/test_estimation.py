import copy
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
    ingest,
    lse_objective,
    min_eig_prediction,
)
from alqr.exceptions import ConfigurationError


def fresh(dim_z=2, dim_x=1, anchor=None, eps=None):
    return EstimatorState(dim_z=dim_z, dim_x=dim_x, anchor=anchor, anchor_error=eps)


class TestCovarianceBlocks:
    def test_replays_online_covariances_bit_for_bit(self):
        rng = np.random.default_rng(0)
        T, n, m = 2100, 2, 1
        x = rng.standard_normal((T + 1, n)) * rng.exponential(3.0, (T + 1, 1))
        u = rng.standard_normal((T, m))
        lam = rng.uniform(1.0, 3.0, T)
        st_ = fresh(dim_z=n + m, dim_x=n)
        before, after = [], []
        for s in range(T):
            before.append(st_.covariance(lam[s]))
            ingest(st_, np.concatenate([x[s], u[s]]), x[s + 1])
            after.append(st_.covariance(lam[s]))
        for ingested, expect in ((False, before), (True, after)):
            blocks = list(covariance_blocks(x, u, lam, ingested=ingested))
            assert len(blocks) > 2
            assert [lo for lo, _, _ in blocks] == np.cumsum(
                [0] + [len(z) for _, z, _ in blocks[:-1]]).tolist()
            assert np.array_equal(np.concatenate([z for _, z, _ in blocks]),
                                  np.hstack([x[:-1], u]))
            assert np.array_equal(np.concatenate([V for _, _, V in blocks]),
                                  np.array(expect))


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


class TestEllipsoidContains:
    def test_center(self):
        ell = ConfidenceEllipsoid(center=np.ones((2, 1)), shape=np.eye(2),
                                  radius=0.5, delta=0.1, lambda_used=1.0)
        assert ellipsoid_contains(ell, np.ones((2, 1)))

    def test_boundary_inclusive(self):
        ell = ConfidenceEllipsoid(center=np.zeros((1, 1)), shape=4.0 * np.eye(1),
                                  radius=1.0, delta=0.1, lambda_used=1.0)
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
