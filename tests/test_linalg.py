import numpy as np
import pytest

from alqr.exceptions import CertificateError
from alqr.linalg import logdet_pd, matvec_rows, quad_rows, row_blocks, spectral_norm


def spd_stack(rng, k, p):
    A = rng.standard_normal((k, p, p))
    return A @ A.swapaxes(-1, -2) + 0.1 * np.eye(p)


class TestLogdetPd:
    def test_stack_equals_per_matrix(self):
        V = spd_stack(np.random.default_rng(0), 300, 4)
        got = logdet_pd(V)
        assert got.shape == (300,)
        assert np.array_equal(got, [logdet_pd(v) for v in V])

    def test_one_matrix_gives_float(self):
        assert isinstance(logdet_pd(2.0 * np.eye(3)), float)

    def test_non_pd_anywhere_in_stack_raises(self):
        V = spd_stack(np.random.default_rng(1), 10, 3)
        V[7] = -V[7]  # odd dimension: negative determinant
        with pytest.raises(CertificateError):
            logdet_pd(V[7])
        with pytest.raises(CertificateError):
            logdet_pd(V)

    def test_non_strict_stack_reads_nan_where_not_pd(self):
        V = spd_stack(np.random.default_rng(2), 10, 3)
        V[7] = -V[7]
        V[2] = 0.0  # singular
        got = logdet_pd(V, strict=False)
        assert np.isnan(got[[2, 7]]).all()
        keep = [0, 1, 3, 4, 5, 6, 8, 9]
        assert np.array_equal(got[keep], logdet_pd(V[keep]))


class TestRowHelpers:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2), (5, 1)])
    def test_bits_equal_per_row_products(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        a, b = rng.standard_normal((500, n)), rng.standard_normal((500, n))
        P, K = rng.standard_normal((n, n)), rng.standard_normal((m, n))
        assert np.array_equal(quad_rows(a, P), [a_s @ P @ a_s for a_s in a])
        assert np.array_equal(quad_rows(a, P, b), [a_s @ P @ b_s for a_s, b_s in zip(a, b)])
        assert np.array_equal(matvec_rows(K, a), [K @ a_s for a_s in a])

    def test_row_blocks_tile_the_steps(self):
        assert row_blocks(0) == []
        bounds = row_blocks(2500)
        # the T = 2500 oracle tests rely on spanning several blocks
        assert len(bounds) > 2
        assert bounds[0][0] == 0 and bounds[-1][1] == 2500
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))


class TestSpectralNorm:
    """``spectral_norm`` takes the SVD's first value; it must keep the bits of
    ``np.linalg.norm(M, 2)``, the max over the same singular values."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 5])
    def test_bits_equal_two_norm(self, rows, cols, order):
        rng = np.random.default_rng(100 * rows + 10 * cols + (order == "F"))
        scales = 10.0 ** rng.uniform(-6, 6, size=200)
        for scale in scales:
            M = np.asarray(scale * rng.standard_normal((rows, cols)), order=order)
            assert np.array_equal(spectral_norm(M), float(np.linalg.norm(M, 2)))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (5, 5), (4, 1)])
    def test_zero_and_rank_one(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        zero = np.zeros((rows, cols))
        assert np.array_equal(spectral_norm(zero), float(np.linalg.norm(zero, 2)))
        assert spectral_norm(zero) == 0.0
        u, v = rng.standard_normal(rows), rng.standard_normal(cols)
        for M in (np.outer(u, v), np.asfortranarray(np.outer(u, v))):
            assert np.array_equal(spectral_norm(M), float(np.linalg.norm(M, 2)))
