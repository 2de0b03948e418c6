import numpy as np
import pytest

from alqr.exceptions import CertificateError
from alqr.linalg import (
    logdet_pd,
    matvec_rows,
    psd_roots,
    quad_rows,
    row_blocks,
    spectral_norm,
)


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


class TestStackedBits:
    """The per-epoch bookkeeping reads stacked gufunc calls and matmuls: each
    matrix of a stack must get the bits of its own call, at every size the
    package runs (n <= 5)."""

    K = 40  # matrices per stack

    @staticmethod
    def stack(n, seed):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-3, 3, size=(TestStackedBits.K, 1, 1))
        return scales * rng.standard_normal((TestStackedBits.K, n, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_decompositions(self, n):
        M = self.stack(n, n)
        S = spd_stack(np.random.default_rng(10 + n), self.K, n)
        each = lambda f, X: [f(x) for x in X]
        assert np.array_equal(np.linalg.eigvals(M), each(np.linalg.eigvals, M))
        # a stack's eigenvalues turn complex for all when one matrix's do;
        # their moduli keep the bits of the per-matrix ones
        assert np.array_equal(np.abs(np.linalg.eigvals(M)),
                              [np.abs(np.linalg.eigvals(x)) for x in M])
        w, U = np.linalg.eigh(S)
        for k, x in enumerate(S):
            w_k, U_k = np.linalg.eigh(x)
            assert np.array_equal(w[k], w_k) and np.array_equal(U[k], U_k)
        assert np.array_equal(np.linalg.svd(M, compute_uv=False),
                              each(lambda x: np.linalg.svd(x, compute_uv=False), M))
        sign, ld = np.linalg.slogdet(M)
        assert np.array_equal(np.stack([sign, ld], axis=1), each(np.linalg.slogdet, M))
        assert np.array_equal(np.linalg.solve(M, S), [np.linalg.solve(a, b)
                                                      for a, b in zip(M, S)])
        assert np.array_equal(np.linalg.inv(M), each(np.linalg.inv, M))
        assert np.array_equal(np.linalg.cholesky(S), each(np.linalg.cholesky, S))

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 6) for m in range(1, 6)])
    def test_matmul(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        A = rng.standard_normal((self.K, n, m))
        B = rng.standard_normal((self.K, m, n))
        F, G = rng.standard_normal((n, m)), rng.standard_normal((m, n))
        rows = rng.standard_normal((self.K, 1, n))
        assert np.array_equal(A @ B, [a @ b for a, b in zip(A, B)])
        assert np.array_equal(F @ B, [F @ b for b in B])  # broadcast on the left
        assert np.array_equal(A @ G, [a @ G for a in A])  # and on the right
        # transposed views, as psd_roots forms U diag(r) U'
        assert np.array_equal(A @ A.swapaxes(1, 2), [a @ a.T for a in A])
        assert np.array_equal(rows @ A, [r @ a for r, a in zip(rows, A)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_psd_roots_of_a_stack(self, n):
        S = spd_stack(np.random.default_rng(20 + n), self.K, n)
        roots, inv_roots = psd_roots(S)
        for k, x in enumerate(S):
            root, inv_root = psd_roots(x)
            assert np.array_equal(roots[k], root) and np.array_equal(inv_roots[k], inv_root)

    def test_psd_roots_names_the_first_non_pd_matrix(self):
        S = np.stack([np.eye(2), np.diag([1.0, -2.0]), np.diag([-3.0, 1.0])])
        with pytest.raises(CertificateError, match=r"^matrix is not PD \(min eig -2\)$"):
            psd_roots(S)
        with pytest.raises(CertificateError, match=r"^matrix is not PD \(min eig -3\)$"):
            psd_roots(S[2])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_row_sums(self, k):
        # the nuclear norms of a stack: each row summed as one vector is
        rng = np.random.default_rng(k)
        s = 10.0 ** rng.uniform(-8, 8, size=(500, k))
        assert np.array_equal(s.sum(axis=-1), [row.sum() for row in s])
