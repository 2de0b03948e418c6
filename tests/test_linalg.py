import ast
from pathlib import Path

import numpy as np
import pytest

import alqr
from alqr import linalg
from alqr.exceptions import CertificateError
from alqr.linalg import (
    logdet_pd,
    matvec_rows,
    psd_roots,
    quad_rows,
    row_blocks,
    spectral_norm,
    sym,
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


class TestLapackLayer:
    """Each function of linalg's LAPACK layer gives the bits, or raises the
    exception and message, of its np.linalg counterpart: on every size the
    package runs (n <= 5), on C- and F-ordered inputs, the strided views and
    stacks the runtime passes, and singular, non-PD and non-finite inputs.
    A numpy whose gufuncs changed fails here."""

    NUMPY = {
        "solve": np.linalg.solve,
        "inv": np.linalg.inv,
        "cholesky": np.linalg.cholesky,
        "eigvals": np.linalg.eigvals,
        "eigvalsh": np.linalg.eigvalsh,
        "eigh": np.linalg.eigh,
        "svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
        "slogdet": np.linalg.slogdet,
    }
    UNARY = tuple(NUMPY)[1:]
    LAPACK = {"solve", "inv", "cholesky", "eigvals", "eigvalsh", "eigh", "svd", "svdvals",
              "slogdet"}

    @staticmethod
    def outcome(f, *args):
        """What a call gives: each array's dtype, shape and bytes, or the
        exception's type and message."""
        try:
            out = f(*args)
        except Exception as exc:  # a warning turned error counts too
            return type(exc), str(exc)
        parts = out if isinstance(out, tuple) else (out,)
        return [(np.asarray(x).dtype, np.shape(x), np.asarray(x).tobytes()) for x in parts]

    def assert_same(self, name, *args):
        want = self.outcome(self.NUMPY[name], *args)
        assert self.outcome(getattr(linalg, name), *args) == want, name

    @staticmethod
    def matrices(n, seed, order):
        """A general matrix, an SPD one and its Cholesky factor, in ``order``,
        and the strided views the runtime passes: a trailing block
        (``C0[n:, n:]``) and a transpose (``L.T``)."""
        rng = np.random.default_rng(seed)
        M = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, n))
        S = spd_stack(rng, 1, n)[0]
        big = spd_stack(rng, 1, n + 2)[0]
        L = np.linalg.cholesky(S)
        return [np.asarray(a, order=order) for a in (M, S, L, sym(M))] + [big[2:, 2:], L.T]

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unary_bits(self, n, order):
        for seed in range(20):
            for a in self.matrices(n, 100 * n + seed, order):
                for name in self.UNARY:
                    self.assert_same(name, a)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_solve_bits(self, n, order):
        rng = np.random.default_rng(n)
        for seed in range(20):
            for a in self.matrices(n, 200 * n + seed, order):
                self.assert_same("solve", a, rng.standard_normal(n))
                for k in range(1, 6):
                    b = rng.standard_normal((n, k))
                    self.assert_same("solve", a, np.asarray(b, order=order))
                    self.assert_same("solve", a, rng.standard_normal((k, n)).T)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cols", [1, 2, 3, 4, 5])
    def test_svdvals_of_rectangles(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        for _ in range(20):
            M = rng.standard_normal((rows, cols))
            self.assert_same("svdvals", M)
            self.assert_same("svdvals", np.asfortranarray(M))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stacks(self, n):
        # logdet_pd, anynum_condition, psd_roots and nuclear_norm pass SPD
        # stacks; epoch_rho a stack of closed loops; q_values (k, p, 1) rhs
        rng = np.random.default_rng(30 + n)
        S = spd_stack(rng, 40, n)
        M = rng.standard_normal((40, n, n))
        for a in (S, M, S.swapaxes(1, 2), M[::2]):
            for name in self.UNARY:
                self.assert_same(name, a)
        self.assert_same("solve", S, rng.standard_normal((40, n, 1)))
        self.assert_same("solve", M, rng.standard_normal((40, n, n)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_failures_raise_as_numpy_does(self, n):
        zero, ones, eye = np.zeros((n, n)), np.ones((n, n)), np.eye(n)
        bad = [zero, ones, -eye, np.diag(np.r_[np.ones(n - 1), -1.0])]  # singular, not PD
        for value in (np.nan, np.inf, -np.inf):
            a = eye.copy()
            a[-1, 0] = value
            bad.append(a)
        for a in bad:
            for name in self.UNARY:
                self.assert_same(name, a)
            self.assert_same("solve", a, np.ones(n))
            self.assert_same("solve", a, np.ones((n, 2)))
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            linalg.inv(zero)
        with pytest.raises(np.linalg.LinAlgError, match="^Matrix is not positive definite$"):
            linalg.cholesky(-eye)
        with pytest.raises(np.linalg.LinAlgError, match="^Array must not contain infs or NaNs$"):
            linalg.eigvals(bad[-1])

    def test_only_linalg_calls_lapack(self):
        # sdp, a test oracle that is never on the run path, is exempt
        found = []
        for path in sorted(Path(alqr.__file__).parent.glob("*.py")):
            if path.name in ("linalg.py", "sdp.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr in self.LAPACK
                        and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
                elif (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                        and {a.name for a in node.names} & self.LAPACK):
                    found.append(f"{path.name}:{node.lineno}: from numpy.linalg import")
        assert found == []
