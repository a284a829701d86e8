import tracemalloc

import numpy as np
import pytest

from crossrep.errors import ConvergenceError, FitError, ValidationError
from crossrep.learners import fit_svr, predict, rbf_gram
from crossrep.learners.svr import GRAM_CHUNK_FLOATS, _smo

from helpers import dual_objective, projected_gradient_svr_dual, rbf_kernel


class TestRbfKernel:
    def test_self_kernel_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert rbf_kernel(x, x, 0.2) == 1.0

    def test_symmetry(self):
        x, z = np.array([1.0, 2.0]), np.array([-0.5, 0.7])
        assert rbf_kernel(x, z, 0.7) == rbf_kernel(z, x, 0.7)

    def test_direct_value(self):
        assert abs(rbf_kernel([0.0], [1.0], 0.2) - np.exp(-0.2)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            rbf_kernel([1.0, 2.0], [1.0], 0.2)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            A = rng.normal(size=(10, 3))
            K = rbf_gram(A, A, 0.5)
            assert np.allclose(K, K.T)
            assert np.linalg.eigvalsh(K).min() > -1e-8

    @pytest.mark.parametrize("a_rows, b_rows, p", [(1, 1, 1), (10, 130, 7), (168, 168, 12),
                                                   (40, 130, 30), (3000, 3, 12)])
    def test_gram_matches_column_loop_bitwise(self, a_rows, b_rows, p):
        # Chunks of 64, 8 and 13 rows of B, and one row at a time for the last shape.
        rng = np.random.default_rng(a_rows + b_rows)
        A, B = rng.normal(size=(a_rows, p)), rng.normal(size=(b_rows, p))
        expected = np.empty((a_rows, b_rows))
        for j in range(b_rows):
            d = A - B[j]
            expected[:, j] = np.exp(-0.3 * (d * d).sum(axis=1))
        assert np.array_equal(rbf_gram(A, B, 0.3), expected)

    def test_one_difference_chunk_is_alive_at_a_time(self):
        """Above the Gram itself, peak memory stays within one chunk of 2**14
        differences and the chunk's three sums: every chunk is written into
        one preallocated buffer, one row of B at a time, so numpy's iterator
        needs no buffers of its own. A is 512 x 8, so a chunk takes 4 rows of
        B and each sum is 4 x 512."""
        rng = np.random.default_rng(4)
        A, B = rng.normal(size=(512, 8)), rng.normal(size=(200, 8))
        tracemalloc.start()
        try:
            K = rbf_gram(A, B, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert GRAM_CHUNK_FLOATS == 1 << 14
        assert peak <= K.nbytes + 8 * GRAM_CHUNK_FLOATS + 3 * 8 * (4 * 512)


class TestSvrFit:
    def test_flat_function_within_tube(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 2))
        c0 = 3.0
        y = c0 + rng.uniform(-0.05, 0.05, size=12)
        model = fit_svr(X, y, c=100.0, epsilon=0.1, sigma=0.2, tol=1e-6)
        pred = predict(model, rng.normal(size=(20, 2)))
        assert np.max(np.abs(pred - c0)) <= 0.1 + 1e-6

    def test_dual_objective_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 1))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=6)
        c, eps, sigma = 2.0, 0.05, 0.5
        model = fit_svr(X, y, c=c, epsilon=eps, sigma=sigma, tol=1e-8, max_iter=500_000)
        K = rbf_gram(X, X, sigma)
        a, _, _, _ = _smo(K, y, c, eps, 1e-8, 500_000)
        engine_obj = dual_objective(K, y, eps, a)
        _, oracle_obj = projected_gradient_svr_dual(K, y, c, eps)
        assert abs(engine_obj - oracle_obj) < 1e-6

    def test_duplicate_rows_predict_identically(self):
        X = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0], [1.5, 0.5]])
        y = np.array([1.0, 1.0, -1.0, 0.3])
        model = fit_svr(X, y, c=5.0, epsilon=0.01, sigma=0.3, tol=1e-6)
        pred = predict(model, X)
        assert pred[0] == pred[1]

    def test_kkt_conditions_at_convergence(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 2))
        y = X[:, 0] ** 2 - X[:, 1] + 0.05 * rng.normal(size=15)
        c, eps, sigma = 3.0, 0.05, 0.4
        model = fit_svr(X, y, c=c, epsilon=eps, sigma=sigma, tol=1e-4)
        K = rbf_gram(X, X, sigma)
        a, bias, _, gap = _smo(K, y, c, eps, 1e-4, 500_000)
        assert gap < 1e-4
        l = len(y)
        assert a.min() >= 0.0 and a.max() <= c
        beta = a[:l] - a[l:]
        f = K @ beta + bias
        r = y - f
        for i in range(l):
            alpha_i, alpha_star_i = a[i], a[l + i]
            if 0 < alpha_i < c:  # on the upper tube edge
                assert abs(r[i] - eps) < 1e-3
            if 0 < alpha_star_i < c:  # on the lower tube edge
                assert abs(r[i] + eps) < 1e-3
            if alpha_i == 0.0 and alpha_star_i == 0.0:  # inside the tube
                assert r[i] <= eps + 1e-3 and r[i] >= -eps - 1e-3

    def test_learns_a_smooth_function(self):
        rng = np.random.default_rng(4)
        X = np.linspace(-2, 2, 60).reshape(-1, 1)
        y = np.sin(2 * X[:, 0])
        model = fit_svr(X, y, c=50.0, epsilon=0.02, sigma=2.0, tol=1e-5)
        pred = predict(model, X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.05

    def test_iteration_cap_is_an_error(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30) * 5
        with pytest.raises(ConvergenceError, match="KKT gap"):
            fit_svr(X, y, c=100.0, epsilon=0.001, sigma=0.5, tol=1e-10, max_iter=3)

    def test_parameter_validation(self):
        X, y = np.ones((3, 1)), np.ones(3)
        with pytest.raises(FitError):
            fit_svr(X, y, c=0.0)
        with pytest.raises(FitError):
            fit_svr(X, y, epsilon=-0.1)
        with pytest.raises(FitError):
            fit_svr(X, y, sigma=0.0)
        with pytest.raises(FitError, match="'max_iter' must be at least 0"):
            fit_svr(X, y, max_iter=-1)

    def test_predict_purity(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        model = fit_svr(X, y, tol=1e-3)
        Xt = rng.normal(size=(5, 2))
        assert np.array_equal(predict(model, Xt), predict(model, Xt))
