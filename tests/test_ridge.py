import warnings

import numpy as np
import pytest

from crossrep.errors import FitError
from crossrep.learners import (LearnerSpec, Standardizer, fit_learner, fit_ridge, fit_ridge_cv,
                               predict)
from crossrep.data import make_fold_plan
from crossrep.evaluation import rmse

from helpers import gradient_descent_ridge, ridge_gradient


def test_identity_interpolation():
    model = fit_ridge(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
    pred = predict(model, np.eye(3))
    assert np.allclose(pred, [1.0, 2.0, 3.0], atol=1e-9)


def test_shrinkage_monotone_in_lambda():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    norms = []
    for lam in (0.1, 1.0, 10.0, 100.0):
        model = fit_ridge(X, y, lam)
        norms.append(np.linalg.norm(model.state.coef))
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_gradient_descent_oracle(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    model = fit_ridge(X, y, 10.0)
    # the fit solves on the standardized design
    b0, beta = gradient_descent_ridge(Standardizer.fit(X).transform(X), y, 10.0)
    assert abs(model.state.intercept - b0) < 1e-6
    assert np.max(np.abs(model.state.coef - beta)) < 1e-6


@pytest.mark.parametrize("seed", [5, 6])
def test_gradient_zero_at_solution_by_finite_differences(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 4))
    y = rng.normal(size=12)
    lam = 7.5
    model = fit_ridge(X, y, lam)
    X = Standardizer.fit(X).transform(X)  # the design the fit solves
    theta = np.concatenate([[model.state.intercept], model.state.coef])

    def objective(t):
        r = y - t[0] - X @ t[1:]
        return r @ r + lam * t[1:] @ t[1:]

    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (objective(up) - objective(down)) / (2 * h)
    assert np.linalg.norm(fd) < 1e-6
    assert np.linalg.norm(ridge_gradient(X, y, theta[0], theta[1:], lam)) < 1e-8


def test_negative_lambda_rejected():
    with pytest.raises(FitError):
        fit_ridge(np.ones((3, 1)), np.ones(3), -1.0)


def test_dimension_mismatch():
    with pytest.raises(FitError, match="dimension mismatch"):
        fit_ridge(np.ones((3, 2)), np.ones(4), 1.0)


def test_standardization_scale_invariance():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)
    base = predict(fit_ridge(X, y, 10.0), X)
    scaled = predict(fit_ridge(X * np.array([1.0, 100.0, 0.01]), y, 10.0),
                     X * np.array([1.0, 100.0, 0.01]))
    assert np.allclose(base, scaled, atol=1e-8)


def test_overflowing_spread_maps_its_column_to_zero_without_a_warning():
    X = np.random.default_rng(2).normal(scale=0.01, size=(12, 2))
    X[0, 0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        std = Standardizer.fit(X)
        Z = std.transform(X)
    assert np.isinf(std.scale[0]) and np.isfinite(std.scale[1])
    assert np.array_equal(Z[:, 0], np.zeros(12))


def test_overflowing_solution_is_a_fit_error_without_a_warning():
    X = np.random.default_rng(5).normal(size=(30, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match=r"^ridge solution is not finite \(lam = 10\.0\)$"):
            fit_ridge(X, np.full(30, 1.5e308), 10.0)


class TestRidgeCv:
    def test_overflowing_fold_error_is_a_fit_error_without_a_warning(self):
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(30, 3)), rng.normal(size=30) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="^internal fold 0: squared prediction error "
                                               "overflows$"):
                fit_ridge_cv(X, y, (0.1, 1.0, 10.0), k=3, seed=0)

    def test_singleton_grid_equals_plain_ridge(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        cv = fit_ridge_cv(X, y, [10.0], k=5, seed=1)
        plain = fit_ridge(X, y, 10.0)
        assert np.array_equal(cv.state.coef, plain.state.coef)
        assert cv.state.intercept == plain.state.intercept

    def test_noiseless_linear_selects_grid_minimum(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        grid = (0.001, 1.0, 1000.0)
        model = fit_ridge_cv(X, y, grid, k=5, seed=3)
        assert model.state.lam == 0.001

        # oracle: exhaustive evaluation over the same folds
        plan = make_fold_plan(40, 5, 3)
        means = []
        for lam in grid:
            scores = []
            for f in range(5):
                train, test = plan.split(f)
                m = fit_ridge(X[train], y[train], lam)
                scores.append(rmse(predict(m, X[test]), y[test]))
            means.append(np.mean(scores))
        assert grid[int(np.argmin(means))] == model.state.lam

    def test_tie_resolves_to_larger_lambda(self):
        # targets orthogonal to centered features: every lambda fits the
        # same constant model, so CV RMSEs tie exactly
        X = np.zeros((12, 2))
        y = np.arange(12, dtype=float)
        model = fit_ridge_cv(X, y, (0.1, 10.0, 1.0), k=3, seed=0)
        assert model.state.lam == 10.0

    def test_empty_grid_rejected(self):
        with pytest.raises(FitError, match="non-empty"):
            fit_ridge_cv(np.ones((6, 1)), np.ones(6), [], k=3, seed=0)

    def test_spec_dispatch(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        spec = LearnerSpec.ridge_cv(lambda_grid=(0.1, 1.0), k=3, seed=2)
        model = fit_learner(spec, X, y)
        assert model.spec is spec
        assert model.state.lam in (0.1, 1.0)
