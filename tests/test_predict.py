"""``predict`` depends on the values of its input, not on its memory layout."""

import numpy as np
import pytest

from crossrep.learners import fit_forest, fit_ridge, fit_ridge_cv, fit_svr, predict

FITTERS = {
    "ridge": lambda X, y: fit_ridge(X, y, 10.0),
    "ridge_cv": lambda X, y: fit_ridge_cv(X, y, (0.1, 1.0, 10.0), k=5, seed=3),
    "forest": lambda X, y: fit_forest(X, y, n_trees=4, seed=1),
    "svr": lambda X, y: fit_svr(X, y, c=2.0, epsilon=0.05, sigma=0.02),
}


@pytest.mark.parametrize("kind", sorted(FITTERS))
def test_layout_does_not_change_predictions(kind):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 40))
    y = X[:, 0] - 2.0 * X[:, 3] + 0.1 * rng.normal(size=80)
    model = FITTERS[kind](X, y)
    expected = predict(model, X)
    assert np.array_equal(predict(model, np.asfortranarray(X)), expected)
    strided = np.repeat(X, 2, axis=1)[:, ::2]  # a non-contiguous view of equal values
    assert np.array_equal(predict(model, strided), expected)
    taken = np.hstack([X, X])[:, np.arange(40)]  # fancy column indexing
    assert np.array_equal(predict(model, taken), expected)
