import warnings

import numpy as np
import pytest

from crossrep.errors import FitError
from crossrep.learners import LearnerSpec, fit_forest, fit_learner, predict
from crossrep.learners.forest import ROOT_FLOAT_MAX


def test_constant_targets_predict_exactly():
    X = np.arange(8, dtype=float).reshape(4, 2)
    model = fit_forest(X, np.array([5.0, 5.0, 5.0, 5.0]), n_trees=30, seed=0)
    pred = predict(model, X)
    assert (pred == 5.0).all()


def test_predictions_bounded_by_training_targets():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    model = fit_forest(X, y, n_trees=40, seed=2)
    pred = predict(model, rng.normal(size=(200, 4)) * 10)
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


def test_degenerate_tree_predicts_bootstrap_mean():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    model = fit_forest(X, y, n_trees=1, min_node_size=10, seed=4)
    pred = predict(model, rng.normal(size=(5, 2)))
    # a single never-split tree predicts one constant everywhere
    assert len(set(pred.tolist())) == 1
    assert y.min() <= pred[0] <= y.max()


def test_seed_determinism():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    Xt = rng.normal(size=(10, 5))
    a = predict(fit_forest(X, y, n_trees=16, seed=7), Xt)
    b = predict(fit_forest(X, y, n_trees=16, seed=7), Xt)
    c = predict(fit_forest(X, y, n_trees=16, seed=8), Xt)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_learns_a_step_function():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(300, 3))
    y = np.where(X[:, 0] > 0, 2.0, -2.0)
    model = fit_forest(X, y, n_trees=50, min_node_size=2, seed=1)
    Xt = rng.normal(size=(100, 3))
    pred = predict(model, Xt)
    accuracy = np.mean(np.sign(pred) == np.sign(np.where(Xt[:, 0] > 0, 1, -1)))
    assert accuracy > 0.95


def test_zero_rows_rejected():
    with pytest.raises(FitError):
        fit_forest(np.empty((0, 3)), np.empty(0), n_trees=5, seed=0)


def test_zero_trees_rejected():
    with pytest.raises(FitError, match="'n_trees' must be at least 1"):
        fit_forest(np.ones((4, 2)), np.ones(4), n_trees=0, seed=0)


def test_negative_mtry_rejected():
    with pytest.raises(FitError, match="mtry"):
        fit_forest(np.ones((4, 2)), np.ones(4), n_trees=1, mtry=-3, seed=0)


def test_predict_column_mismatch():
    model = fit_forest(np.ones((4, 2)), np.arange(4.0), n_trees=2, seed=0)
    with pytest.raises(Exception, match="columns"):
        predict(model, np.ones((3, 5)))


def test_mtry_default_third_of_features():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 10))
    model = fit_forest(X, rng.normal(size=20), n_trees=3, seed=0)
    assert model.state.mtry == 4  # ceil(10 / 3)


def test_spec_dispatch_uses_seed_override():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    spec = LearnerSpec.forest(n_trees=8, seed=1)
    a = fit_learner(spec, X, y)
    b = fit_learner(spec, X, y, seed=99)
    Xt = rng.normal(size=(6, 4))
    assert not np.array_equal(predict(a, Xt), predict(b, Xt))
    assert np.array_equal(predict(a, Xt), predict(fit_learner(spec, X, y), Xt))


def test_range_bound_randomized_sweep():
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) * rng.uniform(0.1, 10)
        model = fit_forest(X, y, n_trees=10, min_node_size=int(rng.integers(1, 6)),
                           seed=trial)
        pred = predict(model, rng.normal(size=(25, p)) * 3)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12


def test_predict_empty_matrix_returns_empty_vector():
    model = fit_forest(np.ones((4, 2)), np.arange(4.0), n_trees=2, seed=0)
    out = predict(model, np.empty((0, 2)))
    assert out.shape == (0,)


def test_split_on_adjacent_float_values_terminates():
    # midpoint of adjacent floats rounds up to the right value; the split
    # must still separate the two groups instead of looping
    a = 1.0
    b = np.nextafter(a, 2.0)
    X = np.array([[a], [a], [b], [b], [a], [b]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    model = fit_forest(X, y, n_trees=5, min_node_size=1, seed=0)
    pred = predict(model, X)
    assert np.allclose(pred, y)


def test_predict_rejects_nonfinite_input():
    model = fit_forest(np.ones((4, 2)), np.arange(4.0), n_trees=2, seed=0)
    bad = np.ones((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(Exception, match="non-finite"):
        predict(model, bad)


def _walk_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_walk_depth(tree, tree.left[node]), _walk_depth(tree, tree.right[node]))


def test_diagnostics_depth_is_longest_root_to_leaf_path():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    stump = fit_forest(X, y, n_trees=2, min_node_size=60, seed=0).state
    assert stump.diagnostics()["depth"] == 0
    state = fit_forest(X, y, n_trees=4, min_node_size=1, seed=0).state
    assert state.diagnostics()["depth"] == max(_walk_depth(t) for t in state.trees) > 1


@pytest.mark.parametrize("scale", [1e160, 1e307])
def test_targets_too_large_for_the_split_sums_are_a_fit_error(scale):
    rng = np.random.default_rng(7)
    X, y = rng.normal(size=(20, 3)), rng.normal(size=20) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError) as info:
            fit_forest(X, y, n_trees=5, seed=0)
    assert f"largest |target| {float(np.abs(y).max())!r} is too large" in str(info.value)


def test_targets_at_the_bound_grow_trees_without_a_warning():
    rng = np.random.default_rng(8)
    n = 20
    X = rng.normal(size=(n, 3))
    y = np.resize([1.0, -1.0], n) * (ROOT_FLOAT_MAX / (2 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_forest(X, y, n_trees=5, min_node_size=1, seed=0)
        assert np.isfinite(predict(model, X)).all()
