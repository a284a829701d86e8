import numpy as np
import pytest

from crossrep.errors import IngestionError
from crossrep.learners import (LearnerSpec, TrainFingerprint, fit_forest, fit_learner,
                               fit_ridge, fit_ridge_cv, fit_svr, load_model, predict,
                               save_model)


def roundtrip(model, tmp_path, name):
    path = tmp_path / f"{name}.model.json"
    save_model(model, path)
    return load_model(path)


@pytest.fixture
def data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(25, 4))
    y = X[:, 0] - 2 * X[:, 2] + 0.1 * rng.normal(size=25)
    Xt = rng.normal(size=(9, 4))
    return X, y, Xt


def test_ridge_roundtrip_bitwise(tmp_path, data):
    X, y, Xt = data
    fp = TrainFingerprint("taskA", tuple(f"r{i}" for i in range(25)))
    model = fit_learner(LearnerSpec.ridge(10.0), X, y, fingerprint=fp)
    loaded = roundtrip(model, tmp_path, "ridge")
    assert np.array_equal(predict(model, Xt), predict(loaded, Xt))
    assert loaded.train_fingerprint == fp
    assert loaded.train_fingerprint.digest == fp.digest


def test_ridge_cv_roundtrip_bitwise(tmp_path, data):
    X, y, Xt = data
    model = fit_ridge_cv(X, y, (0.1, 1.0, 10.0), k=5, seed=3)
    loaded = roundtrip(model, tmp_path, "ridgecv")
    assert np.array_equal(predict(model, Xt), predict(loaded, Xt))
    assert loaded.spec.hyperparams["lambda_grid"] == (0.1, 1.0, 10.0)


def test_forest_roundtrip_bitwise(tmp_path, data):
    X, y, Xt = data
    model = fit_forest(X, y, n_trees=12, seed=5)
    loaded = roundtrip(model, tmp_path, "forest")
    assert np.array_equal(predict(model, Xt), predict(loaded, Xt))


def test_svr_roundtrip_bitwise(tmp_path, data):
    X, y, Xt = data
    model = fit_svr(X, y, c=5.0, epsilon=0.05, sigma=0.3, tol=1e-5)
    loaded = roundtrip(model, tmp_path, "svr")
    assert np.array_equal(predict(model, Xt), predict(loaded, Xt))


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(IngestionError, match="not a crossrep-model"):
        load_model(path)


def test_rejects_unknown_version(tmp_path, data):
    X, y, _ = data
    path = tmp_path / "m.json"
    save_model(fit_ridge(X, y, 1.0), path)
    doc = path.read_text().replace('"version": 1', '"version": 99')
    path.write_text(doc)
    with pytest.raises(IngestionError, match="version"):
        load_model(path)
