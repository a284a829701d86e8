"""Contracts every learner kind keeps.

``predict`` depends on the values of its input, not on its memory layout,
a fit reads its seed exactly when its kind is declared seeded, parsing
and fitting reject the same hyperparameter values with the same message,
and a spec constructor and its kind's fit give a shared keyword one default.
"""

import inspect
import json
import math

import numpy as np
import pytest

from crossrep.errors import FitError, ValidationError
from crossrep.learners import (LearnerKind, LearnerSpec, fit_forest, fit_learner, fit_ridge,
                               fit_ridge_cv, fit_svr, parse_learner_spec, predict, save_model)
from crossrep.learners.base import _HYPERPARAMS, SEEDED_KINDS

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


SPECS = {
    LearnerKind.RIDGE: LearnerSpec.ridge(3.0),
    LearnerKind.RIDGE_CV: LearnerSpec.ridge_cv((0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0), k=4),
    LearnerKind.FOREST: LearnerSpec.forest(n_trees=2),
    LearnerKind.SVR: LearnerSpec.svr(c=2.0, epsilon=0.05, sigma=0.3),
}


@pytest.mark.parametrize("kind", list(LearnerKind), ids=lambda k: k.value)
def test_fit_reads_seed_exactly_when_kind_is_seeded(kind, tmp_path):
    """The intrinsic baseline reuses stage-1 models of seedless kinds only.

    Two seeds give bitwise-equal archives (the forest's recorded seed left
    out) for a seedless kind; a seeded kind must give different fits here.
    """
    rng = np.random.default_rng(8)
    X = rng.normal(size=(24, 5))
    y = X[:, 0] + rng.normal(size=24)
    docs = []
    for seed in (0, 1):
        path = tmp_path / f"seed{seed}.json"
        save_model(fit_learner(SPECS[kind], X, y, seed=seed), path)
        doc = json.loads(path.read_text())
        doc["state"].pop("seed", None)
        docs.append(doc)
    assert (docs[0] == docs[1]) == (kind not in SEEDED_KINDS)


# Per hyperparameter, values just outside its bound. Every float-valued key
# also gets the non-finite values.
OUTSIDE = {
    "lam": (-1e-12,),
    "lambda_grid": ([], [1.0, -1e-12], [1.0, math.inf], [math.nan]),
    "k": (1,),
    "n_trees": (0,),
    "min_node_size": (0,),
    "mtry": (-1,),
    "c": (0.0,),
    "epsilon": (-1e-12,),
    "sigma": (0.0,),
    "tol": (),
    "max_iter": (-1,),
}
NONFINITE = (math.inf, -math.inf, math.nan)
DEFAULTS = {kind: parse_learner_spec({"kind": kind.value}, "defaults").hyperparams
            for kind in LearnerKind}
FITS = {LearnerKind.RIDGE: fit_ridge, LearnerKind.RIDGE_CV: fit_ridge_cv,
        LearnerKind.FOREST: fit_forest, LearnerKind.SVR: fit_svr}


@pytest.mark.parametrize("kind, key, value", [
    (kind, key, value)
    for kind in LearnerKind for key in _HYPERPARAMS[kind]
    for value in OUTSIDE[key] + (NONFINITE if isinstance(DEFAULTS[kind][key], float) else ())
], ids=lambda v: str(getattr(v, "value", v)))
def test_parse_and_fit_reject_out_of_bounds_alike(kind, key, value):
    """One table bounds every hyperparameter, for parsing and for ``fit_*``."""
    with pytest.raises(ValidationError) as parsed:
        parse_learner_spec({"kind": kind.value, key: value}, "spec")
    assert str(parsed.value).startswith(f"spec: {key!r} must be ")
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 2))
    y = X[:, 0] + rng.normal(size=12)
    seed = {"seed": 0} if kind in SEEDED_KINDS else {}
    with pytest.raises(FitError) as fitted:
        FITS[kind](X, y, **{**DEFAULTS[kind], key: value}, **seed)
    assert str(parsed.value) == f"spec: {fitted.value}"


@pytest.mark.parametrize("kind", list(LearnerKind), ids=lambda k: k.value)
def test_spec_and_fit_defaults_agree(kind):
    """A default written in both a ``LearnerSpec`` constructor and its ``fit_*``
    is the same value, so a direct fit records the spec that ``fit_learner``
    would have been given."""
    def defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    spec_defaults = defaults(getattr(LearnerSpec, kind.value))
    fit_defaults = defaults(FITS[kind])
    shared = spec_defaults.keys() & fit_defaults.keys()
    assert {k: spec_defaults[k] for k in shared} == {k: fit_defaults[k] for k in shared}
