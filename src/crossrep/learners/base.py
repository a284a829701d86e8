"""Shared learner contracts: specs, fingerprints, fitted models, predict.

Predictions are computed with row-stable reductions (sums only along
feature or tree axes) on a C-ordered copy of the input, so predicting one
row at a time is bitwise identical to predicting a whole matrix, and a
Fortran-ordered or sliced input predicts like its C-ordered equal. The
transform engine's oracle equivalence tests rely on this.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any

import numpy as np

from ..data import json_field, json_float
from ..errors import FitError, ValidationError


class LearnerKind(Enum):
    RIDGE = "ridge"
    RIDGE_CV = "ridge_cv"
    FOREST = "forest"
    SVR = "svr"


# The kinds whose fit reads the seed: a forest draws its bootstrap samples
# and candidate columns from it, ridge_cv its internal folds. A ridge or SVR
# fit is a function of the hyperparameters and the rows alone.
SEEDED_KINDS = frozenset({LearnerKind.FOREST, LearnerKind.RIDGE_CV})

# Each kind's hyperparameters as key -> (JSON type, bound test, what the
# bound asks), in the order parsing and ``fit_*`` check them; the first key
# out of bounds names the error. ``lambda_grid`` is a list of numbers. A
# chained comparison with inf is false for inf and nan, so it also asks for
# a finite value.
_HYPERPARAMS = {
    LearnerKind.RIDGE: {
        "lam": (float, lambda v: 0 <= v < math.inf, "finite and nonnegative"),
    },
    LearnerKind.RIDGE_CV: {
        "lambda_grid": (list, lambda v: len(v) > 0 and all(0 <= x < math.inf for x in v),
                        "a non-empty list of finite nonnegative numbers"),
        "k": (int, lambda v: v >= 2, "at least 2"),
    },
    LearnerKind.FOREST: {
        "n_trees": (int, lambda v: v >= 1, "at least 1"),
        "min_node_size": (int, lambda v: v >= 1, "at least 1"),
        "mtry": (int, lambda v: v >= 0, "at least 0 (0 selects ceil(p / 3))"),
    },
    LearnerKind.SVR: {
        "c": (float, lambda v: 0 < v < math.inf, "finite and positive"),
        "epsilon": (float, lambda v: 0 <= v < math.inf, "finite and nonnegative"),
        "sigma": (float, lambda v: 0 < v < math.inf, "finite and positive"),
        "tol": (float, lambda v: -math.inf < v < math.inf, "finite"),
        "max_iter": (int, lambda v: v >= 0, "at least 0"),
    },
}


def check_hyperparams(kind: LearnerKind, values: dict, error: type = FitError,
                      where: str = "") -> None:
    """Raise ``error`` for the first of ``values`` outside its table bound."""
    for key, (_, test, bound) in _HYPERPARAMS[kind].items():
        if key in values and not test(values[key]):
            raise error(f"{where}{key!r} must be {bound}, got {values[key]!r}")


_LABELS = {
    LearnerKind.RIDGE: "Ridge",
    LearnerKind.RIDGE_CV: "RidgeCV",
    LearnerKind.FOREST: "RF",
    LearnerKind.SVR: "SVM",
}


@dataclass(frozen=True)
class LearnerSpec:
    """A fully resolved learner configuration.

    Build one with a classmethod constructor, which fills in defaults, or
    with ``parse_learner_spec`` from a JSON document.
    """

    kind: LearnerKind
    hyperparams: dict
    seed: int = 0

    @classmethod
    def ridge(cls, lam: float = 10.0, seed: int = 0) -> "LearnerSpec":
        return cls(LearnerKind.RIDGE, {"lam": float(lam)}, seed)

    @classmethod
    def ridge_cv(cls, lambda_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0),
                 k: int = 10, seed: int = 0) -> "LearnerSpec":
        return cls(LearnerKind.RIDGE_CV,
                   {"lambda_grid": tuple(float(l) for l in lambda_grid), "k": int(k)}, seed)

    @classmethod
    def forest(cls, n_trees: int = 500, mtry: int = 0, min_node_size: int = 5,
               seed: int = 0) -> "LearnerSpec":
        """mtry = 0 selects the regression default ceil(p / 3) at fit time."""
        return cls(LearnerKind.FOREST,
                   {"n_trees": int(n_trees), "mtry": int(mtry),
                    "min_node_size": int(min_node_size)}, seed)

    @classmethod
    def svr(cls, c: float = 1.0, epsilon: float = 0.1, sigma: float = 0.2,
            tol: float = 1e-3, max_iter: int = 200_000, seed: int = 0) -> "LearnerSpec":
        return cls(LearnerKind.SVR,
                   {"c": float(c), "epsilon": float(epsilon), "sigma": float(sigma),
                    "tol": float(tol), "max_iter": int(max_iter)}, seed)

    @property
    def label(self) -> str:
        return _LABELS[self.kind]

    def key(self) -> tuple:
        """Canonical hashable identity used for grouping results."""
        items = tuple(sorted((k, _freeze(v)) for k, v in self.hyperparams.items()))
        return (self.kind.value, items, self.seed)

    def same_fit(self, other: "LearnerSpec") -> bool:
        """Whether ``other`` fits the same model as this spec on the same rows.

        True when both have the same kind and hyperparameters and the kind
        does not read the seed, whatever either seed is.
        """
        return (self.kind not in SEEDED_KINDS
                and self.key()[:2] == other.key()[:2])

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "hyperparams": _jsonable(self.hyperparams),
                "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict, where: str) -> "LearnerSpec":
        """Inverse of ``to_dict``: every hyperparameter of the kind is present."""
        hp = json_field(where, doc, "hyperparams", dict)
        spec = parse_learner_spec({**hp, "kind": doc.get("kind"), "seed": doc.get("seed", 0)},
                                  where)
        missing = [k for k in _HYPERPARAMS[spec.kind] if k not in hp]
        if missing:
            raise ValidationError(f"{where}: {spec.kind.value} spec missing hyperparams: "
                                  f"{', '.join(missing)}")
        return spec


def parse_learner_spec(doc: dict, where: str) -> LearnerSpec:
    """Flat form: {"kind": ..., "seed": ..., <hyperparams>}; defaults fill the rest.

    Each value must have its hyperparameter's JSON type and pass the bound
    its fit checks; errors name ``where`` and the key.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: needs to be a JSON object with a 'kind' field")
    kind = json_field(where, doc, "kind", LearnerKind)
    table = _HYPERPARAMS[kind]
    unknown = [k for k in doc if k not in table and k not in ("kind", "seed")]
    if unknown:
        raise ValidationError(f"{where}: unknown {kind.value} hyperparameter {unknown[0]!r}")
    kwargs = {k: json_field(where, doc, k, t) for k, (t, _, _) in table.items() if k in doc}
    grid = kwargs.get("lambda_grid", ())
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in grid):
        raise ValidationError(f"{where}: 'lambda_grid' must be a list of numbers, got {grid!r}")
    if grid:
        kwargs["lambda_grid"] = [json_float(where, "lambda_grid", v) for v in grid]
    check_hyperparams(kind, kwargs, ValidationError, f"{where}: ")
    ctor = {LearnerKind.RIDGE: LearnerSpec.ridge,
            LearnerKind.RIDGE_CV: LearnerSpec.ridge_cv,
            LearnerKind.FOREST: LearnerSpec.forest,
            LearnerKind.SVR: LearnerSpec.svr}[kind]
    return ctor(**kwargs, seed=json_field(where, doc, "seed", int, 0))


def _freeze(value: Any) -> Any:
    return tuple(value) if isinstance(value, (list, tuple)) else value


def _jsonable(hp: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in hp.items()}


@dataclass(frozen=True)
class TrainFingerprint:
    """Identity of the rows a model was trained on.

    Keeps the actual (task_id, row ids) so leakage audits can check
    disjointness mechanically; ``digest`` is the stable hash of both.
    """

    task_id: str
    row_ids: tuple[str, ...]

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.task_id.encode("utf-8"))
        for rid in self.row_ids:
            h.update(b"\x1f")
            h.update(rid.encode("utf-8"))
        return h.hexdigest()


EMPTY_FINGERPRINT = TrainFingerprint(task_id="", row_ids=())


@dataclass(frozen=True)
class Standardizer:
    """Per-feature zero-mean unit-variance scaling; constant columns map to 0.

    A column whose spread overflows (one holding 1e300, say) gets an
    infinite scale without a warning, and also maps to 0. A column whose
    mean overflows (same-sign values near the float range) is a FitError
    naming the column. Only numpy's warning is silenced: a caller that has
    overflow raise still gets the error, as clustering does to name items
    too far apart.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        quiet = {"over": "ignore"} if np.geterr()["over"] == "warn" else {}
        with np.errstate(**quiet):
            mean = X.mean(axis=0)
            scale = X.std(axis=0)
        if not np.isfinite(mean).all():
            j = int(np.flatnonzero(~np.isfinite(mean))[0])
            raise FitError(f"the mean of feature column {j} overflows")
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=mean, scale=scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


@dataclass(frozen=True)
class FittedModel:
    """A frozen fitted learner: spec echo, opaque state, and provenance."""

    spec: LearnerSpec
    state: Any
    feature_count: int
    train_fingerprint: TrainFingerprint = EMPTY_FINGERPRINT
    standardization: Standardizer | None = None

    @property
    def kind(self) -> LearnerKind:
        return self.spec.kind


def _check_predict_input(model: FittedModel, X: np.ndarray) -> np.ndarray:
    # Row reductions run along the contiguous axis, so a C-ordered copy
    # keeps predictions independent of the caller's memory layout.
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("predict expects a 2-d matrix")
    if X.shape[1] != model.feature_count:
        raise ValidationError(
            f"predict: input has {X.shape[1]} columns, model expects {model.feature_count}"
        )
    if X.size and not np.isfinite(X).all():
        raise ValidationError("predict: input contains non-finite values")
    return X


def predict(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """One finite prediction per row; a pure function of (model, X)."""
    X = _check_predict_input(model, X)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    if model.standardization is not None:
        X = model.standardization.transform(X)
    if model.kind in (LearnerKind.RIDGE, LearnerKind.RIDGE_CV):
        return ridge.predict_state(model.state, X)
    if model.kind is LearnerKind.FOREST:
        return forest.predict_state(model.state, X)
    if model.kind is LearnerKind.SVR:
        return svr.predict_state(model.state, X)
    raise FitError(f"unknown model kind {model.kind}")


def fit_learner(spec: LearnerSpec, X: np.ndarray, y: np.ndarray,
                fingerprint: TrainFingerprint = EMPTY_FINGERPRINT,
                seed: int | None = None, **shared: Any) -> FittedModel:
    """Fit any learner kind from its spec; ``seed`` overrides spec.seed.

    Only the kinds in SEEDED_KINDS are given a seed. ``shared`` is passed
    on to the fit: fits of one training matrix share work through it (an
    SVR fit's ``kernel``, see ``fit_svr``). The fitted model
    carries ``spec`` and ``fingerprint``, whatever seed was used. The fit
    functions are looked up per call, so a rebound module attribute is the
    one called.
    """
    fit = {LearnerKind.RIDGE: ridge.fit_ridge, LearnerKind.RIDGE_CV: ridge.fit_ridge_cv,
           LearnerKind.FOREST: forest.fit_forest, LearnerKind.SVR: svr.fit_svr}[spec.kind]
    seeded = {"seed": spec.seed if seed is None else seed} if spec.kind in SEEDED_KINDS else {}
    model = fit(X, y, **spec.hyperparams, **seeded, **shared)
    return replace(model, spec=spec, train_fingerprint=fingerprint)


def check_fit_input(X: np.ndarray, y: np.ndarray, min_rows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise FitError("fit expects a 2-d feature matrix")
    if y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise FitError(f"dimension mismatch: X has {X.shape[0]} rows, y has {y.shape[0]}")
    if X.shape[0] < min_rows:
        raise FitError(f"need at least {min_rows} rows, got {X.shape[0]}")
    if X.size and not np.isfinite(X).all():
        raise FitError("fit: features contain non-finite values")
    if y.size and not np.isfinite(y).all():
        raise FitError("fit: targets contain non-finite values")
    return X, y


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error between two equal-length vectors."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValidationError(f"rmse: shape mismatch {pred.shape} vs {truth.shape}")
    if len(pred) == 0:
        raise ValidationError("rmse of empty vectors is undefined")
    if not (np.isfinite(pred).all() and np.isfinite(truth).all()):
        raise ValidationError("rmse: non-finite entries")
    with np.errstate(over="ignore"):
        mse = float(np.mean((pred - truth) ** 2))
    if not math.isfinite(mse):
        raise ValidationError("squared prediction error overflows")
    return math.sqrt(mse)


# The learner modules import their contracts from this module, so they are
# bound here, once, after every name they import from it is defined.
from . import forest, ridge, svr  # noqa: E402
