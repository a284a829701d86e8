"""Linear regression with an L2 penalty on the coefficients.

The intercept is never penalized. Features are always standardized
internally so the penalty weight is scale-meaningful; predictions are
returned on the original scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..data import make_fold_plan
from ..errors import FitError, ValidationError
from .base import (FittedModel, LearnerKind, LearnerSpec, Standardizer, check_fit_input,
                   check_hyperparams, predict, rmse)


@dataclass(frozen=True)
class RidgeState:
    coef: np.ndarray
    intercept: float
    lam: float

    def diagnostics(self) -> dict:
        return {"lam": self.lam}


def predict_state(state: RidgeState, X: np.ndarray) -> np.ndarray:
    # (X * coef).sum(axis=1) keeps each row's accumulation independent of
    # the batch size, unlike BLAS matvec.
    return (X * state.coef).sum(axis=1) + state.intercept


# floats in one temporary of ``predict_stacked``
STACK_CHUNK_FLOATS = 1 << 15


@dataclass(frozen=True)
class RidgeStack:
    """The standardizers and states of m ridge models of one width, one row each."""

    mean: np.ndarray       # m x width
    scale: np.ndarray      # m x width
    coef: np.ndarray       # m x width
    intercept: np.ndarray  # m

    @property
    def width(self) -> int:
        return self.coef.shape[1]

    @classmethod
    def of(cls, models) -> "RidgeStack | None":
        """Stack ``models``; None unless all are standardized ridge or ridge_cv
        models of one feature count."""
        models = list(models)
        if not models or any(m.kind not in (LearnerKind.RIDGE, LearnerKind.RIDGE_CV)
                             or m.standardization is None
                             or m.feature_count != models[0].feature_count for m in models):
            return None
        return cls(mean=np.stack([m.standardization.mean for m in models]),
                   scale=np.stack([m.standardization.scale for m in models]),
                   coef=np.stack([m.state.coef for m in models]),
                   intercept=np.array([m.state.intercept for m in models], dtype=np.float64))


def predict_stacked(stack: RidgeStack, X: np.ndarray,
                    cols: np.ndarray | None = None) -> np.ndarray:
    """Every stacked model's predictions on the rows of X: a rows x m matrix.

    Model i reads all of X's columns, or ``X[:, cols[i]]`` when ``cols``
    (m x width) is given; X must be finite and of the width it reads. Each
    element takes the steps of ``predict`` on one model, in its order:
    subtract the mean, divide by the scale, multiply by the coefficients,
    sum along a C-contiguous last axis, add the intercept; so column i is
    bitwise ``predict`` of model i. Rows and models are taken in chunks of
    at most ``STACK_CHUNK_FLOATS`` floats, one chunk alive at a time.
    """
    rows, m, width = X.shape[0], stack.intercept.shape[0], stack.width
    out = np.empty((rows, m), dtype=np.float64)
    row_step = max(1, min(rows, STACK_CHUNK_FLOATS // max(1, width)))
    model_step = max(1, STACK_CHUNK_FLOATS // (row_step * max(1, width)))
    for r in range(0, rows, row_step):
        part = X[r:r + row_step]
        for a in range(0, m, model_step):
            b = a + model_step
            if cols is None:
                Z = np.subtract(part[:, None, :], stack.mean[a:b], order="C")
            else:
                Z = part.take(cols[a:b], axis=1)
                Z -= stack.mean[a:b]
            Z /= stack.scale[a:b]
            Z *= stack.coef[a:b]
            out[r:r + row_step, a:b] = Z.sum(axis=2) + stack.intercept[a:b]
            del Z  # before the next chunk is built, not after
    return out


def _solve_centered(Zc: np.ndarray, yc: np.ndarray, lam: float) -> np.ndarray:
    p = Zc.shape[1]
    if lam > 0.0:
        gram = Zc.T @ Zc + lam * np.eye(p)
        coef = np.linalg.solve(gram, Zc.T @ yc)
    else:
        # Minimum-norm least squares; rank-deficient designs interpolate
        # instead of erroring, matching the unpenalized-intercept objective.
        coef, *_ = np.linalg.lstsq(Zc, yc, rcond=None)
    return coef


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> FittedModel:
    """Minimize ||y - b0 - Z beta||^2 + lam * ||beta||^2, Z the standardized X."""
    X, y = check_fit_input(X, y, min_rows=2)
    check_hyperparams(LearnerKind.RIDGE, {"lam": lam})
    scaler = Standardizer.fit(X)
    Z = scaler.transform(X)
    xm = Z.mean(axis=0)
    # Either solve is finite on finite sums (lstsq gives the minimum-norm
    # solution of a singular design), so a non-finite solution means targets
    # near the float range overflowed a sum: an error, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        ym = y.mean()
        coef = _solve_centered(Z - xm, y - ym, float(lam))
        intercept = float(ym - xm @ coef)
    if not (np.isfinite(coef).all() and math.isfinite(intercept)):
        raise FitError(f"ridge solution is not finite (lam = {float(lam)!r})")
    state = RidgeState(coef=coef, intercept=intercept, lam=float(lam))
    return FittedModel(spec=LearnerSpec.ridge(lam=lam), state=state,
                       feature_count=X.shape[1], standardization=scaler)


def _cv_rmse(X: np.ndarray, y: np.ndarray, lam: float, plan) -> float:
    errors = []
    for f in range(plan.n_splits):
        train, test = plan.split(f)
        try:
            errors.append(rmse(predict(fit_ridge(X[train], y[train], lam), X[test]), y[test]))
        except (FitError, ValidationError) as exc:
            raise FitError(f"internal fold {f}: {exc}") from exc
    return float(np.mean(errors))


def fit_ridge_cv(X: np.ndarray, y: np.ndarray, lambda_grid, k: int, seed: int) -> FittedModel:
    """Pick the grid penalty with minimal internal-CV RMSE, then refit on all rows.

    Ties in CV RMSE resolve to the larger penalty.
    """
    X, y = check_fit_input(X, y, min_rows=2)
    check_hyperparams(LearnerKind.RIDGE_CV, {"lambda_grid": lambda_grid, "k": k})
    grid = tuple(float(l) for l in lambda_grid)
    try:
        plan = make_fold_plan(X.shape[0], k, seed)
    except ValidationError as exc:
        raise FitError(f"internal cross-validation impossible: {exc}") from exc
    scored = [(_cv_rmse(X, y, lam, plan), -lam) for lam in grid]
    best_lam = -min(scored)[1]
    return replace(fit_ridge(X, y, best_lam),
                   spec=LearnerSpec.ridge_cv(lambda_grid=grid, k=k, seed=seed))
