"""Regression learners behind one fit/predict contract."""

from .archive import load_model, save_model
from .base import (EMPTY_FINGERPRINT, FittedModel, LearnerKind, LearnerSpec,
                   Standardizer, TrainFingerprint, fit_learner, parse_learner_spec,
                   predict, rmse)
from .forest import fit_forest
from .ridge import fit_ridge, fit_ridge_cv
from .svr import fit_svr, rbf_gram

__all__ = [
    "EMPTY_FINGERPRINT",
    "FittedModel",
    "LearnerKind",
    "LearnerSpec",
    "Standardizer",
    "TrainFingerprint",
    "fit_forest",
    "fit_learner",
    "fit_ridge",
    "fit_ridge_cv",
    "fit_svr",
    "load_model",
    "parse_learner_spec",
    "predict",
    "rbf_gram",
    "rmse",
    "save_model",
]
