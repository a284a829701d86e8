"""Stage-1 model banks and extrinsic representation construction.

The extrinsic representation of a task's examples is the matrix of
predictions produced by the other tasks' stage-1 models: one column per
source model, the task's own model always excluded.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .data import TaskCollection, is_file_name, json_field, read_json
from .errors import FitError, IngestionError, ValidationError
from .learners import (EMPTY_FINGERPRINT, FittedModel, LearnerKind, LearnerSpec,
                       TrainFingerprint, fit_learner, load_model, predict, save_model)
from .learners.ridge import RidgeStack, predict_stacked
from .learners.svr import SvrKernel, SvrStack
from .learners.svr import predict_stacked as predict_svr_stacked
from .seeding import derive_seed


class TrainingScope(Enum):
    FULL_TASK = "full_task"
    TRAIN_SPLIT_ONLY = "train_split_only"


@dataclass(frozen=True)
class ModelBank:
    """One frozen stage-1 model per task, in collection order.

    ``models`` is a dict for a bank fitted in memory; a saved bank reads
    each model from its archive when it is looked up (``load_bank``).
    """

    models: Mapping[str, FittedModel]
    learner_spec: LearnerSpec
    collection_id: str
    training_scope: TrainingScope
    # The collection's feature names, in the column order the models read;
    # None for a bank index written before the names were recorded.
    feature_names: tuple[str, ...] | None = None
    # The feature count the models read, taken from them; None for an empty
    # bank. A saved bank's mapping holds its first archive's count.
    feature_count: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = getattr(self.models, "feature_count", None)
        if width is None and self.models:
            width = next(iter(self.models.values())).feature_count
        object.__setattr__(self, "feature_count", width)

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self.models.keys())

    def columns(self, task_ids: tuple[str, ...]) -> np.ndarray:
        """Positions of ``task_ids`` among the columns of ``cross_predict``."""
        column_of = {task_id: j for j, task_id in enumerate(self.models)}
        return np.array([column_of[t] for t in task_ids], dtype=np.intp)

    @cached_property
    def _stack(self) -> RidgeStack | SvrStack | None:
        """Every model's parameters stacked, for ``cross_predict`` to predict
        them all at once: ridge models of one width, or SVR models of one
        standardization and sigma. The models of any other kind are not read
        here; an SVR bank is read up to the first model that does not stack."""
        if self.learner_spec.kind in (LearnerKind.RIDGE, LearnerKind.RIDGE_CV):
            return RidgeStack.of(self.models.values())
        if self.learner_spec.kind is LearnerKind.SVR:
            return SvrStack.of(self.models.values())
        return None


@dataclass(frozen=True)
class ExtrinsicMatrix:
    """Cross-task predictions for one target task's examples."""

    values: np.ndarray
    source_model_ids: tuple[str, ...]
    target_task_id: str

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValidationError("extrinsic values must be a 2-d matrix")
        if self.target_task_id in self.source_model_ids:
            raise ValidationError(
                f"leave-own-task-out violated: {self.target_task_id!r} among source models"
            )
        if vals.shape[1] != len(self.source_model_ids):
            raise ValidationError(
                f"{vals.shape[1]} columns for {len(self.source_model_ids)} source models"
            )
        if vals.size and not np.isfinite(vals).all():
            raise ValidationError(
                f"extrinsic matrix for {self.target_task_id!r} contains non-finite values"
            )
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "source_model_ids", tuple(self.source_model_ids))

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def stage1_train(collection: TaskCollection, spec: LearnerSpec, scope: TrainingScope,
                 rows: Mapping[str, np.ndarray] | None = None,
                 on_failure: Callable[[str, FitError], None] | None = None) -> ModelBank:
    """Fit one model per task on its intrinsic features, each task once.

    Task t is fitted on its rows ``rows[t]``, or on all its rows when
    ``rows`` is None; ``scope`` only labels the bank. A task whose fit
    fails raises its FitError, unless ``on_failure`` is given: it is then
    called with the task id and the error, and the task is left out of
    the bank.
    """
    models: dict[str, FittedModel] = {}
    # An SVR fit shares the kernel of the task before it when their training
    # matrices have the same bits, as every task of a shared collection does;
    # a kernel whose build fails is built again, and fails, for each task.
    X_prev, shared = None, {}
    for task in collection.tasks:
        idx = np.arange(task.n_examples) if rows is None else rows[task.task_id]
        fp = TrainFingerprint(task_id=task.task_id,
                              row_ids=tuple(task.example_ids[i] for i in idx))
        seed = derive_seed(spec.seed, "stage1", task.task_id)
        X = task.features[idx]
        if spec.kind is LearnerKind.SVR and not (
                X_prev is not None and X.shape == X_prev.shape
                and X.tobytes() == X_prev.tobytes()):
            X_prev, shared = X, {"kernel": functools.cache(
                functools.partial(SvrKernel.of, X, spec.hyperparams["sigma"]))}
        try:
            models[task.task_id] = fit_learner(spec, X, task.targets[idx],
                                               fingerprint=fp, seed=seed, **shared)
        except FitError as exc:
            err = FitError(f"stage-1 fit failed for task {task.task_id!r}: {exc}")
            if on_failure is None:
                raise err from exc
            on_failure(task.task_id, err)
    return ModelBank(models=models, learner_spec=spec,
                     collection_id=collection.feature_space_id, training_scope=scope,
                     feature_names=collection.tasks[0].feature_names)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def cross_predict(bank: ModelBank, X: np.ndarray) -> np.ndarray:
    """Every bank model's predictions on X: a rows x T matrix.

    Column j is ``predict`` of the model of ``bank.task_ids[j]``. A task's
    order-1 view, the stage-2 inputs of order 2 and the clustering matrix
    are all slices of this one matrix, so each block of rows is predicted
    once per model however many views read it. A bank of ridge models of
    X's width predicts finite X in one stacked product, and a bank of SVR
    models of one standardization and sigma from one Gram of each row block
    against all their support rows, with the same bits. The stack is built
    once per bank: a saved bank reads each archive once for it. Any other
    bank or input goes model by model, and the first model that fails
    names the error. Model by model, a saved bank holds at most two
    models (with what their predictions cache): the previous one stays
    alive until the next archive has been read. A finite row far outside
    a model's training range may overflow its arithmetic: numpy's warning
    is silenced, and the non-finite value is left for the matrix that
    takes the block (``ExtrinsicMatrix``, ``CrossPredictionMatrix``) to
    reject.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("cross-prediction input must be a 2-d matrix")
    # X is checked before the stack is built: an input the loop would refuse
    # at its first model reads no other archive of a saved bank.
    stack = bank._stack if X.shape[1] == bank.feature_count and np.isfinite(X).all() else None
    if stack is not None and stack.width == X.shape[1]:
        out = (predict_stacked if isinstance(stack, RidgeStack) else predict_svr_stacked)(stack, X)
    else:
        out = np.empty((X.shape[0], len(bank.models)), dtype=np.float64)
        # A saved bank reads each model here, outside the ``try``: a bad
        # archive stays an IngestionError. The previous model is dropped only
        # once the next archive has been read, so at most two are alive.
        for j, (task_id, model) in enumerate(bank.models.items()):
            try:
                out[:, j] = predict(model, X)
            except Exception as exc:
                raise FitError(f"prediction failed for source model {task_id!r}: {exc}") from exc
    out.setflags(write=False)
    return out


def _check_block(bank: ModelBank, predictions: np.ndarray) -> None:
    if predictions.ndim != 2 or predictions.shape[1] != len(bank.models):
        raise ValidationError(
            f"prediction block of shape {predictions.shape} does not have one column "
            f"per bank model ({len(bank.models)})"
        )


def build_extrinsic(target_task_id: str, bank: ModelBank,
                    predictions: np.ndarray) -> ExtrinsicMatrix:
    """The target's order-1 view: ``predictions`` without its own column.

    ``predictions`` is ``cross_predict(bank, X)`` for the target's rows X.
    """
    if target_task_id not in bank.models:
        raise ValidationError(f"unknown task id {target_task_id!r}")
    _check_block(bank, predictions)
    source_ids = tuple(t for t in bank.task_ids if t != target_task_id)
    return ExtrinsicMatrix(values=predictions.take(bank.columns(source_ids), axis=1),
                           source_model_ids=source_ids, target_task_id=target_task_id)


def select_descriptors(matrix: ExtrinsicMatrix, cap: int, seed: int) -> ExtrinsicMatrix:
    """Keep a seeded uniform sample of ``cap`` columns, preserving order.

    A cap at or above the column count returns the matrix unchanged.
    """
    if cap < 1:
        raise ValidationError(f"descriptor cap must be at least 1, got {cap}")
    if cap >= matrix.n_columns:
        return matrix
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(matrix.n_columns, size=cap, replace=False))
    return ExtrinsicMatrix(values=matrix.values[:, keep],
                           source_model_ids=tuple(matrix.source_model_ids[i] for i in keep),
                           target_task_id=matrix.target_task_id)


def stage2_train(extrinsic: ExtrinsicMatrix, y: np.ndarray, spec: LearnerSpec,
                 fingerprint: TrainFingerprint = EMPTY_FINGERPRINT,
                 seed: int | None = None) -> FittedModel:
    """Fit the final learner on the extrinsic representation."""
    return fit_learner(spec, extrinsic.values, y, fingerprint=fingerprint, seed=seed)


def second_order_extrinsic(target_task_id: str, bank: ModelBank,
                           stage2_models: dict[str, FittedModel],
                           stage2_columns: dict[str, np.ndarray],
                           predictions: np.ndarray) -> ExtrinsicMatrix:
    """Order-2 representation: other tasks' stage-2 models on the target's rows.

    ``predictions`` is ``cross_predict(bank, X)`` for the target's rows X.
    There is one column per task of ``stage2_models`` other than the target,
    in bank order. Column j applies task j's stage-2 model to task j's own
    view of those rows: the columns ``stage2_columns[j]`` of the block, the
    ``bank.columns`` of its stage-1 sources (post-capping).
    When every such model is a ridge model as wide as its view and the
    block is finite, all columns come from one stacked product with the
    bits of the model-by-model loop.
    """
    if target_task_id not in bank.models:
        raise ValidationError(f"unknown task id {target_task_id!r}")
    _check_block(bank, predictions)
    other_ids = tuple(t for t in bank.task_ids if t in stage2_models and t != target_task_id)

    stack = RidgeStack.of(stage2_models[j] for j in other_ids)
    if (stack is not None and all(len(stage2_columns[j]) == stack.width for j in other_ids)
            and np.isfinite(predictions).all()):
        cols = np.stack([stage2_columns[j] for j in other_ids])
        values = predict_stacked(stack, np.asarray(predictions, dtype=np.float64), cols)
        return ExtrinsicMatrix(values, other_ids, target_task_id)
    values = np.empty((predictions.shape[0], len(other_ids)), dtype=np.float64)
    for c, j in enumerate(other_ids):
        view = predictions.take(stage2_columns[j], axis=1)
        try:
            values[:, c] = predict(stage2_models[j], view)
        except Exception as exc:
            raise FitError(f"stage-2 prediction failed for model {j!r}: {exc}") from exc
    return ExtrinsicMatrix(values, other_ids, target_task_id)


def audit_no_leakage(bank: ModelBank, heldout_ids) -> list[str]:
    """Fingerprint audit: models must be disjoint from held-out rows.

    Returns human-readable violations; empty means the audit passed.
    """
    heldout = set(heldout_ids)
    violations = []
    for task_id, model in bank.models.items():
        overlap = set(model.train_fingerprint.row_ids) & heldout
        if overlap:
            sample = ", ".join(sorted(overlap)[:3])
            violations.append(
                f"model {task_id!r} trained on {len(overlap)} held-out rows (e.g. {sample})"
            )
    return violations


BANK_INDEX_NAME = "bank_index.json"


def save_bank(bank: ModelBank, out_dir: str | Path) -> Path:
    """One archive per model plus an index manifest; returns the index path.

    A task id whose archive name is not a plain file name is a
    ValidationError naming the task, raised before any file is written.
    """
    files = {task_id: f"{task_id}.model.json" for task_id in bank.task_ids}
    for task_id, fname in files.items():
        if not is_file_name(fname):
            raise ValidationError(f"task {task_id!r}: cannot save its model as {fname!r}: "
                                  f"it is not a file name")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for task_id, model in bank.models.items():
        save_model(model, out_dir / files[task_id])
    index = {
        "collection_id": bank.collection_id,
        "learner_spec": bank.learner_spec.to_dict(),
        "training_scope": bank.training_scope.value,
        "task_order": list(bank.task_ids),
        "models": files,
    }
    if bank.feature_names is not None:
        index["feature_names"] = list(bank.feature_names)
    index_path = out_dir / BANK_INDEX_NAME
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return index_path


class _ArchivedModels(Mapping[str, FittedModel]):
    """A saved bank's models in task order.

    Each model is read from its archive, and checked, when it is looked up,
    and is not kept: a pass over the models holds at most two, the previous
    one until the next archive has been read. The first archive is read
    once up front for the feature count that every archive must have.
    """

    def __init__(self, paths: dict[str, Path], spec: LearnerSpec) -> None:
        self._paths, self._spec = paths, spec
        self._first = next(iter(paths.values()), None)
        self.feature_count: int | None = None
        if self._first is not None:
            self.feature_count = self._read(self._first).feature_count

    def __getitem__(self, task_id: str) -> FittedModel:
        return self._read(self._paths[task_id])

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, task_id: object) -> bool:
        return task_id in self._paths

    def _read(self, path: Path) -> FittedModel:
        model = load_model(path)
        if model.spec.key() != self._spec.key():
            raise IngestionError(f"{path}: 'spec' {model.spec.to_dict()} does not match the "
                                 f"bank index's 'learner_spec' {self._spec.to_dict()}")
        if self.feature_count is not None and model.feature_count != self.feature_count:
            raise IngestionError(f"{path}: 'feature_count' is {model.feature_count}, "
                                 f"but {self._first} has {self.feature_count}")
        return model


def load_bank(bank_dir: str | Path) -> ModelBank:
    """The bank saved in ``bank_dir``.

    The index and the first archive are read and checked here. Every
    archive, the first too, is read again each time its model is looked up
    in the bank's ``models``, and checked then.
    """
    bank_dir = Path(bank_dir)
    index_path = bank_dir / BANK_INDEX_NAME
    index = read_json(index_path, "bank index")
    files = json_field(index_path, index, "models", dict)
    spec_doc = json_field(index_path, index, "learner_spec", dict)
    collection_id = json_field(index_path, index, "collection_id", str)
    scope = json_field(index_path, index, "training_scope", TrainingScope)
    order = json_field(index_path, index, "task_order", list, list(files))
    names = json_field(index_path, index, "feature_names", list, None)
    spec = LearnerSpec.from_dict(spec_doc, f"{index_path}: 'learner_spec'")
    if not all(isinstance(t, str) and isinstance(files.get(t), str) for t in order):
        raise IngestionError(f"{index_path}: 'task_order' must list task ids whose "
                             f"'models' entry is an archive file name")
    for i, task_id in enumerate(order):
        if not is_file_name(files[task_id]):
            raise IngestionError(f"{index_path}: 'task_order'[{i}] {task_id!r} has 'models' "
                                 f"entry {files[task_id]!r}, which is not a file name in "
                                 f"the bank directory")
    if names is not None and not all(isinstance(name, str) for name in names):
        raise IngestionError(f"{index_path}: 'feature_names' must list column names, "
                             f"got {names!r}")
    models = _ArchivedModels({task_id: bank_dir / files[task_id] for task_id in order}, spec)
    width = models.feature_count
    if names is not None and width is not None and len(names) != width:
        raise IngestionError(f"{index_path}: 'feature_names' lists {len(names)} names, but "
                             f"{bank_dir / files[order[0]]} has {width} features")
    return ModelBank(models=models, learner_spec=spec, collection_id=collection_id,
                     training_scope=scope, feature_names=None if names is None else tuple(names))
