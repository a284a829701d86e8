"""End-to-end experiment pipeline.

For every task the harness scores the final learner on the intrinsic
representation and on the transformed representation under one shared
split plan per task, then aggregates the comparison. All randomness flows
from the config seed; two runs of the same config write byte-identical
score tables.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .data import (CollectionMode, SplitKind, SplitPlan, Task, TaskCollection,
                   make_fold_plan, make_holdout_plan, normalize_targets, parse_value,
                   read_table)
from .engine import (ExtrinsicMatrix, TrainingScope, audit_no_leakage, build_extrinsic,
                     cross_predict, second_order_extrinsic, select_descriptors,
                     stage1_train, stage2_train)
from .environment import environment_record
from .errors import ConfigError, CrossrepError, FitError, IngestionError, ValidationError
from .evaluation import (ComparisonRow, CvResult, Representation, compare_representations,
                         comparison_tsv, cross_validate, render_comparison)
from .learners import LearnerSpec
from .seeding import derive_seed


@dataclass(frozen=True)
class SplitProtocol:
    """K-fold or holdout, applied identically to every representation."""

    kind: SplitKind
    k: int = 0
    test_fraction: float = 0.0

    def make_plan(self, n: int, seed: int) -> SplitPlan:
        if self.kind is SplitKind.KFOLD:
            return make_fold_plan(n, self.k, seed)
        return make_holdout_plan(n, self.test_fraction, seed)

    def to_dict(self) -> dict:
        if self.kind is SplitKind.KFOLD:
            return {"kind": "kfold", "k": self.k}
        return {"kind": "holdout", "test_fraction": self.test_fraction}


@dataclass(frozen=True)
class PipelineConfig:
    collection: TaskCollection
    transformer_spec: LearnerSpec
    final_spec: LearnerSpec
    split: SplitProtocol
    seed: int
    descriptor_cap: int | None = None
    order: int = 1
    stage1_scope: TrainingScope | None = None
    strict: bool = False
    augment: bool = False
    normalize: bool = False
    collection_ref: str = "<in-memory>"
    # each task's split plan, shared by every representation of the run
    plans: dict[str, SplitPlan] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ConfigError(f"transformation order must be 1 or 2, got {self.order}")
        n = self.collection.n_tasks
        if self.descriptor_cap is not None:
            if self.descriptor_cap < 1:
                raise ConfigError(f"descriptor_cap must be at least 1, got {self.descriptor_cap}")
            if self.descriptor_cap > n - 1:
                raise ConfigError(
                    f"descriptor_cap {self.descriptor_cap} exceeds the {n - 1} "
                    "available source models"
                )
        scope = self.resolved_scope
        if (scope is TrainingScope.TRAIN_SPLIT_ONLY
                and self.split.kind is not SplitKind.HOLDOUT):
            raise ConfigError(
                "train-split-only stage-1 scope requires a holdout split protocol"
            )
        object.__setattr__(self, "plans", _make_plans(self.collection, self.split, self.seed))

    @property
    def resolved_scope(self) -> TrainingScope:
        if self.stage1_scope is not None:
            return self.stage1_scope
        if self.collection.mode is CollectionMode.SHARED_EXAMPLES:
            return TrainingScope.TRAIN_SPLIT_ONLY
        return TrainingScope.FULL_TASK

    def training_rows(self, task: Task) -> np.ndarray:
        """The rows of ``task`` its stage-1 model trains on: all of them under
        ``full_task``, the train side of its holdout plan under ``train_split_only``."""
        if self.resolved_scope is TrainingScope.FULL_TASK:
            return np.arange(task.n_examples)
        train, _ = self.plans[task.task_id].split(0)
        return train

    def echo(self) -> dict:
        return {
            "collection": self.collection_ref,
            "collection_id": self.collection.feature_space_id,
            "mode": self.collection.mode.value,
            "transformer": self.transformer_spec.to_dict(),
            "final": self.final_spec.to_dict(),
            "split": self.split.to_dict(),
            "seed": self.seed,
            "descriptor_cap": self.descriptor_cap,
            "order": self.order,
            "stage1_scope": self.resolved_scope.value,
            "strict": self.strict,
            "augment": self.augment,
            "normalize_targets": self.normalize,
        }


@dataclass(frozen=True)
class TaskFailure:
    task_id: str
    stage: str
    message: str


@dataclass(frozen=True)
class ExperimentResult:
    config_echo: dict
    results: tuple[CvResult, ...]
    failures: tuple[TaskFailure, ...]
    bank_fingerprints: dict[str, str]

    @cached_property
    def table(self) -> tuple[ComparisonRow, ...]:
        """The comparison table, built on first use."""
        return compare_representations(self.results)

    @property
    def reused_stage1(self) -> int:
        """Intrinsic folds scored with the stage-1 model."""
        return sum(r.reused_folds for r in self.results if r.representation.order == 0)

    @property
    def reused_stage2(self) -> int:
        """Order-1 transformed folds scored with the stage-2 model."""
        return sum(r.reused_folds for r in self.results if r.representation.order == 1)


def _audits_leakage(echo: dict) -> bool:
    """Whether a run audits its bank: only shared-example tasks hold one set
    of held-out rows; independent tasks may reuse each other's example ids."""
    return (echo.get("mode") == CollectionMode.SHARED_EXAMPLES.value
            and echo.get("stage1_scope") == TrainingScope.TRAIN_SPLIT_ONLY.value)


def _make_plans(collection: TaskCollection, split: SplitProtocol,
                seed: int) -> dict[str, SplitPlan]:
    """Each task's split plan; the tasks of a shared-examples collection share one.

    A plan the split cannot make for a task's rows is a ConfigError naming the task.
    """
    def make(task: Task, *key: str) -> SplitPlan:
        try:
            return split.make_plan(task.n_examples, derive_seed(seed, "split", *key))
        except ValidationError as exc:
            raise ConfigError(f"task {task.task_id!r} has {task.n_examples} examples: "
                              f"{exc}") from None

    if collection.mode is CollectionMode.SHARED_EXAMPLES:
        plan = make(collection.tasks[0])
        return {t.task_id: plan for t in collection.tasks}
    return {t.task_id: make(t, t.task_id) for t in collection.tasks}


def run_pipeline(config: PipelineConfig) -> ExperimentResult:
    """Run the full two-stage experiment described by ``config``."""
    collection = config.collection
    failures: list[TaskFailure] = []

    def record(stage: str, task_id: str, exc: CrossrepError) -> None:
        """Strict runs raise a task's error; the others record it and go on."""
        if config.strict:
            raise exc
        failures.append(TaskFailure(task_id, stage, str(exc)))

    def survivors(tasks: list[Task], step: str) -> TaskCollection:
        if len(tasks) < 2:
            raise FitError(f"fewer than 2 tasks survived {step}; cannot continue")
        return TaskCollection(tasks, collection.mode, collection.feature_space_id)

    if config.normalize:
        normalized = []
        for task in collection.tasks:
            try:
                normalized.append(normalize_targets(task))
            except CrossrepError as exc:
                record("normalize", task.task_id, exc)
        collection = survivors(normalized, "target normalization")

    train_rows = {t.task_id: config.training_rows(t) for t in collection.tasks}
    bank = stage1_train(collection, config.transformer_spec, config.resolved_scope, train_rows,
                        on_failure=lambda t, exc: record("stage1", t, exc))
    if len(bank.models) < collection.n_tasks:
        collection = survivors([t for t in collection.tasks if t.task_id in bank.models],
                               "stage-1 training")

    echo = config.echo()
    if _audits_leakage(echo):
        _, test_idx = config.plans[collection.tasks[0].task_id].split(0)
        heldout = [collection.tasks[0].example_ids[i] for i in test_idx]
        violations = audit_no_leakage(bank, heldout)
        if violations:
            raise ValidationError("leakage audit failed: " + "; ".join(violations))

    # The tasks of a shared-examples collection hold equal rows and share one
    # cross-prediction block. An independent task's block lives only while
    # its view is built, and order 2 predicts it again, so at most one block
    # is alive however many tasks the collection holds.
    shared_block: np.ndarray | None = None

    def block_of(task: Task) -> np.ndarray:
        nonlocal shared_block
        if collection.mode is not CollectionMode.SHARED_EXAMPLES:
            return cross_predict(bank, task.features)
        if shared_block is None:
            shared_block = cross_predict(bank, task.features)
        return shared_block

    # Only tasks scored under both order-1 representations get an order-2
    # column; their stage-1 models may still feed the other tasks' views.
    evaluated: list[tuple[Task, Callable[..., CvResult]]] = []
    stage2_models, stage2_columns = {}, {}
    results: list[CvResult] = []
    order1 = Representation.transformed(config.transformer_spec, 1)

    for task in collection.tasks:
        plan = config.plans[task.task_id]
        try:
            ext = build_extrinsic(task.task_id, bank, block_of(task))
            if config.descriptor_cap is not None:
                ext = select_descriptors(ext, config.descriptor_cap,
                                         derive_seed(config.seed, "cap", task.task_id))
            feats = ext.values
            if config.augment:
                feats = np.hstack([task.features, ext.values])
            score = partial(cross_validate, targets=task.targets, spec=config.final_spec,
                            plan=plan, task_id=task.task_id, row_ids=task.example_ids)
            # a given model scores a fold when it is that fold's own fit
            own = bank.models[task.task_id]
            intrinsic = score(task.features, representation=Representation.original(),
                              fitted=(own,))
            stage2 = ()
            if config.order == 2:
                # the rows of the stage-1 fit, so its fingerprint is stage 2's too
                rows = train_rows[task.task_id]
                view = ExtrinsicMatrix(ext.values[rows], ext.source_model_ids, task.task_id)
                try:
                    stage2 = (stage2_train(view, task.targets[rows], config.final_spec,
                                           fingerprint=own.train_fingerprint,
                                           seed=derive_seed(config.seed, "stage2", task.task_id)),)
                except CrossrepError as exc:
                    record("stage2", task.task_id, exc)
            transformed = score(feats, representation=order1, fitted=stage2)
        except CrossrepError as exc:
            record("evaluate", task.task_id, exc)
            continue
        evaluated.append((task, score))
        if stage2:
            stage2_models[task.task_id] = stage2[0]
            stage2_columns[task.task_id] = bank.columns(ext.source_model_ids)
        results.extend((intrinsic, transformed))

    if config.order == 2:
        order2 = Representation.transformed(config.transformer_spec, 2)
        for task, score in evaluated:
            try:
                ext2 = second_order_extrinsic(task.task_id, bank, stage2_models, stage2_columns,
                                              block_of(task))
                if config.descriptor_cap is not None:
                    ext2 = select_descriptors(ext2, config.descriptor_cap,
                                              derive_seed(config.seed, "cap2", task.task_id))
                results.append(score(ext2.values, representation=order2))
            except CrossrepError as exc:
                record("order2", task.task_id, exc)

    # Keep only tasks scored under every representation so the comparison
    # table always sees identical task sets; recorded failures explain gaps.
    groups: dict[tuple[str, str], set[str]] = {}
    for r in results:
        groups.setdefault((r.final, r.representation.label), set()).add(r.task_id)
    common = set.intersection(*groups.values()) if groups else set()
    results = [r for r in results if r.task_id in common]
    fingerprints = {tid: bank.models[tid].train_fingerprint.digest for tid in bank.task_ids}
    return ExperimentResult(
        config_echo=echo,
        results=tuple(results),
        failures=tuple(failures),
        bank_fingerprints=fingerprints,
    )


SCORES_NAME = "scores.tsv"
COMPARISON_NAME = "comparison.tsv"
REPORT_NAME = "result.txt"
MANIFEST_NAME = "run_manifest.json"


def scores_tsv(result: ExperimentResult) -> str:
    lines = ["task_id\tfinal\trepresentation\torder\tn_folds\tmean_rmse"
             "\tper_fold_rmse\tplan_digest"]
    def sort_key(r: CvResult):
        return (r.task_id, r.final, r.representation.order, r.representation.label)
    for r in sorted(result.results, key=sort_key):
        lines.append("\t".join([
            r.task_id,
            r.final,
            r.representation.label,
            str(r.representation.order),
            str(len(r.per_fold_rmse)),
            repr(r.mean_rmse),
            ";".join(repr(v) for v in r.per_fold_rmse),
            r.plan_digest,
        ]))
    return "\n".join(lines) + "\n"


def load_scores(path: str | Path) -> list[tuple[str, str, str, float]]:
    """(final, representation, task id, mean RMSE) of each row of a score file."""
    header, rows = read_table(path, "score file")
    columns = ("final", "representation", "task_id", "mean_rmse")
    missing = [c for c in columns if c not in header]
    if missing:
        raise IngestionError(f"{path}: score file missing column(s) {', '.join(missing)}")
    if not rows:
        raise IngestionError(f"{path}: header only, zero score rows")
    final, rep, task, score = (header.index(c) for c in columns)
    return [(row[final], row[rep], row[task],
             parse_value(Path(path), line, "mean_rmse", row[score]))
            for line, row in rows]


def render_report(result: ExperimentResult) -> str:
    parts = [
        f"crossrep experiment report (version {__version__})",
        f"collection: {result.config_echo['collection_id']}",
        "",
        "config:",
        json.dumps(result.config_echo, indent=2, sort_keys=True),
        "",
        "comparison:",
        render_comparison(result.table).rstrip("\n"),
        "",
        f"tasks scored: {len({r.task_id for r in result.results})}",
        f"intrinsic baseline scored with the stage-1 model: {result.reused_stage1} tasks",
        f"transformed representation scored with the stage-2 model: {result.reused_stage2} tasks",
        f"failures: {len(result.failures)}",
    ]
    for f in result.failures:
        parts.append(f"  {f.task_id} [{f.stage}]: {f.message}")
    if _audits_leakage(result.config_echo):
        parts.append("leakage audit: clean")
    elif result.config_echo.get("stage1_scope") == TrainingScope.TRAIN_SPLIT_ONLY.value:
        parts.append("leakage audit: not applicable (independent examples)")
    else:
        parts.append("leakage audit: not applicable (full-task stage-1 scope)")
    parts.append("")
    parts.append("stage-1 train fingerprints:")
    for task_id in sorted(result.bank_fingerprints):
        parts.append(f"  {task_id}: {result.bank_fingerprints[task_id]}")
    return "\n".join(parts) + "\n"


def write_result(result: ExperimentResult, out_dir: str | Path) -> Path:
    """Persist score tables, the comparison, the report, and a manifest.

    The manifest also holds the numeric environment (``environment_record``),
    outside the byte-identical tables, as ``completed_at`` is."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / SCORES_NAME).write_text(scores_tsv(result), encoding="utf-8")
    (out_dir / COMPARISON_NAME).write_text(comparison_tsv(result.table), encoding="utf-8")
    (out_dir / REPORT_NAME).write_text(render_report(result), encoding="utf-8")
    manifest = {
        "config": result.config_echo,
        "version": __version__,
        "completed_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "outputs": [SCORES_NAME, COMPARISON_NAME, REPORT_NAME],
        "environment": environment_record(),
    }
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return out_dir
