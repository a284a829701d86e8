"""Metrics and the representation-comparison harness.

Per-task RMSE under shared split plans, improvement percentages, win
counts, and the aggregate table comparing the original representation
against each transformed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .data import SplitPlan
from .errors import FitError, ValidationError
from .learners import FittedModel, LearnerSpec, TrainFingerprint, fit_learner, predict
from .seeding import derive_seed

TIE_TOLERANCE = 1e-12


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


def improvement_pct(rmse_original: float, rmse_tl: float) -> float:
    """Signed improvement of the transformed representation, in percent."""
    if rmse_original <= 0:
        raise ValidationError(f"original RMSE must be positive, got {rmse_original}")
    if rmse_tl < 0:
        raise ValidationError(f"RMSE cannot be negative, got {rmse_tl}")
    return (rmse_original - rmse_tl) / rmse_original * 100.0


@dataclass(frozen=True)
class Representation:
    """Which feature space a result was computed on."""

    kind: str  # "original" or "transformed"
    transformer: LearnerSpec | None = None
    order: int = 0

    @classmethod
    def original(cls) -> "Representation":
        return cls(kind="original")

    @classmethod
    def transformed(cls, transformer: LearnerSpec, order: int = 1) -> "Representation":
        return cls(kind="transformed", transformer=transformer, order=order)

    @property
    def label(self) -> str:
        if self.kind == "original":
            return "Original rep."
        suffix = "" if self.order == 1 else f" (order {self.order})"
        return f"TL - {self.transformer.label}{suffix}"


@dataclass(frozen=True)
class CvResult:
    """Per-fold RMSEs of one task under one representation and learner."""

    task_id: str
    per_fold_rmse: tuple[float, ...]
    representation: Representation
    final_learner: LearnerSpec
    plan_digest: str = ""
    reused_folds: int = 0  # folds scored with a given model instead of a refit
    mean_rmse: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.per_fold_rmse:
            raise ValidationError("CvResult needs at least one fold score")
        if any(r < 0 for r in self.per_fold_rmse):
            raise ValidationError("fold RMSEs cannot be negative")
        object.__setattr__(self, "per_fold_rmse", tuple(float(r) for r in self.per_fold_rmse))
        object.__setattr__(self, "mean_rmse", float(np.mean(self.per_fold_rmse)))


def cross_validate(features: np.ndarray, targets: np.ndarray, spec: LearnerSpec,
                   plan: SplitPlan, *, task_id: str = "",
                   representation: Representation | None = None,
                   row_ids: tuple[str, ...] | None = None,
                   fitted: Iterable[FittedModel] = ()) -> CvResult:
    """Fit on each split's train side, score RMSE on its test side.

    A split is scored with the first model of ``fitted`` that is its own
    fit, when there is one: a model trained on exactly the split's train
    rows (its train fingerprint is the split's) and all their columns,
    by a spec that fits the same model as ``spec`` (``LearnerSpec.same_fit``).
    Other splits are fitted here. The caller vouches that ``fitted``
    models were trained on rows of ``features`` and ``targets``.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if plan.n != features.shape[0]:
        raise ValidationError(
            f"plan covers {plan.n} examples, features have {features.shape[0]} rows"
        )
    rep = representation if representation is not None else Representation.original()
    ids = row_ids if row_ids is not None else tuple(str(i) for i in range(plan.n))
    fitted = tuple(fitted)

    scores = []
    reused = 0
    for f in range(plan.n_splits):
        train, test = plan.split(f)
        fp = TrainFingerprint(task_id=task_id, row_ids=tuple(ids[i] for i in train))
        model = next((m for m in fitted
                      if m.train_fingerprint == fp and m.feature_count == features.shape[1]
                      and m.spec.same_fit(spec)), None)
        reused += model is not None
        try:
            if model is None:
                model = fit_learner(spec, features[train], targets[train], fingerprint=fp,
                                    seed=derive_seed(spec.seed, "cv", task_id, f))
            scores.append(rmse(predict(model, features[test]), targets[test]))
        except (FitError, ValidationError) as exc:
            raise type(exc)(f"fold {f} of task {task_id!r}: {exc}") from exc
    return CvResult(task_id=task_id, per_fold_rmse=tuple(scores), representation=rep,
                    final_learner=spec, plan_digest=plan.digest, reused_folds=reused)


def win_count(baseline: dict[str, float], challenger: dict[str, float]) -> tuple[int, int, int]:
    """(wins, losses, ties) of the challenger, strictly-lower-RMSE wins."""
    if set(baseline) != set(challenger):
        missing = set(baseline) ^ set(challenger)
        raise ValidationError(f"task sets differ: {sorted(missing)[:5]}")
    wins = losses = ties = 0
    for task_id, base in baseline.items():
        diff = challenger[task_id] - base
        if abs(diff) <= TIE_TOLERANCE:
            ties += 1
        elif diff < 0:
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


@dataclass(frozen=True)
class ComparisonRow:
    final_label: str
    representation_label: str
    mean_rmse: float
    improvement: float | None
    wins: int
    losses: int
    ties: int
    task_count: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]


def compare_representations(results: list[CvResult]) -> ComparisonTable:
    """Aggregate per-task results into the per-learner comparison table."""
    return compare_scores((r.final_learner.label, r.representation.label, r.task_id,
                           r.mean_rmse) for r in results)


def compare_scores(scores: Iterable[tuple[str, str, str, float]]) -> ComparisonTable:
    """The comparison table of (final, representation, task id, mean RMSE) scores.

    Scores group by final learner and representation label. Mean RMSE is
    the unweighted mean over tasks of each task's mean fold RMSE;
    improvement and win counts are taken against the original
    representation under the same final learner. A task scored twice in
    one group must have the same score both times (merged score tables
    repeat their shared baseline); a different score is an error.
    """
    original = Representation.original().label
    groups: dict[tuple[str, str], dict[str, float]] = {}
    for final_label, rep_label, task_id, mean_rmse in scores:
        group = groups.setdefault((final_label, rep_label), {})
        seen = group.setdefault(task_id, mean_rmse)
        if seen != mean_rmse:
            raise ValidationError(
                f"conflicting scores for task {task_id!r} under {final_label} / "
                f"{rep_label}: {seen!r} and {mean_rmse!r}"
            )

    task_sets = {frozenset(group) for group in groups.values()}
    if len(task_sets) > 1:
        counts = sorted(len(s) for s in task_sets)
        raise ValidationError(
            f"result groups cover different task sets (sizes {counts}); "
            "every representation must score every task"
        )

    rows = []
    for (final_label, rep_label), group in groups.items():
        mean = float(np.mean(sorted(group.values())))
        if rep_label == original:
            rows.append(ComparisonRow(final_label, rep_label, mean, None,
                                      0, 0, len(group), len(group)))
            continue
        baseline = groups.get((final_label, original))
        if baseline is None:
            raise ValidationError(
                f"no original-representation baseline for final learner {final_label!r}"
            )
        base_mean = float(np.mean(sorted(baseline.values())))
        wins, losses, ties = win_count(baseline, group)
        rows.append(ComparisonRow(final_label, rep_label, mean,
                                  improvement_pct(base_mean, mean),
                                  wins, losses, ties, len(group)))

    def sort_key(row: ComparisonRow) -> tuple:
        rep_rank = 0 if row.improvement is None else 1
        return (row.final_label, rep_rank, row.representation_label)

    return ComparisonTable(rows=tuple(sorted(rows, key=sort_key)))


def render_comparison(table: ComparisonTable) -> str:
    """Wide pivot: one line per final learner, columns per representation."""
    finals: list[str] = []
    reps: list[str] = []
    cells: dict[tuple[str, str], ComparisonRow] = {}
    for row in table.rows:
        if row.final_label not in finals:
            finals.append(row.final_label)
        if row.representation_label not in reps:
            reps.append(row.representation_label)
        cells[(row.final_label, row.representation_label)] = row

    header = ["Learning Method"]
    for rep in reps:
        header.append(rep)
        if rep != "Original rep.":
            header.append("(%)")
    lines = [header]
    for final in finals:
        line = [final]
        for rep in reps:
            row = cells.get((final, rep))
            line.append("-" if row is None else f"{row.mean_rmse:.4f}")
            if rep != "Original rep.":
                line.append("-" if row is None or row.improvement is None
                            else f"{row.improvement:.2f}")
        lines.append(line)

    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    out = []
    for line in lines:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def comparison_tsv(table: ComparisonTable) -> str:
    """Delimited form of the comparison table, one row per group."""
    lines = ["final\trepresentation\tmean_rmse\timprovement_pct\twins\tlosses\tties\ttasks"]
    for row in table.rows:
        imp = "" if row.improvement is None else repr(row.improvement)
        lines.append("\t".join([
            row.final_label, row.representation_label, repr(row.mean_rmse), imp,
            str(row.wins), str(row.losses), str(row.ties), str(row.task_count),
        ]))
    return "\n".join(lines) + "\n"
