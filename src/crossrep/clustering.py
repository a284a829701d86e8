"""Prediction-space analysis: cross-prediction matrices and k-means.

Applying every bank model to a pooled example set gives a full matrix of
predictions: ``engine.cross_predict``, the kernel the extrinsic views are
sliced from, kept whole (no leave-own-task-out here; this is analysis,
not training input). Clustering its columns groups tasks by how they
predict; clustering its rows groups examples by how they are predicted.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import CollectionMode, TaskCollection
from .engine import ModelBank, cross_predict
from .errors import ValidationError
from .learners import Standardizer

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6


def build_pool(collection: TaskCollection, cap: int | None = None,
               seed: int = 0) -> tuple[np.ndarray, tuple[str, ...]]:
    """Pooled example set for cross-prediction analysis.

    Shared-example collections contribute their common rows once;
    otherwise all tasks' rows are concatenated (ids prefixed with the
    task id). ``cap`` takes a seeded uniform subsample, preserving order.
    """
    if collection.mode is CollectionMode.SHARED_EXAMPLES:
        X = np.asarray(collection.tasks[0].features)
        ids = collection.tasks[0].example_ids
    else:
        X = np.vstack([t.features for t in collection.tasks])
        ids = tuple(f"{t.task_id}:{ex}" for t in collection.tasks
                    for ex in t.example_ids)
    if cap is not None:
        if cap < 1:
            raise ValidationError(f"pool cap must be at least 1, got {cap}")
        if cap < len(ids):
            rng = np.random.default_rng(seed)
            keep = np.sort(rng.choice(len(ids), size=cap, replace=False))
            X = X[keep]
            ids = tuple(ids[i] for i in keep)
    return np.ascontiguousarray(X), ids


@dataclass(frozen=True)
class CrossPredictionMatrix:
    """Predictions of every task model on a pooled example set."""

    values: np.ndarray
    example_ids: tuple[str, ...]
    task_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValidationError("cross-prediction values must be a 2-d matrix")
        if vals.shape != (len(self.example_ids), len(self.task_ids)):
            raise ValidationError(
                f"shape {vals.shape} does not match {len(self.example_ids)} examples "
                f"x {len(self.task_ids)} tasks"
            )
        if not np.isfinite(vals).all():
            i, j = np.argwhere(~np.isfinite(vals))[0]
            raise ValidationError(f"source model {self.task_ids[j]!r} predicts a non-finite "
                                  f"value for example {self.example_ids[i]!r}")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ClusterResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    converged: bool
    n_iter: int
    inertia_history: tuple[float, ...]
    item_ids: tuple[str, ...] = ()


def cross_prediction_matrix(bank: ModelBank, pool: np.ndarray,
                            example_ids: tuple[str, ...] | None = None,
                            feature_names: tuple[str, ...] | None = None
                            ) -> CrossPredictionMatrix:
    """Apply all n bank models to the pool; returns a |pool| x n matrix.

    When both the pool's ``feature_names`` and the bank's are known, they
    must match column by column: the models read features by position.
    """
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2:
        raise ValidationError("pool must be a 2-d matrix")
    if bank.feature_count is not None and pool.shape[1] != bank.feature_count:
        raise ValidationError(f"pool has {pool.shape[1]} feature columns, bank models "
                              f"expect {bank.feature_count}")
    if feature_names is not None and bank.feature_names is not None:
        for i, (ours, theirs) in enumerate(zip(feature_names, bank.feature_names)):
            if ours != theirs:
                raise ValidationError(f"pool feature {i + 1} of {len(feature_names)} is "
                                      f"{ours!r}; the bank was trained with {theirs!r} "
                                      f"in that position")
    ids = example_ids if example_ids is not None else tuple(
        f"pool{i:05d}" for i in range(pool.shape[0]))
    return CrossPredictionMatrix(values=cross_predict(bank, pool), example_ids=ids,
                                 task_ids=bank.task_ids)


def kmeans(X: np.ndarray, k: int, seed: int) -> ClusterResult:
    """Lloyd's algorithm with seeded distinct-item initialization.

    Iterates until assignments stop changing, the inertia improvement
    drops below ``KMEANS_TOL``, or ``KMEANS_MAX_ITER`` passes are made; a
    final centroid update keeps the mean-consistency invariant exact at
    termination.
    """
    # C order makes the bits independent of the caller's layout: each
    # distance is then one pairwise sum along a contiguous row.
    X = np.ascontiguousarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    # Prefer geometrically distinct rows as initial centroids so duplicate
    # items cannot produce empty clusters at the first assignment.
    order = rng.permutation(n)
    chosen: list[int] = []
    seen_rows: set[bytes] = set()
    for i in order:
        key = X[i].tobytes()
        if key not in seen_rows:
            seen_rows.add(key)
            chosen.append(int(i))
        if len(chosen) == k:
            break
    pos = 0
    while len(chosen) < k:  # fewer distinct rows than k: reuse rows
        chosen.append(int(order[pos % n]))
        pos += 1
    centroids = X[np.asarray(chosen)].copy()

    # Squared distances one centroid at a time through one n x d scratch
    # buffer, so a pass allocates O(n d), not O(n k d). Subtract, square and
    # a row sum are the steps of ``((X[:, None] - C[None]) ** 2).sum(axis=2)``
    # and keep its bits.
    scratch = np.empty_like(X)
    d2 = np.empty((n, k), dtype=np.float64)

    def costs(cents: np.ndarray) -> np.ndarray:
        for c in range(k):
            np.subtract(X, cents[c], out=scratch)
            np.square(scratch, out=scratch)
            d2[:, c] = scratch.sum(axis=1)
        return d2

    def refresh(asg: np.ndarray) -> None:
        for c in range(k):
            members = asg == c
            if members.any():
                centroids[c] = X[members].mean(axis=0)
            # an empty cluster keeps its previous centroid

    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, KMEANS_MAX_ITER + 1):
        d2 = costs(centroids)
        new_assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assignments].sum()))
        if np.array_equal(new_assignments, assignments):
            # Exact fixed point: centroids are already the member means and
            # every item sits with its nearest centroid.
            converged = True
            break
        assignments = new_assignments
        refresh(assignments)
        if len(history) >= 2 and history[-2] - history[-1] < KMEANS_TOL:
            # Stalled; one confirmation pass decides convergence.
            d2 = costs(centroids)
            confirm = np.argmin(d2, axis=1)
            history.append(float(d2[np.arange(n), confirm].sum()))
            converged = bool(np.array_equal(confirm, assignments))
            assignments = confirm
            break

    d2 = costs(centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    return ClusterResult(assignments=assignments, centroids=centroids, inertia=inertia,
                         converged=converged, n_iter=it, inertia_history=tuple(history))


@contextlib.contextmanager
def _overflow_is_an_error():
    """Raise a ValidationError where float arithmetic overflows, as a squared
    distance between items far apart does, instead of warning and going on
    with inf."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValidationError(f"items too far apart: {exc}") from None


@_overflow_is_an_error()
def _cluster_items(items: np.ndarray, item_ids: tuple[str, ...], k: int, seed: int,
                   standardize: bool) -> ClusterResult:
    if not 1 <= k <= len(item_ids):  # as kmeans does, but before standardizing
        raise ValidationError(f"k must be in [1, {len(item_ids)}], got {k}")
    if standardize:
        # Each item's features are the columns of ``items``: standardize those.
        items = Standardizer.fit(items).transform(items)
    result = kmeans(items, k, seed)
    return dataclasses.replace(result, item_ids=item_ids)


def cluster_tasks(matrix: CrossPredictionMatrix, k: int, seed: int,
                  standardize: bool = False) -> ClusterResult:
    """K-means over task columns (each task = its prediction vector)."""
    if matrix.values.shape[0] == 0:
        raise ValidationError("cannot cluster tasks of an empty pool")
    return _cluster_items(matrix.values.T, matrix.task_ids, k, seed, standardize)


def cluster_examples(matrix: CrossPredictionMatrix, k: int, seed: int,
                     standardize: bool = False) -> ClusterResult:
    """K-means over example rows (each example = its prediction tuple)."""
    return _cluster_items(matrix.values, matrix.example_ids, k, seed, standardize)


def assignments_tsv(result: ClusterResult) -> str:
    """Delimited assignment table."""
    lines = ["item_id\tcluster"]
    ids = result.item_ids or tuple(str(i) for i in range(len(result.assignments)))
    for item_id, c in zip(ids, result.assignments):
        lines.append(f"{item_id}\t{int(c)}")
    return "\n".join(lines) + "\n"


@_overflow_is_an_error()
def pairwise_distances_tsv(X: np.ndarray, ids: tuple[str, ...]) -> str:
    """Euclidean distance matrix dump for external visualization."""
    X = np.asarray(X, dtype=np.float64)
    lines = ["\t".join(["item_id", *ids])]
    for i, item_id in enumerate(ids):
        d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        lines.append("\t".join([item_id, *(repr(float(v)) for v in d)]))
    return "\n".join(lines) + "\n"
