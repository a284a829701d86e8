"""Prediction-space analysis: cross-prediction matrices and k-means.

Applying every bank model to a pooled example set gives a full matrix of
predictions: ``engine.cross_predict``, the kernel the extrinsic views are
sliced from, kept whole (no leave-own-task-out here; this is analysis,
not training input). Clustering its columns groups tasks by how they
predict; clustering its rows groups examples by how they are predicted.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import CollectionMode, TaskCollection
from .engine import ModelBank, cross_predict
from .errors import ValidationError
from .learners import Standardizer

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6
KMEANS_BLOCK = 2 ** 15  # floats of X that one k-means block holds
DISTANCE_BLOCK = 2 ** 15  # floats of differences that one distance block holds


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


def cross_prediction_matrix(bank: ModelBank, pool: np.ndarray, example_ids: tuple[str, ...],
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
    return CrossPredictionMatrix(values=cross_predict(bank, pool), example_ids=example_ids,
                                 task_ids=bank.task_ids)


def kmeans(X: np.ndarray, k: int, seed: int) -> ClusterResult:
    """Lloyd's algorithm with seeded distinct-item initialization.

    Iterates until assignments stop changing, the inertia improvement
    drops below ``KMEANS_TOL``, or ``KMEANS_MAX_ITER`` passes are made; a
    final centroid update keeps the mean-consistency invariant exact at
    termination.

    A pass reads ``X`` a block of rows at a time, so k-means holds ``X``,
    its result, two n-vectors and about two blocks, whatever ``X``'s size
    and layout. Every field of the result keeps the bits of the
    all-at-once broadcast on ``X``'s C-ordered copy.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
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
    del seen_rows  # k rows' bytes: free them before the centroids are made
    pos = 0
    while len(chosen) < k:  # fewer distinct rows than k: reuse rows
        chosen.append(int(order[pos % n]))
        pos += 1
    centroids = np.empty((k, d))
    for c, i in enumerate(chosen):  # row by row: np.take copies an F-ordered X whole
        centroids[c] = X[i]

    # A pass reads X in blocks of whole rows through one block-sized scratch
    # buffer. A block holds at most KMEANS_BLOCK floats, and so does its
    # (rows, k) table of squared distances.
    step = max(1, KMEANS_BLOCK // max(d, k))
    scratch = np.empty((min(step, n), d))
    # Each distance and member sum must run along C-ordered rows to keep the
    # bits; an input of another layout (the F-ordered task view ``values.T``)
    # is copied to C order one block at a time.
    c_block = None if X.flags.c_contiguous else np.empty_like(scratch)
    d2 = np.empty((len(scratch), k))
    dist = np.empty(n)

    def block(lo: int) -> np.ndarray:
        rows = X[lo:lo + step]
        if c_block is None:
            return rows
        out = c_block[:len(rows)]
        np.copyto(out, rows)
        return out

    def sweep(asg: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """Each item's nearest centroid (or the one ``asg`` names) and the sum
        of the items' squared distances to it. Subtract, square and a row sum
        are the steps of ``((X[:, None] - C[None]) ** 2).sum(axis=2)`` and keep
        its bits; the sum over ``dist`` adds in the order of that broadcast's
        ``d2[np.arange(n), asg].sum()``."""
        nearest = asg is None
        if nearest:
            asg = np.empty(n, dtype=np.int64)
        for lo in range(0, n, step):
            rows = block(lo)
            m = len(rows)
            diff, costs = scratch[:m], d2[:m]
            for c in range(k):
                np.subtract(rows, centroids[c], out=diff)
                np.square(diff, out=diff)
                diff.sum(axis=1, out=costs[:, c])
            if nearest:
                costs.argmin(axis=1, out=asg[lo:lo + m])
            dist[lo:lo + m] = costs[np.arange(m), asg[lo:lo + m]]
        return asg, float(dist.sum())

    def refresh(asg: np.ndarray) -> None:
        """Move each centroid to its members' mean, with the bits of
        ``X[asg == c].mean(axis=0)``; an empty cluster keeps its centroid."""
        counts = np.bincount(asg, minlength=k)
        if d == 1:
            # numpy sums one column pairwise, not row by row: keep its expression
            for c in np.flatnonzero(counts):
                centroids[c] = X[asg == c].mean(axis=0)
            return
        # For d >= 2 numpy adds the member rows one after another, from +0.0.
        # Each block's rows are grouped by cluster in the scratch buffer, and
        # a cluster's running sum is added into its first member row of the
        # next block: the same additions in the same order. A running sum is
        # never -0.0, so summing that row from +0.0 again leaves it as it is.
        started = np.zeros(k, dtype=bool)
        narrow = np.min_scalar_type(k - 1)  # numpy's stable sort of <= 16-bit ints is a radix sort
        for lo in range(0, n, step):
            labels = asg[lo:lo + step]
            grouped = scratch[:len(labels)]
            np.take(block(lo), np.argsort(labels.astype(narrow), kind="stable"), axis=0,
                    out=grouped)
            end = 0
            for c, size in enumerate(np.bincount(labels, minlength=k)):
                start, end = end, end + size
                if size:
                    if started[c]:
                        grouped[start] += centroids[c]
                    grouped[start:end].sum(axis=0, out=centroids[c])
                    started[c] = True
        for c in np.flatnonzero(counts):
            centroids[c] /= counts[c]

    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    converged = False
    it = 0
    # Each break below follows a sweep that measured the final assignments
    # against the final centroids, so its total is the inertia.
    for it in range(1, KMEANS_MAX_ITER + 1):
        new_assignments, inertia = sweep()
        history.append(inertia)
        if np.array_equal(new_assignments, assignments):
            # Exact fixed point: centroids are already the member means and
            # every item sits with its nearest centroid.
            converged = True
            break
        assignments = new_assignments
        refresh(assignments)
        if len(history) >= 2 and history[-2] - history[-1] < KMEANS_TOL:
            # Stalled; one confirmation pass decides convergence.
            confirm, inertia = sweep()
            history.append(inertia)
            converged = bool(np.array_equal(confirm, assignments))
            assignments = confirm
            break
    else:
        # Out of passes: the last refresh moved the centroids after the last sweep.
        _, inertia = sweep(assignments)
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
def _cluster_items(items: np.ndarray, k: int, seed: int, standardize: bool) -> ClusterResult:
    n = items.shape[0]
    if not 1 <= k <= n:  # as kmeans does, but before standardizing
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    if standardize:
        # Each item's features are the columns of ``items``: standardize those.
        items = Standardizer.fit(items).transform(items)
    return kmeans(items, k, seed)


def cluster_tasks(matrix: CrossPredictionMatrix, k: int, seed: int,
                  standardize: bool = False) -> ClusterResult:
    """K-means over task columns (each task = its prediction vector)."""
    if matrix.values.shape[0] == 0:
        raise ValidationError("cannot cluster tasks of an empty pool")
    return _cluster_items(matrix.values.T, k, seed, standardize)


def cluster_examples(matrix: CrossPredictionMatrix, k: int, seed: int,
                     standardize: bool = False) -> ClusterResult:
    """K-means over example rows (each example = its prediction tuple)."""
    return _cluster_items(matrix.values, k, seed, standardize)


def assignments_tsv(result: ClusterResult, item_ids: tuple[str, ...]) -> str:
    """Delimited assignment table of the items ``result`` clustered, in order."""
    lines = ["item_id\tcluster"]
    for item_id, c in zip(item_ids, result.assignments):
        lines.append(f"{item_id}\t{int(c)}")
    return "\n".join(lines) + "\n"


@_overflow_is_an_error()
def _distances_from(X: np.ndarray, i: int, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.sqrt(((X - X[i]) ** 2).sum(axis=1))`` with its bits, written to
    ``out`` a block of ``len(buf)`` rows at a time through ``buf``.

    The whole-input expression sums each row's squares along a row-major X
    pairwise, but column after column along a column-major X (the task view
    ``values.T``). ``buf`` has X's order and at least two rows (or X's
    one), so each block sums as the whole input does: a column-major block
    of one row would sum pairwise, so a last block of one row takes the row
    before it too.
    """
    n, step = X.shape[0], buf.shape[0]
    for lo in range(0, n, step):
        lo = min(lo, max(0, n - 2))
        block = buf[:min(step, n - lo)]
        np.subtract(X[lo:lo + step], X[i], out=block)
        np.square(block, out=block)
        block.sum(axis=1, out=out[lo:lo + step])
    return np.sqrt(out, out=out)


def write_pairwise_distances(path: str | Path, X: np.ndarray, ids: tuple[str, ...]) -> None:
    """Euclidean distance matrix dump for external visualization, written to
    ``path`` one row at a time.

    Each row's distances are taken over blocks of at most
    ``DISTANCE_BLOCK`` floats (two rows when one row is more), so the
    writer holds one block and one row whatever the size of X. The rows go
    to ``path`` plus ``.partial``, renamed to ``path`` once complete, so a
    row that fails (items too far apart) leaves no partial table and an
    earlier table at ``path`` stays as it was.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    column_major = X.flags.f_contiguous and not X.flags.c_contiguous
    step = max(2, DISTANCE_BLOCK // max(1, d))
    buf = np.empty((min(step, n), d), order="F" if column_major else "C")
    dist = np.empty(n)
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("w", encoding="utf-8") as fh:
            fh.write("\t".join(["item_id", *ids]) + "\n")
            for i, item_id in enumerate(ids):
                row = _distances_from(X, i, buf, dist)
                fh.write("\t".join([item_id, *map(repr, row.tolist())]) + "\n")
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
