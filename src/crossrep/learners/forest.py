"""Bagged regression trees.

Each tree is grown on a bootstrap sample; at every split a fresh random
subset of candidate features is scanned for the best variance reduction.
Per-tree randomness is derived from (seed, tree index), so the forest
depends only on the data and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from ..seeding import derive_seed
from .base import (EMPTY_FINGERPRINT, FittedModel, LearnerSpec,
                   TrainFingerprint, check_fit_input)


@dataclass(frozen=True)
class Tree:
    """Flat array encoding; feature = -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class ForestState:
    trees: tuple[Tree, ...]
    seed: int
    mtry: int
    min_node_size: int

    def diagnostics(self) -> dict:
        return {"trees": len(self.trees),
                "nodes": sum(t.feature.shape[0] for t in self.trees)}


def _best_split(sub: np.ndarray, ynode: np.ndarray):
    """Best (column, threshold, score) over the candidate submatrix, or None."""
    m = sub.shape[0]
    order = np.argsort(sub, axis=0, kind="stable")
    svals = np.take_along_axis(sub, order, axis=0)
    sy = ynode[order]
    cum = np.cumsum(sy, axis=0)
    cum2 = np.cumsum(sy * sy, axis=0)
    tot, tot2 = cum[-1], cum2[-1]
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    nr = m - nl
    left_sse = cum2[:-1] - cum[:-1] ** 2 / nl
    right_sse = (tot2 - cum2[:-1]) - (tot - cum[:-1]) ** 2 / nr
    score = left_sse + right_sse
    valid = svals[:-1] < svals[1:]
    if not valid.any():
        return None
    score = np.where(valid, score, np.inf)
    flat = int(np.argmin(score))
    pos, col = divmod(flat, score.shape[1])
    thresh = 0.5 * (svals[pos, col] + svals[pos + 1, col])
    # midpoints of adjacent floats can round up to the right value, which
    # would send both sides left; fall back to the left value itself
    if thresh >= svals[pos + 1, col]:
        thresh = svals[pos, col]
    return col, float(thresh), float(score[pos, col])


def _grow_tree(X: np.ndarray, y: np.ndarray, mtry: int, min_node_size: int,
               rng: np.random.Generator) -> Tree:
    n, p = X.shape
    boot = rng.integers(0, n, size=n)
    Xb, yb = X[boot], y[boot]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), np.arange(n))]
    while stack:
        node, idx = stack.pop()
        ynode = yb[idx]
        value[node] = float(ynode.mean())
        if len(idx) <= min_node_size or np.all(ynode == ynode[0]):
            continue
        cand = rng.choice(p, size=min(mtry, p), replace=False)
        split = _best_split(Xb[np.ix_(idx, cand)], ynode)
        if split is None:
            continue
        col, thresh, _ = split
        feat = int(cand[col])
        go_left = Xb[idx, feat] <= thresh
        feature[node] = feat
        threshold[node] = thresh
        li, ri = new_node(), new_node()
        left[node], right[node] = li, ri
        stack.append((ri, idx[~go_left]))
        stack.append((li, idx[go_left]))
    return Tree(feature=np.asarray(feature, dtype=np.int32),
                threshold=np.asarray(threshold, dtype=np.float64),
                left=np.asarray(left, dtype=np.int32),
                right=np.asarray(right, dtype=np.int32),
                value=np.asarray(value, dtype=np.float64))


def _tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    # Level-synchronous traversal: every row advances one level per pass.
    pos = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        feat = tree.feature[pos]
        active = np.flatnonzero(feat >= 0)
        if active.size == 0:
            break
        node = pos[active]
        go_left = X[active, feat[active]] <= tree.threshold[node]
        pos[active] = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[pos]


def predict_state(state: ForestState, X: np.ndarray) -> np.ndarray:
    # Sequential accumulation over trees keeps each row's float result
    # independent of the batch size.
    out = np.zeros(X.shape[0], dtype=np.float64)
    for tree in state.trees:
        out += _tree_predict(tree, X)
    return out / len(state.trees)


def fit_forest(X: np.ndarray, y: np.ndarray, *, n_trees: int = 500, mtry: int = 0,
               min_node_size: int = 5, seed: int = 0,
               fingerprint: TrainFingerprint = EMPTY_FINGERPRINT,
               spec: LearnerSpec | None = None) -> FittedModel:
    """Fit a bagged forest; mtry = 0 means ceil(p / 3)."""
    X, y = check_fit_input(X, y, min_rows=1)
    if n_trees < 1:
        raise FitError(f"tree count must be at least 1, got {n_trees}")
    if min_node_size < 1:
        raise FitError(f"min node size must be at least 1, got {min_node_size}")
    p = X.shape[1]
    eff_mtry = mtry if mtry > 0 else -(-p // 3)

    trees = tuple(_grow_tree(X, y, eff_mtry, min_node_size,
                             np.random.default_rng(derive_seed(seed, "tree", t)))
                  for t in range(n_trees))
    if spec is None:
        spec = LearnerSpec.forest(n_trees=n_trees, mtry=mtry,
                                  min_node_size=min_node_size, seed=seed)
    state = ForestState(trees=trees, seed=seed, mtry=eff_mtry, min_node_size=min_node_size)
    return FittedModel(spec=spec, state=state, feature_count=p,
                       train_fingerprint=fingerprint, standardization=None)
