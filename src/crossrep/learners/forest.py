"""Bagged regression trees.

Each tree is grown on a bootstrap sample; at every split a fresh random
subset of candidate features is scanned for the best variance reduction.
Per-tree randomness is derived from (seed, tree index), so the forest
depends only on the data and the seed. These rules fix every bit of a
tree (``tests/test_forest_golden.py`` holds digests of its arrays):

- the bootstrap is drawn first;
- nodes are popped depth-first, left child first; each splittable node
  (more rows than ``min_node_size``, unequal targets) makes one
  ``rng.choice`` call for its candidate columns, in that pop order;
- rows keep bootstrap order and the sort is stable, so ties keep it, and
  the first best (position, column) in row-major order wins;
- the threshold is the midpoint around the split, or the left value when
  the midpoint rounds up to the right one.

Every tree also keeps the layout rules that ``archive`` checks on load:
a leaf has feature -1; a split node has a feature in range, its left child
after it and its right child at left + 1. Prediction relies on them. It
packs all trees once into flat arrays (``ForestState.packed``) in which a
leaf points to itself, then moves every (tree, row) pair one level per
step for exactly the forest's depth, in chunks of about
``PREDICT_CHUNK_PAIRS`` pairs. A row goes right when ``x > threshold``,
which for finite values is the same comparison as ``not x <= threshold``.
Leaf values are summed over trees in tree order into zeros and divided by
the tree count, so a prediction's bits do not depend on the other rows,
the chunking or the input's memory layout (digests in the same test file).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import FitError
from ..seeding import derive_seed
from .base import FittedModel, LearnerKind, LearnerSpec, check_fit_input, check_hyperparams

# (tree, row) pairs per prediction chunk: keeps the traversal's buffers small
PREDICT_CHUNK_PAIRS = 8192

# A split score of m rows with |target| <= t is a sum of two terms of at most
# (m t)^2 each, so targets up to sqrt(max float) / (2 n) keep every split sum
# of an n-row fit finite.
ROOT_FLOAT_MAX = float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True)
class Tree:
    """Flat array encoding; feature = -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class PackedForest:
    """All trees of a forest in flat arrays, leaves looping to themselves.

    Split node i sends a row to ``nxt[i] + (x[feat[i]] > thr[i])``, its
    left child or the right child next to it; a leaf has ``feat`` 0,
    ``thr`` +inf and ``nxt`` itself, so it never moves. Every row reaches
    its leaf in every tree after ``depth`` steps, the forest's longest
    root-to-leaf path. ``roots`` holds each tree's node offset.
    """

    feat: np.ndarray
    thr: np.ndarray
    nxt: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def pack(cls, trees: tuple[Tree, ...]) -> "PackedForest":
        sizes = [t.feature.shape[0] for t in trees]
        roots = np.zeros(len(trees), dtype=np.intp)
        np.cumsum(sizes[:-1], out=roots[1:])
        feature = np.concatenate([t.feature for t in trees])
        leaf = feature < 0
        left = np.concatenate([t.left for t in trees]).astype(np.intp)
        left += np.repeat(roots, sizes)
        nxt = np.where(leaf, np.arange(feature.shape[0]), left)
        # one level per pass; a node mask stays as small as the forest
        depth, level = 0, np.zeros(feature.shape[0], dtype=bool)
        level[roots] = True
        while (children := nxt[level & ~leaf]).size:
            level[:] = False
            level[children] = level[children + 1] = True
            depth += 1
        return cls(feat=np.where(leaf, 0, feature).astype(np.intp),
                   thr=np.where(leaf, np.inf, np.concatenate([t.threshold for t in trees])),
                   nxt=nxt, value=np.concatenate([t.value for t in trees]), roots=roots,
                   depth=depth)


@dataclass(frozen=True)
class ForestState:
    trees: tuple[Tree, ...]
    seed: int
    mtry: int
    min_node_size: int

    @cached_property
    def packed(self) -> PackedForest:
        """Built on first use; never archived."""
        return PackedForest.pack(self.trees)

    def diagnostics(self) -> dict:
        return {"trees": len(self.trees), "nodes": sum(t.feature.shape[0] for t in self.trees),
                "depth": self.packed.depth}


def _best_split(sub: np.ndarray, ynode: np.ndarray, nl: np.ndarray, cols: np.ndarray):
    """Best (column, threshold) of ``sub``, or None; ``nl`` is 1, 2, ... as a column."""
    m = sub.shape[0]
    order = sub.argsort(axis=0, kind="stable")
    svals = sub[order, cols]
    sy = ynode.take(order)
    cum = sy.cumsum(axis=0)
    cum2 = np.multiply(sy, sy, out=sy).cumsum(axis=0)
    head, head2 = cum[:-1], cum2[:-1]
    # the right-child sizes m - nl are nl's head reversed
    score = ((head2 - head ** 2 / nl[:m - 1])
             + ((cum2[-1] - head2) - (cum[-1] - head) ** 2 / nl[m - 2::-1]))
    invalid = svals[:-1] >= svals[1:]
    if invalid.all():
        return None
    score[invalid] = np.inf
    pos, col = divmod(int(score.argmin()), score.shape[1])
    lo, hi = svals.item(pos, col), svals.item(pos + 1, col)
    thresh = 0.5 * (lo + hi)
    # an adjacent-float midpoint can round up to hi and send every row left
    return col, (lo if thresh >= hi else thresh)


def _grow_tree(X: np.ndarray, y: np.ndarray, mtry: int, min_node_size: int,
               rng: np.random.Generator) -> Tree:
    n, p = X.shape
    k = min(mtry, p)
    boot = rng.integers(0, n, size=n)
    Xb, yb = X[boot], y[boot]
    nl, cols = np.arange(1, n, dtype=np.float64)[:, None], np.arange(k)
    # one [feature, threshold, left, right, value] record per node
    nodes = [[-1, 0.0, -1, -1, 0.0]]
    stack = [(0, np.arange(n), yb)]
    while stack:
        node, idx, ynode = stack.pop()
        m = idx.shape[0]
        nodes[node][4] = float(np.add.reduce(ynode)) / m
        if m <= min_node_size or ynode.min() == ynode.max():
            continue
        cand = rng.choice(p, size=k, replace=False)
        sub = Xb.take(idx, 0).take(cand, 1)
        split = _best_split(sub, ynode, nl, cols)
        if split is None:
            continue
        col, thresh = split
        go_left = sub[:, col] <= thresh
        go_right = ~go_left
        li = len(nodes)
        nodes[node][:4] = int(cand[col]), thresh, li, li + 1
        nodes += [-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]
        stack.append((li + 1, idx[go_right], ynode[go_right]))
        stack.append((li, idx[go_left], ynode[go_left]))
    feature, threshold, left, right, value = zip(*nodes)
    return Tree(feature=np.array(feature, dtype=np.int32), threshold=np.array(threshold),
                left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32),
                value=np.array(value))


def predict_state(state: ForestState, X: np.ndarray) -> np.ndarray:
    forest = state.packed
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, p = X.shape
    trees = forest.roots.shape[0]
    out = np.zeros(n, dtype=np.float64)
    step = max(1, PREDICT_CHUNK_PAIRS // trees)
    for start in range(0, n, step):
        rows = X[start:start + step]
        m, Xf = rows.shape[0], rows.ravel()
        # (tree, row) pairs, tree-major: pair t * m + i is row i in tree t
        pos = np.repeat(forest.roots, m)
        base = np.tile(np.arange(m) * p, trees)
        for _ in range(forest.depth):
            go_right = Xf.take(base + forest.feat.take(pos)) > forest.thr.take(pos)
            pos = forest.nxt.take(pos)
            pos += go_right
        chunk = out[start:start + m]
        for leaf_values in forest.value.take(pos).reshape(trees, m):
            chunk += leaf_values
    return out / trees


def fit_forest(X: np.ndarray, y: np.ndarray, *, n_trees: int = 500, mtry: int = 0,
               min_node_size: int = 5, seed: int = 0) -> FittedModel:
    """Fit a bagged forest; mtry = 0 means ceil(p / 3)."""
    X, y = check_fit_input(X, y, min_rows=1)
    check_hyperparams(LearnerKind.FOREST,
                      {"n_trees": n_trees, "min_node_size": min_node_size, "mtry": mtry})
    n, p = X.shape
    bound, top = ROOT_FLOAT_MAX / (2 * n), float(np.abs(y).max())
    if top > bound:
        raise FitError(f"largest |target| {top!r} is too large for the forest's split sums; "
                       f"{n} rows allow at most {bound:.6g}")
    eff_mtry = mtry if mtry > 0 else -(-p // 3)
    trees = tuple(_grow_tree(X, y, eff_mtry, min_node_size,
                             np.random.default_rng(derive_seed(seed, "tree", t)))
                  for t in range(n_trees))
    spec = LearnerSpec.forest(n_trees=n_trees, mtry=mtry, min_node_size=min_node_size, seed=seed)
    state = ForestState(trees=trees, seed=seed, mtry=eff_mtry, min_node_size=min_node_size)
    return FittedModel(spec=spec, state=state, feature_count=p)
