"""Golden forests, asserted bit for bit.

Each case fits ``fit_forest`` on a fixed problem and hashes the bytes of
every tree's ``feature``, ``threshold``, ``left``, ``right`` and ``value``
arrays, in tree order. The cases cover continuous inputs, integer-grid
inputs full of ties, tied and constant targets, adjacent-float feature
values (the midpoint fallback), ``min_node_size`` 1 and 5, ``mtry = p``
and a single row. A rewrite of tree growth must keep every digest; a
changed digest is a change of behaviour and must be named in CHANGES.md.

The predict digests hash the bytes of ``predict_state`` on fixed queries:
each golden forest's training rows and rows with one split feature set to
its threshold or to the float on either side of it, thresholds of a
one-feature forest (which every such query reaches), a single row,
Fortran-ordered and sliced input, a leaf valued -0.0 and a 60-tree forest
on enough rows to cross several prediction chunks. A rewrite of forest
prediction must keep every one of them.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from crossrep.learners import fit_forest
from crossrep.learners.forest import ForestState, Tree, predict_state
from helpers import walk_forest_predict


def _continuous(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.sin(X[:, 0]) + X[:, -1] ** 2 + 0.1 * rng.normal(size=n)
    return X, y


def _grid(seed, n, p, y_levels):
    # Coarse integer grid: duplicate rows and many equal feature values, so
    # the stable sort's tie order decides the split positions.
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(n, p)).astype(np.float64)
    y = rng.integers(0, y_levels, size=n).astype(np.float64)
    return X, y


def _adjacent_floats(seed, n):
    # Every feature takes two adjacent floats, whose midpoint rounds up to
    # the right value; the split must fall back to the left value.
    # Each lo has an odd last mantissa bit, so the tie rounds to even: up.
    rng = np.random.default_rng(seed)
    lo = np.array([np.nextafter(1.0, 2.0), np.nextafter(-3.5, -np.inf), 3 * 2.0 ** -1074])
    hi = np.nextafter(lo, np.inf)
    pick = rng.integers(0, 2, size=(n, 3)).astype(bool)
    X = np.where(pick, hi, lo)
    y = pick[:, 0] * 2.0 + pick[:, 1] + 0.01 * rng.normal(size=n)
    return X, y


def _single_row():
    return np.array([[0.25, -1.0, 3.0]]), np.array([1.5])


# name -> (problem, fit_forest keywords, sha256 over all trees, total nodes)
CASES = {
    "continuous_160x30": (
        lambda: _continuous(0, 160, 30), dict(n_trees=6, seed=1),
        "5fd8ec8a4d0d7b2846d7853391bb1df83f5e2ce58ec9ec31ba05a42d02694caa",
        614),
    "continuous_160x11_leaf1": (
        lambda: _continuous(1, 160, 11), dict(n_trees=6, min_node_size=1, seed=2),
        "0c0ba360978182b933560d0fed751a547d599b8a99d8ac456b3dbfacf6a529dc",
        1226),
    "grid_ties_120x6": (
        lambda: _grid(2, 120, 6, 4), dict(n_trees=5, seed=3),
        "87874be92cebdbbc26e99db750eefeb7fa7f9a0899d95b33b13e03a0ca5d5042",
        373),
    "grid_ties_120x6_leaf1": (
        lambda: _grid(3, 120, 6, 3), dict(n_trees=5, min_node_size=1, seed=4),
        "1f3aa9961e7d4360c6bccd5f89fd9bd1099e75c293dea0547e1eaafb5ff639a9",
        511),
    "grid_binary_y_80x4_mtry_p": (
        lambda: _grid(4, 80, 4, 2), dict(n_trees=5, mtry=4, min_node_size=1, seed=5),
        "268703d05d3b6ad05464a614648b17b0e03d49f461e0fe644310f48965be5773",
        239),
    "constant_y_50x5": (
        lambda: (_grid(5, 50, 5, 1)[0], np.full(50, 0.7)), dict(n_trees=3, seed=6),
        "683ec59ad15a1329c802ff035fca86633b86a02be41b7323cbd5c700da4c1b32",
        3),
    "continuous_x_tied_y_90x8_mtry_p": (
        lambda: (_continuous(6, 90, 8)[0], _grid(6, 90, 1, 3)[1]),
        dict(n_trees=4, mtry=8, min_node_size=1, seed=7),
        "693cb353ffb51e36d095372aa877fc066072b7980e0aa94d1653005295807c61",
        172),
    "adjacent_floats_60x3": (
        lambda: _adjacent_floats(7, 60), dict(n_trees=5, mtry=3, min_node_size=1, seed=8),
        "afad8c55b9878d3e08efad4badb4da2ff12220f033a6089e4f32be791a3d4490",
        75),
    "single_row": (
        _single_row, dict(n_trees=3, min_node_size=1, seed=9),
        "d40f3833e6eed1bd751fc29566d6d9bbddf1cc7af8438c2a6f7aec2d6c50ecd8",
        3),
}


def _digest(state):
    h = hashlib.sha256()
    for tree in state.trees:
        for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
            h.update(arr.dtype.str.encode("ascii"))
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_forest_golden_fit(name):
    problem, kwargs, digest, nodes = CASES[name]
    X, y = problem()
    state = fit_forest(X, y, **kwargs).state
    assert (_digest(state), sum(t.feature.shape[0] for t in state.trees)) == (digest, nodes)


def _splits(state):
    """Feature and threshold of every split node, tree by tree."""
    return (np.concatenate([t.feature[t.feature >= 0] for t in state.trees]),
            np.concatenate([t.threshold[t.feature >= 0] for t in state.trees]))


def _threshold_queries(state, X):
    """Training rows, then rows with one split feature at, below and above its threshold."""
    feats, thrs = _splits(state)
    rows = np.arange(feats.shape[0])
    blocks = [X]
    for values in (thrs, np.nextafter(thrs, -np.inf), np.nextafter(thrs, np.inf)):
        Q = X[rows % X.shape[0]].copy()
        Q[rows, feats] = values
        blocks.append(Q)
    return np.vstack(blocks)


def _one_feature_thresholds():
    # With one feature a node's region is an interval holding its threshold,
    # so the query at a threshold reaches that node's comparison.
    X, y = _continuous(10, 120, 1)
    state = fit_forest(X, y, n_trees=5, min_node_size=1, seed=10).state
    _, thrs = _splits(state)
    queries = np.concatenate([thrs, np.nextafter(thrs, -np.inf), np.nextafter(thrs, np.inf)])
    return state, queries[:, None]


def _negative_zero_leaf():
    # Grown trees average their leaf rows from +0.0, so a -0.0 leaf is
    # built by hand; the sum over trees starts from +0.0, so rows that end
    # in -0.0 leaves only predict +0.0.
    split = Tree(feature=np.array([0, -1, -1], dtype=np.int32),
                 threshold=np.array([0.5, 0.0, 0.0]),
                 left=np.array([1, -1, -1], dtype=np.int32),
                 right=np.array([2, -1, -1], dtype=np.int32),
                 value=np.array([1.5, -0.0, 3.0]))
    leaf = Tree(feature=np.array([-1], dtype=np.int32), threshold=np.array([0.0]),
                left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
                value=np.array([-0.0]))
    state = ForestState(trees=(split, leaf), seed=0, mtry=1, min_node_size=1)
    return state, np.array([[-1.0], [0.5], [0.0], [np.nextafter(0.5, 1.0)], [2.0]])


def _many_trees_many_rows():
    X, y = _continuous(12, 200, 8)
    state = fit_forest(X, y, n_trees=60, seed=12).state
    return state, np.random.default_rng(13).normal(size=(1500, 8))


def _golden_queries(name):
    problem, kwargs, _, _ = CASES[name]
    X, y = problem()
    state = fit_forest(X, y, **kwargs).state
    return state, _threshold_queries(state, X)


def _single_row_query():
    state, Q = _golden_queries("continuous_160x30")
    return state, Q[1:2]


# name -> (builder of the state and its queries, sha256 of the predictions)
PREDICT_CASES = {
    **{f"golden_{name}": (partial(_golden_queries, name), digest) for name, digest in {
        "continuous_160x30":
            "ccae936a320d18ae3565df641ad026659a2395da79646d83919aa960995b73b0",
        "continuous_160x11_leaf1":
            "60ef0483d469bd8cec98845724d93c8a39ac6186f9bc92adbd23a15f809f613c",
        "grid_ties_120x6":
            "61d691aef2ebe1e8040d7bfe497d60c4ed61b881256b2e1ffdf28e0d94220edf",
        "grid_ties_120x6_leaf1":
            "990c2b2162770f0799443cf9b3342341c7f4353ec2ff8eb1f04c53e22c6ef404",
        "grid_binary_y_80x4_mtry_p":
            "eb145644282710e4fbf7718b78d6d06dc592f6883ce16ad503d7db04d9b91b7f",
        "constant_y_50x5":
            "eee83176712142f4480dfca6c9bd6e70a622f0ade54b25c1358baa673ff5661a",
        "continuous_x_tied_y_90x8_mtry_p":
            "d0a5a35beda6b5cb91923d51e304361c9ffdebfb0267c7d1e76fd5faaea1b1cf",
        "adjacent_floats_60x3":
            "0219c1f2addf9b194d664626a6982aa0df70c9c81b727c11596b4b00319cb45b",
        "single_row":
            "2b8aefdbb075cb1d1935c3b9f24e966255f0e1a4c74cc079d3e64912fa5b5a91",
    }.items()},
    "one_feature_thresholds": (_one_feature_thresholds,
        "c5508b51a286be9ad0882a33d9d6595d700289d56b921b544c21f9907d3dd649"),
    "single_row_query": (_single_row_query,
        "a87c468bae60e4b03d4fe24f3ff48cc3b4df194062192c24f589e7985b7b7b72"),
    "negative_zero_leaf": (_negative_zero_leaf,
        "caf915461356329a9579432361c117496d8a3223ad9562776254a950efe80775"),
    "trees60_rows1500": (_many_trees_many_rows,
        "254b9ad59cf471b297b892232b79b07027d89219f8b3d7051b1f61f8283c24c8"),
}


def _predict_digest(pred):
    h = hashlib.sha256(pred.dtype.str.encode("ascii"))
    h.update(np.ascontiguousarray(pred).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PREDICT_CASES))
def test_forest_golden_predict(name):
    build, digest = PREDICT_CASES[name]
    state, Q = build()
    assert _predict_digest(predict_state(state, Q)) == digest


@pytest.mark.parametrize("layout", ["fortran", "sliced"])
def test_forest_golden_predict_layout(layout):
    """Fortran-ordered and strided views of the queries predict the C-ordered bytes."""
    build, digest = PREDICT_CASES["golden_continuous_160x30"]
    state, Q = build()
    if layout == "fortran":
        Q = np.asfortranarray(Q)
    else:
        wide = np.zeros((2 * Q.shape[0], Q.shape[1] + 3))
        wide[::2, 1:-2] = Q
        Q = wide[::2, 1:-2]
    assert _predict_digest(predict_state(state, Q)) == digest


def test_negative_zero_leaf_predicts_positive_zero():
    pred = predict_state(*_negative_zero_leaf())
    assert pred.tolist() == [0.0, 0.0, 0.0, 1.5, 1.5]
    assert not np.signbit(pred).any()


def test_predict_matches_node_walker_randomized():
    """Random forests agree bit for bit with a per-node walk, which is row by row."""
    rng = np.random.default_rng(14)
    for trial in range(30):
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 7))
        if trial % 3 == 0:
            X = rng.integers(-2, 3, size=(n, p)).astype(np.float64)
        else:
            X = rng.normal(size=(n, p)) * rng.uniform(0.01, 100)
        y = rng.normal(size=n)
        state = fit_forest(X, y, n_trees=int(rng.integers(1, 16)),
                           min_node_size=int(rng.integers(1, 6)), seed=trial).state
        Q = np.vstack([_threshold_queries(state, X), rng.normal(size=(40, p)) * 3])
        assert predict_state(state, Q).tobytes() == walk_forest_predict(state, Q).tobytes()
