"""Golden forests, asserted bit for bit.

Each case fits ``fit_forest`` on a fixed problem and hashes the bytes of
every tree's ``feature``, ``threshold``, ``left``, ``right`` and ``value``
arrays, in tree order. The cases cover continuous inputs, integer-grid
inputs full of ties, tied and constant targets, adjacent-float feature
values (the midpoint fallback), ``min_node_size`` 1 and 5, ``mtry = p``
and a single row. A rewrite of tree growth must keep every digest; a
changed digest is a change of behaviour and must be named in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from crossrep.learners import fit_forest


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
