"""The SMO loop against its masked-copy oracle, bit for bit.

``_smo`` picks the maximal violating pair by adding penalty vectors to the
violation values; ``helpers.masked_smo`` is the loop before that, which
copied the values onto the up and low sets with ``np.copyto(where=)``.
Both must return the same ``a`` bytes, bias, iteration count and KKT gap,
or raise the same error with the same message, on problems that meet ties
in both picks: duplicate rows, equal and all-zero targets, signed-zero
epsilon, a negative tolerance (the ``i == j`` step), a small iteration cap
and targets that overflow the violation values.
"""

import numpy as np
import pytest

from crossrep.errors import ConvergenceError
from crossrep.learners import rbf_gram
from crossrep.learners.svr import _smo

from helpers import masked_smo


def outcome(solver, K, y, c, epsilon, tol, max_iter):
    try:
        a, bias, n_iter, gap = solver(K, y, c, epsilon, tol, max_iter)
    except ConvergenceError as exc:
        return type(exc), str(exc)
    return a.tobytes(), repr(bias), n_iter, repr(gap)


def problem(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        X = rng.normal(size=(14, 3))
        y = np.sin(X[:, 0]) + X[:, 2] ** 2 + 0.1 * rng.normal(size=14)
    elif kind == "ties":
        # A coarse integer grid: duplicate rows, equal targets, equal kernel entries.
        X = rng.integers(-1, 2, size=(16, 2)).astype(np.float64)
        y = rng.integers(-2, 3, size=16).astype(np.float64)
    elif kind == "duplicates":
        X = rng.normal(size=(12, 2))
        X[6:] = X[:6]
        y = np.concatenate([rng.normal(size=6)] * 2)
    else:  # all-zero targets: every violation value starts equal
        X = rng.normal(size=(10, 2))
        y = np.zeros(10)
    return rbf_gram(X, X, 0.5), y


def assert_same(K, y, c, epsilon, tol, max_iter):
    expected = outcome(masked_smo, K, y, c, epsilon, tol, max_iter)
    assert outcome(_smo, K, y, c, epsilon, tol, max_iter) == expected


@pytest.mark.parametrize("kind", ["random", "ties", "duplicates", "zeros"])
@pytest.mark.parametrize("epsilon", [0.0, -0.0, 0.1])
@pytest.mark.parametrize("c", [0.5, 1.0, 10.0, 1e200])
def test_smo_matches_masked_oracle(kind, epsilon, c):
    for seed in range(3):
        K, y = problem(kind, seed)
        assert_same(K, y, c, epsilon, 1e-5, 20_000)


@pytest.mark.parametrize("kind", ["random", "ties", "duplicates", "zeros"])
def test_negative_tol_matches_the_oracle(kind):
    # A zero gap does not meet a negative tol, so the loop goes on stepping,
    # and a variable free on both sets can be picked twice in one step.
    for seed in range(3):
        K, y = problem(kind, seed)
        for c in (0.5, 10.0):
            assert_same(K, y, c, 0.1, -1e-3, 400)


@pytest.mark.parametrize("max_iter", [0, 1, 2, 7])
def test_small_iteration_cap_raises_the_oracle_error(max_iter):
    K, y = problem("random", 4)
    expected = outcome(masked_smo, K, y, 10.0, 0.001, 1e-10, max_iter)
    assert expected[0] is ConvergenceError
    assert outcome(_smo, K, y, 10.0, 0.001, 1e-10, max_iter) == expected


def test_overflowing_values_keep_the_oracle_picks():
    """Targets near the float limit under C = 1.7e308 overflow Kbeta, so the
    violation values hold +-inf off the sets, where value plus penalty is nan.
    The picks there must still be the ones over the sets alone."""
    rng = np.random.default_rng(0)
    edges = [-1.7e308, 1.7e308, 1e308, -1e308, 0.0, 1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):
            n = int(rng.integers(3, 9))
            X = rng.normal(size=(n, 2))
            X[1] = X[0]
            K = rbf_gram(X, X, 0.5)
            y = rng.choice(edges, size=n)
            epsilon = float(rng.choice([0.0, 0.1, 1e307]))
            assert_same(K, y, float(rng.choice([1e308, 1.7e308])), epsilon, 1e-3,
                        int(rng.integers(0, 40)))
