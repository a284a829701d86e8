"""Golden fits of the SVR solver, asserted bit for bit.

Each case fits ``fit_svr`` on a fixed problem and hashes the fitted
``support``, ``dual_coef`` and ``bias``; the iteration count and the final
KKT gap are asserted exactly. Score tables never see ``n_iter`` or
``kkt_gap``, so these digests are the oracle that a rewrite of the SMO
loop keeps the same iterate path. A changed digest is a change of
behaviour and must be named in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from crossrep.data import CollectionMode
from crossrep.learners import fit_svr, rbf_gram
from crossrep.synth import Nonlinearity, SynthSpec, generate_collection


def _random(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.sin(X[:, 0]) + X[:, -1] ** 2 + 0.1 * rng.normal(size=n)
    return X, y


def _ties(seed, n, p):
    # Coarse integer grid: duplicate rows, equal targets and equal kernel
    # entries, so the solver meets ties in both argmax and argmin.
    rng = np.random.default_rng(seed)
    X = rng.integers(-1, 2, size=(n, p)).astype(np.float64)
    y = rng.integers(-2, 3, size=n).astype(np.float64)
    return X, y


def _shared_holdout_block():
    # One task of the benchmark's shared-example SVR shape, cut to the
    # 168 training rows of a 0.3 holdout split.
    col = generate_collection(SynthSpec(
        n_tasks=2, n_examples_per_task=240, n_features=12, relatedness=0.8,
        nonlinearity=Nonlinearity.NONLINEAR, noise_sd=0.1, seed=0,
        mode=CollectionMode.SHARED_EXAMPLES))
    task = col.tasks[0]
    return task.features[:168], task.targets[:168]


# name -> (problem, fit_svr keywords, sha256, n_iter, kkt_gap as float.hex)
CASES = {
    "defaults_12x2": (
        lambda: _random(0, 12, 2), dict(),
        "fee1dde00e5ab8a43b2b890986cd7dcace55bc12ec2a3ba45355d0c54ba9c9da",
        48, "0x1.f0f38e5deac00p-11"),
    "eps0_c0.5_40x3": (
        lambda: _random(1, 40, 3), dict(c=0.5, epsilon=0.0, sigma=0.5, tol=1e-4),
        "9bf4cab6820f860e51d88b4237945a53ae359eab3684c79ce2f5366332dedc21",
        248, "0x1.9913948fd8000p-14"),
    "c10_tight_30x4": (
        lambda: _random(2, 30, 4), dict(c=10.0, epsilon=0.05, sigma=0.1, tol=1e-6),
        "5376c3e95733e5ddf99b3faea00fa73e3214e9f9c2113a8b3df70c2fe3b984dc",
        5432, "0x1.0bfbb44c00000p-20"),
    "ties_c1_36x2": (
        lambda: _ties(4, 36, 2), dict(c=1.0, epsilon=0.0, sigma=0.5, tol=1e-5),
        "314127b597d62771edfbe59fa493ec44adbb3f9426cb1387d25aa71a769d01f3",
        36, "0x1.d6124f7bb0000p-18"),
    "ties_c10_30x3": (
        lambda: _ties(5, 30, 3), dict(c=10.0, epsilon=0.1, sigma=0.3, tol=1e-3),
        "03843370d510842f53955499b932f936545c60d9adb878fc3e3c3c27740525b9",
        219, "0x1.fad9e3fe65800p-11"),
    "shared_holdout_168x12": (
        _shared_holdout_block, dict(),
        "4029564c7d57f8b40995448ccdcf8415da31ae47548be84789d6eb19974f17c4",
        250, "0x1.f63130b07dc00p-11"),
}


def _digest(state):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(state.support).tobytes())
    h.update(np.ascontiguousarray(state.dual_coef).tobytes())
    h.update(float(state.bias).hex().encode("ascii"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_svr_golden_fit(name):
    problem, kwargs, digest, n_iter, gap = CASES[name]
    X, y = problem()
    state = fit_svr(X, y, **kwargs).state
    assert (_digest(state), state.n_iter, float(state.kkt_gap).hex()) == (digest, n_iter, gap)


@pytest.mark.parametrize("name", ["defaults_12x2", "ties_c1_36x2", "shared_holdout_168x12"])
@pytest.mark.parametrize("sigma", [0.2, 1.0])
def test_rbf_gram_is_exactly_symmetric(name, sigma):
    X, _ = CASES[name][0]()
    K = rbf_gram(X, X, sigma)
    assert np.array_equal(K, K.T)
