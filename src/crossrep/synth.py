"""Synthetic related-task collections with controllable task relatedness.

Targets mix one shared latent function with a task-specific one:

    y_t(x) = relatedness * g_shared(x) + (1 - relatedness) * g_t(x) + noise

Latent functions are drawn deterministically from the seed. The nonlinear
family is fixed: a weighted sum of two-way feature products (dominant)
plus a few zero-threshold indicator terms, all scaled to roughly unit
variance. Products are invisible to linear models, which is what makes
linear stage-1 transformers fail on these collections.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import CollectionMode, Task, TaskCollection
from .errors import ValidationError
from .seeding import rng_for


class Nonlinearity(Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class SynthSpec:
    n_tasks: int
    n_examples_per_task: int
    n_features: int
    relatedness: float
    nonlinearity: Nonlinearity = Nonlinearity.NONLINEAR
    noise_sd: float = 0.1
    seed: int = 0
    mode: CollectionMode = CollectionMode.INDEPENDENT_EXAMPLES

    def __post_init__(self) -> None:
        if self.n_tasks < 2:
            raise ValidationError(f"need at least 2 tasks, got {self.n_tasks}")
        if self.n_examples_per_task < 1 or self.n_features < 1:
            raise ValidationError("examples and features must be positive")
        if not 0.0 <= self.relatedness <= 1.0:
            raise ValidationError(f"relatedness must be in [0, 1], got {self.relatedness}")
        if not 0.0 <= self.noise_sd < np.inf:
            raise ValidationError(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")


class _LatentFunction:
    """One draw from the latent family; callable on a feature matrix."""

    # Product terms carry most of the variance so the function stays far
    # from anything a linear model can represent; the term counts keep the
    # function learnable by trees at a few hundred examples.
    PRODUCT_SHARE = 0.7

    def __init__(self, n_features: int, kind: Nonlinearity, rng: np.random.Generator):
        self.kind = kind
        if kind is Nonlinearity.LINEAR:
            w = rng.normal(size=n_features)
            self.w = w / np.linalg.norm(w)
            return
        n_products = max(2, n_features // 7)
        n_thresholds = max(1, n_features // 10)
        if n_features >= 2:
            pairs = np.array([rng.choice(n_features, size=2, replace=False)
                              for _ in range(n_products)])
        else:
            pairs = np.zeros((n_products, 2), dtype=np.int64)
        self.pair_i = pairs[:, 0]
        self.pair_j = pairs[:, 1]
        self.pair_sign = rng.choice([-1.0, 1.0], size=n_products)
        self.thr_feat = rng.integers(0, n_features, size=n_thresholds)
        self.thr_sign = rng.choice([-1.0, 1.0], size=n_thresholds)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        if self.kind is Nonlinearity.LINEAR:
            return X @ self.w
        prod = (self.pair_sign * X[:, self.pair_i] * X[:, self.pair_j]).sum(axis=1)
        prod /= np.sqrt(len(self.pair_sign))
        thr = (self.thr_sign * (2.0 * (X[:, self.thr_feat] > 0.0) - 1.0)).sum(axis=1)
        thr /= np.sqrt(len(self.thr_sign))
        a = np.sqrt(self.PRODUCT_SHARE)
        b = np.sqrt(1.0 - self.PRODUCT_SHARE)
        return a * prod + b * thr


def generate_collection(spec: SynthSpec) -> TaskCollection:
    """Deterministically generate a collection from the spec's seed.

    Features, latent functions, and noise come from separate seed
    streams, so changing only noise_sd leaves X and the latent functions
    untouched.
    """
    g_shared = _LatentFunction(spec.n_features, spec.nonlinearity,
                               rng_for(spec.seed, "latent", "shared"))
    feature_names = tuple(f"x{i}" for i in range(spec.n_features))
    example_ids = tuple(f"ex{i:04d}" for i in range(spec.n_examples_per_task))

    shared_X = None
    if spec.mode is CollectionMode.SHARED_EXAMPLES:
        shared_X = rng_for(spec.seed, "features", "shared").normal(
            size=(spec.n_examples_per_task, spec.n_features))

    tasks = []
    for t in range(spec.n_tasks):
        task_id = f"task{t:03d}"
        if shared_X is not None:
            X = shared_X
        else:
            X = rng_for(spec.seed, "features", t).normal(
                size=(spec.n_examples_per_task, spec.n_features))
        g_t = _LatentFunction(spec.n_features, spec.nonlinearity,
                              rng_for(spec.seed, "latent", t))
        y = spec.relatedness * g_shared(X) + (1.0 - spec.relatedness) * g_t(X)
        if spec.noise_sd > 0:
            y = y + spec.noise_sd * rng_for(spec.seed, "noise", t).normal(size=len(y))
        tasks.append(Task(task_id=task_id, features=X, targets=y,
                          feature_names=feature_names, example_ids=example_ids))
    return TaskCollection(tasks, spec.mode, f"synth-{spec.seed}-{spec.n_tasks}")

