import json

import numpy as np
import pytest

from crossrep.data import CollectionMode, Task, TaskCollection
from crossrep.environment import environment_record


def _environment_line():
    return f"crossrep environment: {json.dumps(environment_record(), sort_keys=True)}"


def pytest_report_header(config):
    """The record each run writes to its manifest: a byte-identity gate that
    fails at one BLAS thread count shows the count it ran at."""
    return _environment_line()


def pytest_terminal_summary(terminalreporter):
    # -q hides the header, so a quiet run prints the record at its end.
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(_environment_line())


def make_task(task_id, n=10, p=3, seed=0, targets=None, mode_shared_ids=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = targets if targets is not None else rng.normal(size=n)
    ids = tuple(f"ex{i}" for i in range(n)) if mode_shared_ids else tuple(
        f"{task_id}-r{i}" for i in range(n))
    return Task(task_id=task_id, features=X, targets=np.asarray(y, dtype=float),
                feature_names=tuple(f"f{j}" for j in range(p)), example_ids=ids)


@pytest.fixture
def small_collection():
    tasks = [make_task(f"t{i}", n=12, p=3, seed=i) for i in range(3)]
    return TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "small")


@pytest.fixture
def shared_collection():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 4))
    ids = tuple(f"row{i}" for i in range(20))
    names = tuple(f"f{j}" for j in range(4))
    tasks = []
    for i in range(4):
        y = X @ rng.normal(size=4) + 0.1 * rng.normal(size=20)
        tasks.append(Task(task_id=f"g{i}", features=X, targets=y,
                          feature_names=names, example_ids=ids))
    return TaskCollection(tasks, CollectionMode.SHARED_EXAMPLES, "sharedsmall")


@pytest.fixture
def narrow_collection():
    """3 tasks of 12 rows whose features x0, x1 are drawn as N(0, 0.01^2), so
    a pool value of 1e308 overflows a standardization."""
    tasks = []
    for i in range(3):
        rng = np.random.default_rng(20 + i)
        tasks.append(Task(task_id=f"t{i}", features=rng.normal(scale=0.01, size=(12, 2)),
                          targets=rng.normal(size=12), feature_names=("x0", "x1"),
                          example_ids=tuple(f"t{i}-r{r}" for r in range(12))))
    return TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "narrow")
