"""Deterministic ordered parallel map.

Work units must be pure functions of their arguments (all randomness
derived from explicit seeds), so the worker count can only change timing,
never results. Threads are used because the heavy numpy kernels release
the GIL; results are collected in submission order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

WORKERS_ENV_VAR = "CROSSREP_WORKERS"


def resolve_workers(requested: int | None) -> int:
    """CLI worker count: explicit flag wins, then env var, then 1."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    return 1


def pmap(fn: Callable[[T], R], items: Iterable[T], workers: int = 1) -> list[R]:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
