"""Deterministic seed derivation.

Every source of randomness in the package draws from numpy's PCG64
generator, seeded through :func:`derive_seed` so that results depend only
on the master seed and a stable context path, never on execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *tags: object) -> int:
    """Return a 63-bit seed derived from ``master`` and context ``tags``.

    The derivation is a SHA-256 hash of the decimal master seed joined
    with the string form of each tag, so it is stable across platforms
    and Python versions.
    """
    text = ":".join([str(int(master))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(master: int, *tags: object) -> np.random.Generator:
    """A fresh PCG64 generator for the given seed path."""
    return np.random.default_rng(derive_seed(master, *tags))
