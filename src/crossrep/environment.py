"""The numeric environment a run's bits depend on.

Ridge's Gram products go through BLAS, whose summation order can depend on
the library, its version and its thread count, so a run records them next
to its outputs. Nothing here sets a thread count or an environment
variable: the thread count is read from the BLAS library the process has
loaded, and is None where that cannot be done.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np


def _blas_build() -> dict:
    """Name and version of the BLAS numpy was built with, None where unknown."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library this process has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return int(get())
    return None


def environment_record() -> dict:
    """numpy's version, its BLAS library, the BLAS thread count and the CPU count."""
    return {
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
    }
