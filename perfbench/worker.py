"""One benchmark process: run CLI commands in process and measure them.

Usage: python3 perfbench/worker.py JOB.json

The job names the package source directory, the commands (each with its
scope, ``setup`` or ``timed``), how often to repeat them, whether to
trace, and where to write the result. Each command is timed from the call of
``crossrep.cli.main`` to its return: wall time and this process's
user+system CPU time, all threads included. The result also holds the process's peak resident
memory, the environment record and, when traced, the span summary.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

MAX_REPEATS = 50


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _openblas() -> dict:
    """OpenBLAS version and thread count, read from the loaded library."""
    info: dict = {"library": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        info["library"] = os.path.basename(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and info["threads"] is None:
                    threads.restype = ctypes.c_int
                    info["threads"] = int(threads())
                if config is not None and info["config"] is None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
    return info


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "crossrep_workers_env": os.environ.get("CROSSREP_WORKERS"),
        "machine": platform.machine(),
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = str(Path(job["src"]).resolve())
    sys.path.insert(0, src)
    import crossrep
    from crossrep import cli

    if not str(Path(crossrep.__file__).resolve()).startswith(src + os.sep):
        raise RuntimeError(f"crossrep imported from {crossrep.__file__}, not {src}")
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer().install()
    repeat = job.get("repeat", {"min": 1, "seconds": 0.0})
    steps = []
    began = perf_counter()
    with open(job["log"], "a", encoding="utf-8") as log:
        for rep in range(MAX_REPEATS):
            if rep >= repeat["min"] and perf_counter() - began >= repeat["seconds"]:
                break
            for cmd in job["commands"]:
                argv = cmd["argv"]
                if tracer is not None:
                    tracer.begin_command(cmd["scope"])
                cpu0 = _cpu_s()
                t0 = perf_counter()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    try:
                        rc = cli.main(argv)
                    except SystemExit as exc:
                        rc = exc.code if isinstance(exc.code, int) else 2
                    except Exception:
                        traceback.print_exc()
                        rc = -1
                t1 = perf_counter()
                steps.append({"argv": argv, "scope": cmd["scope"], "rep": rep, "rc": rc,
                              "wall_s": t1 - t0, "cpu_s": _cpu_s() - cpu0})
                if rc != 0:
                    break
            if steps and steps[-1]["rc"] != 0:
                break
    result = {"steps": steps,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if job.get("environment"):
        result["environment"] = environment()
    if tracer is not None:
        tracer.restore()
        result["leftover_wrappers"] = tracer.leftover_wrappers()
        result["absent"] = tracer.absent
        result["trace"] = tracer.summary()
        Path(job["spans"]).write_text(json.dumps(tracer.export_spans()), encoding="utf-8")
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
