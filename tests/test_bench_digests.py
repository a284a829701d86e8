"""Each benchmark workload's seed-0 outputs still hash to the reference digest.

The set-up and timed commands come from ``perfbench/workloads.py``, read
without changing it, and run in this process at full size; the digest of
the outputs must equal the one in ``perfbench/reference.json``. A change to
the bytes of any workload's outputs thus fails here, not only in a
benchmark run. The four workloads take about 10 s together.

The ``ridge_order2_wide`` digest depends on the OpenBLAS thread count, as
the ridge goldens do: the ``Zc.T @ Zc`` product of a ridge fit changes its
last bits with it (ROADMAP item 6).
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from crossrep.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed0_full_size_digest_matches_the_reference(name, tmp_path):
    assert (REFERENCE["seed"], REFERENCE["size"]) == (0, "full")
    workload = WORKLOADS[name]
    sizes, seed = workload.sizes("full"), REFERENCE["seed"]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    for argv in workload.setup_commands(sizes, seed, inputs):
        _run(argv)
    workload.write_config(sizes, seed, inputs)
    assert workload.setup_problems(inputs) == []
    _run(workload.timed_command(seed, inputs, out))
    assert workload.output_problems(sizes, out) == []
    assert workload.digest(out) == REFERENCE["digests"][name]
