"""Tests of the benchmark itself: tiny runs of every workload through run.py.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = _tiny(workload, 0)
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 2 * bench.MIN_ITERATIONS  # set-up rounds + timed commands
    assert len(report["setup_s_samples"]) >= bench.MIN_ITERATIONS
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len({d["digest"] for d in report["digests"]}) == 1
    assert report["environment"]["crossrep_workers_env"] is None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_fires_dominant_layer(workload):
    report, result = _tiny(workload, 1)
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(result["metrics"])
    digests = report["digests"]
    assert {d["traced"] for d in digests} == {False, True}
    assert len({d["digest"] for d in digests}) == 1 and digests[0]["digest"]
    trace = report["trace_report"]
    assert trace["predicted_dominant"] == WORKLOADS[workload].dominant
    assert trace["dominant_calls"] > 0
    assert trace["absent"] == []
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_every_rebinding_is_restored():
    sys.path.insert(0, str(ROOT / "src"))
    import crossrep.cli  # noqa: F401  (loads every layer module)
    import crossrep.engine as engine
    import crossrep.learners as learners

    modules = {n: m for n, m in sys.modules.items()
               if m is not None and n.startswith("crossrep")}
    before = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    original_predict = learners.predict
    tracer = tracing.Tracer().install()
    try:
        assert engine.predict is learners.predict is not original_predict
        assert learners.base.predict is engine.predict
        assert "learners.base.predict" in tracer.names
    finally:
        tracer.restore()
    after = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.leftover_wrappers() == []


def test_spans_attribute_self_time_to_the_innermost_layer():
    tracer = tracing.Tracer()
    tracer.names = ["engine.outer", "learners.base.inner"]
    tracer.commands = ["timed"]
    tracer.spans = [[0, 0.0, 10.0, -1, 0, 0.0], [1, 2.0, 5.0, 0, 0, 1.0],
                    [1, 6.0, 7.0, 0, 0, 0.0]]
    summary = tracer.summary()["timed"]
    assert summary["spans"]["engine.outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert summary["spans"]["learners.base.inner"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert summary["layers"]["engine"] == {"s": 10.0, "self_s": 5.0}


def test_a_counter_that_no_longer_fits_is_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.names = ["learners.forest.fit_forest"]
    tracer.begin_command("timed")
    hook = tracer._hooks()["learners.forest.fit_forest"]
    wrapped = tracer._wrap(0, lambda: None, hook)
    assert wrapped() is None
    assert tracer.absent == ["learners.forest.fit_forest (counts)"]
    assert tracer.summary()["timed"]["spans"]["learners.forest.fit_forest"]["calls"] == 1


def test_calls_from_worker_threads_run_untraced_but_keep_counts():
    tracer = tracing.Tracer()
    tracer.names = ["clustering.kmeans"]
    tracer.begin_command("timed")
    hook = tracer._hooks()["clustering.kmeans"]
    result = SimpleNamespace(n_iter=7, converged=True)
    wrapped = tracer._wrap(0, lambda: result, hook)
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(lambda _: wrapped(), range(3))) == [result] * 3
    assert tracer.spans == []
    assert tracer.counts["timed"]["kmeans.iters"] == 21
    assert wrapped() is result and len(tracer.spans) == 1


def test_coverage_is_the_share_below_the_cli_layer():
    result = {"steps": [{"wall_s": 10.0}],
              "trace": {"timed": {"layers": {"cli": {"s": 10.0, "self_s": 2.0}}}}}
    assert bench.trace_coverage(result) == pytest.approx(0.8)


def test_digest_mismatch_and_low_coverage_are_failed_operations(tmp_path):
    run = bench.Run(WORKLOADS["forest_bench"], "tiny", 5, tmp_path)
    run.setup(trace=False)
    run.reference = "0" * 64
    run.min_coverage = 1.01  # no traced command can reach it
    run.timed(0, trace=True)
    assert run.failed == 1
    assert any("differs from reference" in p for p in run.problems), run.problems
    assert any("layer spans cover" in p for p in run.problems), run.problems


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == bench.END_TO_END
    layer = [(n, u, b) for n, u, b, _ in tracing.PER_LAYER] + bench.TRACE_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layer


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "forest_bench", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
