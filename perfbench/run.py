"""crossrep benchmark: one workload, one seed, end-to-end or traced metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is run from ``src/`` of the checkout; inputs are generated
from ``--seed`` by the workload's set-up commands in ``.perfbench-work/``.
Every command runs in a fresh process (perfbench/worker.py), so peak
memory belongs to one command. ``--trace 0`` repeats the timed command
for about ``--seconds`` seconds, at least three times, and runs a set-up
round (set-up repeated for at least ``SETUP_ROUND_S``, overwriting the
inputs) before each one while set-up has taken no more measured time than
the timed commands. Set-up is thus sampled over the same stretch of time
as the timed command. It reports the means of ``run_s``, ``cpu_s``,
``peak_rss_mib`` and ``setup_s`` over the run's repetitions. ``--trace 1`` sets up once under the tracer, then
alternates untraced and traced timed commands and reports the per-layer
metrics.

Every command is one operation. It fails on a nonzero exit, a missing
output row, an unclean leakage audit, outputs that differ from the first
timed command's, or, at the reference seed and full size, a digest that
differs from ``reference.json``. A traced command also fails when a
rebinding survives the run or its layer spans cover under 95% of it.

The last line of standard output is the result object; the line before
it is a report with the environment record, digests and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER, layer_metrics, top_self_span
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

# Each set-up round repeats set-up in one process for at least this long;
# setup_s is the mean repetition over all rounds of a run.
SETUP_ROUND_S = 0.75
MIN_ITERATIONS = 3
MIN_COVERAGE = 0.95
BUDGET_S = 165.0  # every process must end well inside the 180 s limit

END_TO_END = [("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s")]
TRACE_METRICS = [("trace.coverage", "ratio", "higher"), ("trace.overhead", "ratio", "lower"),
                 ("trace.absent", "count", "lower")]


class BenchError(Exception):
    """The benchmark cannot continue (a process failed to finish)."""


class Run:
    """One benchmark run: its processes, operations and problems."""

    def __init__(self, workload: Workload, size: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.sizes = workload.sizes(size)
        self.seed = seed
        self.work = work
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[dict] = []
        self.environment: dict | None = None
        self.inputs = work / "inputs"
        self.env = {k: v for k, v in os.environ.items() if k != "CROSSREP_WORKERS"}
        self._jobs = 0
        self.samples: list[float] = []  # run_s of each timed command (traced ones if traced)
        self.setup_samples: list[float] = []  # time of each set-up repetition (untraced)
        self.measure_start = self.started
        self.trace_report: dict | None = None
        # Fixed CLI cost dominates tiny runs, so only full runs gate coverage.
        self.min_coverage = MIN_COVERAGE if size == "full" else 0.0
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.reference = (reference["digests"].get(workload.name)
                          if seed == reference["seed"] and size == reference["size"] else None)

    def spawn(self, commands: list[dict], trace: bool, environment: bool = False,
              repeat: dict | None = None) -> dict:
        """Run commands in a fresh worker process; returns its result."""
        self._jobs += 1
        tag = f"job{self._jobs:03d}"
        job = {"src": str(SRC), "commands": commands, "trace": trace,
               "repeat": repeat or {"min": 1, "seconds": 0.0},
               "environment": environment, "log": str(self.work / f"{tag}.log"),
               "result": str(self.work / f"{tag}.result.json"),
               "spans": str(self.work / f"{tag}.spans.json")}
        job_path = self.work / f"{tag}.job.json"
        job_path.write_text(json.dumps(job, indent=1), encoding="utf-8")
        remaining = BUDGET_S - (perf_counter() - self.started)
        if remaining <= 1:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                  cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=remaining, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} did not finish within the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{tag} exited with {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        if environment:
            self.environment = result["environment"]
        for step in result["steps"]:
            self.attempted += 1
            if step["rc"] != 0:
                self.fail(f"{tag}: `{step['argv'][0]}` exited with {step['rc']}; see {job['log']}")
        return result

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def setup(self, trace: bool) -> tuple[dict, list[float]]:
        """One set-up round in a fresh process; returns its result and times.

        Every repetition writes the same inputs over ``self.inputs``.
        """
        cmds = self.workload.setup_commands(self.sizes, self.seed, self.inputs)
        repeat = {"min": 1, "seconds": 0.0 if trace else SETUP_ROUND_S}
        result = self.spawn([{"argv": c, "scope": "setup"} for c in cmds], trace,
                            environment=self.environment is None, repeat=repeat)
        problems = self.workload.setup_problems(self.inputs)
        if problems or any(s["rc"] != 0 for s in result["steps"]):
            raise BenchError(f"set-up failed: {'; '.join(problems) or 'nonzero exit'}")
        self.workload.write_config(self.sizes, self.seed, self.inputs)
        reps = sorted({s["rep"] for s in result["steps"]})
        times = [sum(s["wall_s"] for s in result["steps"] if s["rep"] == r) for r in reps]
        return result, times

    def timed(self, index: int, trace: bool) -> dict:
        out = self.work / f"iter{index:02d}"
        argv = self.workload.timed_command(self.seed, self.inputs, out)
        result = self.spawn([{"argv": argv, "scope": "timed"}], trace)
        step = result["steps"][0]
        if step["rc"] != 0:
            return result
        problems = self.workload.output_problems(self.sizes, out)
        digest = self.workload.digest(out) if not problems else None
        self.digests.append({"iteration": index, "traced": trace, "digest": digest})
        if digest is not None and digest != self.digests[0]["digest"]:
            problems.append(f"outputs differ from the first timed command's ({digest[:12]})")
        if digest is not None and self.reference and digest != self.reference:
            problems.append(f"digest {digest[:12]} differs from reference "
                            f"{self.reference[:12]} at seed {self.seed}")
        if trace:
            if result["leftover_wrappers"]:
                problems.append(f"rebindings not restored: {result['leftover_wrappers'][:5]}")
            coverage = trace_coverage(result)
            if coverage < self.min_coverage:
                problems.append(f"layer spans cover {coverage:.3f} of run_s "
                                f"(< {self.min_coverage})")
        if problems:
            self.failed += 1
            self.problems.extend(f"iter{index:02d}: {p}" for p in problems)
        return result

    def more(self, done: int, each_s: list[float], seconds: float, minimum: int) -> bool:
        """Another timed repetition fits into the measuring time."""
        if self.failed:
            return False
        if done < minimum:
            return True
        return (perf_counter() - self.measure_start) + statistics.median(each_s) <= seconds


def trace_coverage(result: dict) -> float:
    """Share of the timed command covered by spans below the CLI layer."""
    wall = result["steps"][0]["wall_s"]
    cli_self = result["trace"]["timed"]["layers"].get("cli", {}).get("self_s", wall)
    return 1.0 - cli_self / wall if wall > 0 else 0.0


def measure(run: Run, seconds: float) -> dict[str, float]:
    run.measure_start = perf_counter()
    samples, setup_s, each = [], [], []
    while run.more(len(samples), each, seconds, MIN_ITERATIONS):
        t0 = perf_counter()
        # Set-up takes about half the measured time: a workload whose set-up
        # costs more than its timed command still gets many timed samples.
        if sum(setup_s) <= sum(s[0] for s in samples):
            setup_s += run.setup(trace=False)[1]
        result = run.timed(len(samples), trace=False)
        each.append(perf_counter() - t0)
        step = result["steps"][0]
        samples.append((step["wall_s"], step["cpu_s"], result["peak_rss_mib"]))
    run.samples = [round(s[0], 4) for s in samples]
    run.setup_samples = [round(s, 4) for s in setup_s]
    # Means, not medians: the host's speed switches between a fast and a
    # slow phase, and the median of a few samples jumps between the two.
    return {
        "run_s": statistics.fmean(s[0] for s in samples),
        "cpu_s": statistics.fmean(s[1] for s in samples),
        "peak_rss_mib": statistics.fmean(s[2] for s in samples),
        "setup_s": statistics.fmean(setup_s),
    }


def measure_traced(run: Run, seconds: float) -> dict[str, float]:
    setup_result, _ = run.setup(trace=True)
    run.measure_start = perf_counter()
    plain, traced, each = [], [], []
    while run.more(len(traced), each, seconds, 1):
        t0 = perf_counter()
        index = 2 * len(traced)
        plain.append(run.timed(index, trace=False)["steps"][0]["wall_s"])
        traced.append(run.timed(index + 1, trace=True))
        each.append(perf_counter() - t0)
    run.samples = [round(r["steps"][0]["wall_s"], 4) for r in traced]
    per_iter = []
    for result in traced:
        summary = {"setup": setup_result["trace"]["setup"], "timed": result["trace"]["timed"]}
        per_iter.append((summary, result))
    metrics = {name: statistics.median(layer_metrics(s)[name] for s, _ in per_iter)
               for name, _, _, _ in PER_LAYER}
    metrics["trace.coverage"] = statistics.median(trace_coverage(r) for _, r in per_iter)
    metrics["trace.overhead"] = (statistics.median(r["steps"][0]["wall_s"] for _, r in per_iter)
                                 / statistics.median(plain))
    absent = sorted(set(setup_result["absent"]).union(*(r["absent"] for r in traced)))
    metrics["trace.absent"] = float(len(absent))
    summary = sorted(per_iter, key=lambda p: p[1]["steps"][0]["wall_s"])[len(per_iter) // 2][0]
    spans = summary["timed"]["spans"]
    dominant = run.workload.dominant
    run.trace_report = {
        "top_self_span": top_self_span(summary),
        "predicted_dominant": dominant,
        "dominant_calls": spans.get(dominant, {}).get("calls", 0),
        "dominant_self_s": spans.get(dominant, {}).get("self_s", 0.0),
        "absent": absent,
        "self_s_top5": sorted(((n, round(v["self_s"], 4)) for n, v in spans.items()),
                              key=lambda kv: -kv[1])[:5],
    }
    return metrics


def units() -> dict[str, str]:
    out = dict(END_TO_END)
    out.update({name: unit for name, unit, _, _ in PER_LAYER})
    out.update({name: unit for name, unit, _ in TRACE_METRICS})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "crossrep" / "cli.py").is_file():
        print(f"error: no crossrep sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.size, args.seed, work)
    try:
        if args.trace:
            metrics = measure_traced(run, args.seconds)
        else:
            metrics = measure(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if run.problems:
        print("benchmark checks failed:\n  " + "\n  ".join(run.problems), file=sys.stderr)
    unit = units()
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": round(run.elapsed(), 3),
              "run_s_samples": run.samples, "setup_s_samples": run.setup_samples,
              "environment": run.environment,
              "reference_digest": run.reference, "digests": run.digests,
              "problems": run.problems, "trace_report": run.trace_report}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
