"""The benchmark workloads: seeded inputs, CLI commands and output checks.

Every workload drives the documented CLI. Its set-up commands produce the
inputs from the benchmark seed; its timed command is what ``run_s``,
``cpu_s`` and ``peak_rss_mib`` measure. No command passes ``--workers``,
so each measures the default configuration. README.md in this directory
says why each workload exists and which layer it should stress.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Sizes:
    tasks: int
    examples: int
    features: int
    trees: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                  # collection mode passed to `synth`
    full: Sizes
    tiny: Sizes                # for the benchmark's own tests
    dominant: str              # span predicted to have the largest self time
    learner: str = ""          # `run` workloads: transformer and final kind
    hyper: tuple = ()          # hyperparameters shared by both learners
    split: tuple = ()          # `run` split protocol as (key, value) pairs
    order: int = 1
    cluster_k: int = 0         # > 0 makes this a train-bank + cluster workload

    def sizes(self, size: str) -> Sizes:
        return {"full": self.full, "tiny": self.tiny}[size]

    @property
    def is_cluster(self) -> bool:
        return self.cluster_k > 0

    def setup_commands(self, sizes: Sizes, seed: int, out: Path) -> list[list[str]]:
        cmds = [["synth", "--tasks", str(sizes.tasks), "--examples", str(sizes.examples),
                 "--features", str(sizes.features), "--relatedness", "0.8",
                 "--nonlinearity", "nonlinear", "--noise-sd", "0.1", "--seed", str(seed),
                 "--mode", self.mode, "--out", str(out / "data")]]
        if self.is_cluster:
            learner = {"kind": "forest", "n_trees": sizes.trees, "seed": 1}
            cmds.append(["train-bank", "--collection", str(out / "data" / "manifest.json"),
                         "--learner", json.dumps(learner), "--out", str(out / "bank")])
        return cmds

    def write_config(self, sizes: Sizes, seed: int, setup_dir: Path) -> None:
        """The `run` config; written next to the generated collection."""
        if self.is_cluster:
            return
        hyper = dict(self.hyper)
        if self.learner == "forest":
            hyper["n_trees"] = sizes.trees
        config = {
            "collection": "data/manifest.json",
            "transformer": {"kind": self.learner, **hyper, "seed": 1},
            "final": {"kind": self.learner, **hyper, "seed": 2},
            "split": dict(self.split),
            "seed": seed,
            "order": self.order,
        }
        (setup_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n",
                                              encoding="utf-8")

    def timed_command(self, seed: int, setup_dir: Path, out: Path) -> list[str]:
        if self.is_cluster:
            return ["cluster", "--bank", str(setup_dir / "bank"),
                    "--pool", str(setup_dir / "data" / "manifest.json"),
                    "--items", "both", "--k", str(self.cluster_k), "--seed", str(seed),
                    "--out", str(out)]
        return ["run", "--config", str(setup_dir / "config.json"), "--out", str(out)]

    def setup_problems(self, setup_dir: Path) -> list[str]:
        need = [setup_dir / "data" / "manifest.json"]
        if self.is_cluster:
            need.append(setup_dir / "bank" / "bank_index.json")
        return [f"set-up output missing: {p.name}" for p in need if not p.is_file()]

    @property
    def outputs(self) -> tuple[str, ...]:
        """The byte-identical tables the digest covers."""
        if self.is_cluster:
            return ("task_clusters.tsv", "example_clusters.tsv")
        return ("scores.tsv", "comparison.tsv")

    def digest(self, out: Path) -> str:
        h = hashlib.sha256()
        for name in self.outputs:
            h.update(name.encode() + b"\0")
            h.update((out / name).read_bytes())
            h.update(b"\0")
        return h.hexdigest()

    def output_problems(self, sizes: Sizes, out: Path) -> list[str]:
        """Checks beyond the digest: every row present, audits clean."""
        missing = [n for n in self.outputs if not (out / n).is_file()]
        if missing:
            return [f"output missing: {', '.join(missing)}"]
        if self.is_cluster:
            return (_cluster_problems(out / "task_clusters.tsv", sizes.tasks, self.cluster_k)
                    + _cluster_problems(out / "example_clusters.tsv",
                                        sizes.tasks * sizes.examples, self.cluster_k))
        problems = []
        n_reps = 1 + self.order
        rows = _tsv_rows(out / "scores.tsv")
        pairs = {(r["task_id"], r["representation"]) for r in rows}
        tasks = {r["task_id"] for r in rows}
        if len(tasks) != sizes.tasks or len(pairs) != sizes.tasks * n_reps or \
                len(rows) != len(pairs):
            problems.append(f"scores.tsv has {len(pairs)} distinct (task, representation) "
                            f"rows over {len(tasks)} tasks; expected {sizes.tasks} x {n_reps}")
        if len(_tsv_rows(out / "comparison.tsv")) != n_reps:
            problems.append(f"comparison.tsv does not have {n_reps} rows")
        if self.mode == "shared":
            report = (out / "result.txt").read_text(encoding="utf-8")
            if "leakage audit: clean" not in report.splitlines():
                problems.append("leakage audit is not clean")
        return problems


def _tsv_rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def _cluster_problems(path: Path, n_items: int, k: int) -> list[str]:
    rows = _tsv_rows(path)
    bad = [r for r in rows if not 0 <= int(r["cluster"]) < k]
    if len(rows) != n_items or len({r["item_id"] for r in rows}) != n_items or bad:
        return [f"{path.name}: expected {n_items} distinct items in clusters 0..{k - 1}"]
    return []


WORKLOADS = {w.name: w for w in [
    Workload(
        name="forest_bench",
        mode="independent",
        full=Sizes(tasks=12, examples=200, features=30, trees=4),
        tiny=Sizes(tasks=4, examples=30, features=6, trees=2),
        dominant="learners.forest.fit_forest",
        learner="forest", split=(("kind", "kfold"), ("k", 5)), order=1,
    ),
    Workload(
        name="ridge_order2_wide",
        mode="independent",
        full=Sizes(tasks=100, examples=80, features=20),
        tiny=Sizes(tasks=6, examples=20, features=5),
        dominant="engine.second_order_extrinsic",
        learner="ridge", hyper=(("lam", 10.0),), split=(("kind", "kfold"), ("k", 5)),
        order=2,
    ),
    Workload(
        name="svr_shared_holdout",
        mode="shared",
        full=Sizes(tasks=16, examples=240, features=12),
        tiny=Sizes(tasks=4, examples=40, features=4),
        dominant="learners.svr.fit_svr",
        learner="svr", split=(("kind", "holdout"), ("test_fraction", 0.3)), order=1,
    ),
    Workload(
        name="bank_cluster",
        mode="independent",
        full=Sizes(tasks=20, examples=200, features=30, trees=10),
        tiny=Sizes(tasks=4, examples=30, features=6, trees=2),
        dominant="learners.forest.predict_state",
        cluster_k=4,
    ),
]}
