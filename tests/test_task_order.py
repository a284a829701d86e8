"""Scores and cluster tables do not depend on the order a manifest lists its tasks.

One synthetic collection is written once, and its manifest is copied twice
with the task list reversed and shuffled. ``crossrep run`` must write the
same ``scores.tsv`` and ``comparison.tsv`` bytes from all three, and
``train-bank`` then ``cluster`` the same tables: a collection keeps its
tasks sorted by task id, so the bank's columns follow that order.
"""

import contextlib
import io
import json
import random

import pytest

from crossrep.cli import main

FOREST = {"kind": "forest", "n_trees": 10, "seed": 3}
RIDGE = {"kind": "ridge", "lam": 1.0}
SVR = {"kind": "svr", "c": 2.0, "epsilon": 0.05, "sigma": 0.3}
CASES = {
    "forest_forest_order1": ("independent", FOREST, FOREST, {"kind": "kfold", "k": 3}, 1),
    "ridge_ridge_order2": ("independent", RIDGE, RIDGE, {"kind": "kfold", "k": 3}, 2),
    "svr_shared_holdout": ("shared", SVR, SVR, {"kind": "holdout", "test_fraction": 0.3}, 1),
}


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


def manifests(root, mode):
    """The collection's manifest as written, reversed and shuffled."""
    cli("synth", "--tasks", 8, "--examples", 40, "--features", 5, "--seed", 3,
        "--mode", mode, "--out", root / "coll")
    written = root / "coll" / "manifest.json"
    doc = json.loads(written.read_text())
    shuffled = list(doc["tasks"])
    random.Random(5).shuffle(shuffled)
    assert shuffled not in (doc["tasks"], doc["tasks"][::-1])
    paths = [written]
    for name, order in (("reversed", doc["tasks"][::-1]), ("shuffled", shuffled)):
        path = root / "coll" / f"{name}.json"
        path.write_text(json.dumps({**doc, "tasks": order}))
        paths.append(path)
    return paths


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_writes_the_same_tables_for_any_manifest_order(name, tmp_path):
    mode, transformer, final, split, order = CASES[name]
    outputs = []
    for i, manifest in enumerate(manifests(tmp_path, mode)):
        config = tmp_path / f"cfg{i}.json"
        config.write_text(json.dumps({"collection": f"coll/{manifest.name}",
                                      "transformer": transformer, "final": final,
                                      "split": split, "seed": 5, "order": order}))
        cli("run", "--config", config, "--out", tmp_path / f"out{i}")
        outputs.append([(tmp_path / f"out{i}" / f).read_bytes()
                        for f in ("scores.tsv", "comparison.tsv")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_cluster_writes_the_same_tables_for_any_manifest_order(tmp_path):
    outputs = []
    for i, manifest in enumerate(manifests(tmp_path, "independent")):
        cli("train-bank", "--collection", manifest, "--learner", json.dumps(FOREST),
            "--out", tmp_path / f"bank{i}")
        cli("cluster", "--bank", tmp_path / f"bank{i}", "--pool", manifest, "--k", 3,
            "--seed", 2, "--out", tmp_path / f"clusters{i}")
        outputs.append([(tmp_path / f"clusters{i}" / f).read_bytes()
                        for f in ("task_clusters.tsv", "example_clusters.tsv")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
