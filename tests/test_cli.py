import contextlib
import hashlib
import json
import signal
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from crossrep import engine, pipeline
from crossrep.cli import main
from crossrep.clustering import cluster_examples, cluster_tasks, cross_prediction_matrix
from crossrep.data import CollectionMode, Task, TaskCollection, load_task, write_collection
from crossrep.engine import load_bank
from crossrep.evaluation import compare_representations
from crossrep.learners.archive import _dec, _enc, load_model


def run_cli(*argv):
    return main(list(argv))


def _walk_depth(tree, node):
    """Longest root-to-leaf path below ``node``, by recursion over the child links."""
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_walk_depth(tree, tree.left[node]), _walk_depth(tree, tree.right[node]))


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "coll"
    assert run_cli("synth", "--tasks", "4", "--examples", "24", "--features", "6",
                   "--seed", "1", "--out", str(out)) == 0
    return out


@pytest.fixture
def run_config(tmp_path, synth_dir):
    cfg = {
        "collection": "coll/manifest.json",
        "transformer": {"kind": "ridge", "lam": 5.0},
        "final": {"kind": "ridge", "lam": 5.0},
        "split": {"kind": "kfold", "k": 3},
        "seed": 9,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def bank_dir(tmp_path, synth_dir):
    out = tmp_path / "bank"
    assert run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                   "--learner", '{"kind": "ridge", "lam": 10}',
                   "--out", str(out)) == 0
    return out


class TestSynth:
    def test_writes_task_files_and_manifest(self, synth_dir):
        assert (synth_dir / "manifest.json").is_file()
        assert len(list(synth_dir.glob("task*.csv"))) == 4

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("synth", "--tasks", "3", "--examples", "10", "--features", "4",
                    "--seed", "2", "--out", str(out))
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_invalid_relatedness_is_validation_error(self, tmp_path):
        code = run_cli("synth", "--tasks", "3", "--examples", "10", "--features", "4",
                       "--relatedness", "1.5", "--out", str(tmp_path / "x"))
        assert code == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_noise_sd_not_finite_and_nonnegative_is_validation_error(self, tmp_path, capsys,
                                                                     value):
        code = run_cli("synth", "--tasks", "3", "--examples", "10", "--features", "4",
                       "--noise-sd", value, "--out", str(tmp_path / "x"))
        assert code == 3
        assert "noise_sd must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestRun:
    def test_valid_config_exits_zero(self, tmp_path, run_config):
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(run_config), "--out", str(out)) == 0
        assert (out / "scores.tsv").is_file()
        assert (out / "result.txt").is_file()

    def test_rerun_fresh_directory_byte_identical(self, tmp_path, run_config):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_cli("run", "--config", str(run_config), "--out", str(out1))
        run_cli("run", "--config", str(run_config), "--out", str(out2))
        assert (out1 / "scores.tsv").read_bytes() == (out2 / "scores.tsv").read_bytes()

    def test_cap_validation_before_training(self, tmp_path, run_config):
        doc = json.loads(run_config.read_text())
        doc["descriptor_cap"] = 10  # only 3 source models exist
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 3

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "none.json"),
                       "--out", str(tmp_path / "x")) == 3

    def test_config_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 3
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("seed", "a"), ("seed", 1.5), ("split", "kfold"), ("split", {"kind": "kfold", "k": "x"}),
        ("split", {"kind": "holdout", "test_fraction": [0.3]}), ("order", "x"),
        ("descriptor_cap", []), ("strict", "false"), ("collection", 3),
        ("stage1_scope", 1), ("transformer", [])])
    def test_wrongly_typed_config_value_names_file_and_field(self, tmp_path, run_config,
                                                             capsys, field, value):
        doc = json.loads(run_config.read_text())
        doc[field] = value
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fraction", [0.01, 0.99])
    def test_holdout_with_an_empty_side_names_file_and_task(self, tmp_path, run_config,
                                                            capsys, fraction):
        doc = json.loads(run_config.read_text())
        doc["split"] = {"kind": "holdout", "test_fraction": fraction}
        bad = tmp_path / "holdout.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 3
        assert (f"error: {bad}: task 'task000' has 24 examples: test_fraction {fraction} "
                "leaves an empty train or test side") in capsys.readouterr().err

    def test_unknown_learner_kind(self, tmp_path, run_config):
        doc = json.loads(run_config.read_text())
        doc["transformer"] = {"kind": "boosting"}
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 3

    @staticmethod
    def _constant_t0_run(tmp_path, tasks, strict=False):
        """Write ``tasks`` as a collection and run ridge(1) on it, 3-fold, normalized."""
        coll = tmp_path / "coll"
        write_collection(TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "c"), coll)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"collection": "coll/manifest.json",
                                   "transformer": {"kind": "ridge", "lam": 1.0},
                                   "final": {"kind": "ridge", "lam": 1.0},
                                   "split": {"kind": "kfold", "k": 3}, "seed": 0,
                                   "strict": strict, "normalize_targets": True}))
        return run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))

    def test_task_that_cannot_be_normalized_is_left_out(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 20, 5))
        names, ids = tuple(f"x{j}" for j in range(5)), tuple(f"r{i}" for i in range(20))
        targets = [np.full(20, 2.0)] + [X[i] @ rng.normal(size=5) for i in range(1, 4)]
        tasks = [Task(f"t{i}", X[i], targets[i], names, ids) for i in range(4)]
        assert self._constant_t0_run(tmp_path / "all", tasks) == 0
        report = (tmp_path / "all" / "out" / "result.txt").read_text()
        assert ("  t0 [normalize]: task 't0': constant target vector cannot be normalized"
                in report.splitlines())
        assert self._constant_t0_run(tmp_path / "rest", tasks[1:]) == 0
        assert ((tmp_path / "all" / "out" / "scores.tsv").read_bytes()
                == (tmp_path / "rest" / "out" / "scores.tsv").read_bytes())
        capsys.readouterr()
        assert self._constant_t0_run(tmp_path / "strict", tasks, strict=True) == 3
        assert capsys.readouterr().err == (
            "error: task 't0': constant target vector cannot be normalized\n")
        assert self._constant_t0_run(tmp_path / "two", tasks[:2]) == 4
        assert capsys.readouterr().err == ("runtime error: fewer than 2 tasks survived "
                                           "target normalization; cannot continue\n")

    def test_task_whose_target_range_overflows_is_left_out(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 20, 5))
        names, ids = tuple(f"x{j}" for j in range(5)), tuple(f"r{i}" for i in range(20))
        targets = [np.resize([1e308, -1e308], 20)] + [X[i] @ rng.normal(size=5)
                                                      for i in range(1, 4)]
        tasks = [Task(f"t{i}", X[i], targets[i], names, ids) for i in range(4)]
        message = "task 't0': target range -1e+308 to 1e+308 overflows, cannot be normalized"
        assert self._constant_t0_run(tmp_path / "all", tasks) == 0
        report = (tmp_path / "all" / "out" / "result.txt").read_text()
        assert f"  t0 [normalize]: {message}" in report.splitlines()
        capsys.readouterr()
        assert self._constant_t0_run(tmp_path / "strict", tasks, strict=True) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("learner, cause", [
        ({"kind": "ridge_cv", "lambda_grid": [0.1, 1.0, 10.0], "k": 3},
         "internal fold 0: squared prediction error overflows"),
        ({"kind": "forest", "n_trees": 3, "seed": 0}, "largest |target|"),
    ])
    def test_stage1_fit_on_overflowing_targets_is_recorded(self, tmp_path, run_config,
                                                           learner, cause):
        t0 = run_config.parent / "coll" / "task000.csv"
        header, *rows = t0.read_text().splitlines()  # the target is the last column
        scaled = [f"{head},{float(y) * 1e160!r}" for head, y in (r.rsplit(",", 1) for r in rows)]
        t0.write_text("\n".join([header, *scaled]) + "\n")
        doc = json.loads(run_config.read_text())
        doc["transformer"] = learner
        run_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(run_config), "--out", str(out)) == 0
        failures = [line for line in (out / "result.txt").read_text().splitlines()
                    if line.startswith("  task000 [")]
        assert len(failures) == 1
        assert failures[0].startswith("  task000 [stage1]: stage-1 fit failed for task "
                                      "'task000': ")
        assert cause in failures[0]

    def test_the_comparison_is_built_once_per_run(self, tmp_path, run_config, monkeypatch):
        calls = []

        def spy(results):
            calls.append(len(results))
            return compare_representations(results)

        monkeypatch.setattr(pipeline, "compare_representations", spy)
        assert run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x")) == 0
        assert calls == [8]


class TestBankAndCluster:
    def test_inspect_bank(self, bank_dir, capsys):
        assert run_cli("inspect-bank", "--bank", str(bank_dir)) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:3] == ["collection: synth-1-4", 'learner: Ridge {"lam": 10.0}',
                                        "models: 4"]
        assert "fingerprint=" in out
        assert sum(line.endswith(" lam=10") for line in out.splitlines()) == 4

    @pytest.mark.parametrize("learner, fields", [
        ('{"kind": "ridge_cv", "lambda_grid": [0.5, 50.0], "k": 3}', ("lam",)),
        ('{"kind": "forest", "n_trees": 3, "seed": 1}', ("trees", "nodes", "depth")),
        ('{"kind": "svr", "c": 2.0}', ("n_iter", "kkt_gap")),
    ])
    def test_inspect_bank_prints_solver_diagnostics(self, tmp_path, synth_dir, capsys,
                                                     learner, fields):
        out_dir = tmp_path / "diag_bank"
        assert run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", learner, "--out", str(out_dir)) == 0
        capsys.readouterr()
        assert run_cli("inspect-bank", "--bank", str(out_dir)) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("  ")]
        bank = load_bank(out_dir)
        assert len(lines) == 4
        for task_id, line in zip(bank.task_ids, lines):
            state = bank.models[task_id].state
            printed = dict(tok.split("=", 1) for tok in line.split()[1:])
            assert set(fields) <= set(printed)
            if "lam" in fields:
                assert float(printed["lam"]) == state.lam
            if "trees" in fields:
                assert int(printed["trees"]) == 3
                assert int(printed["nodes"]) == sum(t.feature.shape[0] for t in state.trees)
                assert int(printed["depth"]) == max(_walk_depth(t, 0) for t in state.trees)
            if "n_iter" in fields:
                assert int(printed["n_iter"]) == state.n_iter
                assert abs(float(printed["kkt_gap"]) - state.kkt_gap) <= 1e-6 * state.kkt_gap

    def test_cluster_writes_reports(self, tmp_path, bank_dir, synth_dir, capsys):
        out = tmp_path / "clusters"
        pool = synth_dir / "task000.csv"
        code = run_cli("cluster", "--bank", str(bank_dir), "--pool", str(pool),
                       "--target", "y", "--k", "2", "--seed", "3", "--items", "both",
                       "--distances", "--out", str(out))
        assert code == 0
        task_lines = (out / "task_clusters.tsv").read_text().splitlines()
        assert len(task_lines) == 5  # header + 4 tasks
        assert (out / "example_clusters.tsv").is_file()
        assert (out / "task_distances.tsv").is_file()
        # the printed k-means diagnostics are those of the clusterings written
        pool_task = load_task(pool, "y")
        matrix = cross_prediction_matrix(load_bank(bank_dir), pool_task.features,
                                         pool_task.example_ids)
        lines = capsys.readouterr().out.splitlines()
        for items, res in (("task", cluster_tasks(matrix, 2, 3)),
                           ("example", cluster_examples(matrix, 2, 3))):
            assert (f"{items} k-means: converged={res.converged} n_iter={res.n_iter}"
                    in lines)

    def test_cluster_seed_respected(self, tmp_path, bank_dir, synth_dir):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            run_cli("cluster", "--bank", str(bank_dir),
                    "--pool", str(synth_dir / "task000.csv"), "--target", "y",
                    "--k", "2", "--seed", "5", "--out", str(out))
            outs.append((out / "task_clusters.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_negative_seed_is_validation_error(self, tmp_path, bank_dir, synth_dir, capsys):
        code = run_cli("cluster", "--bank", str(bank_dir),
                       "--pool", str(synth_dir / "manifest.json"), "--k", "2",
                       "--seed", "-1", "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == 3
        assert "--seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("pool_kind", ["pool file", "task file"])
    def test_pool_cap_needs_a_manifest_pool(self, pool_kind, tmp_path, bank_dir, synth_dir,
                                            capsys):
        task = synth_dir / "task000.csv"
        if pool_kind == "pool file":
            pool = tmp_path / "pool.csv"
            pool.write_text("".join(",".join(line.split(",")[:-1]) + "\n"
                                    for line in task.read_text().splitlines()))
            flags = []
        else:
            pool, flags = task, ["--target", "y"]
        out = tmp_path / "x"
        code = run_cli("cluster", "--bank", str(bank_dir), "--pool", str(pool), *flags,
                       "--pool-cap", "3", "--k", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert "--pool-cap" in err and str(pool) in err and "Traceback" not in err
        assert not out.exists()

    def test_target_needs_a_task_file_pool(self, tmp_path, bank_dir, synth_dir, capsys):
        out = tmp_path / "x"
        code = run_cli("cluster", "--bank", str(bank_dir),
                       "--pool", str(synth_dir / "manifest.json"), "--target", "y",
                       "--k", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert "--target" in err and "manifest.json" in err and "Traceback" not in err
        assert not out.exists()

    def test_k_zero_is_an_error(self, tmp_path, bank_dir, synth_dir):
        code = run_cli("cluster", "--bank", str(bank_dir),
                       "--pool", str(synth_dir / "task000.csv"), "--target", "y",
                       "--k", "0", "--out", str(tmp_path / "x"))
        assert code == 3

    @pytest.mark.parametrize("flags, message", [
        (["--pool-cap", "0", "--k", "2"], "error: --pool-cap must be at least 1, got 0"),
        (["--k", "0"], "error: --k must be at least 1, got 0"),
        (["--k", "500", "--items", "tasks"], "error: --k 500 exceeds the 4 tasks to cluster"),
        (["--k", "97", "--items", "examples"],
         "error: --k 97 exceeds the 96 examples to cluster"),
    ])
    def test_bad_flag_is_named_not_the_pool(self, flags, message, tmp_path, bank_dir,
                                            synth_dir, capsys):
        out = tmp_path / "x"
        code = run_cli("cluster", "--bank", str(bank_dir),
                       "--pool", str(synth_dir / "manifest.json"), *flags, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == [message]
        assert not out.exists()

    def test_task_listed_twice_names_the_manifest_and_the_task(self, tmp_path, synth_dir,
                                                                capsys):
        manifest = synth_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["tasks"].append("task000.csv")
        manifest.write_text(json.dumps(doc))
        code = run_cli("train-bank", "--collection", str(manifest),
                       "--learner", '{"kind": "ridge"}', "--out", str(tmp_path / "b"))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: 'tasks' lists task id 'task000' twice, as 'task000.csv' "
            f"and 'task000.csv'"]

    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_truncated_model_archive_is_validation_error(self, command, tmp_path,
                                                         bank_dir, synth_dir, capsys):
        archive = bank_dir / "task001.model.json"
        text = archive.read_text()
        archive.write_text(text[: len(text) // 2])
        argv = ["--bank", str(bank_dir)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "task000.csv"), "--target", "y",
                     "--k", "2", "--out", str(tmp_path / "x")]
        assert run_cli(command, *argv) == 3
        err = capsys.readouterr().err
        assert "task001.model.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_non_string_row_id_in_an_archive_is_validation_error(self, command, tmp_path,
                                                                 bank_dir, synth_dir, capsys):
        archive = bank_dir / "task001.model.json"
        doc = json.loads(archive.read_text())
        doc["train_fingerprint"]["row_ids"][:2] = [None, 7]
        archive.write_text(json.dumps(doc))
        argv = ["--bank", str(bank_dir)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "x")]
        capsys.readouterr()
        assert run_cli(command, *argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {archive}: train_fingerprint: 'row_ids' entry 0 must be a string, "
            "got None"]

    @pytest.mark.parametrize("key, value", [
        ("models", None), ("learner_spec", None), ("collection_id", None),
        ("models", []), ("learner_spec", "ridge"),
        ("learner_spec", {"kind": "ridge"}), ("collection_id", 5),
        ("learner_spec", {"kind": "ridge", "hyperparams": {"lam": 10.0, "mu": 1}, "seed": 0}),
        ("learner_spec", {"kind": "ridge", "hyperparams": {"lam": "x"}, "seed": 0}),
        ("task_order", ["task000", 1]),
    ])
    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_malformed_bank_index_is_validation_error(self, command, key, value, tmp_path,
                                                      bank_dir, synth_dir, capsys):
        """A valid-JSON index that lacks a key (None) or holds a wrong value."""
        index_path = bank_dir / "bank_index.json"
        index = json.loads(index_path.read_text())
        if value is None:
            del index[key]
        else:
            index[key] = value
        index_path.write_text(json.dumps(index))
        argv = ["--bank", str(bank_dir)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "task000.csv"), "--target", "y",
                     "--k", "2", "--out", str(tmp_path / "x")]
        assert run_cli(command, *argv) == 3
        err = capsys.readouterr().err
        assert "bank_index.json" in err and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("order, problem", [
        (["task000", "task000", "task001", "task002"], "'task_order'[1] lists 'task000' again"),
        (["task000", "task001", "task002"], "'task_order' leaves out 'task003'"),
    ])
    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_task_order_lists_each_model_once(self, command, order, problem, tmp_path,
                                              bank_dir, synth_dir, capsys):
        """A task listed twice or left out would drop an archive from the bank."""
        index_path = bank_dir / "bank_index.json"
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps({**index, "task_order": order}))
        argv = ["--bank", str(bank_dir)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "x")]
        capsys.readouterr()
        assert run_cli(command, *argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {index_path}: {problem}; it must list each 'models' entry once"]

    def test_a_saved_index_holds_no_training_scope(self, bank_dir):
        index = json.loads((bank_dir / "bank_index.json").read_text())
        assert sorted(index) == ["collection_id", "feature_names", "learner_spec", "models",
                                 "task_order"]

    @pytest.mark.parametrize("value", ["full_task", "train_split_only", "everything", 7])
    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_an_index_with_a_training_scope_reads_as_one_without(self, command, value,
                                                                tmp_path, bank_dir,
                                                                synth_dir, capsys):
        """Older indexes hold "training_scope": "full_task". The key is not read,
        whatever its value: the bank prints and clusters as without it."""
        index_path = bank_dir / "bank_index.json"
        index = json.loads(index_path.read_text())
        outputs = []
        for doc in (index, {**index, "training_scope": value}):
            index_path.write_text(json.dumps(doc))
            out_dir = tmp_path / f"x{len(outputs)}"
            argv = ["--bank", str(bank_dir)]
            if command == "cluster":
                argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                         "--out", str(out_dir)]
            capsys.readouterr()
            assert run_cli(command, *argv) == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("task_clusters.tsv", "example_clusters.tsv")]
                           if command == "cluster" else capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_models_entry_outside_the_bank_is_validation_error(self, bank_dir, capsys):
        """An archive that reads back fine is refused when its 'models' entry
        leads out of the bank directory."""
        outside = bank_dir.parent / "task001.model.json"
        outside.write_bytes((bank_dir / "task001.model.json").read_bytes())
        index_path = bank_dir / "bank_index.json"
        index = json.loads(index_path.read_text())
        index["models"]["task001"] = "../task001.model.json"
        index_path.write_text(json.dumps(index))
        capsys.readouterr()
        assert run_cli("inspect-bank", "--bank", str(bank_dir)) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {index_path}: 'task_order'[1] 'task001' has 'models' entry "
            "'../task001.model.json', which is not a file name in the bank directory"]

    @pytest.mark.parametrize("learner, k, digest", [
        ('{"kind": "ridge", "lam": 10}', "2",
         "fc03fb9f2a5e60b4725dcc15dfc9464b8f801875a6c538f4473b37124191d15c"),
        ('{"kind": "forest", "n_trees": 3, "seed": 2}', "3",
         "629cea048b6aaf32fd952e4c3389d17136e0789749b66be2313b3479eead1dad"),
    ])
    def test_cluster_standardize_digest(self, tmp_path, synth_dir, learner, k, digest):
        """Golden bytes of standardized task and example clusters of the pooled collection."""
        manifest = str(synth_dir / "manifest.json")
        assert run_cli("train-bank", "--collection", manifest, "--learner", learner,
                       "--out", str(tmp_path / "b")) == 0
        out = tmp_path / "std"
        assert run_cli("cluster", "--bank", str(tmp_path / "b"), "--pool", manifest,
                       "--k", k, "--seed", "3", "--standardize", "--out", str(out)) == 0
        h = hashlib.sha256()
        for name in ("task_clusters.tsv", "example_clusters.tsv"):
            h.update((out / name).read_bytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("extra", [["--distances"], ["--standardize"],
                                       ["--items", "examples", "--distances"]])
    def test_overflowing_distances_name_the_pool(self, tmp_path, bank_dir, capsys, extra):
        """Predictions about 1e200 apart have squared distances past the float range."""
        pool = tmp_path / "pool.csv"
        pool.write_text("id,x0,x1,x2,x3,x4,x5\na,1e200,1,0,0,0,0\n"
                        "b,-1e200,2,0,0,0,0\nc,0,3,0,0,0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("cluster", "--bank", str(bank_dir), "--pool", str(pool),
                           "--k", "2", *extra, "--out", str(tmp_path / "c"))
        assert code == 3
        assert (f"error: {pool}: items too far apart: overflow encountered in square"
                in capsys.readouterr().err)

    def test_missing_bank(self, tmp_path, synth_dir):
        code = run_cli("cluster", "--bank", str(tmp_path / "nope"),
                       "--pool", str(synth_dir / "task000.csv"), "--target", "y",
                       "--k", "2", "--out", str(tmp_path / "x"))
        assert code == 3

    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_archives_with_different_feature_counts(self, command, tmp_path, bank_dir,
                                                    synth_dir, capsys):
        """A bank whose archives disagree on the feature count exits 3 on load,
        naming the odd archive and the first archive's count."""
        narrow = tmp_path / "narrow"
        assert run_cli("synth", "--tasks", "4", "--examples", "24", "--features", "1",
                       "--seed", "1", "--out", str(narrow)) == 0
        assert run_cli("train-bank", "--collection", str(narrow / "manifest.json"),
                       "--learner", '{"kind": "ridge", "lam": 10}',
                       "--out", str(tmp_path / "narrow_bank")) == 0
        archive = bank_dir / "task001.model.json"
        archive.write_bytes((tmp_path / "narrow_bank" / "task001.model.json").read_bytes())
        argv = ["--bank", str(bank_dir)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "x")]
        capsys.readouterr()
        code = run_cli(command, *argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert (f"{archive}: 'feature_count' is 1, but {bank_dir / 'task000.model.json'} "
                f"has 6") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["task000.model.json", "task003.model.json"])
    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_archive_of_another_spec_names_the_archive(self, command, name, tmp_path,
                                                       bank_dir, synth_dir, capsys):
        """The first archive is checked on load, a later one when its model is read."""
        archive = bank_dir / name
        doc = json.loads(archive.read_text())
        doc["spec"]["hyperparams"]["lam"] = 5.0
        archive.write_text(json.dumps(doc))
        argv = ["--bank", str(bank_dir)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "x")]
        capsys.readouterr()
        assert run_cli(command, *argv) == 3
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {archive}: 'spec' ")
        assert "does not match the bank index's 'learner_spec'" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_truncated_last_archive_leaves_no_output(self, command, tmp_path, synth_dir,
                                                     capsys):
        bank = tmp_path / "b"
        assert run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", '{"kind": "forest", "n_trees": 3, "seed": 1}',
                       "--out", str(bank)) == 0
        archive = bank / "task003.model.json"
        text = archive.read_text()
        archive.write_text(text[: len(text) // 2])
        out_dir = tmp_path / "x"
        argv = ["--bank", str(bank)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(out_dir)]
        capsys.readouterr()
        assert run_cli(command, *argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {archive}: ")
        assert not out_dir.exists()

    def test_later_archive_is_read_after_the_pool(self, tmp_path, bank_dir, capsys):
        """Both bad: the pool is named, since a later archive is read only to predict."""
        (bank_dir / "task001.model.json").write_text("{")
        pool = tmp_path / "pool.csv"
        pool.write_text("id,x0\n")
        assert run_cli("cluster", "--bank", str(bank_dir), "--pool", str(pool), "--k", "2",
                       "--out", str(tmp_path / "x")) == 3
        assert capsys.readouterr().err.startswith(f"error: {pool}: ")

    def test_cluster_holds_two_forest_models_at_most(self, tmp_path, synth_dir, monkeypatch):
        """Each archive is read once as the bank predicts, plus the first once
        on load for the feature count; the previous model stays alive until
        the next archive has been read."""
        bank = tmp_path / "b"
        manifest = str(synth_dir / "manifest.json")
        assert run_cli("train-bank", "--collection", manifest,
                       "--learner", '{"kind": "forest", "n_trees": 3, "seed": 1}',
                       "--out", str(bank)) == 0
        reads, refs, alive = [], [], []

        def spy(path):
            model = load_model(path)
            reads.append(Path(path).name)
            refs.append(weakref.ref(model))
            alive.append(sum(ref() is not None for ref in refs))
            return model

        monkeypatch.setattr(engine, "load_model", spy)
        assert run_cli("cluster", "--bank", str(bank), "--pool", manifest, "--k", "2",
                       "--out", str(tmp_path / "c")) == 0
        names = [f"task{i:03d}.model.json" for i in range(4)]
        assert reads == names[:1] + names
        assert max(alive) <= 2


def _at_root(value):
    """Set element 0, the root's; a callable value gets the node count."""
    def change(arr):
        arr[0] = value(arr.shape[0]) if callable(value) else value
        return arr
    return change


def _at_first_leaf(value):
    def change(arr):
        arr[np.flatnonzero(arr < 0)[0]] = value
        return arr
    return change


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail instead of hanging: a cyclic tree used to loop forever."""
    def expire(signum, frame):
        raise TimeoutError(f"command ran longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestForestArchiveStructure:
    """A forest archive breaking a tree layout rule exits 3, naming archive, tree and array."""

    # name -> ({tree array: change of its decoded value}, array the error names)
    CASES = {
        "root-points-to-itself": ({"left": _at_root(0), "right": _at_root(1)}, "left"),
        "child-out-of-range": ({"left": _at_root(lambda n: n + 4),
                                "right": _at_root(lambda n: n + 5)}, "right"),
        "right-not-left-plus-one": ({"right": _at_root(lambda n: n - 1)}, "right"),
        "feature-out-of-range": ({"feature": _at_root(6)}, "feature"),
        "leaf-feature-not-minus-one": ({"feature": _at_first_leaf(-2)}, "feature"),
        "float-left": ({"left": lambda a: a.astype(np.float64)}, "left"),
        "unsigned-right": ({"right": lambda a: a.astype(np.uint32)}, "right"),
        "nan-threshold": ({"threshold": _at_root(np.nan)}, "threshold"),
        "infinite-value": ({"value": _at_root(np.inf)}, "value"),
        "two-d-feature": ({"feature": lambda a: a.reshape(-1, 1)}, "feature"),
        "short-value": ({"value": lambda a: a[:-1]}, "value"),
        "empty-tree": (dict.fromkeys(("feature", "threshold", "left", "right", "value"),
                                     lambda a: a[:0]), "feature"),
    }

    @pytest.fixture
    def forest_bank(self, tmp_path, synth_dir):
        bank = tmp_path / "forest_bank"
        assert run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", '{"kind": "forest", "n_trees": 2, "seed": 1}',
                       "--out", str(bank)) == 0
        return bank

    @pytest.mark.parametrize("case, command", [
        *((case, "inspect-bank") for case in CASES),
        ("root-points-to-itself", "cluster"), ("child-out-of-range", "cluster"),
    ])
    def test_bad_tree_is_validation_error(self, case, command, tmp_path, forest_bank,
                                          synth_dir, capsys):
        changes, array = self.CASES[case]
        archive = forest_bank / "task001.model.json"
        doc = json.loads(archive.read_text())
        tree = doc["state"]["trees"][1]
        assert _dec(tree["feature"])[0] >= 0, "the root must be a split node"
        for name, change in changes.items():
            tree[name] = _enc(change(_dec(tree[name])))
        archive.write_text(json.dumps(doc))
        argv = ["--bank", str(forest_bank)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "x")]
        capsys.readouterr()
        with _time_limit(10):
            code = run_cli(command, *argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert str(archive) in err and "tree 1" in err and repr(array) in err
        assert "Traceback" not in err


def _array(change):
    """Apply ``change`` to the decoded value of an archived array."""
    return lambda doc: _enc(change(_dec(doc)))


class TestModelArchiveValues:
    """A ridge or SVR state array, or the standardization, that does not fit the
    feature count, or a state scalar prediction reads that is out of range,
    exits 3, naming the archive and the key; ``predict`` would otherwise
    broadcast the array or use the value and write wrong tables."""

    # name -> (learner, path to the value in the archive, change of the value)
    CASES = {
        "short-coef": ("ridge", ("state", "coef"), _array(lambda a: a[:1])),
        "nan-coef": ("ridge", ("state", "coef"),
                     _array(lambda a: np.where(a == a[0], np.nan, a))),
        "int-coef": ("ridge", ("state", "coef"), _array(lambda a: a.astype(np.int64))),
        "short-mean": ("ridge", ("standardization", "mean"), _array(lambda a: a[:1])),
        "long-scale": ("svr", ("standardization", "scale"), _array(lambda a: np.tile(a, 2))),
        "narrow-support": ("svr", ("state", "support"), _array(lambda a: a[:, :1])),
        "flat-support": ("svr", ("state", "support"), _array(lambda a: a.ravel())),
        "short-dual_coef": ("svr", ("state", "dual_coef"), _array(lambda a: a[:-1])),
        "infinite-intercept": ("ridge", ("state", "intercept"), lambda v: float("inf")),
        "nan-bias": ("svr", ("state", "bias"), lambda v: float("nan")),
        "negative-sigma": ("svr", ("state", "sigma"), lambda v: -5.0),
    }

    @pytest.mark.parametrize("case, command", [
        *((case, "inspect-bank") for case in CASES),
        ("short-coef", "cluster"), ("narrow-support", "cluster"), ("negative-sigma", "cluster"),
    ])
    def test_bad_value_is_validation_error(self, case, command, tmp_path, synth_dir, capsys):
        learner, (section, key), change = self.CASES[case]
        bank = tmp_path / "bank"
        assert run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", json.dumps({"kind": learner}), "--out", str(bank)) == 0
        archive = bank / "task001.model.json"
        doc = json.loads(archive.read_text())
        doc[section][key] = change(doc[section][key])
        archive.write_text(json.dumps(doc))
        argv = ["--bank", str(bank)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "x")]
        capsys.readouterr()
        code = run_cli(command, *argv)
        err = capsys.readouterr().err
        assert code == 3, err
        assert str(archive) in err and repr(key) in err
        assert "Traceback" not in err


class TestCompare:
    def test_merges_two_result_files(self, tmp_path, synth_dir, run_config, capsys):
        out1 = tmp_path / "r1"
        run_cli("run", "--config", str(run_config), "--out", str(out1))
        doc = json.loads(run_config.read_text())
        doc["transformer"] = {"kind": "forest", "n_trees": 6, "seed": 1}
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(doc))
        out2 = tmp_path / "r2"
        run_cli("run", "--config", str(cfg2), "--out", str(out2))
        capsys.readouterr()
        code = run_cli("compare", str(out1 / "scores.tsv"), str(out2 / "scores.tsv"))
        assert code == 0
        text = capsys.readouterr().out
        assert "TL - Ridge" in text
        assert "TL - RF" in text

    def test_empty_score_file_is_validation_error(self, tmp_path, capsys):
        empty = tmp_path / "empty_scores.tsv"
        empty.write_text("")
        assert run_cli("compare", str(empty)) == 3
        err = capsys.readouterr().err
        assert "empty_scores.tsv" in err
        assert "Traceback" not in err

    def test_header_only_score_file_is_validation_error(self, tmp_path, run_config, capsys):
        out = tmp_path / "r1"
        run_cli("run", "--config", str(run_config), "--out", str(out))
        header_only = tmp_path / "header_scores.tsv"
        header_only.write_text((out / "scores.tsv").read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert run_cli("compare", str(header_only)) == 3
        captured = capsys.readouterr()
        assert "header_scores.tsv" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_conflicting_scores_name_the_task(self, tmp_path, run_config, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("run", "--config", str(run_config), "--out", str(out1))
        run_cli("run", "--config", str(run_config), "--out", str(out2), "--seed", "100")
        capsys.readouterr()
        assert run_cli("compare", str(out1 / "scores.tsv"), str(out2 / "scores.tsv")) == 3
        err = capsys.readouterr().err
        assert "conflicting scores for task 'task000'" in err
        assert "Traceback" not in err

    def test_score_file_without_mean_rmse_names_column(self, tmp_path, run_config, capsys):
        out = tmp_path / "r1"
        run_cli("run", "--config", str(run_config), "--out", str(out))
        lines = (out / "scores.tsv").read_text().splitlines()
        cut = tmp_path / "cut_scores.tsv"
        cut.write_text("".join("\t".join(ln.split("\t")[:5]) + "\n" for ln in lines))
        capsys.readouterr()
        assert run_cli("compare", str(cut)) == 3
        err = capsys.readouterr().err
        assert "cut_scores.tsv" in err
        assert "mean_rmse" in err
        assert "Traceback" not in err

    def test_usage_error_without_files(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare")
        assert exc.value.code == 2


class TestOutputPaths:
    """An --out that cannot be created or written is a validation error
    naming the path, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "synth", "train-bank", "cluster",
                                         "compare-missing-dir", "compare-directory"])
    def test_unwritable_out_is_validation_error(self, command, tmp_path, run_config,
                                                synth_dir, bank_dir, capsys):
        scores = tmp_path / "r" / "scores.tsv"
        assert run_cli("run", "--config", str(run_config), "--out", str(scores.parent)) == 0
        existing = tmp_path / "existing.txt"
        existing.write_text("")
        argv, out = {
            "run": (["run", "--config", str(run_config)], existing),
            "synth": (["synth", "--tasks", "3", "--examples", "10", "--features", "4"],
                      existing),
            "train-bank": (["train-bank", "--collection", str(synth_dir / "manifest.json"),
                            "--learner", '{"kind": "ridge"}'], existing),
            "cluster": (["cluster", "--bank", str(bank_dir),
                         "--pool", str(synth_dir / "manifest.json"), "--k", "2"], existing),
            "compare-missing-dir": (["compare", str(scores)], tmp_path / "missing" / "x.txt"),
            "compare-directory": (["compare", str(scores)], tmp_path),
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err


class TestSeedAndWorkers:
    def test_seed_flag_overrides_config(self, tmp_path, run_config):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli("run", "--config", str(run_config), "--out", str(out1), "--seed", "100")
        run_cli("run", "--config", str(run_config), "--out", str(out2))
        a = (out1 / "scores.tsv").read_text()
        b = (out2 / "scores.tsv").read_text()
        assert a != b  # different split seeds change fold scores
        manifest = json.loads((out1 / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 100

    @pytest.mark.parametrize("command", ["run", "train-bank"])
    def test_workers_flag_is_usage_error(self, command, tmp_path, run_config, synth_dir):
        argv = {"run": ["--config", str(run_config)],
                "train-bank": ["--collection", str(synth_dir / "manifest.json"),
                               "--learner", '{"kind": "ridge"}']}[command]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *argv, "--out", str(tmp_path / "x"), "--workers", "2")
        assert exc.value.code == 2


def test_run_with_corrupt_task_file_names_it(tmp_path, synth_dir, run_config, capsys):
    (synth_dir / "task001.csv").write_text("id,x0,y\nbroken row\n")
    code = run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x"))
    assert code == 3
    assert "task001.csv" in capsys.readouterr().err


def test_cluster_pool_from_manifest(tmp_path, synth_dir):
    bank = tmp_path / "bank2"
    run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
            "--learner", '{"kind": "ridge", "lam": 5}', "--out", str(bank))
    out = tmp_path / "manifest_pool_clusters"
    code = run_cli("cluster", "--bank", str(bank),
                   "--pool", str(synth_dir / "manifest.json"),
                   "--pool-cap", "30", "--k", "2", "--items", "examples",
                   "--out", str(out))
    assert code == 0
    lines = (out / "example_clusters.tsv").read_text().splitlines()
    assert len(lines) == 31  # header + capped pool rows


@pytest.mark.parametrize("command", ["train-bank", "cluster", "run"])
def test_shared_collection_with_different_feature_values(command, tmp_path, capsys):
    """A shared-examples collection whose tasks disagree on a feature value exits 3,
    naming the task, the example id and the column."""
    coll = tmp_path / "shared"
    assert run_cli("synth", "--tasks", "3", "--examples", "12", "--features", "3",
                   "--mode", "shared", "--seed", "4", "--out", str(coll)) == 0
    manifest = str(coll / "manifest.json")
    bank = tmp_path / "bank"
    assert run_cli("train-bank", "--collection", manifest, "--learner", '{"kind": "ridge"}',
                   "--out", str(bank)) == 0
    task = coll / "task002.csv"
    header, first, *rest = task.read_text().splitlines()
    cells = first.split(",")
    column = header.split(",").index("x0")
    cells[column] = repr(float(cells[column]) + 1.0)
    task.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"collection": manifest, "transformer": {"kind": "ridge"},
                               "final": {"kind": "ridge"},
                               "split": {"kind": "holdout", "test_fraction": 0.3},
                               "seed": 0}))
    argv = {"train-bank": ["--collection", manifest, "--learner", '{"kind": "ridge"}',
                           "--out", str(tmp_path / "b2")],
            "cluster": ["--bank", str(bank), "--pool", manifest, "--k", "2",
                        "--out", str(tmp_path / "c")],
            "run": ["--config", str(cfg), "--out", str(tmp_path / "r")]}[command]
    capsys.readouterr()
    code = run_cli(command, *argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert (f"task 'task002' differs from 'task000' at example {first.split(',')[0]!r}, "
            f"column 'x0'") in err
    assert "Traceback" not in err


def test_invalid_stage1_scope_is_config_error(tmp_path, run_config, capsys):
    doc = json.loads(run_config.read_text())
    doc["stage1_scope"] = "everything"
    bad = tmp_path / "badscope.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(bad), "--out", str(tmp_path / "x")) == 3
    assert "stage1_scope" in capsys.readouterr().err


def test_train_bank_malformed_learner_json(tmp_path, synth_dir, capsys):
    code = run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                   "--learner", '{"kind": "ridge"', "--out", str(tmp_path / "b"))
    assert code == 3
    err = capsys.readouterr().err
    assert "--learner: invalid JSON at line 1, column 17" in err
    assert "Traceback" not in err


def test_run_with_duplicate_example_ids_names_file(tmp_path, synth_dir, run_config, capsys):
    path = synth_dir / "task002.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[1].split(",")[0] + "," + lines[3].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert "task002.csv: duplicate example id 'ex0000' at row 4 (first at row 2)" in err


class TestPoolFile:
    HEADER = "id,x0,x1,x2,x3,x4,x5"

    def cluster(self, tmp_path, bank_dir, text):
        pool = tmp_path / "pool.csv"
        pool.write_text(text)
        return run_cli("cluster", "--bank", str(bank_dir), "--pool", str(pool),
                       "--k", "2", "--items", "examples", "--out", str(tmp_path / "c"))

    def test_ragged_row_names_file_and_row(self, tmp_path, bank_dir, capsys):
        text = f"{self.HEADER}\ne1,1,2,3,4,5,6\ne2,1,2,3\n"
        assert self.cluster(tmp_path, bank_dir, text) == 3
        assert "pool.csv: row 3 has 4 cells, expected 7" in capsys.readouterr().err

    def test_quoted_id_is_one_cell(self, tmp_path, bank_dir):
        text = f'{self.HEADER}\n"e,1",1,2,3,4,5,6\n"e,2",6,5,4,3,2,1\n'
        assert self.cluster(tmp_path, bank_dir, text) == 0
        rows = (tmp_path / "c" / "example_clusters.tsv").read_text().splitlines()
        assert [r.split("\t")[0] for r in rows[1:]] == ["e,1", "e,2"]

    def test_header_only_names_file(self, tmp_path, bank_dir, capsys):
        assert self.cluster(tmp_path, bank_dir, self.HEADER + "\n") == 3
        assert "pool.csv: header only, zero examples" in capsys.readouterr().err

    def test_duplicate_ids_rejected(self, tmp_path, bank_dir, capsys):
        text = f"{self.HEADER}\ne1,1,2,3,4,5,6\ne1,6,5,4,3,2,1\n"
        assert self.cluster(tmp_path, bank_dir, text) == 3
        assert "pool.csv: duplicate example id 'e1' at row 3" in capsys.readouterr().err
        assert not (tmp_path / "c" / "example_clusters.tsv").exists()


class TestJsonDocuments:
    """Config, manifest and archive documents that used to end in a traceback."""

    MANIFEST = {"collection_id": "c", "mode": "independent", "target": "y",
                "tasks": ["task000.csv", "task001.csv"]}

    def check(self, capsys, code, path, key=None):
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err
        assert key is None or repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, key", [
        (b"1", None),
        (json.dumps({**MANIFEST, "tasks": [1, 2]}).encode(), "tasks"),
        (json.dumps({**MANIFEST, "collection_id": 7}).encode(), "collection_id"),
        (json.dumps({**MANIFEST, "collection_id": "caf\u00e9"}, ensure_ascii=False)
         .encode("latin-1"), None),
    ], ids=["not-an-object", "task-entries", "numeric-id", "not-utf8"])
    def test_bad_manifest(self, tmp_path, synth_dir, capsys, text, key):
        manifest = synth_dir / "bad_manifest.json"
        manifest.write_bytes(text)
        code = run_cli("train-bank", "--collection", str(manifest),
                       "--learner", '{"kind": "ridge"}', "--out", str(tmp_path / "b"))
        self.check(capsys, code, manifest, key)

    def test_config_not_utf8(self, tmp_path, run_config, capsys):
        doc = json.loads(run_config.read_text())
        doc["collection"] = "caf\u00e9/manifest.json"
        run_config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        code = run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x"))
        self.check(capsys, code, run_config)

    def test_archive_without_n_iter(self, tmp_path, synth_dir, capsys):
        bank = tmp_path / "svr_bank"
        assert run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", '{"kind": "svr"}', "--out", str(bank)) == 0
        archive = bank / "task002.model.json"
        doc = json.loads(archive.read_text())
        del doc["state"]["n_iter"]
        archive.write_text(json.dumps(doc))
        capsys.readouterr()
        self.check(capsys, run_cli("inspect-bank", "--bank", str(bank)), archive, "n_iter")

    @pytest.mark.parametrize("learner, key", [
        ({"kind": "forest", "n_trees": 2.7, "mtry": "1"}, "n_trees"),
        ({"kind": "forest", "mtry": "1"}, "mtry"),
        ({"kind": "ridge", "lam": True}, "lam"),
        ({"kind": "ridge_cv", "lambda_grid": [1.0, "10"]}, "lambda_grid"),
        ({"kind": "svr", "max_iter": 1e5}, "max_iter"),
        ({"kind": "svr", "c": "2"}, "c"),
        ({"kind": "ridge", "mu": 1.0}, "mu"),
    ], ids=["float-n_trees", "string-mtry", "bool-lam", "string-grid", "float-max_iter",
            "string-c", "unknown-key"])
    def test_mistyped_hyperparameter(self, tmp_path, synth_dir, run_config, capsys,
                                     learner, key):
        code = run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", json.dumps(learner), "--out", str(tmp_path / "b"))
        self.check(capsys, code, "--learner", key)
        doc = json.loads(run_config.read_text())
        doc["final"] = learner
        run_config.write_text(json.dumps(doc))
        code = run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x"))
        self.check(capsys, code, run_config, key)

    @pytest.mark.parametrize("learner, key", [
        ({"kind": "forest", "n_trees": 0}, "n_trees"),
        ({"kind": "ridge", "lam": -1.0}, "lam"),
        ({"kind": "svr", "c": -1.0}, "c"),
        ({"kind": "ridge_cv", "lambda_grid": []}, "lambda_grid"),
        ({"kind": "forest", "n_trees": 2, "mtry": -3}, "mtry"),
        ({"kind": "svr", "max_iter": -1}, "max_iter"),
    ], ids=["zero-trees", "negative-lam", "negative-c", "empty-grid", "negative-mtry",
            "negative-max_iter"])
    def test_out_of_range_hyperparameter(self, tmp_path, synth_dir, run_config, capsys,
                                         learner, key):
        """Rejected when the spec is parsed, not when the first task is fitted."""
        code = run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", json.dumps(learner), "--out", str(tmp_path / "b"))
        self.check(capsys, code, "--learner", key)
        doc = json.loads(run_config.read_text())
        doc["transformer"] = learner
        run_config.write_text(json.dumps(doc))
        code = run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x"))
        self.check(capsys, code, run_config, key)

    @pytest.mark.parametrize("learner, key, value", [
        ('{"kind": "forest", "n_trees": 2}', "mtry", "1"),
        ('{"kind": "forest", "n_trees": 2}', "seed", 2.5),
        ('{"kind": "forest", "n_trees": 2}', "trees", {}),
        ('{"kind": "forest", "n_trees": 2}', "trees", []),
        ('{"kind": "ridge"}', "lam", True),
        ('{"kind": "ridge"}', "intercept", "0.5"),
        ('{"kind": "svr"}', "bias", True),
        ('{"kind": "svr"}', "n_iter", 3.5),
    ])
    def test_mistyped_archive_state(self, tmp_path, synth_dir, capsys, learner, key, value):
        bank = tmp_path / "typed_bank"
        assert run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", learner, "--out", str(bank)) == 0
        archive = bank / "task001.model.json"
        doc = json.loads(archive.read_text())
        doc["state"][key] = value
        archive.write_text(json.dumps(doc))
        capsys.readouterr()
        self.check(capsys, run_cli("inspect-bank", "--bank", str(bank)), archive, key)

    # A JSON integer no float can hold, given for a number key.
    BIG = 10 ** 400

    @pytest.mark.parametrize("learner, key", [
        ({"kind": "svr", "c": BIG}, "c"),
        ({"kind": "ridge_cv", "lambda_grid": [1.0, BIG]}, "lambda_grid"),
    ], ids=["svr-c", "ridge_cv-grid"])
    def test_too_large_integer_in_learner(self, tmp_path, synth_dir, capsys, learner, key):
        code = run_cli("train-bank", "--collection", str(synth_dir / "manifest.json"),
                       "--learner", json.dumps(learner), "--out", str(tmp_path / "b"))
        self.check(capsys, code, "--learner", key)

    def test_too_large_integer_in_config(self, tmp_path, run_config, capsys):
        doc = json.loads(run_config.read_text())
        doc["split"] = {"kind": "holdout", "test_fraction": self.BIG}
        run_config.write_text(json.dumps(doc))
        code = run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x"))
        self.check(capsys, code, run_config, "test_fraction")

    def test_too_large_integer_in_archive(self, tmp_path, bank_dir, capsys):
        archive = bank_dir / "task001.model.json"
        doc = json.loads(archive.read_text())
        doc["state"]["intercept"] = self.BIG
        archive.write_text(json.dumps(doc))
        capsys.readouterr()
        self.check(capsys, run_cli("inspect-bank", "--bank", str(bank_dir)), archive,
                   "intercept")


class TestEnumKeys:
    """Each enum-valued JSON key is checked by one rule: a value that is not
    one of its names, a string or not, exits 3 naming the file, the key, the
    valid names and the value found."""

    NAMES = {"mode": "'independent' or 'shared'",
             "stage1_scope": "'full_task' or 'train_split_only'",
             "split": "'kfold' or 'holdout'",
             "transformer": "'ridge', 'ridge_cv', 'forest' or 'svr'"}

    @pytest.mark.parametrize("value", ["everything", 7, ["kfold"]])
    @pytest.mark.parametrize("key", list(NAMES))
    def test_value_outside_the_names(self, key, value, tmp_path, run_config, synth_dir,
                                     capsys):
        path, where, name = run_config, str(run_config), key
        argv = ["run", "--config", str(run_config), "--out", str(tmp_path / "x")]
        if key == "mode":
            path = where = synth_dir / "manifest.json"
        doc = json.loads(path.read_text())
        if key in ("split", "transformer"):
            doc[key] = {**doc[key], "kind": value}
            where, name = f"{path}: {key}", "kind"
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {where}: {name!r} must be {self.NAMES[key]}, got {value!r}"]

    @pytest.mark.parametrize("kind, key", [("kfold", "k"), ("holdout", "test_fraction")])
    def test_split_without_its_size_names_the_key(self, kind, key, tmp_path, run_config,
                                                  capsys):
        doc = json.loads(run_config.read_text())
        doc["split"] = {"kind": kind}
        run_config.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(run_config), "--out", str(tmp_path / "x")) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {run_config}: split: missing key {key!r}"]


class TestPoolFeatureNames:
    """Bank models read features by position, so a pool must name its feature
    columns as the bank's collection did, in the same order."""

    def test_bank_records_the_feature_names(self, bank_dir):
        assert load_bank(bank_dir).feature_names == tuple(f"x{j}" for j in range(6))

    def test_reversed_pool_columns_name_the_first_difference(self, tmp_path, bank_dir,
                                                             synth_dir, capsys):
        header, *rows = (synth_dir / "task000.csv").read_text().splitlines()
        names = header.split(",")
        order = [0, *range(6, 0, -1)]  # id, x5 ... x0; the target column dropped
        pool = tmp_path / "reversed.csv"
        pool.write_text("\n".join(",".join(line.split(",")[i] for i in order)
                                  for line in [header, *rows]) + "\n")
        assert [names[i] for i in order] == ["id", "x5", "x4", "x3", "x2", "x1", "x0"]
        code = run_cli("cluster", "--bank", str(bank_dir), "--pool", str(pool),
                       "--k", "2", "--out", str(tmp_path / "c"))
        err = capsys.readouterr().err
        assert code == 3, err
        assert (f"error: {pool}: pool feature 1 of 6 is 'x5'; the bank was trained with "
                f"'x0' in that position") in err
        assert not (tmp_path / "c").exists()

    def test_task_file_pool_is_checked_without_its_target(self, tmp_path, bank_dir,
                                                          synth_dir, capsys):
        text = (synth_dir / "task001.csv").read_text()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(text.replace("x3", "w3", 1))
        code = run_cli("cluster", "--bank", str(bank_dir), "--pool", str(renamed),
                       "--target", "y", "--k", "2", "--out", str(tmp_path / "c"))
        assert code == 3
        assert "pool feature 4 of 6 is 'w3'; the bank was trained with 'x3'" in (
            capsys.readouterr().err)

    def test_manifest_pool_of_another_feature_space(self, tmp_path, bank_dir, synth_dir,
                                                    capsys):
        for path in synth_dir.glob("*.csv"):
            path.write_text(path.read_text().replace("x0,", "z0,", 1))
        manifest = synth_dir / "manifest.json"
        code = run_cli("cluster", "--bank", str(bank_dir), "--pool", str(manifest),
                       "--k", "2", "--out", str(tmp_path / "c"))
        assert code == 3
        assert (f"error: {manifest}: pool feature 1 of 6 is 'z0'; the bank was trained "
                f"with 'x0'") in capsys.readouterr().err

    def test_index_without_names_loads_unchecked(self, tmp_path, bank_dir, synth_dir):
        """A bank index written before the names were recorded."""
        index_path = bank_dir / "bank_index.json"
        index = json.loads(index_path.read_text())
        del index["feature_names"]
        index_path.write_text(json.dumps(index))
        assert load_bank(bank_dir).feature_names is None
        pool = tmp_path / "pool.csv"
        pool.write_text("id,a,b,c,d,e,f\ne1,1,2,3,4,5,6\ne2,6,5,4,3,2,1\n")
        assert run_cli("cluster", "--bank", str(bank_dir), "--pool", str(pool),
                       "--k", "2", "--items", "examples", "--out", str(tmp_path / "c")) == 0

    @pytest.mark.parametrize("value, message", [
        ("x0", "'feature_names' must be a list, got 'x0'"),
        ({"x0": 0}, "'feature_names' must be a list"),
        (["x0", "x1", "x2", "x3", "x4", 5], "'feature_names' must list column names"),
        (["x0", "x1"], "'feature_names' lists 2 names, but"),
    ])
    @pytest.mark.parametrize("command", ["inspect-bank", "cluster"])
    def test_malformed_feature_names(self, command, value, message, tmp_path, bank_dir,
                                     synth_dir, capsys):
        index_path = bank_dir / "bank_index.json"
        index = json.loads(index_path.read_text())
        index["feature_names"] = value
        index_path.write_text(json.dumps(index))
        argv = ["--bank", str(bank_dir)]
        if command == "cluster":
            argv += ["--pool", str(synth_dir / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "x")]
        assert run_cli(command, *argv) == 3
        err = capsys.readouterr().err
        assert f"{index_path}: {message}" in err
        assert "Traceback" not in err


class TestOverflowingPool:
    """A finite pool value far outside the training range overflows each
    model's standardization."""

    @staticmethod
    def _cluster(tmp_path, collection, learner):
        manifest = write_collection(collection, tmp_path / "coll")
        assert run_cli("train-bank", "--collection", str(manifest), "--learner", learner,
                       "--out", str(tmp_path / "bank")) == 0
        pool = tmp_path / "pool.csv"
        pool.write_text("id,x0,x1\na,1e308,1\nb,0.5,0.2\n")
        code = run_cli("cluster", "--bank", str(tmp_path / "bank"), "--pool", str(pool),
                       "--k", "1", "--out", str(tmp_path / "c"))
        return code, pool

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ridge_bank_names_the_model_and_the_example(self, tmp_path, narrow_collection,
                                                        capsys):
        code, pool = self._cluster(tmp_path, narrow_collection, '{"kind": "ridge", "lam": 1}')
        err = capsys.readouterr().err
        assert code == 3, err
        assert err == (f"error: {pool}: source model 't0' predicts a non-finite value "
                       "for example 'a'\n")
        assert not (tmp_path / "c").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_svr_bank_clusters_the_pool(self, tmp_path, narrow_collection, capsys):
        code, _ = self._cluster(tmp_path, narrow_collection, '{"kind": "svr"}')
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "c" / "example_clusters.tsv").read_text().splitlines() == [
            "item_id\tcluster", "a\t0", "b\t0"]
