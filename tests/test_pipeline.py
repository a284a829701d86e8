import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from crossrep import __version__, engine, evaluation, pipeline
from crossrep.data import (CollectionMode, SplitKind, Task, TaskCollection,
                           normalize_targets)
from crossrep.engine import TrainingScope
from crossrep.errors import ConfigError, FitError
from crossrep.learners import LearnerSpec, TrainFingerprint
from crossrep.pipeline import (PipelineConfig, SplitProtocol, render_report, run_pipeline,
                               scores_tsv, write_result)
from crossrep.synth import Nonlinearity, SynthSpec, generate_collection
from test_golden import CASES as GOLDEN_CASES

FOREST = LearnerSpec.forest(n_trees=8, seed=1)
FINAL = LearnerSpec.forest(n_trees=8, seed=2)
RIDGE = LearnerSpec.ridge(5.0)


def toy_collection(n_tasks=4, n=30, p=10, seed=1, mode=CollectionMode.INDEPENDENT_EXAMPLES):
    return generate_collection(SynthSpec(
        n_tasks=n_tasks, n_examples_per_task=n, n_features=p, relatedness=0.8,
        nonlinearity=Nonlinearity.NONLINEAR, noise_sd=0.1, seed=seed, mode=mode))


def config(collection, **overrides):
    base = dict(collection=collection, transformer_spec=FOREST, final_spec=FINAL,
                split=SplitProtocol(SplitKind.KFOLD, k=3), seed=11)
    base.update(overrides)
    return PipelineConfig(**base)


class TestRunPipeline:
    def test_cardinality(self):
        result = run_pipeline(config(toy_collection()))
        intrinsic = [r for r in result.results if r.representation.order == 0]
        transformed = [r for r in result.results if r.representation.order > 0]
        assert len(intrinsic) == 4
        assert len(transformed) == 4

    def test_determinism_across_runs(self, tmp_path):
        col = toy_collection()
        a = run_pipeline(config(col))
        b = run_pipeline(config(col))
        assert scores_tsv(a) == scores_tsv(b)
        write_result(a, tmp_path / "a")
        write_result(b, tmp_path / "b")
        assert ((tmp_path / "a" / "scores.tsv").read_bytes()
                == (tmp_path / "b" / "scores.tsv").read_bytes())
        assert ((tmp_path / "a" / "comparison.tsv").read_bytes()
                == (tmp_path / "b" / "comparison.tsv").read_bytes())

    def test_shared_plans_between_representations(self):
        result = run_pipeline(config(toy_collection()))
        by_task = {}
        for r in result.results:
            by_task.setdefault(r.task_id, set()).add(r.plan_digest)
        for task_id, digests in by_task.items():
            assert len(digests) == 1

    def test_strict_mode_aborts_on_constant_task(self):
        tasks = list(toy_collection().tasks)
        bad = Task("broken", tasks[0].features, np.full(30, np.e),
                   tasks[0].feature_names, tasks[0].example_ids)
        col = TaskCollection([*tasks, bad], CollectionMode.INDEPENDENT_EXAMPLES, "toy")
        cfg = config(col, transformer_spec=LearnerSpec.svr(c=-1.0), strict=True)
        with pytest.raises(FitError):
            run_pipeline(cfg)

    def test_nonstrict_mode_records_failure_and_continues(self):
        tasks = list(toy_collection().tasks)
        rng = np.random.default_rng(0)
        tiny = Task("tiny", tasks[0].features[:8], rng.normal(size=8),
                    tasks[0].feature_names, tuple(f"w{i}" for i in range(8)))
        col = TaskCollection([*tasks, tiny], CollectionMode.INDEPENDENT_EXAMPLES, "toy")
        # internal 10-fold CV cannot run on the 8-row task; others are fine
        cfg = config(col, transformer_spec=LearnerSpec.ridge_cv((1.0, 10.0), k=10),
                     final_spec=RIDGE, strict=False)
        result = run_pipeline(cfg)
        assert [f.task_id for f in result.failures] == ["tiny"]
        assert result.failures[0].stage == "stage1"
        scored = {r.task_id for r in result.results}
        assert scored == {t.task_id for t in tasks}

    def test_each_task_fitted_once_at_stage1(self, monkeypatch):
        tasks = list(toy_collection().tasks)
        rng = np.random.default_rng(0)
        tiny = [Task(f"tiny{k}", tasks[0].features[:8], rng.normal(size=8),
                     tasks[0].feature_names, tuple(f"w{i}" for i in range(8)))
                for k in range(2)]
        col = TaskCollection([tiny[0], *tasks, tiny[1]], CollectionMode.INDEPENDENT_EXAMPLES,
                             "toy")
        fits = []
        real_fit = engine.fit_learner

        def counting_fit(spec, X, y, fingerprint, seed=None):
            fits.append(fingerprint.task_id)
            return real_fit(spec, X, y, fingerprint=fingerprint, seed=seed)

        monkeypatch.setattr(engine, "fit_learner", counting_fit)
        # internal 10-fold CV cannot run on the 8-row tasks; order 1 has no
        # stage-2 fits, so every engine-level fit is a stage-1 fit
        cfg = config(col, transformer_spec=LearnerSpec.ridge_cv((1.0, 10.0), k=10),
                     final_spec=RIDGE)
        result = run_pipeline(cfg)
        assert sorted(fits) == sorted(col.task_ids)
        assert [(f.task_id, f.stage) for f in result.failures] == [
            ("tiny0", "stage1"), ("tiny1", "stage1")]
        assert {r.task_id for r in result.results} == {t.task_id for t in tasks}

    @staticmethod
    def _fail_one_task(monkeypatch, name, task_id):
        """Make ``pipeline.<name>`` raise a FitError for ``task_id`` only."""
        real = getattr(pipeline, name)

        def failing(*args, **kwargs):
            # stage2_train receives the task's view, second_order_extrinsic its id
            target = args[0] if isinstance(args[0], str) else args[0].target_task_id
            if target == task_id:
                raise FitError(f"injected {name} failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, failing)

    def test_nonstrict_stage2_failure_recorded_and_every_task_scored(self, monkeypatch):
        col = toy_collection()
        self._fail_one_task(monkeypatch, "stage2_train", col.task_ids[1])
        result = run_pipeline(config(col, transformer_spec=RIDGE, final_spec=RIDGE, order=2))
        assert [(f.task_id, f.stage, f.message) for f in result.failures] == [
            (col.task_ids[1], "stage2", "injected stage2_train failure")]
        assert {r.task_id for r in result.results} == set(col.task_ids)
        assert len(result.results) == 3 * 4

    def test_nonstrict_order2_failure_recorded_and_task_dropped(self, monkeypatch):
        col = toy_collection()
        self._fail_one_task(monkeypatch, "second_order_extrinsic", col.task_ids[2])
        result = run_pipeline(config(col, transformer_spec=RIDGE, final_spec=RIDGE, order=2))
        assert [(f.task_id, f.stage, f.message) for f in result.failures] == [
            (col.task_ids[2], "order2", "injected second_order_extrinsic failure")]
        assert {r.task_id for r in result.results} == set(col.task_ids) - {col.task_ids[2]}

    def test_overflowing_fold_is_recorded_as_an_evaluate_failure(self, narrow_collection):
        """A row of x0 = 1e300 overflows its task's squared fold error: the task
        fails at evaluation instead of being scored inf."""
        rng = np.random.default_rng(23)
        X = rng.normal(scale=0.01, size=(12, 2))
        X[0, 0] = 1e300
        t3 = Task("t3", X, rng.normal(size=12), ("x0", "x1"),
                  tuple(f"t3-r{r}" for r in range(12)))
        col = TaskCollection([*narrow_collection.tasks, t3], narrow_collection.mode, "narrow")
        ridge = LearnerSpec.ridge(1.0)
        result = run_pipeline(config(col, transformer_spec=ridge, final_spec=ridge))
        assert [(f.task_id, f.stage, f.message) for f in result.failures] == [
            ("t3", "evaluate", "fold 2 of task 't3': squared prediction error overflows")]
        rows = scores_tsv(result).splitlines()[1:]
        assert {row.split("\t")[0] for row in rows} == {"t0", "t1", "t2"}

    @pytest.mark.parametrize("name", ["stage2_train", "second_order_extrinsic"])
    def test_strict_order2_failure_raises(self, monkeypatch, name):
        col = toy_collection()
        self._fail_one_task(monkeypatch, name, col.task_ids[0])
        with pytest.raises(FitError, match=f"injected {name} failure"):
            run_pipeline(config(col, transformer_spec=RIDGE, final_spec=RIDGE, order=2,
                                strict=True))

    def test_descriptor_cap_respected(self):
        col = toy_collection(n_tasks=5)
        result = run_pipeline(config(col, transformer_spec=RIDGE, descriptor_cap=2))
        assert result.config_echo["descriptor_cap"] == 2

    def test_cap_above_sources_rejected_before_training(self):
        col = toy_collection(n_tasks=4)
        with pytest.raises(ConfigError, match="descriptor_cap"):
            config(col, descriptor_cap=4)

    def test_order2_results_present(self):
        col = toy_collection(n_tasks=3)
        result = run_pipeline(config(col, transformer_spec=RIDGE,
                                     final_spec=RIDGE, order=2))
        orders = {r.representation.order for r in result.results
                  if r.representation.order > 0}
        assert orders == {1, 2}

    def test_normalize_targets_flag(self):
        col = toy_collection()
        result = run_pipeline(config(col, transformer_spec=RIDGE, final_spec=RIDGE,
                                     normalize=True))
        by_hand = TaskCollection([normalize_targets(t) for t in col.tasks], col.mode,
                                 col.feature_space_id)
        assert result.results == run_pipeline(config(by_hand, transformer_spec=RIDGE,
                                                      final_spec=RIDGE)).results
        assert result.results != run_pipeline(config(col, transformer_spec=RIDGE,
                                                      final_spec=RIDGE)).results

    @pytest.mark.parametrize("normalize", [False, True], ids=["plain", "normalized"])
    def test_report_opens_with_version_and_collection(self, tmp_path, normalize):
        tasks = list(toy_collection().tasks)
        if normalize:
            # internal 10-fold CV cannot run on this 8-row task, so the
            # stage-1 survivors are assembled again
            rng = np.random.default_rng(0)
            tasks.append(Task("tiny", tasks[0].features[:8], rng.normal(size=8),
                              tasks[0].feature_names, tuple(f"w{i}" for i in range(8))))
        col = TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "report-id")
        ridge_cv = LearnerSpec.ridge_cv((1.0, 10.0), k=10)
        result = run_pipeline(config(col, transformer_spec=ridge_cv, final_spec=RIDGE,
                                     normalize=normalize))
        assert [f.task_id for f in result.failures] == (["tiny"] if normalize else [])
        report = (write_result(result, tmp_path) / "result.txt").read_text(encoding="utf-8")
        assert report.splitlines()[:2] == [
            f"crossrep experiment report (version {__version__})", "collection: report-id"]

    def test_augment_flag_smoke(self):
        col = toy_collection(n_tasks=3)
        result = run_pipeline(config(col, transformer_spec=RIDGE, final_spec=RIDGE,
                                     augment=True))
        assert result.config_echo["augment"] is True


def _with_short_task(col):
    """``col`` and one 8-row task, for splits the other tasks' 30 rows take."""
    first = col.tasks[0]
    short = Task("short", first.features[:8], first.targets[:8], first.feature_names,
                 tuple(f"s{i}" for i in range(8)))
    return TaskCollection([*col.tasks, short], col.mode, col.feature_space_id)


# Each mode's collection's first task: 'short' sorts before 'task000'.
FIRST_TASKS = (("independent", "'short' has 8"), ("shared", "'task000' has 30"))


class TestSplitPlans:
    """The config makes each task's split plan once, and every score uses it."""

    @pytest.mark.parametrize("mode, split, message", [
        ("independent", SplitProtocol(SplitKind.KFOLD, k=9),
         "task 'short' has 8 examples: k (9) exceeds the number of examples (8)"),
        ("independent", SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.05),
         "task 'short' has 8 examples: test_fraction 0.05 leaves an empty train or test side"),
        ("shared", SplitProtocol(SplitKind.KFOLD, k=31),
         "task 'task000' has 30 examples: k (31) exceeds the number of examples (30)"),
        # a split no task can take names the first task in task id order
        *((mode, SplitProtocol(SplitKind.KFOLD, k=1),
           f"task {first} examples: k must be at least 2, got 1")
          for mode, first in FIRST_TASKS),
        *((mode, SplitProtocol(SplitKind.HOLDOUT, test_fraction=f),
           f"task {first} examples: test_fraction must be in (0, 1), got {f}")
          for mode, first in FIRST_TASKS for f in (0.0, 1.0)),
    ])
    def test_a_split_the_rows_cannot_take_names_the_task(self, mode, split, message):
        col = toy_collection(mode=CollectionMode(mode))
        if mode == "independent":
            col = _with_short_task(col)
        with pytest.raises(ConfigError) as info:
            config(col, split=split, stage1_scope=TrainingScope.FULL_TASK)
        assert str(info.value) == message

    @pytest.mark.parametrize("case", ["independent_kfold", "shared_holdout", "stage1_loss"])
    def test_every_score_uses_the_config_plan(self, case):
        col = toy_collection()
        specs = dict(transformer_spec=RIDGE, final_spec=RIDGE)
        if case == "shared_holdout":
            col = toy_collection(mode=CollectionMode.SHARED_EXAMPLES)
            specs["split"] = SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3)
        elif case == "stage1_loss":
            # ridge_cv's internal 10-fold CV cannot run on the 8-row task
            col = _with_short_task(col)
            specs["transformer_spec"] = LearnerSpec.ridge_cv((1.0, 10.0), k=10)
        cfg = config(col, **specs)
        result = run_pipeline(cfg)
        assert [(f.task_id, f.stage) for f in result.failures] == (
            [("short", "stage1")] if case == "stage1_loss" else [])
        assert {r.task_id for r in result.results} == set(toy_collection().task_ids)
        for r in result.results:
            assert r.plan_digest == cfg.plans[r.task_id].digest
        digests = {plan.digest for plan in cfg.plans.values()}
        assert len(digests) == (1 if case == "shared_holdout" else col.n_tasks)

    @pytest.mark.parametrize("scope", list(TrainingScope), ids=lambda s: s.value)
    @pytest.mark.parametrize("mode", list(CollectionMode), ids=lambda m: m.value)
    def test_training_rows_are_the_stage1_rows(self, mode, scope):
        col = toy_collection(mode=mode)
        cfg = config(col, transformer_spec=RIDGE, final_spec=RIDGE, stage1_scope=scope,
                     split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3))
        result = run_pipeline(cfg)
        for task in col.tasks:
            rows = cfg.training_rows(task)
            assert len(rows) == (30 if scope is TrainingScope.FULL_TASK else 21)
            ids = tuple(task.example_ids[i] for i in rows)
            assert (result.bank_fingerprints[task.task_id]
                    == TrainFingerprint(task.task_id, ids).digest)


def _spy(monkeypatch, name):
    """Count the calls run_pipeline makes to ``pipeline.<name>``."""
    calls = []
    def counted(*args, _fn=getattr(pipeline, name), **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(pipeline, name, counted)
    return calls


class TestSharedExamplesProtocol:
    def test_holdout_no_leakage(self, shared_collection, monkeypatch):
        cfg = PipelineConfig(collection=shared_collection, transformer_spec=RIDGE,
                             final_spec=RIDGE,
                             split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3),
                             seed=5)
        assert cfg.resolved_scope is TrainingScope.TRAIN_SPLIT_ONLY
        audits = _spy(monkeypatch, "audit_no_leakage")
        result = run_pipeline(cfg)
        assert len(audits) == 1
        assert "leakage audit: clean" in render_report(result).splitlines()
        assert len([r for r in result.results
                    if r.representation.order == 0]) == 4

    def test_kfold_with_split_scope_rejected(self, shared_collection):
        with pytest.raises(ConfigError, match="holdout"):
            PipelineConfig(collection=shared_collection, transformer_spec=RIDGE,
                           final_spec=RIDGE,
                           split=SplitProtocol(SplitKind.KFOLD, k=3), seed=5)

    def test_kfold_allowed_with_full_task_scope(self, shared_collection):
        cfg = PipelineConfig(collection=shared_collection, transformer_spec=RIDGE,
                             final_spec=RIDGE,
                             split=SplitProtocol(SplitKind.KFOLD, k=4), seed=5,
                             stage1_scope=TrainingScope.FULL_TASK)
        result = run_pipeline(cfg)
        assert len(result.results) == 8


class TestPredictionBlocks:
    """One cross-prediction block for a shared-examples collection, whose
    tasks hold equal rows; an independent task's block is predicted in each
    pass that reads it and dropped after, so one block at most is alive."""

    def test_one_block_for_a_shared_collection(self, shared_collection, monkeypatch):
        calls = _spy(monkeypatch, "cross_predict")
        run_pipeline(config(shared_collection, transformer_spec=RIDGE, final_spec=RIDGE,
                            split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3),
                            order=2))
        assert len(calls) == 1

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_block_per_independent_task(self, order, monkeypatch):
        """One call per task at order 1; at order 2 the pass that builds the
        order-2 views predicts every task's rows again, in task order."""
        col = toy_collection()
        calls = _spy(monkeypatch, "cross_predict")
        run_pipeline(config(col, transformer_spec=RIDGE, final_spec=RIDGE, order=order))
        assert [id(X) for _, X in calls] == [id(t.features) for t in col.tasks] * order

    @pytest.mark.parametrize("order", [1, 2])
    def test_at_most_one_earlier_block_alive(self, order, monkeypatch):
        col = toy_collection(n_tasks=5)
        alive, blocks = [], []
        def tracked(bank, X, _fn=pipeline.cross_predict):
            alive.append(sum(ref() is not None for ref in blocks))
            block = _fn(bank, X)
            blocks.append(weakref.ref(block))
            return block
        monkeypatch.setattr(pipeline, "cross_predict", tracked)
        run_pipeline(config(col, transformer_spec=RIDGE, final_spec=RIDGE, order=order))
        assert len(alive) == col.n_tasks * order
        assert max(alive) <= 1


class TestLeakageAuditLine:
    def test_independent_train_split_only_is_not_audited(self, monkeypatch):
        """Independent tasks may share example ids, so no id audit runs and
        the report does not claim one."""
        calls = _spy(monkeypatch, "audit_no_leakage")
        result = run_pipeline(config(toy_collection(), transformer_spec=RIDGE,
                                     final_spec=RIDGE,
                                     split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3),
                                     stage1_scope=TrainingScope.TRAIN_SPLIT_ONLY))
        assert calls == []
        lines = render_report(result).splitlines()
        assert "leakage audit: not applicable (independent examples)" in lines
        assert "leakage audit: clean" not in lines

    def test_full_task_scope_is_not_audited(self, shared_collection, monkeypatch):
        calls = _spy(monkeypatch, "audit_no_leakage")
        result = run_pipeline(config(shared_collection, transformer_spec=RIDGE,
                                     final_spec=RIDGE, stage1_scope=TrainingScope.FULL_TASK))
        assert calls == []
        assert ("leakage audit: not applicable (full-task stage-1 scope)"
                in render_report(result).splitlines())


class TestStage1Reuse:
    """A train-split-only run with one seedless learner at both stages scores
    each task's intrinsic baseline with its stage-1 model instead of a refit,
    and at order 2 its transformed fold with its stage-2 model, unless
    augmentation widens that fold."""

    # golden case -> whether its intrinsic baseline reuses the stage-1 models,
    # whether its order-1 transformed fold reuses the stage-2 models
    REUSES = {
        "holdout_shared_svr": (True, False),
        "holdout_shared_order2_svr": (True, True),
        "holdout_independent_ridge": (True, False),
        "shared_order2_ridge": (True, True),
        "holdout_augment_order2_ridge": (True, False),
        "holdout_shared_svr_other_c": (False, False),
        "holdout_shared_forest": (False, False),
        "cap_order2_forest": (False, False),
        "augment_order2_svr": (False, False),
    }

    @pytest.mark.parametrize("name", sorted(REUSES))
    def test_one_fit_fewer_per_task_on_the_reuse_path(self, name, monkeypatch):
        calls = []
        for module in (engine, evaluation):
            def counted(*args, _fit=module.fit_learner, **kwargs):
                calls.append(args)
                return _fit(*args, **kwargs)
            monkeypatch.setattr(module, "fit_learner", counted)
        cfg = PipelineConfig(seed=13, **GOLDEN_CASES[name][0])
        result = run_pipeline(cfg)

        t = cfg.collection.n_tasks
        folds = cfg.split.k if cfg.split.kind is SplitKind.KFOLD else 1
        # stage 1 (and stage 2 at order 2), then every fold of every representation
        refits = t * cfg.order + t * folds * (1 + cfg.order)
        stage1, stage2 = (t * reuses for reuses in self.REUSES[name])
        assert len(calls) == refits - stage1 - stage2
        assert (result.reused_stage1, result.reused_stage2) == (stage1, stage2)
        report = render_report(result)
        assert f"intrinsic baseline scored with the stage-1 model: {stage1} tasks" in report
        assert (f"transformed representation scored with the stage-2 model: {stage2} tasks"
                in report)

    @pytest.mark.parametrize("mode", [CollectionMode.INDEPENDENT_EXAMPLES,
                                      CollectionMode.SHARED_EXAMPLES])
    def test_kfold_full_task_refits_every_fold(self, mode, monkeypatch):
        """A full-task stage-1 model holds every row, so no fold's train side
        matches it, even with the same seedless learner at both stages."""
        calls = []
        for module in (engine, evaluation):
            def counted(*args, _fit=module.fit_learner, **kwargs):
                calls.append(args)
                return _fit(*args, **kwargs)
            monkeypatch.setattr(module, "fit_learner", counted)
        cfg = config(toy_collection(mode=mode), transformer_spec=RIDGE, final_spec=RIDGE,
                     stage1_scope=TrainingScope.FULL_TASK)
        result = run_pipeline(cfg)

        t, folds = cfg.collection.n_tasks, cfg.split.k
        assert len(calls) == t + t * folds * 2
        assert result.reused_stage1 == 0
        assert "intrinsic baseline scored with the stage-1 model: 0 tasks" in render_report(result)


class TestResultFiles:
    def test_written_files_and_manifest_echo(self, tmp_path):
        result = run_pipeline(config(toy_collection(), transformer_spec=RIDGE,
                                     final_spec=RIDGE))
        out = write_result(result, tmp_path / "run")
        for name in ("scores.tsv", "comparison.tsv", "result.txt", "run_manifest.json"):
            assert (out / name).is_file()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        report = (out / "result.txt").read_text()
        assert "Original rep." in report
        assert "fingerprints" in report

    def test_manifest_records_the_environment(self, tmp_path):
        result = run_pipeline(config(toy_collection(), transformer_spec=RIDGE,
                                     final_spec=RIDGE))
        before = dict(os.environ)
        out = write_result(result, tmp_path / "run")
        record = json.loads((out / "run_manifest.json").read_text())["environment"]
        assert set(record) == {"numpy", "blas", "blas_threads", "cpu_count"}
        assert set(record["blas"]) == {"name", "version"}
        assert record["numpy"] == np.__version__
        assert record["cpu_count"] == os.cpu_count()
        assert record["blas_threads"] is None or record["blas_threads"] >= 1
        assert dict(os.environ) == before  # read, never set

    def test_blas_thread_count_is_read_from_the_loaded_library(self):
        code = ("import json; from crossrep.environment import environment_record; "
                "print(json.dumps(environment_record()))")
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        record = json.loads(out)
        if record["blas_threads"] is None:
            pytest.skip("no OpenBLAS thread count readable in this process")
        assert record["blas_threads"] == 1

    def test_scores_sorted_and_parseable(self, tmp_path):
        result = run_pipeline(config(toy_collection(), transformer_spec=RIDGE,
                                     final_spec=RIDGE))
        lines = scores_tsv(result).splitlines()
        header = lines[0].split("\t")
        assert header[0] == "task_id"
        body = [ln.split("\t") for ln in lines[1:]]
        assert body == sorted(body, key=lambda r: (r[0], r[1], int(r[3]), r[2]))
        for row in body:
            float(row[5])  # mean rmse parses
