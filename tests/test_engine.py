import json

import numpy as np
import pytest

from crossrep.data import CollectionMode, make_fold_plan, make_holdout_plan
from crossrep.engine import (ExtrinsicMatrix, audit_no_leakage, build_extrinsic, cross_predict,
                             load_bank, save_bank, second_order_extrinsic, select_descriptors,
                             stage1_train, stage2_train)
from crossrep.errors import FitError, IngestionError, ValidationError
from crossrep.evaluation import rmse
from crossrep.learners import LearnerSpec, fit_learner, predict
from crossrep.seeding import derive_seed
from crossrep.synth import Nonlinearity, SynthSpec, generate_collection

from helpers import oracle_extrinsic


RIDGE = LearnerSpec.ridge(5.0, seed=0)


class TestStage1:
    def test_one_model_per_task(self, small_collection):
        bank = stage1_train(small_collection, RIDGE)
        assert bank.task_ids == small_collection.task_ids
        assert len(bank.models) == 3

    def test_full_task_fingerprints_cover_all_rows(self, small_collection):
        bank = stage1_train(small_collection, RIDGE)
        for task in small_collection.tasks:
            fp = bank.models[task.task_id].train_fingerprint
            assert fp.row_ids == task.example_ids

    def test_train_split_only_covers_train_rows(self, shared_collection):
        plan = make_holdout_plan(20, 0.3, seed=2)
        train, test = plan.split(0)
        bank = stage1_train(shared_collection, RIDGE,
                            {t: train for t in shared_collection.task_ids})
        expected = tuple(shared_collection.tasks[0].example_ids[i] for i in train)
        for model in bank.models.values():
            assert model.train_fingerprint.row_ids == expected
        assert not audit_no_leakage(
            bank, [shared_collection.tasks[0].example_ids[i] for i in test])

    @pytest.mark.parametrize("spec", [RIDGE, LearnerSpec.svr(), LearnerSpec.forest(n_trees=3)])
    def test_one_bank_per_fold_trains_on_the_fold_rows(self, shared_collection, spec):
        """Each fold's bank trains every model on exactly that fold's train
        rows, and predicts as ``fit_learner`` on those rows, bit for bit."""
        plan = make_fold_plan(20, 4, seed=3)
        X = shared_collection.tasks[0].features
        for f in range(plan.n_splits):
            train, _ = plan.split(f)
            bank = stage1_train(shared_collection, spec,
                                {t: train for t in shared_collection.task_ids})
            for task in shared_collection.tasks:
                model = bank.models[task.task_id]
                ids = tuple(task.example_ids[i] for i in train)
                assert model.train_fingerprint.row_ids == ids
                alone = fit_learner(spec, task.features[train], task.targets[train],
                                    seed=derive_seed(spec.seed, "stage1", task.task_id))
                assert np.array_equal(predict(model, X), predict(alone, X))

    def test_rerun_is_identical(self, small_collection):
        spec = LearnerSpec.forest(n_trees=5, seed=3)
        a = stage1_train(small_collection, spec)
        b = stage1_train(small_collection, spec)
        X = small_collection.tasks[0].features
        for tid in a.task_ids:
            assert a.models[tid].train_fingerprint.digest == b.models[tid].train_fingerprint.digest
            assert np.array_equal(predict(a.models[tid], X), predict(b.models[tid], X))

    def test_failing_task_aborts_with_id(self):
        from conftest import make_task
        from crossrep.data import TaskCollection
        good = make_task("ok", n=8)
        tiny = make_task("tiny", n=8)
        col = TaskCollection([good, tiny], CollectionMode.INDEPENDENT_EXAMPLES, "c")
        bad_spec = LearnerSpec.svr(c=-1.0)  # invalid C triggers a fit error
        with pytest.raises(FitError, match="'ok'|'tiny'"):
            stage1_train(col, bad_spec)


class TestBuildExtrinsic:
    def test_width_is_n_minus_one(self, small_collection):
        bank = stage1_train(small_collection, RIDGE)
        task = small_collection.tasks[0]
        ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
        assert ext.n_columns == small_collection.n_tasks - 1
        assert task.task_id not in ext.source_model_ids

    def test_matches_oracle_exactly(self, small_collection):
        bank = stage1_train(small_collection, RIDGE)
        for task in small_collection.tasks:
            ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
            oracle = oracle_extrinsic(small_collection, bank, task.task_id)
            assert np.array_equal(ext.values, oracle)

    def test_unknown_task(self, small_collection):
        bank = stage1_train(small_collection, RIDGE)
        with pytest.raises(ValidationError, match="unknown task"):
            build_extrinsic("nope", bank,
                            cross_predict(bank, small_collection.tasks[0].features))

    def test_leave_own_task_out_type_invariant(self):
        with pytest.raises(ValidationError, match="leave-own-task-out"):
            ExtrinsicMatrix(values=np.ones((2, 2)), source_model_ids=("a", "b"),
                            target_task_id="a")


class TestSelectDescriptors:
    def _ext(self, n_cols=10, n_rows=4):
        return ExtrinsicMatrix(values=np.arange(n_rows * n_cols, dtype=float)
                               .reshape(n_rows, n_cols),
                               source_model_ids=tuple(f"s{i}" for i in range(n_cols)),
                               target_task_id="t")

    def test_subsample_preserves_relative_order(self):
        ext = self._ext(10)
        capped = select_descriptors(ext, 4, seed=1)
        assert capped.n_columns == 4
        positions = [ext.source_model_ids.index(s) for s in capped.source_model_ids]
        assert positions == sorted(positions)
        for out_col, src in enumerate(capped.source_model_ids):
            in_col = ext.source_model_ids.index(src)
            assert np.array_equal(capped.values[:, out_col], ext.values[:, in_col])

    def test_cap_equal_to_width_is_identity(self):
        ext = self._ext(6)
        assert select_descriptors(ext, 6, seed=0) is ext

    def test_cap_above_width_is_identity(self):
        ext = self._ext(6)
        assert select_descriptors(ext, 99, seed=0) is ext

    def test_determinism(self):
        ext = self._ext(20)
        a = select_descriptors(ext, 7, seed=5)
        b = select_descriptors(ext, 7, seed=5)
        assert a.source_model_ids == b.source_model_ids

    def test_zero_cap_rejected(self):
        with pytest.raises(ValidationError, match="at least 1"):
            select_descriptors(self._ext(5), 0, seed=0)


class TestStage2:
    def test_perfect_predictor_column(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=30)
        ext = ExtrinsicMatrix(values=y.reshape(-1, 1), source_model_ids=("other",),
                              target_task_id="me")
        model = stage2_train(ext, y, LearnerSpec.ridge(0.0))
        pred = predict(model, ext.values)
        assert rmse(pred, y) < 1e-6

    def test_forest_range_bound_inherited(self):
        rng = np.random.default_rng(1)
        ext = ExtrinsicMatrix(values=rng.normal(size=(40, 3)),
                              source_model_ids=("a", "b", "c"), target_task_id="me")
        y = rng.normal(size=40)
        model = stage2_train(ext, y, LearnerSpec.forest(n_trees=10, seed=2))
        pred = predict(model, rng.normal(size=(100, 3)) * 5)
        assert pred.min() >= y.min() and pred.max() <= y.max()

    def test_feature_count_matches_capped_width(self):
        rng = np.random.default_rng(2)
        ext = ExtrinsicMatrix(values=rng.normal(size=(20, 8)),
                              source_model_ids=tuple(f"s{i}" for i in range(8)),
                              target_task_id="me")
        capped = select_descriptors(ext, 5, seed=0)
        model = stage2_train(capped, rng.normal(size=20), LearnerSpec.ridge(1.0))
        assert model.feature_count == 5

    def test_row_mismatch(self):
        ext = ExtrinsicMatrix(values=np.ones((4, 2)), source_model_ids=("a", "b"),
                              target_task_id="me")
        with pytest.raises(FitError, match="rows"):
            stage2_train(ext, np.ones(5), LearnerSpec.ridge(1.0))


class TestSecondOrder:
    @pytest.fixture
    def setup(self):
        spec = SynthSpec(n_tasks=3, n_examples_per_task=12, n_features=4,
                         relatedness=0.7, nonlinearity=Nonlinearity.LINEAR,
                         noise_sd=0.05, seed=11)
        col = generate_collection(spec)
        bank = stage1_train(col, RIDGE)
        stage2_models, stage2_columns = {}, {}
        for task in col.tasks:
            ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
            stage2_models[task.task_id] = stage2_train(ext, task.targets,
                                                       LearnerSpec.ridge(2.0))
            stage2_columns[task.task_id] = bank.columns(ext.source_model_ids)
        return col, bank, stage2_models, stage2_columns

    def test_width_law(self, setup):
        col, bank, models, columns = setup
        for task in col.tasks:
            ext2 = second_order_extrinsic(task.task_id, bank, models, columns,
                                          cross_predict(bank, task.features))
            assert ext2.n_columns == col.n_tasks - 1

    def test_matches_manual_chaining(self, setup):
        col, bank, models, columns = setup
        target = col.tasks[0]
        ext2 = second_order_extrinsic(target.task_id, bank, models, columns,
                                      cross_predict(bank, target.features))
        for j, src in enumerate(ext2.source_model_ids):
            sources = [t for t in bank.task_ids if t != src]
            view_cols = [predict(bank.models[s], target.features)
                         for s in sources]
            view = np.column_stack(view_cols)
            expected = predict(models[src], view)
            assert np.array_equal(ext2.values[:, j], expected)

    def test_task_without_stage2_model_gets_no_column(self, setup):
        col, bank, models, columns = setup
        target, dropped, kept = col.task_ids
        block = cross_predict(bank, col.tasks[0].features)
        full = second_order_extrinsic(target, bank, models, columns, block)
        without = {t: m for t, m in models.items() if t != dropped}
        ext2 = second_order_extrinsic(target, bank, without, columns, block)
        assert ext2.source_model_ids == (kept,)
        assert np.array_equal(ext2.values[:, 0], full.values[:, 1])


class TestBankPersistence:
    def test_save_load_roundtrip(self, tmp_path, small_collection):
        bank = stage1_train(small_collection, LearnerSpec.forest(n_trees=4, seed=1))
        save_bank(bank, tmp_path / "bank")
        loaded = load_bank(tmp_path / "bank")
        assert loaded.task_ids == bank.task_ids
        assert loaded.collection_id == bank.collection_id
        X = small_collection.tasks[1].features
        for tid in bank.task_ids:
            assert np.array_equal(predict(bank.models[tid], X),
                                  predict(loaded.models[tid], X))

    def test_task_id_that_is_not_a_file_name_is_refused_before_writing(self, tmp_path):
        from conftest import make_task
        from crossrep.data import TaskCollection
        col = TaskCollection([make_task("ok"), make_task("../escaped")],
                             CollectionMode.INDEPENDENT_EXAMPLES, "c")
        bank = stage1_train(col, RIDGE)
        with pytest.raises(ValidationError, match="task '../escaped'"):
            save_bank(bank, tmp_path / "bank")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["parent", "absolute", "dotdot"])
    def test_models_entry_outside_the_bank_directory_is_refused(self, tmp_path,
                                                                small_collection, where):
        bank_dir = tmp_path / "bank"
        save_bank(stage1_train(small_collection, RIDGE), bank_dir)
        outside = tmp_path / "t1.model.json"
        outside.write_bytes((bank_dir / "t1.model.json").read_bytes())
        entry = {"parent": "../t1.model.json", "absolute": str(outside), "dotdot": ".."}[where]
        index_path = bank_dir / "bank_index.json"
        index = json.loads(index_path.read_text())
        index["models"]["t1"] = entry
        index_path.write_text(json.dumps(index))
        with pytest.raises(IngestionError) as info:
            dict(load_bank(bank_dir).models)
        assert str(info.value) == (
            f"{index_path}: 'task_order'[1] 't1' has 'models' entry {entry!r}, which is "
            f"not a file name in the bank directory")

    def test_truncated_archive_names_the_file(self, tmp_path, small_collection):
        bank = stage1_train(small_collection, RIDGE)
        save_bank(bank, tmp_path / "bank")
        archive = tmp_path / "bank" / "t1.model.json"
        archive.write_text(archive.read_text()[:40])
        loaded = load_bank(tmp_path / "bank")  # reads the index and t0's archive only
        with pytest.raises(IngestionError, match="t1.model.json"):
            dict(loaded.models)

    def test_feature_count_comes_from_the_models(self, tmp_path, small_collection):
        bank = stage1_train(small_collection, RIDGE)
        width = small_collection.tasks[0].features.shape[1]
        assert bank.feature_count == width
        save_bank(bank, tmp_path / "bank")
        assert load_bank(tmp_path / "bank").feature_count == width
        with pytest.raises(TypeError):
            type(bank)(bank.models, RIDGE, "c", feature_count=1)

    def test_audit_detects_leak(self, shared_collection):
        bank = stage1_train(shared_collection, RIDGE)
        heldout = shared_collection.tasks[0].example_ids[:5]
        violations = audit_no_leakage(bank, heldout)
        assert len(violations) == shared_collection.n_tasks


def test_build_extrinsic_propagates_model_failure(small_collection):
    bank = stage1_train(small_collection, RIDGE)
    wrong_width = np.ones((4, 7))  # models expect 3 columns
    with pytest.raises(FitError, match="source model"):
        build_extrinsic(small_collection.tasks[0].task_id, bank,
                        cross_predict(bank, wrong_width))


def test_select_descriptors_977_to_500():
    # the shared-examples protocol shape: 978 tasks leave 977 source
    # columns per task, capped to 500 descriptors
    rng = np.random.default_rng(0)
    ext = ExtrinsicMatrix(values=rng.normal(size=(3, 977)),
                          source_model_ids=tuple(f"g{i:03d}" for i in range(977)),
                          target_task_id="g977")
    capped = select_descriptors(ext, 500, seed=9)
    assert capped.n_columns == 500
    positions = [ext.source_model_ids.index(s) for s in capped.source_model_ids]
    assert positions == sorted(positions)


class TestNonFinitePredictions:
    """Standardizing a pool value of 1e308 overflows: a ridge prediction is
    then non-finite, while an SVR kernel value is exactly 0."""

    POOL = np.array([[1e308, 1.0], [0.5, 0.2]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ridge_overflow_is_returned_without_a_warning(self, narrow_collection):
        bank = stage1_train(narrow_collection, LearnerSpec.ridge(1.0))
        out = cross_predict(bank, self.POOL)
        assert np.isinf(out[0]).all()
        assert np.isfinite(out[1]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_svr_predicts_its_bias_infinitely_far_away(self, narrow_collection):
        bank = stage1_train(narrow_collection, LearnerSpec.svr())
        out = cross_predict(bank, self.POOL)
        assert list(out[0]) == [model.state.bias for model in bank.models.values()]
