import numpy as np
import pytest

from crossrep.data import CollectionMode, make_holdout_plan
from crossrep.engine import (ExtrinsicMatrix, TrainingScope,
                             audit_no_leakage, build_extrinsic, cross_predict, load_bank,
                             save_bank, second_order_extrinsic, select_descriptors,
                             stage1_train, stage2_train)
from crossrep.errors import FitError, IngestionError, ValidationError
from crossrep.evaluation import rmse
from crossrep.learners import LearnerSpec, predict
from crossrep.synth import Nonlinearity, SynthSpec, generate_collection

from helpers import oracle_extrinsic


RIDGE = LearnerSpec.ridge(5.0, seed=0)


class TestStage1:
    def test_one_model_per_task(self, small_collection):
        bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
        assert bank.task_ids == small_collection.task_ids
        assert len(bank.models) == 3

    def test_full_task_fingerprints_cover_all_rows(self, small_collection):
        bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
        for task in small_collection.tasks:
            fp = bank.models[task.task_id].train_fingerprint
            assert fp.row_ids == task.example_ids

    def test_train_split_only_covers_train_rows(self, shared_collection):
        plan = make_holdout_plan(20, 0.3, seed=2)
        plans = {t: plan for t in shared_collection.task_ids}
        bank = stage1_train(shared_collection, RIDGE, TrainingScope.TRAIN_SPLIT_ONLY,
                            split_plans=plans)
        train, test = plan.split(0)
        expected = tuple(shared_collection.tasks[0].example_ids[i] for i in train)
        for model in bank.models.values():
            assert model.train_fingerprint.row_ids == expected
        assert not audit_no_leakage(
            bank, [shared_collection.tasks[0].example_ids[i] for i in test])

    def test_shared_mode_requires_single_plan(self, shared_collection):
        plans = {t: make_holdout_plan(20, 0.3, seed=i)
                 for i, t in enumerate(shared_collection.task_ids)}
        with pytest.raises(ValidationError, match="one split plan"):
            stage1_train(shared_collection, RIDGE, TrainingScope.TRAIN_SPLIT_ONLY,
                         split_plans=plans)

    def test_rerun_is_identical(self, small_collection):
        spec = LearnerSpec.forest(n_trees=5, seed=3)
        a = stage1_train(small_collection, spec, TrainingScope.FULL_TASK)
        b = stage1_train(small_collection, spec, TrainingScope.FULL_TASK)
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
            stage1_train(col, bad_spec, TrainingScope.FULL_TASK)


class TestBuildExtrinsic:
    def test_width_is_n_minus_one(self, small_collection):
        bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
        task = small_collection.tasks[0]
        ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
        assert ext.n_columns == small_collection.n_tasks - 1
        assert task.task_id not in ext.source_model_ids

    def test_matches_oracle_exactly(self, small_collection):
        bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
        for task in small_collection.tasks:
            ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
            oracle = oracle_extrinsic(small_collection, bank, task.task_id)
            assert np.array_equal(ext.values, oracle)

    def test_unknown_task(self, small_collection):
        bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
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
        bank = stage1_train(col, RIDGE, TrainingScope.FULL_TASK)
        stage2_models, stage2_sources = {}, {}
        for task in col.tasks:
            ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
            stage2_models[task.task_id] = stage2_train(ext, task.targets,
                                                       LearnerSpec.ridge(2.0))
            stage2_sources[task.task_id] = ext.source_model_ids
        return col, bank, stage2_models, stage2_sources

    def test_width_law(self, setup):
        col, bank, models, sources = setup
        for task in col.tasks:
            ext2 = second_order_extrinsic(task.task_id, bank, models, sources,
                                          cross_predict(bank, task.features))
            assert ext2.n_columns == col.n_tasks - 1

    def test_matches_manual_chaining(self, setup):
        col, bank, models, sources = setup
        target = col.tasks[0]
        ext2 = second_order_extrinsic(target.task_id, bank, models, sources,
                                      cross_predict(bank, target.features))
        for j, src in enumerate(ext2.source_model_ids):
            view_cols = [predict(bank.models[s], target.features)
                         for s in sources[src]]
            view = np.column_stack(view_cols)
            expected = predict(models[src], view)
            assert np.array_equal(ext2.values[:, j], expected)

    def test_task_without_stage2_model_gets_no_column(self, setup):
        col, bank, models, sources = setup
        target, dropped, kept = col.task_ids
        block = cross_predict(bank, col.tasks[0].features)
        full = second_order_extrinsic(target, bank, models, sources, block)
        without = {t: m for t, m in models.items() if t != dropped}
        ext2 = second_order_extrinsic(target, bank, without, sources, block)
        assert ext2.source_model_ids == (kept,)
        assert np.array_equal(ext2.values[:, 0], full.values[:, 1])


class TestBankPersistence:
    def test_save_load_roundtrip(self, tmp_path, small_collection):
        bank = stage1_train(small_collection, LearnerSpec.forest(n_trees=4, seed=1),
                            TrainingScope.FULL_TASK)
        save_bank(bank, tmp_path / "bank")
        loaded = load_bank(tmp_path / "bank")
        assert loaded.task_ids == bank.task_ids
        assert loaded.collection_id == bank.collection_id
        X = small_collection.tasks[1].features
        for tid in bank.task_ids:
            assert np.array_equal(predict(bank.models[tid], X),
                                  predict(loaded.models[tid], X))

    def test_truncated_archive_names_the_file(self, tmp_path, small_collection):
        bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
        save_bank(bank, tmp_path / "bank")
        archive = tmp_path / "bank" / "t1.model.json"
        archive.write_text(archive.read_text()[:40])
        loaded = load_bank(tmp_path / "bank")  # reads the index and t0's archive only
        with pytest.raises(IngestionError, match="t1.model.json"):
            dict(loaded.models)

    def test_feature_count_comes_from_the_models(self, tmp_path, small_collection):
        bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
        width = small_collection.tasks[0].features.shape[1]
        assert bank.feature_count == width
        save_bank(bank, tmp_path / "bank")
        assert load_bank(tmp_path / "bank").feature_count == width
        with pytest.raises(TypeError):
            type(bank)(bank.models, RIDGE, "c", TrainingScope.FULL_TASK, feature_count=1)

    def test_audit_detects_leak(self, shared_collection):
        bank = stage1_train(shared_collection, RIDGE, TrainingScope.FULL_TASK)
        heldout = shared_collection.tasks[0].example_ids[:5]
        violations = audit_no_leakage(bank, heldout)
        assert len(violations) == shared_collection.n_tasks


def test_build_extrinsic_propagates_model_failure(small_collection):
    bank = stage1_train(small_collection, RIDGE, TrainingScope.FULL_TASK)
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
        bank = stage1_train(narrow_collection, LearnerSpec.ridge(1.0), TrainingScope.FULL_TASK)
        out = cross_predict(bank, self.POOL)
        assert np.isinf(out[0]).all()
        assert np.isfinite(out[1]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_svr_predicts_its_bias_infinitely_far_away(self, narrow_collection):
        bank = stage1_train(narrow_collection, LearnerSpec.svr(), TrainingScope.FULL_TASK)
        out = cross_predict(bank, self.POOL)
        assert list(out[0]) == [model.state.bias for model in bank.models.values()]
