import numpy as np
import pytest

from crossrep.data import CollectionMode
from crossrep.engine import build_extrinsic, cross_predict, stage1_train
from crossrep.errors import ValidationError
from crossrep.learners import LearnerSpec
from crossrep.synth import Nonlinearity, SynthSpec, generate_collection

from helpers import oracle_extrinsic


def spec(**overrides):
    base = dict(n_tasks=4, n_examples_per_task=50, n_features=6, relatedness=0.8,
                nonlinearity=Nonlinearity.NONLINEAR, noise_sd=0.1, seed=7,
                mode=CollectionMode.INDEPENDENT_EXAMPLES)
    base.update(overrides)
    return SynthSpec(**base)


def pairwise_correlations(collection):
    ys = np.column_stack([t.targets for t in collection.tasks])
    corr = np.corrcoef(ys.T)
    iu = np.triu_indices(len(collection.tasks), k=1)
    return corr[iu]


class TestGenerateCollection:
    def test_full_relatedness_identical_targets_on_shared_x(self):
        col = generate_collection(spec(relatedness=1.0, noise_sd=0.0,
                                       mode=CollectionMode.SHARED_EXAMPLES))
        base = col.tasks[0].targets
        for task in col.tasks[1:]:
            assert np.array_equal(task.targets, base)

    def test_zero_relatedness_decorrelates_targets(self):
        # wide feature space keeps independently drawn latent functions
        # near-orthogonal; threshold is seed-specific at 200 examples
        col = generate_collection(spec(n_tasks=6, n_examples_per_task=200,
                                       n_features=60, relatedness=0.0, noise_sd=0.0,
                                       mode=CollectionMode.SHARED_EXAMPLES, seed=11))
        corr = pairwise_correlations(col)
        assert np.max(np.abs(corr)) < 0.15
        assert np.mean(np.abs(corr)) < 0.08

    def test_relatedness_monotone_in_mean_correlation(self):
        means = []
        for r in (0.0, 0.5, 1.0):
            col = generate_collection(spec(n_tasks=5, n_examples_per_task=150,
                                           relatedness=r, noise_sd=0.05,
                                           mode=CollectionMode.SHARED_EXAMPLES, seed=4))
            means.append(float(np.mean(pairwise_correlations(col))))
        assert means[0] <= means[1] <= means[2]

    def test_determinism(self):
        a = generate_collection(spec())
        b = generate_collection(spec())
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.features, tb.features)
            assert np.array_equal(ta.targets, tb.targets)

    def test_noise_sd_does_not_touch_features(self):
        a = generate_collection(spec(noise_sd=0.0))
        b = generate_collection(spec(noise_sd=5.0))
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.features, tb.features)
            assert not np.array_equal(ta.targets, tb.targets)

    def test_shared_mode_rows_are_shared(self):
        col = generate_collection(spec(mode=CollectionMode.SHARED_EXAMPLES))
        base = col.tasks[0]
        for task in col.tasks[1:]:
            assert np.array_equal(task.features, base.features)
            assert task.example_ids == base.example_ids

    @pytest.mark.parametrize("mode", list(CollectionMode))
    def test_every_task_holds_one_id_tuple(self, mode):
        col = generate_collection(spec(mode=mode))
        assert all(task.example_ids is col.tasks[0].example_ids for task in col.tasks)

    def test_linear_mode(self):
        col = generate_collection(spec(nonlinearity=Nonlinearity.LINEAR,
                                       relatedness=1.0, noise_sd=0.0))
        # a single linear fit should capture a linear latent function
        from crossrep.learners import fit_ridge, predict
        task = col.tasks[0]
        model = fit_ridge(task.features, task.targets, 0.001)
        pred = predict(model, task.features)
        assert np.sqrt(np.mean((pred - task.targets) ** 2)) < 0.05

    def test_degenerate_specs_rejected(self):
        with pytest.raises(ValidationError):
            spec(n_tasks=1)
        with pytest.raises(ValidationError):
            spec(n_features=0)
        with pytest.raises(ValidationError):
            spec(relatedness=1.5)


class TestOracleExtrinsic:
    @pytest.mark.parametrize("learner", [
        LearnerSpec.ridge(5.0),
        LearnerSpec.forest(n_trees=5, seed=2),
        LearnerSpec.svr(c=2.0, epsilon=0.05, sigma=0.3),
    ])
    def test_matches_engine(self, learner):
        col = generate_collection(spec(n_tasks=4, n_examples_per_task=10))
        bank = stage1_train(col, learner)
        for task in col.tasks:
            engine = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
            oracle = oracle_extrinsic(col, bank, task.task_id)
            assert np.array_equal(engine.values, oracle)

    def test_two_task_collection_single_column(self):
        col = generate_collection(spec(n_tasks=2))
        bank = stage1_train(col, LearnerSpec.ridge(5.0))
        oracle = oracle_extrinsic(col, bank, col.tasks[0].task_id)
        assert oracle.shape == (50, 1)

    def test_unknown_task_id(self):
        col = generate_collection(spec())
        bank = stage1_train(col, LearnerSpec.ridge(5.0))
        with pytest.raises(ValidationError, match="unknown task"):
            oracle_extrinsic(col, bank, "missing")
