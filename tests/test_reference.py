"""``run_pipeline`` against the naive reference pipeline, byte for byte.

The reference (``reference.py``) fits every fold and every model itself,
so equal tables also show that each model ``run_pipeline`` reuses (a
fold's own stage-1 or stage-2 fit) and each block it shares or stacks
gives the bits of the plain refit.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrep.data import CollectionMode, SplitKind, TaskCollection, normalize_targets
from crossrep.evaluation import comparison_tsv
from crossrep.learners import LearnerSpec
from crossrep.pipeline import PipelineConfig, SplitProtocol, TrainingScope, run_pipeline, scores_tsv
from crossrep.synth import SynthSpec, generate_collection

from reference import reference_result

RIDGE = LearnerSpec.ridge(3.0)
FOREST = LearnerSpec.forest(n_trees=5, seed=4)
SVR = LearnerSpec.svr(c=2.0, epsilon=0.05, sigma=0.3)


def collection(seed, mode=CollectionMode.INDEPENDENT_EXAMPLES):
    return generate_collection(SynthSpec(n_tasks=6, n_examples_per_task=28, n_features=4,
                                         relatedness=0.8, seed=seed, mode=mode))


CASES = {
    "ridge_ridge_kfold5_order2": dict(
        collection=collection(1), transformer_spec=RIDGE, final_spec=RIDGE,
        split=SplitProtocol(SplitKind.KFOLD, k=5), order=2),
    "forest_svr_kfold3_cap3": dict(
        collection=collection(2), transformer_spec=FOREST, final_spec=SVR,
        split=SplitProtocol(SplitKind.KFOLD, k=3), descriptor_cap=3),
    "svr_ridge_shared_holdout_order2_augment": dict(
        collection=collection(3, CollectionMode.SHARED_EXAMPLES), transformer_spec=SVR,
        final_spec=RIDGE, split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3),
        order=2, augment=True),
    "ridge_forest_kfold4_order2_cap4": dict(
        collection=collection(4), transformer_spec=RIDGE, final_spec=FOREST,
        split=SplitProtocol(SplitKind.KFOLD, k=4), order=2, descriptor_cap=4),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_pipeline_scores_as_the_reference_does(name):
    config = PipelineConfig(seed=7, **CASES[name])
    result, expected = run_pipeline(config), reference_result(config)
    assert not result.failures
    assert scores_tsv(result) == scores_tsv(expected)
    assert comparison_tsv(result.table) == comparison_tsv(expected.table)


LEARNERS = {
    "ridge": LearnerSpec.ridge(3.0),
    "ridge_cv": LearnerSpec.ridge_cv(lambda_grid=(0.1, 10.0), k=3, seed=5),
    "forest": LearnerSpec.forest(n_trees=3, seed=4),
    "svr": LearnerSpec.svr(c=2.0, epsilon=0.05, sigma=0.3),
}


@st.composite
def configs(draw):
    """A small config: either mode and split kind, each stage-1 scope the
    split allows, order 1 or 2, an optional cap, ``augment`` and
    ``normalize``, and any learner kind at either stage."""
    mode = draw(st.sampled_from(list(CollectionMode)))
    kfold = draw(st.booleans())
    if kfold:
        scopes = [TrainingScope.FULL_TASK]
        if mode is CollectionMode.INDEPENDENT_EXAMPLES:
            scopes.append(None)
    else:
        scopes = [None, TrainingScope.FULL_TASK, TrainingScope.TRAIN_SPLIT_ONLY]
    return dict(
        seed=draw(st.integers(0, 50)), mode=mode,
        split=SplitProtocol(SplitKind.KFOLD, k=draw(st.integers(2, 3))) if kfold
        else SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3),
        stage1_scope=draw(st.sampled_from(scopes)), order=draw(st.integers(1, 2)),
        descriptor_cap=draw(st.none() | st.integers(1, 3)), augment=draw(st.booleans()),
        normalize=draw(st.booleans()), transformer=draw(st.sampled_from(sorted(LEARNERS))),
        final=draw(st.sampled_from(sorted(LEARNERS))))


CORNERS = [
    dict(seed=1, mode=CollectionMode.SHARED_EXAMPLES, split=SplitProtocol(SplitKind.KFOLD, k=3),
         stage1_scope=TrainingScope.FULL_TASK, order=2, descriptor_cap=2, augment=True,
         normalize=True, transformer="ridge_cv", final="forest"),
    dict(seed=2, mode=CollectionMode.INDEPENDENT_EXAMPLES,
         split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3),
         stage1_scope=TrainingScope.TRAIN_SPLIT_ONLY, order=2, descriptor_cap=None,
         augment=False, normalize=False, transformer="svr", final="ridge_cv"),
    dict(seed=3, mode=CollectionMode.SHARED_EXAMPLES,
         split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3), stage1_scope=None,
         order=1, descriptor_cap=3, augment=True, normalize=True, transformer="forest",
         final="svr"),
]


@given(config=configs())
@example(config=CORNERS[0])
@example(config=CORNERS[1])
@example(config=CORNERS[2])
@settings(max_examples=100, deadline=None)
def test_drawn_configs_score_as_the_reference_does(config):
    kw = dict(config)
    coll = generate_collection(SynthSpec(n_tasks=4, n_examples_per_task=18, n_features=3,
                                         relatedness=0.8, seed=kw.pop("seed"),
                                         mode=kw.pop("mode")))
    kw["transformer_spec"] = LEARNERS[kw.pop("transformer")]
    kw["final_spec"] = LEARNERS[kw.pop("final")]
    config = PipelineConfig(collection=coll, seed=7, **kw)
    result = run_pipeline(config)
    assert not result.failures
    # the reference scores the targets it is given, so it gets them normalized
    if config.normalize:
        coll = TaskCollection([normalize_targets(t) for t in coll.tasks], coll.mode,
                              coll.feature_space_id)
        config = PipelineConfig(collection=coll, seed=7, **{**kw, "normalize": False})
    expected = reference_result(config)
    assert scores_tsv(result) == scores_tsv(expected)
    assert comparison_tsv(result.table) == comparison_tsv(expected.table)
