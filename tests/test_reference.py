"""``run_pipeline`` against the naive reference pipeline, byte for byte.

The reference (``reference.py``) fits every fold and every model itself,
so equal tables also show that each model ``run_pipeline`` reuses (a
fold's own stage-1 or stage-2 fit) and each block it shares or stacks
gives the bits of the plain refit.
"""

import pytest

from crossrep.data import CollectionMode, SplitKind
from crossrep.evaluation import comparison_tsv
from crossrep.learners import LearnerSpec
from crossrep.pipeline import PipelineConfig, SplitProtocol, run_pipeline, scores_tsv
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
