"""Golden digests of whole pipeline runs.

Each case runs ``run_pipeline`` on a tiny synthetic config and hashes the
bytes of the written ``scores.tsv`` and ``comparison.tsv``. The cases cover
what the benchmark reference digests do not: shared mode at order 2, the
descriptor cap at order 2, augmentation, and non-strict runs that lose a
task at stage 1 or at evaluation. The ``holdout_*`` cases fit stage 1 on
the training side only, so the intrinsic baseline's single fold trains on
the rows of the task's stage-1 model: with the same seedless learner at
both stages that model is reused, and with different hyperparameters or a
seeded learner the fold is refitted. ``holdout_augment_order2_ridge`` adds
augmentation at order 2: its transformed fold trains on the rows and spec
of the task's stage-2 model, but on more columns, so it must be refitted.
A changed digest is a change of behaviour and must be named in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from crossrep.data import CollectionMode, SplitKind, Task, TaskCollection
from crossrep.engine import TrainingScope
from crossrep.learners import LearnerSpec
from crossrep.pipeline import (COMPARISON_NAME, SCORES_NAME, PipelineConfig,
                               SplitProtocol, run_pipeline, write_result)
from crossrep.synth import Nonlinearity, SynthSpec, generate_collection

RIDGE = LearnerSpec.ridge(5.0)
RIDGE_CV10 = LearnerSpec.ridge_cv((1.0, 10.0), k=10)
FOREST = LearnerSpec.forest(n_trees=3, seed=4)
SVR = LearnerSpec.svr(c=2.0, epsilon=0.05, sigma=0.3)
SVR_C1 = LearnerSpec.svr(c=1.0, epsilon=0.05, sigma=0.3)
KFOLD3 = SplitProtocol(SplitKind.KFOLD, k=3)
HOLDOUT = SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3)


def _collection(n_tasks, n, p, seed, shared=False, tiny=False):
    mode = CollectionMode.SHARED_EXAMPLES if shared else CollectionMode.INDEPENDENT_EXAMPLES
    col = generate_collection(SynthSpec(
        n_tasks=n_tasks, n_examples_per_task=n, n_features=p, relatedness=0.8,
        nonlinearity=Nonlinearity.NONLINEAR, noise_sd=0.1, seed=seed, mode=mode))
    if not tiny:
        return col
    # An 8-row task: too small for a 10-fold internal CV once it is split.
    first = col.tasks[0]
    small = Task("tiny", first.features[:8], np.random.default_rng(0).normal(size=8),
                 first.feature_names, tuple(f"w{i}" for i in range(8)))
    return TaskCollection([*col.tasks, small], mode, col.feature_space_id)


CASES = {
    "shared_order2_ridge": (
        dict(collection=_collection(5, 30, 4, seed=3, shared=True),
             transformer_spec=RIDGE, final_spec=RIDGE, split=HOLDOUT, order=2),
        (),
        "99e2d2a8c4f34e8975f1ac322aac8ece6b656eb2371c7e9aafba0ed067f07fa5"),
    "shared_order2_svr_forest": (
        dict(collection=_collection(4, 24, 4, seed=5, shared=True),
             transformer_spec=SVR, final_spec=FOREST, split=HOLDOUT, order=2),
        (),
        "248835630725867563f9a784421983682600847e73183ffcad3955318a3b98f6"),
    "cap_order2_forest": (
        dict(collection=_collection(6, 24, 5, seed=7),
             transformer_spec=FOREST, final_spec=RIDGE, split=KFOLD3, order=2,
             descriptor_cap=3),
        (),
        "0ee7230935fab700f5625ec789cc230e264251cc9f8215cb934719fd3061463b"),
    "augment_order2_svr": (
        dict(collection=_collection(4, 20, 4, seed=9),
             transformer_spec=SVR, final_spec=RIDGE, split=KFOLD3, order=2, augment=True),
        (),
        "d2c3711dd81b961d9bd95426c9b4a5629f979c137dbfd1e13f2d2a493a5ad900"),
    "nonstrict_stage1_failure": (
        dict(collection=_collection(4, 30, 5, seed=1, tiny=True),
             transformer_spec=RIDGE_CV10, final_spec=RIDGE, split=KFOLD3, order=2),
        (("tiny", "stage1"),),
        "47bfd56977d56f4dc9ed7e113ce1d5dd6a9b737c3d157c7396b6c2e40ac20a11"),
    "nonstrict_evaluate_failure": (
        dict(collection=_collection(4, 30, 5, seed=1, tiny=True),
             transformer_spec=RIDGE, final_spec=RIDGE_CV10, split=KFOLD3, order=2),
        (("tiny", "evaluate"),),
        "4ae27ec43077a2bfa3d9c6ee8e71bebc438f4c203d5682b9c958dc1b56d61de6"),
    "holdout_shared_svr": (
        dict(collection=_collection(5, 30, 4, seed=11, shared=True),
             transformer_spec=SVR, final_spec=SVR, split=HOLDOUT),
        (),
        "ab0b9822f3a1e21c76669b9bebd717721a72732427712b1751c556acba245f0b"),
    "holdout_shared_svr_other_c": (
        dict(collection=_collection(5, 30, 4, seed=11, shared=True),
             transformer_spec=SVR, final_spec=SVR_C1, split=HOLDOUT),
        (),
        "173f4c816895de339fa91159f78a8d30916b2c30a76c95d66d1277167a97e8b8"),
    "holdout_shared_forest": (
        dict(collection=_collection(4, 24, 4, seed=15, shared=True),
             transformer_spec=FOREST, final_spec=FOREST, split=HOLDOUT),
        (),
        "4e429ddbaf9488c9118e2ffb6803ec941d53c98d30e7f4d8f43e2118ac6a2171"),
    "holdout_shared_order2_svr": (
        dict(collection=_collection(4, 24, 4, seed=17, shared=True),
             transformer_spec=SVR, final_spec=SVR, split=HOLDOUT, order=2),
        (),
        "277da13913318fd0c9c0e97a257806b640dc4fcb1002a2f5e559c7d924e68822"),
    "holdout_independent_ridge": (
        dict(collection=_collection(5, 26, 4, seed=19),
             transformer_spec=RIDGE, final_spec=RIDGE, split=HOLDOUT,
             stage1_scope=TrainingScope.TRAIN_SPLIT_ONLY),
        (),
        "af58e1387c1981f89f4497795739d1c11acff64ce09e379959745fc1d2f9d3e3"),
    "holdout_augment_order2_ridge": (
        dict(collection=_collection(5, 26, 4, seed=21),
             transformer_spec=RIDGE, final_spec=RIDGE, split=HOLDOUT, order=2, augment=True,
             stage1_scope=TrainingScope.TRAIN_SPLIT_ONLY),
        (),
        "6f6065310ba282baa6585627d034fdce84af70653fff51baecd64329233ea2ea"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pipeline_golden_digest(name, tmp_path):
    fields, failures, digest = CASES[name]
    result = run_pipeline(PipelineConfig(seed=13, **fields))
    assert tuple((f.task_id, f.stage) for f in result.failures) == failures
    out = write_result(result, tmp_path / name)
    h = hashlib.sha256()
    for fname in (SCORES_NAME, COMPARISON_NAME):
        h.update((out / fname).read_bytes())
    assert h.hexdigest() == digest
