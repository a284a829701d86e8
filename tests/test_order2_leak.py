"""No representation may beat the training-mean floor on pure-noise targets.

Every task's targets are N(0, 1) draws that do not depend on its features,
so no honest model predicts a held-out fold better than the mean of the
fold's training side. The intrinsic features stay at that floor, and so
does order 1, which leaves the target's own stage-1 model out. Order 2 puts
it back in through the other tasks' stage-2 models: under a full-task
stage 1 that model was fitted on the target's test folds too, so order 2
reads their labels (ROADMAP item 13). Under a train-split-only stage 1 it
saw only the training side, and order 2 stays at the floor.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from crossrep.data import CollectionMode, SplitKind, TaskCollection
from crossrep.learners import LearnerSpec
from crossrep.pipeline import PipelineConfig, SplitProtocol, TrainingScope, run_pipeline
from crossrep.seeding import derive_seed
from crossrep.synth import SynthSpec, generate_collection

FLOOR_SHARE = 0.9


@dataclass(frozen=True)
class Case:
    mode: CollectionMode
    split: SplitProtocol
    transformer: LearnerSpec
    scope: TrainingScope
    leaks: bool  # order 2 reads the target's held-out labels


KFOLD = SplitProtocol(SplitKind.KFOLD, k=5)
HOLDOUT = SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3)
FOREST = LearnerSpec.forest(n_trees=30, seed=1)
INDEPENDENT, SHARED = CollectionMode.INDEPENDENT_EXAMPLES, CollectionMode.SHARED_EXAMPLES
FULL, TRAIN_ONLY = TrainingScope.FULL_TASK, TrainingScope.TRAIN_SPLIT_ONLY

# Every case's final learner is ridge(1).
CASES = {
    "independent_kfold_forest": Case(INDEPENDENT, KFOLD, FOREST, FULL, leaks=True),
    "independent_kfold_svr": Case(INDEPENDENT, KFOLD, LearnerSpec.svr(), FULL, leaks=True),
    "independent_holdout_forest": Case(INDEPENDENT, HOLDOUT, FOREST, FULL, leaks=True),
    "shared_kfold_forest": Case(SHARED, KFOLD, FOREST, FULL, leaks=True),
    "shared_holdout_forest_train_split_only": Case(SHARED, HOLDOUT, FOREST, TRAIN_ONLY,
                                                   leaks=False),
}
RUNS = [(name, seed) for name in CASES for seed in (1, 2)]


def run_id(run):
    return f"{run[0]}-seed{run[1]}"


def noise_collection(seed, mode):
    """10 tasks of 100 x 10 synth features, each with N(0, 1) targets."""
    synth = generate_collection(SynthSpec(n_tasks=10, n_examples_per_task=100, n_features=10,
                                          relatedness=0.8, seed=seed, mode=mode))
    rng = np.random.default_rng(seed + 1000)
    tasks = [t.with_targets(rng.normal(size=t.n_examples)) for t in synth.tasks]
    return TaskCollection(tasks, synth.mode, synth.feature_space_id)


def mean_rmse(results, order):
    return float(np.mean([r.mean_rmse for r in results if r.representation.order == order]))


@pytest.fixture(scope="module")
def noise_run(request):
    """({order: mean RMSE} for orders 0, 1 and 2, training-mean floor), each
    averaged over tasks."""
    name, seed = request.param
    case = CASES[name]
    collection = noise_collection(seed, case.mode)
    config = PipelineConfig(collection=collection, transformer_spec=case.transformer,
                            final_spec=LearnerSpec.ridge(1.0), split=case.split, seed=seed,
                            order=2, stage1_scope=case.scope)
    result = run_pipeline(config)
    floors, plans = [], []
    for task in collection.tasks:
        # A shared-examples collection's tasks share one plan, seeded without a task id.
        key = () if case.mode is SHARED else (task.task_id,)
        plan = case.split.make_plan(task.n_examples, derive_seed(seed, "split", *key))
        folds = [plan.split(i) for i in range(plan.n_splits)]
        floors.append(np.mean([np.sqrt(np.mean((task.targets[test]
                                                - task.targets[train].mean()) ** 2))
                               for train, test in folds]))
        plans.append(plan)
    assert {r.plan_digest for r in result.results} == {p.digest for p in plans}
    assert {r.representation.order for r in result.results} == {0, 1, 2}
    return {order: mean_rmse(result.results, order) for order in (0, 1, 2)}, float(np.mean(floors))


@pytest.mark.parametrize("noise_run", RUNS, indirect=True, ids=run_id)
def test_intrinsic_features_stay_at_the_training_mean_floor(noise_run):
    rmse, floor = noise_run
    assert rmse[0] >= FLOOR_SHARE * floor


@pytest.mark.parametrize("noise_run", RUNS, indirect=True, ids=run_id)
def test_order1_stays_at_the_training_mean_floor(noise_run):
    rmse, floor = noise_run
    assert rmse[1] >= FLOOR_SHARE * floor


LEAK = pytest.mark.xfail(strict=True,
                         reason="ROADMAP item 13: order 2 leaks held-out labels under full_task")


@pytest.mark.parametrize("noise_run", [pytest.param(run, marks=LEAK if CASES[run[0]].leaks else ())
                                       for run in RUNS], indirect=True, ids=run_id)
def test_order2_stays_at_the_training_mean_floor(noise_run):
    rmse, floor = noise_run
    assert rmse[2] >= FLOOR_SHARE * floor
