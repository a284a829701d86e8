"""Stacked ridge prediction against the model-by-model loop, bit for bit.

``cross_predict`` and ``second_order_extrinsic`` predict a bank or a set of
stage-2 models of ridge kind in one stacked product. The references in
``helpers`` call ``predict`` once per model. Views are 8 or more columns
wide: numpy's pairwise sum unrolls from 8 elements on, so a narrower view
would sum the same way in any memory layout and could not show a layout
difference.
"""

import tracemalloc

import numpy as np
import pytest

from crossrep.data import CollectionMode, Task, TaskCollection
from crossrep.engine import (ModelBank, TrainingScope, build_extrinsic, cross_predict,
                             second_order_extrinsic, select_descriptors, stage1_train,
                             stage2_train)
from crossrep.errors import FitError
from crossrep.learners import LearnerSpec
from crossrep.learners.ridge import STACK_CHUNK_FLOATS, RidgeStack, predict_stacked

from helpers import loop_cross_predict, loop_second_order_extrinsic

N_TASKS, ROWS, WIDTH, CONSTANT = 23, 16, 10, 2
SPECS = {"ridge": LearnerSpec.ridge(3.0), "ridge_cv": LearnerSpec.ridge_cv((0.1, 1.0, 10.0), k=4)}


def collection():
    """23 independent tasks of 10 features; feature 2 is constant in every
    task, so every standardizer divides it by a scale of 1."""
    rng = np.random.default_rng(7)
    tasks = []
    for i in range(N_TASKS):
        X = rng.normal(size=(ROWS, WIDTH)) * rng.uniform(0.5, 20.0, size=WIDTH)
        X[:, CONSTANT] = 4.0
        y = X @ rng.normal(size=WIDTH) + rng.normal(size=ROWS)
        tasks.append(Task(f"t{i:02d}", X, y, tuple(f"f{j}" for j in range(WIDTH)),
                          tuple(f"t{i:02d}-r{r}" for r in range(ROWS))))
    return TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "stacked")


@pytest.fixture(scope="module", params=sorted(SPECS))
def bank_of(request):
    col = collection()
    return col, stage1_train(col, SPECS[request.param], TrainingScope.FULL_TASK)


def stage2(col, bank, cap=None):
    models, sources = {}, {}
    for task in col.tasks:
        ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
        if cap is not None:
            ext = select_descriptors(ext, cap, seed=3)
        models[task.task_id] = stage2_train(ext, task.targets, LearnerSpec.ridge(2.0))
        sources[task.task_id] = ext.source_model_ids
    return models, sources


def inputs(col):
    """The inputs each test predicts: a task's rows, a pool large enough to
    be taken in several chunks, its Fortran-ordered copy and a strided slice."""
    rng = np.random.default_rng(1)
    pool = rng.normal(size=(400, WIDTH)) * 5.0
    pool[:, CONSTANT] = -1.5
    return {"task": col.tasks[0].features, "pool": pool, "fortran": np.asfortranarray(pool),
            "slice": pool[::3]}


def test_the_stack_takes_several_chunks_and_a_short_last_one():
    """The pool predicts 8 models a chunk, so 23 models end in a chunk of 7."""
    assert STACK_CHUNK_FLOATS == 1 << 15
    assert STACK_CHUNK_FLOATS // (400 * WIDTH) == 8
    assert N_TASKS % 8 != 0


@pytest.mark.parametrize("kind", ["task", "pool", "fortran", "slice"])
def test_cross_predict_matches_the_loop(bank_of, kind):
    col, bank = bank_of
    X = inputs(col)[kind]
    assert np.array_equal(cross_predict(bank, X), loop_cross_predict(bank, X))


def test_cross_predict_takes_rows_in_chunks(bank_of):
    """Rows past 2**15 / width floats are taken in chunks of their own."""
    col, bank = bank_of
    X = np.random.default_rng(2).normal(size=(STACK_CHUNK_FLOATS // WIDTH + 5, WIDTH))
    assert np.array_equal(cross_predict(bank, X), loop_cross_predict(bank, X))


@pytest.mark.parametrize("cap", [None, 12])
@pytest.mark.parametrize("kind", ["task", "pool", "fortran", "slice"])
def test_second_order_matches_the_loop(bank_of, cap, kind):
    col, bank = bank_of
    models, sources = stage2(col, bank, cap)
    block = cross_predict(bank, inputs(col)[kind])
    for target in (col.task_ids[0], col.task_ids[11]):
        ext2 = second_order_extrinsic(target, bank, models, sources, block)
        assert np.array_equal(
            ext2.values, loop_second_order_extrinsic(target, bank, models, sources, block))


def test_order1_views_with_a_cap_match_the_loop(bank_of):
    col, bank = bank_of
    for task in col.tasks[:3]:
        block = cross_predict(bank, task.features)
        capped = select_descriptors(build_extrinsic(task.task_id, bank, block), 12, seed=5)
        cols = [bank.task_ids.index(s) for s in capped.source_model_ids]
        assert np.array_equal(capped.values, loop_cross_predict(bank, task.features)[:, cols])


def test_mixed_stage2_kinds_and_widths_keep_the_loop(bank_of):
    """A forest among the stage-2 models, or one model of another width,
    leaves nothing to stack; the values still match the loop."""
    col, bank = bank_of
    models, sources = stage2(col, bank)
    block = cross_predict(bank, inputs(col)["pool"])
    target, odd = col.task_ids[0], col.task_ids[5]
    view = build_extrinsic(odd, bank, cross_predict(bank, col.task(odd).features))
    forest = dict(models)
    forest[odd] = stage2_train(view, col.task(odd).targets, LearnerSpec.forest(n_trees=3))
    narrow_view = select_descriptors(view, 9, seed=1)
    narrow, narrow_sources = dict(models), dict(sources)
    narrow[odd] = stage2_train(narrow_view, col.task(odd).targets, LearnerSpec.ridge(2.0))
    narrow_sources[odd] = narrow_view.source_model_ids
    for ms, ss in ((forest, sources), (narrow, narrow_sources)):
        assert RidgeStack.of(ms[t] for t in col.task_ids if t != target) is None
        ext2 = second_order_extrinsic(target, bank, ms, ss, block)
        assert np.array_equal(ext2.values,
                              loop_second_order_extrinsic(target, bank, ms, ss, block))


def test_non_finite_input_raises_as_predict_does(bank_of):
    col, bank = bank_of
    X = inputs(col)["pool"].copy()
    X[7, 3] = np.nan
    with pytest.raises(FitError) as info:
        cross_predict(bank, X)
    assert str(info.value) == ("prediction failed for source model 't00': "
                               "predict: input contains non-finite values")


def test_non_finite_block_raises_as_predict_does(bank_of):
    col, bank = bank_of
    models, sources = stage2(col, bank)
    block = cross_predict(bank, col.tasks[0].features).copy()
    block[2, 4] = np.inf
    with pytest.raises(FitError) as info:
        second_order_extrinsic(col.task_ids[0], bank, models, sources, block)
    assert str(info.value) == ("stage-2 prediction failed for model 't01': "
                               "predict: input contains non-finite values")


def test_first_failing_model_in_bank_order_is_named(bank_of):
    """A bank whose widths differ is predicted model by model."""
    col, bank = bank_of
    wide = stage1_train(collection(), SPECS["ridge"], TrainingScope.FULL_TASK).models["t03"]
    narrow_col = TaskCollection(
        [Task(t.task_id, t.features[:, :7], t.targets, t.feature_names[:7], t.example_ids)
         for t in col.tasks[:4]], CollectionMode.INDEPENDENT_EXAMPLES, "narrow")
    models = dict(stage1_train(narrow_col, SPECS["ridge"], TrainingScope.FULL_TASK).models)
    models["t02"] = wide
    mixed = ModelBank(models, SPECS["ridge"], "mixed", TrainingScope.FULL_TASK)
    assert mixed._ridge_stack is None
    with pytest.raises(FitError) as info:
        cross_predict(mixed, col.tasks[0].features[:, :7])
    assert str(info.value) == ("prediction failed for source model 't02': "
                               "predict: input has 7 columns, model expects 10")


def test_one_temporary_of_at_most_2_to_the_15_floats_is_alive(bank_of):
    """Above the result itself, peak memory stays within one chunk of floats
    and that chunk's two sums: the previous chunk is freed before the next
    one is built. At 2000 rows of width 10 a chunk takes one model, so each
    sum is one column of the result."""
    col, bank = bank_of
    stack = RidgeStack.of(bank.models.values())
    X = np.random.default_rng(3).normal(size=(2000, WIDTH))
    tracemalloc.start()
    try:
        out = predict_stacked(stack, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2000, N_TASKS)
    assert peak <= out.nbytes + 8 * STACK_CHUNK_FLOATS + 2 * 8 * len(X)
