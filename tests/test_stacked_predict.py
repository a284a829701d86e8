"""Stacked ridge and SVR prediction against the model-by-model loop, bit for bit.

``cross_predict`` and ``second_order_extrinsic`` predict a bank or a set of
stage-2 models of ridge kind in one stacked product, and ``cross_predict``
predicts a bank of SVR models of one standardization and sigma from one
Gram against all their support rows. The references in ``helpers`` call
``predict`` once per model. Ridge views are 8 or more columns wide: numpy's
pairwise sum unrolls from 8 elements on, so a narrower view would sum the
same way in any memory layout and could not show a layout difference.
"""

import tracemalloc

import numpy as np
import pytest

from crossrep import engine
from crossrep.data import CollectionMode, Task, TaskCollection
from crossrep.engine import (ModelBank, build_extrinsic, cross_predict,
                             load_bank, save_bank, second_order_extrinsic, select_descriptors,
                             stage1_train, stage2_train)
from crossrep.errors import FitError
from crossrep.learners import LearnerSpec, svr
from crossrep.learners.ridge import STACK_CHUNK_FLOATS, RidgeStack, predict_stacked
from crossrep.learners.svr import GRAM_CHUNK_FLOATS, SvrStack

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
    return col, stage1_train(col, SPECS[request.param])


def stage2(col, bank, cap=None):
    models, sources = {}, {}
    for task in col.tasks:
        ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
        if cap is not None:
            ext = select_descriptors(ext, cap, seed=3)
        models[task.task_id] = stage2_train(ext, task.targets, LearnerSpec.ridge(2.0))
        sources[task.task_id] = ext.source_model_ids
    return models, sources


def columns(bank, sources):
    """Each stage-2 model's source columns, as ``run_pipeline`` stores them."""
    return {t: bank.columns(ids) for t, ids in sources.items()}


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
        ext2 = second_order_extrinsic(target, bank, models, columns(bank, sources), block)
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
        ext2 = second_order_extrinsic(target, bank, ms, columns(bank, ss), block)
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
        second_order_extrinsic(col.task_ids[0], bank, models, columns(bank, sources), block)
    assert str(info.value) == ("stage-2 prediction failed for model 't01': "
                               "predict: input contains non-finite values")


def test_first_failing_model_in_bank_order_is_named(bank_of):
    """A bank whose widths differ is predicted model by model."""
    col, bank = bank_of
    wide = stage1_train(collection(), SPECS["ridge"]).models["t03"]
    narrow_col = TaskCollection(
        [Task(t.task_id, t.features[:, :7], t.targets, t.feature_names[:7], t.example_ids)
         for t in col.tasks[:4]], CollectionMode.INDEPENDENT_EXAMPLES, "narrow")
    models = dict(stage1_train(narrow_col, SPECS["ridge"]).models)
    models["t02"] = wide
    mixed = ModelBank(models, SPECS["ridge"], "mixed")
    assert mixed._stack is None
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


SVR = LearnerSpec.svr(c=2.0, epsilon=0.1, sigma=0.3)
SVR_ROWS, SVR_WIDTH = 60, 6


def svr_collection(mode=CollectionMode.SHARED_EXAMPLES):
    """9 tasks of 60 rows and 6 features. Column 0 holds the integers -29 to
    29 and a signed zero: rows 0 and 1 differ only in its sign, and the
    column's mean is 0.0, so the standardized rows differ the same way.
    Their targets are far apart, so both are support rows. Task ``flat``'s
    targets lie within epsilon of 0: its model has no support vectors.
    Shared, every task has the same rows; independent, each has its own."""
    rng = np.random.default_rng(11)
    col0 = np.array([0.0, -0.0, *range(1, 30), *range(-1, -30, -1)])
    tasks = []
    for i in range(9):
        if i == 0 or mode is CollectionMode.INDEPENDENT_EXAMPLES:
            X = rng.normal(size=(SVR_ROWS, SVR_WIDTH))
            X[:, 0] = col0
            X[1, 1:] = X[0, 1:]
        task_id = "flat" if i == 4 else f"s{i}"
        y = 0.01 * rng.normal(size=SVR_ROWS) if task_id == "flat" else (
            np.sin(X @ rng.normal(size=SVR_WIDTH)) + 0.1 * rng.normal(size=SVR_ROWS))
        if task_id != "flat":
            y[0], y[1] = 3.0, -3.0
        ids = tuple(f"{task_id}-r{r}" if mode is CollectionMode.INDEPENDENT_EXAMPLES
                    else f"r{r}" for r in range(SVR_ROWS))
        tasks.append(Task(task_id, X, y, tuple(f"f{j}" for j in range(SVR_WIDTH)), ids))
    return TaskCollection(tasks, mode, "svr")


def svr_pool(rows):
    rng = np.random.default_rng(rows)
    pool = rng.normal(size=(rows, SVR_WIDTH)) * 2.0
    pool[::5, 0] = -0.0
    return pool


@pytest.fixture(scope="module", params=["memory", "saved"])
def svr_bank(request, tmp_path_factory):
    bank = stage1_train(svr_collection(), SVR)
    if request.param == "saved":
        bank = load_bank(save_bank(bank, tmp_path_factory.mktemp("svr_bank")).parent)
    return bank


def test_the_svr_stack_keeps_signed_zeros_apart_and_skips_no_model(svr_bank):
    stack = svr_bank._stack
    assert isinstance(stack, SvrStack)
    supports = [svr_bank.models[t].state.support for t in svr_bank.task_ids]
    assert [len(c) for c in stack.columns] == [len(s) for s in supports]
    assert [len(s) == 0 for s in supports] == [t == "flat" for t in svr_bank.task_ids]
    distinct = {row.tobytes() for s in supports for row in s}
    assert len(stack.support) == len(distinct)
    zero_rows = [row for row in stack.support if row[0] == 0.0]
    assert len(zero_rows) == 2 and np.array_equal(zero_rows[0], zero_rows[1])
    assert sorted(np.signbit(row[0]) for row in zero_rows) == [False, True]


# 1500 rows against at most 60 support rows take several row blocks
@pytest.mark.parametrize("rows", [0, 1, 7, 1500])
def test_svr_cross_predict_matches_the_loop(svr_bank, rows):
    X = svr_pool(rows)
    assert rows < 1500 or rows > GRAM_CHUNK_FLOATS // len(svr_bank._stack.support)
    out = cross_predict(svr_bank, X)
    assert out.tobytes() == loop_cross_predict(svr_bank, X).tobytes()


def test_svr_cross_predict_builds_one_gram_per_row_block(svr_bank, monkeypatch):
    calls = []

    def counted(A, B, sigma, _gram=svr.rbf_gram):
        calls.append(len(A))
        return _gram(A, B, sigma)

    distinct = {row.tobytes() for model in svr_bank.models.values()
                for row in model.state.support}
    monkeypatch.setattr(svr, "rbf_gram", counted)
    cross_predict(svr_bank, svr_pool(1500))
    step = GRAM_CHUNK_FLOATS // len(distinct)
    assert calls == [min(step, 1500 - lo) for lo in range(0, 1500, step)]
    assert 1 < len(calls) < len(svr_bank.models) - 1


def test_stage1_of_a_shared_svr_run_builds_one_gram(monkeypatch):
    """Every task trains on the same rows: one Gram, still one fit per task."""
    grams, fits = [], []

    def gram(A, B, sigma, _gram=svr.rbf_gram):
        grams.append(A is B)
        return _gram(A, B, sigma)

    def fit(*args, _fit=svr.fit_svr, **kwargs):
        fits.append(kwargs.get("kernel"))
        return _fit(*args, **kwargs)

    monkeypatch.setattr(svr, "rbf_gram", gram)
    monkeypatch.setattr(svr, "fit_svr", fit)
    col = svr_collection()
    bank = stage1_train(col, SVR)
    assert grams == [True] and len(fits) == col.n_tasks == len(bank.models)
    monkeypatch.undo()
    for task in col.tasks:
        alone = svr.fit_svr(task.features, task.targets, **SVR.hyperparams)
        model = bank.models[task.task_id]
        for name in ("support", "dual_coef"):
            assert getattr(model.state, name).tobytes() == getattr(alone.state, name).tobytes()
        assert (model.state.bias, model.state.n_iter) == (alone.state.bias, alone.state.n_iter)


def test_a_bank_of_other_standardizations_falls_back_after_two_archives(tmp_path,
                                                                         monkeypatch):
    col = svr_collection(CollectionMode.INDEPENDENT_EXAMPLES)
    bank = load_bank(save_bank(stage1_train(col, SVR),
                               tmp_path).parent)
    reads = []

    def counted(path, _load=engine.load_model):
        reads.append(path.name)
        return _load(path)

    monkeypatch.setattr(engine, "load_model", counted)
    assert bank._stack is None
    assert reads == ["flat.model.json", "s0.model.json"]
    X = svr_pool(40)
    assert cross_predict(bank, X).tobytes() == loop_cross_predict(bank, X).tobytes()
