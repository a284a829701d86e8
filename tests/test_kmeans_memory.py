"""K-means in bounded memory, with the bits of the broadcast distances.

``kmeans`` reads its input a block of rows at a time: squared distances one
centroid at a time through one block-sized scratch buffer, and member means
as running sums carried from block to block. The oracle is the broadcast
k-means of ``tests/helpers.py``, which builds an n x k x d temporary per
pass: every field of the result must match it bit for bit. ``crossrep
cluster`` keeps only the prediction matrix alive while it clusters.
"""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from crossrep import cli, clustering
from crossrep.clustering import (KMEANS_BLOCK, CrossPredictionMatrix, cluster_examples,
                                 cluster_tasks, kmeans)
from crossrep.errors import ValidationError
from crossrep.learners import Standardizer

from helpers import broadcast_kmeans


def assert_same_bits(result, oracle):
    assert np.array_equal(result.assignments, oracle.assignments)
    assert result.centroids.tobytes() == oracle.centroids.tobytes()
    assert np.float64(result.inertia).tobytes() == np.float64(oracle.inertia).tobytes()
    assert result.n_iter == oracle.n_iter
    assert result.converged == oracle.converged
    assert (np.array(result.inertia_history).tobytes()
            == np.array(oracle.inertia_history).tobytes())


def blobs(n, d, seed, centres=4):
    """``n`` rows around ``centres`` random points, so Lloyd takes several passes."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=3.0, size=(centres, d))
    return means[rng.integers(0, centres, size=n)] + rng.normal(size=(n, d))


# numpy's pairwise sum unrolls by 8 and splits blocks above 128 elements
@pytest.mark.parametrize("n, d", [(60, 1), (60, 7), (60, 8), (60, 9), (400, 20),
                                  (80, 128), (80, 129), (20, 4000)])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_distances_keep_the_broadcast_bits(n, d, k):
    X = blobs(n, d, seed=d * 10 + k)
    for seed in (0, 7):
        assert_same_bits(kmeans(X, k, seed), broadcast_kmeans(X, k, seed))


@pytest.mark.parametrize("d", [1, 9, 129])
def test_k_equal_to_the_item_count(d):
    X = blobs(12, d, seed=d)
    result = kmeans(X, 12, seed=3)
    assert_same_bits(result, broadcast_kmeans(X, 12, seed=3))
    assert result.inertia == 0.0


def test_duplicate_rows():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 9))
    X = base[rng.integers(0, 6, size=40)]
    for k in (2, 6, 9):  # k = 9 exceeds the distinct rows, which are then reused
        assert_same_bits(kmeans(X, k, seed=1), broadcast_kmeans(X, k, seed=1))


@pytest.mark.parametrize("standardize", [False, True])
def test_the_f_ordered_task_view(standardize):
    """Tasks are the columns of the matrix: ``values.T`` is an F-ordered view.
    K-means clusters its C-ordered copy, whatever layout it is handed."""
    values = blobs(300, 20, seed=11)
    matrix = CrossPredictionMatrix(values=values,
                                   example_ids=tuple(f"e{i}" for i in range(300)),
                                   task_ids=tuple(f"t{j}" for j in range(20)))
    view = matrix.values.T
    assert view.flags.f_contiguous and not view.flags.c_contiguous
    items = Standardizer.fit(view).transform(view) if standardize else view
    oracle = broadcast_kmeans(np.ascontiguousarray(items), 3, seed=2)
    assert_same_bits(kmeans(items, 3, seed=2), oracle)
    assert_same_bits(cluster_tasks(matrix, 3, seed=2, standardize=standardize), oracle)


def test_overflow_names_the_square():
    values = np.array([[1e200, 1.0], [-1e200, 2.0], [0.0, 3.0]])
    matrix = CrossPredictionMatrix(values=values, example_ids=("a", "b", "c"),
                                   task_ids=("t1", "t2"))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow encountered in square"):
            broadcast_kmeans(values, 2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match="items too far apart: overflow encountered in square"):
            cluster_examples(matrix, 2, seed=0)


def layouts(X):
    """``X`` as C-ordered, F-ordered and negative-stride arrays of the same values."""
    return {"c": np.ascontiguousarray(X), "f": np.asfortranarray(X),
            "reversed": np.ascontiguousarray(X[::-1, ::-1])[::-1, ::-1]}


# rows of (5000, 13) fill blocks of 2520 and 2480; rows of (9, 4001) blocks
# of 8 and 1
@pytest.mark.parametrize("n, d", [(5000, 13), (9, 4001)])
@pytest.mark.parametrize("layout", ["c", "f", "reversed"])
@pytest.mark.parametrize("zeros", [False, True])
def test_blocks_keep_the_broadcast_bits(n, d, layout, zeros):
    """Inputs of several blocks with a ragged last one, in every layout. With
    ``zeros`` two columns hold only -0.0 and a third holds some: a member
    mean sums from +0.0 (numpy's order), so those columns' means are +0.0."""
    X = blobs(n, d, seed=n + d, centres=3)
    if zeros:
        X[:, :2] = -0.0
        X[::3, 2] = -0.0
    assert n * d > KMEANS_BLOCK and (KMEANS_BLOCK // d) * 2 > n > KMEANS_BLOCK // d
    items = layouts(X)[layout]
    assert np.array_equal(items, X)
    oracle = broadcast_kmeans(np.ascontiguousarray(X), 3, seed=4)
    result = kmeans(items, 3, seed=4)
    assert_same_bits(result, oracle)
    if zeros:
        assert not np.signbit(result.centroids[:, :2]).any()


@pytest.mark.parametrize("layout", ["c", "f", "reversed"])
def test_an_empty_cluster_keeps_its_centroid(layout):
    """Three distinct rows and k = 5: the reused rows' centroids stay empty."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(3, 6))[rng.integers(0, 3, size=3000)]
    result = kmeans(layouts(X)[layout], 5, seed=0)
    assert len(set(result.assignments.tolist())) == 3
    assert_same_bits(result, broadcast_kmeans(X, 5, seed=0))


@pytest.mark.parametrize("n", [50, 40000])
@pytest.mark.parametrize("k", [1, 4])
def test_one_column(n, k):
    """d = 1: numpy sums a column pairwise, so member means keep its expression;
    40000 rows fill two blocks."""
    X = blobs(n, 1, seed=n + k)
    X[::7] = -0.0
    for items in layouts(X).values():
        assert_same_bits(kmeans(items, k, seed=5), broadcast_kmeans(X, k, seed=5))


@pytest.mark.parametrize("d, k", [(2, 40), (1, 70)])
def test_more_clusters_than_columns(d, k):
    """A block's table of squared distances, rows x k, is held to the block
    bound too, so k > d makes blocks of fewer rows."""
    X = blobs(5000, d, seed=k)
    assert_same_bits(kmeans(X, k, seed=1), broadcast_kmeans(X, k, seed=1))


def test_out_of_passes(monkeypatch):
    """A run that stops at the pass limit measures its inertia after the last
    centroid update."""
    X = np.random.default_rng(8).normal(size=(3000, 17))  # no clusters: many passes
    for passes in (1, 2, 5):
        monkeypatch.setattr(clustering, "KMEANS_MAX_ITER", passes)
        result = kmeans(X, 6, seed=0)
        assert result.n_iter == passes and not result.converged
        assert_same_bits(result, broadcast_kmeans(X, 6, seed=0, max_iter=passes))


def traced_peak(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("view", ["examples", "tasks", "cluster_tasks"])
def test_temporaries_do_not_grow_with_the_input(view):
    """A 20000 x 200 matrix (30.5 MiB) clusters within 4 MiB of temporaries,
    result included, either way round: the F-ordered task view is copied to
    C order a block at a time, not whole. A whole-input scratch buffer and
    C copy peaked at 70.1 MiB here on the task view, 39.9 MiB on the
    examples."""
    values = blobs(20000, 200, seed=1, centres=8)
    matrix = CrossPredictionMatrix(values=values,
                                   example_ids=tuple(f"e{i}" for i in range(20000)),
                                   task_ids=tuple(f"t{j}" for j in range(200)))
    call = {"examples": lambda: kmeans(matrix.values, 8, seed=0),
            "tasks": lambda: kmeans(matrix.values.T, 8, seed=0),
            "cluster_tasks": lambda: cluster_tasks(matrix, 8, seed=0)}[view]
    assert traced_peak(call) < 4 * 2 ** 20


def test_cluster_frees_bank_and_pool_before_clustering(tmp_path, monkeypatch):
    coll, bank_dir = tmp_path / "coll", tmp_path / "bank"
    assert cli.main(["synth", "--tasks", "4", "--examples", "20", "--features", "5",
                     "--seed", "2", "--out", str(coll)]) == 0
    assert cli.main(["train-bank", "--collection", str(coll / "manifest.json"),
                     "--learner", '{"kind": "forest", "n_trees": 3, "seed": 1}',
                     "--out", str(bank_dir)]) == 0
    alive = {}

    def spy(name, real, pick=lambda out: out):
        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            alive[name] = weakref.ref(pick(out))
            return out
        monkeypatch.setattr(cli, name, call)

    spy("load_bank", cli.load_bank)
    spy("load_collection", cli.load_collection)
    spy("build_pool", cli.build_pool, pick=lambda out: out[0])
    clustered = []

    def checked(name, real):
        def call(matrix, *args, **kwargs):
            assert sorted(alive) == ["build_pool", "load_bank", "load_collection"]
            assert [n for n, ref in alive.items() if ref() is not None] == []
            clustered.append(name)
            return real(matrix, *args, **kwargs)
        monkeypatch.setattr(cli, name, call)

    checked("cluster_tasks", cli.cluster_tasks)
    checked("cluster_examples", cli.cluster_examples)
    assert cli.main(["cluster", "--bank", str(bank_dir), "--pool",
                     str(coll / "manifest.json"), "--k", "2",
                     "--out", str(tmp_path / "c")]) == 0
    assert clustered == ["cluster_tasks", "cluster_examples"]
