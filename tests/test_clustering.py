import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrep.clustering import (ClusterResult, CrossPredictionMatrix,
                                 assignments_tsv, cluster_examples, cluster_tasks,
                                 cross_prediction_matrix, kmeans,
                                 pairwise_distances_tsv)
from crossrep.engine import TrainingScope, stage1_train
from crossrep.errors import ValidationError
from crossrep.learners import LearnerSpec, predict


def brute_force_inertia(X, assignments, centroids):
    total = 0.0
    for i in range(len(X)):
        total += float(((X[i] - centroids[assignments[i]]) ** 2).sum())
    return total


class TestCrossPredictionMatrix:
    def test_shape_is_pool_by_tasks(self, small_collection):
        bank = stage1_train(small_collection, LearnerSpec.ridge(2.0),
                            TrainingScope.FULL_TASK)
        rng = np.random.default_rng(0)
        pool = rng.normal(size=(5, 3))
        matrix = cross_prediction_matrix(bank, pool)
        assert matrix.values.shape == (5, 3)
        assert matrix.task_ids == small_collection.task_ids

    def test_entries_match_direct_predict(self, small_collection):
        bank = stage1_train(small_collection, LearnerSpec.forest(n_trees=4, seed=0),
                            TrainingScope.FULL_TASK)
        rng = np.random.default_rng(1)
        pool = rng.normal(size=(7, 3))
        matrix = cross_prediction_matrix(bank, pool)
        for j, tid in enumerate(bank.task_ids):
            for i in range(7):
                assert matrix.values[i, j] == predict(bank.models[tid],
                                                      pool[i : i + 1])[0]

    def test_empty_pool(self, small_collection):
        bank = stage1_train(small_collection, LearnerSpec.ridge(2.0),
                            TrainingScope.FULL_TASK)
        matrix = cross_prediction_matrix(bank, np.empty((0, 3)))
        assert matrix.values.shape == (0, 3)

    def test_pool_of_wrong_width_is_a_validation_error(self, small_collection):
        bank = stage1_train(small_collection, LearnerSpec.ridge(2.0),
                            TrainingScope.FULL_TASK)
        with pytest.raises(ValidationError, match="4 feature columns"):
            cross_prediction_matrix(bank, np.ones((5, 4)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_prediction_names_the_model_and_the_example(self, narrow_collection):
        bank = stage1_train(narrow_collection, LearnerSpec.ridge(1.0), TrainingScope.FULL_TASK)
        with pytest.raises(ValidationError) as info:
            cross_prediction_matrix(bank, np.array([[0.5, 0.2], [1e308, 1.0]]),
                                    example_ids=("b", "a"))
        assert str(info.value) == "source model 't0' predicts a non-finite value for example 'a'"


class TestKmeans:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
    @pytest.mark.parametrize("values", [np.arange(12.0).reshape(4, 3),
                                        np.array([[1e308, 1.0, 2.0], [-1e308, 2.0, 3.0],
                                                  [0.0, 3.0, 4.0], [1.0, 4.0, 5.0]])],
                             ids=["near", "far"])
    @pytest.mark.parametrize("cluster, n", [(cluster_tasks, 3), (cluster_examples, 4)],
                             ids=["tasks", "examples"])
    @pytest.mark.parametrize("past_n", [False, True], ids=["k=0", "k=n+1"])
    def test_k_outside_one_to_n_is_rejected(self, cluster, n, past_n, values, standardize):
        k = n + 1 if past_n else 0
        matrix = CrossPredictionMatrix(values=values, example_ids=tuple("abcd"),
                                       task_ids=("t1", "t2", "t3"))
        with pytest.raises(ValidationError, match=fr"^k must be in \[1, {n}\], got {k}$"):
            cluster(matrix, k=k, seed=0, standardize=standardize)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_k_is_checked_before_an_empty_pool_is_standardized(self):
        matrix = CrossPredictionMatrix(values=np.empty((0, 3)), example_ids=(),
                                       task_ids=("t1", "t2", "t3"))
        with pytest.raises(ValidationError, match=r"^k must be in \[1, 0\], got 1$"):
            cluster_examples(matrix, k=1, seed=0, standardize=True)

    def test_identical_columns_cluster_together(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        values = np.column_stack([col, col, -col])
        matrix = CrossPredictionMatrix(values=values,
                                       example_ids=tuple("abcd"),
                                       task_ids=("t1", "t2", "t3"))
        result = cluster_tasks(matrix, k=2, seed=0)
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] != result.assignments[0]

    def test_k_equals_items_gives_zero_inertia(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 4))
        matrix = CrossPredictionMatrix(values=values,
                                       example_ids=tuple(f"e{i}" for i in range(6)),
                                       task_ids=tuple(f"t{i}" for i in range(4)))
        result = cluster_tasks(matrix, k=4, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert len(set(result.assignments.tolist())) == 4

    def test_duplicated_rows_keep_task_assignments(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(8, 5))
        base = CrossPredictionMatrix(values=values,
                                     example_ids=tuple(f"e{i}" for i in range(8)),
                                     task_ids=tuple(f"t{i}" for i in range(5)))
        doubled = CrossPredictionMatrix(values=np.vstack([values, values]),
                                        example_ids=tuple(f"e{i}" for i in range(16)),
                                        task_ids=base.task_ids)
        a = cluster_tasks(base, k=2, seed=3)
        b = cluster_tasks(doubled, k=2, seed=3)
        assert np.array_equal(a.assignments, b.assignments)
        # duplicating every feature doubles all squared distances
        items = doubled.values.T
        assert b.inertia == pytest.approx(
            brute_force_inertia(items, b.assignments, b.centroids), abs=1e-9)
        assert b.inertia == pytest.approx(2.0 * a.inertia, rel=1e-9)

    def test_k1_centroid_is_column_means(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(10, 3))
        matrix = CrossPredictionMatrix(values=values,
                                       example_ids=tuple(f"e{i}" for i in range(10)),
                                       task_ids=("a", "b", "c"))
        result = cluster_examples(matrix, k=1, seed=0)
        assert np.allclose(result.centroids[0], values.mean(axis=0), atol=1e-12)

    def test_identical_rows_cluster_together(self):
        row = np.array([0.5, -1.0, 2.0])
        values = np.vstack([row, row, row * 3, row * 3])
        matrix = CrossPredictionMatrix(values=values,
                                       example_ids=("a", "b", "c", "d"),
                                       task_ids=("t1", "t2", "t3"))
        for k in (1, 2):
            result = cluster_examples(matrix, k=k, seed=1)
            assert result.assignments[0] == result.assignments[1]
            assert result.assignments[2] == result.assignments[3]

    def test_assignment_optimality_vs_exhaustive(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        result = kmeans(X, k=2, seed=7)
        assert result.converged
        # given the final centroids, no assignment beats the returned one
        best = None
        for mask in range(2 ** 6):
            asg = np.array([(mask >> i) & 1 for i in range(6)])
            cost = brute_force_inertia(X, asg, result.centroids)
            best = cost if best is None else min(best, cost)
        assert result.inertia <= best + 1e-12

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            kmeans(np.ones((3, 2)), k=4, seed=0)
        with pytest.raises(ValidationError):
            kmeans(np.ones((3, 2)), k=0, seed=0)

    @given(st.integers(0, 2**31), st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_termination_invariants(self, seed, n, k):
        if k > n:
            k = n
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        result = kmeans(X, k=k, seed=seed)
        # seed determinism
        again = kmeans(X, k=k, seed=seed)
        assert np.array_equal(result.assignments, again.assignments)
        assert np.array_equal(result.centroids, again.centroids)
        # inertia non-increasing across iterations
        hist = result.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
        if result.converged:
            # centroid consistency within 1e-9
            for c in range(k):
                members = result.assignments == c
                if members.any():
                    assert np.max(np.abs(result.centroids[c] - X[members].mean(axis=0))) < 1e-9
            # every item sits with its nearest centroid
            d2 = ((X[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
            nearest = d2[np.arange(n), result.assignments]
            assert np.all(nearest <= d2.min(axis=1) + 1e-12)

    def test_inertia_matches_brute_force(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 3))
        result = kmeans(X, k=3, seed=2)
        assert result.inertia == pytest.approx(
            brute_force_inertia(X, result.assignments, result.centroids), abs=1e-9)


class TestReports:
    def test_assignments_tsv(self):
        result = ClusterResult(assignments=np.array([0, 1, 0]),
                               centroids=np.zeros((2, 2)), inertia=0.0,
                               converged=True, n_iter=1, inertia_history=(0.0,),
                               item_ids=("a", "b", "c"))
        text = assignments_tsv(result)
        assert text.splitlines() == ["item_id\tcluster", "a\t0", "b\t1", "c\t0"]

    def test_distance_dump_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(4, 3))
        text = pairwise_distances_tsv(X, ("a", "b", "c", "d"))
        lines = text.splitlines()
        assert lines[0].split("\t") == ["item_id", "a", "b", "c", "d"]
        first = lines[1].split("\t")
        assert float(first[1]) == 0.0

    def test_distance_dump_of_items_too_far_apart(self):
        X = np.array([[1e200, 1.0], [-1e200, 2.0], [0.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="items too far apart"):
                pairwise_distances_tsv(X, ("a", "b", "c"))
            assert "2e+150" in pairwise_distances_tsv(X / 1e50, ("a", "b", "c"))


class TestBuildPool:
    def test_independent_mode_concatenates_rows(self, small_collection):
        from crossrep.clustering import build_pool
        X, ids = build_pool(small_collection)
        assert X.shape[0] == sum(t.n_examples for t in small_collection.tasks)
        assert ids[0].startswith(small_collection.tasks[0].task_id + ":")

    def test_shared_mode_uses_rows_once(self, shared_collection):
        from crossrep.clustering import build_pool
        X, ids = build_pool(shared_collection)
        assert X.shape[0] == shared_collection.tasks[0].n_examples
        assert ids == shared_collection.tasks[0].example_ids

    def test_cap_subsamples_deterministically(self, small_collection):
        from crossrep.clustering import build_pool
        a_X, a_ids = build_pool(small_collection, cap=10, seed=4)
        b_X, b_ids = build_pool(small_collection, cap=10, seed=4)
        assert a_ids == b_ids and len(a_ids) == 10
        assert np.array_equal(a_X, b_X)
        full_X, full_ids = build_pool(small_collection)
        positions = [full_ids.index(i) for i in a_ids]
        assert positions == sorted(positions)

    def test_cap_above_size_is_identity(self, small_collection):
        from crossrep.clustering import build_pool
        X, ids = build_pool(small_collection, cap=10_000)
        assert X.shape[0] == len(ids) == 36
