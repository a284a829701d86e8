import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrep import evaluation
from crossrep.data import make_fold_plan, make_holdout_plan
from crossrep.errors import ValidationError
from crossrep.evaluation import (CvResult, Representation,
                                 compare_representations, comparison_tsv,
                                 cross_validate, improvement_pct, render_comparison,
                                 rmse, win_count)
from crossrep.learners import LearnerSpec, TrainFingerprint, fit_learner


finite_vectors = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    )
)


class TestRmse:
    def test_identity(self):
        assert rmse(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0

    def test_unit_error(self):
        assert rmse(np.array([1.0, 3.0]), np.array([2.0, 4.0])) == 1.0

    def test_direct_arithmetic(self):
        value = rmse(np.array([0.0, 0.0, 0.0]), np.array([1.0, 2.0, 2.0]))
        assert abs(value - np.sqrt(3.0)) < 1e-4  # sqrt(9/3) = 1.7321

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            rmse(np.ones(3), np.ones(4))

    def test_empty(self):
        with pytest.raises(ValidationError):
            rmse(np.empty(0), np.empty(0))

    @given(finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_property(self, pair):
        p, t = np.asarray(pair[0]), np.asarray(pair[1])
        assert rmse(p, t) == rmse(t, p)

    @given(finite_vectors, st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_scaling_property(self, pair, c):
        p, t = np.asarray(pair[0]), np.asarray(pair[1])
        base = rmse(p, t)
        scaled = rmse(c * p, c * t)
        # Rounding c * p and c * t moves each difference by up to
        # eps * |c| * max(|p_i|, |t_i|), and the rmse by no more than that:
        # two entries one ulp apart near 1e6 are not one scaled ulp apart.
        rounding = np.finfo(np.float64).eps * abs(c) * max(np.abs(p).max(), np.abs(t).max())
        assert scaled == pytest.approx(abs(c) * base, rel=1e-9, abs=1e-12 + rounding)


class TestImprovementPct:
    def test_meta_learning_rf_row(self):
        assert improvement_pct(0.1184, 0.0526) == pytest.approx(55.57, abs=0.01)

    def test_gene_rf_row(self):
        assert improvement_pct(0.0694, 0.0664) == pytest.approx(4.32, abs=0.01)

    def test_no_change_is_zero(self):
        for x in (0.1, 1.0, 42.0):
            assert improvement_pct(x, x) == 0.0

    def test_zero_original_rejected(self):
        with pytest.raises(ValidationError):
            improvement_pct(0.0, 0.1)

    @given(st.floats(1e-6, 1e6), st.floats(0, 1e6), st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_rescaling_invariance(self, orig, tl, c):
        assert improvement_pct(c * orig, c * tl) == pytest.approx(
            improvement_pct(orig, tl), rel=1e-9, abs=1e-9)


class TestCrossValidate:
    def test_constant_learner_matches_direct_recomputation(self):
        # all-zero features force ridge to predict the training mean
        rng = np.random.default_rng(0)
        n = 24
        y = rng.normal(size=n) * 2.0
        X = np.zeros((n, 2))
        plan = make_fold_plan(n, 4, seed=1)
        result = cross_validate(X, y, LearnerSpec.ridge(1.0), plan, task_id="t")
        for f in range(4):
            train, test = plan.split(f)
            expected = rmse(np.full(len(test), y[train].mean()), y[test])
            assert result.per_fold_rmse[f] == pytest.approx(expected, abs=1e-12)

    def test_loo_scores_absolute_errors(self):
        rng = np.random.default_rng(1)
        n = 6
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        plan = make_fold_plan(n, n, seed=0)
        result = cross_validate(X, y, LearnerSpec.ridge(5.0), plan)
        assert len(result.per_fold_rmse) == n  # each fold scores one example

    def test_shared_plan_hash(self):
        rng = np.random.default_rng(2)
        n = 15
        plan = make_fold_plan(n, 3, seed=7)
        X = rng.normal(size=(n, 3))
        ext = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        a = cross_validate(X, y, LearnerSpec.ridge(1.0), plan, task_id="t")
        b = cross_validate(ext, y, LearnerSpec.ridge(1.0), plan, task_id="t",
                           representation=Representation.transformed(LearnerSpec.ridge(1.0)))
        assert a.plan_digest == b.plan_digest

    def test_mean_is_mean_of_folds(self):
        rng = np.random.default_rng(3)
        n = 20
        plan = make_fold_plan(n, 5, seed=2)
        result = cross_validate(rng.normal(size=(n, 2)), rng.normal(size=n),
                                LearnerSpec.ridge(2.0), plan)
        assert result.mean_rmse == pytest.approx(np.mean(result.per_fold_rmse))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_squared_error_names_the_fold(self):
        """A fold whose squared error overflows fails; it is not scored inf."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        y[4] = 1e300
        with pytest.raises(ValidationError, match="^fold 0 of task 't': squared prediction "
                                                  "error overflows$"):
            cross_validate(X, y, LearnerSpec.ridge(1.0), make_fold_plan(12, 3, seed=0),
                           task_id="t")


class TestWinCount:
    def test_all_tied(self):
        scores = {"a": 0.5, "b": 0.4}
        assert win_count(scores, dict(scores)) == (0, 0, 2)

    def test_challenger_sweeps(self):
        base = {"a": 0.5, "b": 0.4}
        assert win_count(base, {"a": 0.4, "b": 0.3}) == (2, 0, 0)

    def test_mixed(self):
        base = {"a": 0.5, "b": 0.4, "c": 0.3}
        chal = {"a": 0.4, "b": 0.4, "c": 0.5}
        assert win_count(base, chal) == (1, 1, 1)

    def test_task_set_mismatch(self):
        with pytest.raises(ValidationError, match="task sets differ"):
            win_count({"a": 1.0}, {"b": 1.0})

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(0, 10), min_size=1, max_size=20),
           st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, base, seed):
        rng = np.random.default_rng(seed)
        chal = {k: max(0.0, v + rng.normal() * 0.1) for k, v in base.items()}
        wins, losses, ties = win_count(base, chal)
        assert wins + losses + ties == len(base)


def _cv(task_id, score, rep, final):
    return CvResult(task_id=task_id, per_fold_rmse=(score,), representation=rep,
                    final=final.label, plan_digest="", reused_folds=0)


class TestCompareRepresentations:
    FINAL = LearnerSpec.forest(n_trees=10, seed=0)
    TRANS = LearnerSpec.ridge(10.0)

    def _results(self):
        orig = Representation.original()
        tl = Representation.transformed(self.TRANS)
        out = []
        for i, (a, b) in enumerate([(0.5, 0.4), (0.4, 0.4), (0.3, 0.5)]):
            out.append(_cv(f"t{i}", a, orig, self.FINAL))
            out.append(_cv(f"t{i}", b, tl, self.FINAL))
        return out

    def test_single_learner_intrinsic_only(self):
        rows = compare_representations(
            [_cv("t0", 0.5, Representation.original(), self.FINAL),
             _cv("t1", 0.3, Representation.original(), self.FINAL)])
        assert len(rows) == 1
        assert rows[0].improvement is None

    def test_improvement_from_row_means(self):
        table = compare_representations(
            [_cv("t0", 0.1643, Representation.original(), self.FINAL),
             _cv("t0", 0.1478, Representation.transformed(self.TRANS), self.FINAL)])
        tl_row = [r for r in table if r.improvement is not None][0]
        assert tl_row.improvement == pytest.approx(10.04, abs=0.05)

    def test_win_counts_partition(self):
        table = compare_representations(self._results())
        tl_row = [r for r in table if r.improvement is not None][0]
        assert (tl_row.wins, tl_row.losses, tl_row.ties) == (1, 1, 1)
        assert tl_row.wins + tl_row.losses + tl_row.ties == tl_row.task_count

    def test_order_independence(self):
        results = self._results()
        a = compare_representations(results)
        b = compare_representations(list(reversed(results)))
        assert a == b

    @given(st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_order_independence_property(self, seed):
        rng = np.random.default_rng(seed)
        results = self._results()
        perm = rng.permutation(len(results))
        shuffled = [results[i] for i in perm]
        assert compare_representations(shuffled) == compare_representations(results)

    def test_incomplete_coverage_rejected(self):
        results = self._results()[:-1]  # drop one transformed result
        with pytest.raises(ValidationError, match="different task sets"):
            compare_representations(results)

    def test_render_contains_pivot_columns(self):
        text = render_comparison(compare_representations(self._results()))
        assert "Original rep." in text
        assert "TL - Ridge" in text
        assert "(%)" in text

    def test_tsv_round_numbers(self):
        tsv = comparison_tsv(compare_representations(self._results()))
        assert tsv.startswith("final\trepresentation")
        assert "RF\t" in tsv


class TestCrossValidateFittedModels:
    """A given model scores the fold it is the own fit of; any other is ignored."""

    N = 30
    SVR = LearnerSpec.svr(c=2.0, epsilon=0.05, sigma=0.3)

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(self.N, 3))
        y = X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=self.N)
        ids = tuple(f"r{i}" for i in range(self.N))
        return X, y, ids, make_holdout_plan(self.N, 0.3, seed=6)

    def fold_model(self, data, spec, rows=None, task_id="t"):
        X, y, ids, plan = data
        train = plan.split(0)[0] if rows is None else rows
        fp = TrainFingerprint(task_id=task_id, row_ids=tuple(ids[i] for i in train))
        return fit_learner(spec, X[train], y[train], fingerprint=fp, seed=99)

    def score(self, data, spec, fitted=()):
        X, y, ids, plan = data
        return cross_validate(X, y, spec, plan, task_id="t", row_ids=ids, fitted=fitted)

    def fits(self, monkeypatch):
        calls = []
        def counted(*args, _fit=evaluation.fit_learner, **kwargs):
            calls.append(args)
            return _fit(*args, **kwargs)
        monkeypatch.setattr(evaluation, "fit_learner", counted)
        return calls

    @pytest.mark.parametrize("spec", [SVR, LearnerSpec.ridge(2.0)], ids=["svr", "ridge"])
    def test_matching_model_scores_like_the_refit(self, data, spec, monkeypatch):
        refit = self.score(data, spec)
        assert refit.reused_folds == 0
        other_seed = LearnerSpec(spec.kind, spec.hyperparams, seed=5)
        fitted = self.fold_model(data, other_seed)
        calls = self.fits(monkeypatch)
        result = self.score(data, spec, [fitted])
        assert calls == []
        assert result.reused_folds == 1
        assert result.per_fold_rmse == refit.per_fold_rmse

    def test_first_matching_model_is_scored(self, data, monkeypatch):
        other = self.fold_model(data, self.SVR, task_id="u")
        fitted = self.fold_model(data, self.SVR)
        calls = self.fits(monkeypatch)
        result = self.score(data, self.SVR, iter([other, fitted, fitted]))
        assert calls == []
        assert result.reused_folds == 1

    def assert_ignored(self, data, spec, model, monkeypatch):
        refit = self.score(data, spec)
        calls = self.fits(monkeypatch)
        result = self.score(data, spec, (model,))
        assert len(calls) == 1
        assert result.reused_folds == 0
        assert result.per_fold_rmse == refit.per_fold_rmse

    @pytest.mark.parametrize("other", ["fewer-rows", "other-task"])
    def test_model_of_other_rows_ignored(self, data, other, monkeypatch):
        train = data[3].split(0)[0]
        model = (self.fold_model(data, self.SVR, rows=train[1:]) if other == "fewer-rows"
                 else self.fold_model(data, self.SVR, task_id="u"))
        self.assert_ignored(data, self.SVR, model, monkeypatch)

    def test_model_of_other_width_ignored(self, data, monkeypatch):
        """The fold's rows and spec on fewer columns, as the stage-2 model is
        next to an augmented view."""
        X, y, ids, plan = data
        narrow = self.fold_model((X[:, :2], y, ids, plan), self.SVR)
        self.assert_ignored(data, self.SVR, narrow, monkeypatch)

    @pytest.mark.parametrize("spec, fitted_spec", [
        (SVR, LearnerSpec.svr(c=1.0, epsilon=0.05, sigma=0.3)),
        (SVR, LearnerSpec.ridge(2.0)),
        (LearnerSpec.forest(n_trees=2, seed=3), LearnerSpec.forest(n_trees=2, seed=3)),
        (LearnerSpec.ridge_cv((1.0, 10.0), k=3), LearnerSpec.ridge_cv((1.0, 10.0), k=3)),
    ], ids=["other-c", "other-kind", "seeded-forest", "seeded-ridge_cv"])
    def test_model_of_other_fit_ignored(self, data, spec, fitted_spec, monkeypatch):
        self.assert_ignored(data, spec, self.fold_model(data, fitted_spec), monkeypatch)

    def test_kfold_matches_only_its_own_fold(self, data, monkeypatch):
        X, y, ids, _ = data
        plan = make_fold_plan(self.N, 3, seed=2)
        refit = cross_validate(X, y, self.SVR, plan, task_id="t", row_ids=ids)
        fold1 = self.fold_model((X, y, ids, plan), self.SVR, rows=plan.split(1)[0])
        calls = self.fits(monkeypatch)
        result = cross_validate(X, y, self.SVR, plan, task_id="t", row_ids=ids,
                                fitted=(fold1,))
        assert len(calls) == 2
        assert result.reused_folds == 1
        assert result.per_fold_rmse == refit.per_fold_rmse


class TestCrossValidateInputForms:
    def test_scores_task_features(self):
        from conftest import make_task
        task = make_task("direct", n=12, p=2, seed=3)
        plan = make_fold_plan(12, 3, seed=0)
        result = cross_validate(task.features, task.targets, LearnerSpec.ridge(1.0), plan,
                                task_id=task.task_id)
        assert result.task_id == "direct"
        assert len(result.per_fold_rmse) == 3

    def test_scores_extrinsic_values(self):
        from crossrep.engine import ExtrinsicMatrix
        rng = np.random.default_rng(0)
        ext = ExtrinsicMatrix(values=rng.normal(size=(12, 2)),
                              source_model_ids=("a", "b"), target_task_id="me")
        plan = make_fold_plan(12, 3, seed=0)
        result = cross_validate(ext.values, rng.normal(size=12), LearnerSpec.ridge(1.0),
                                plan, task_id=ext.target_task_id)
        assert result.task_id == "me"
