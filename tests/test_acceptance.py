"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS` line once its assertions hold, so
a verbose run reads as a checklist. Criteria 4 and 5 share one synthetic
benchmark fixture (the most expensive step, a few minutes single-threaded).
"""

import numpy as np
import pytest

from crossrep.data import CollectionMode, SplitKind
from crossrep.engine import (audit_no_leakage, build_extrinsic, cross_predict,
                             second_order_extrinsic, select_descriptors, stage1_train,
                             stage2_train)
from crossrep.evaluation import improvement_pct, rmse, win_count
from crossrep.learners import (LearnerSpec, Standardizer, fit_forest, fit_ridge, fit_svr,
                               predict, rbf_gram)
from crossrep.learners.svr import _smo
from crossrep.pipeline import (PipelineConfig, SplitProtocol, render_report, run_pipeline,
                               scores_tsv, write_result)
from crossrep.seeding import derive_seed
from crossrep.synth import Nonlinearity, SynthSpec, generate_collection

from helpers import (dual_objective, gradient_descent_ridge, oracle_extrinsic,
                     projected_gradient_svr_dual)


def report(n, message):
    print(f"[criterion {n}] PASS: {message}")


# --------------------------------------------------------------------------
# 1. Improvement-formula reproduction on fixed reference RMSE pairs
# --------------------------------------------------------------------------

def test_criterion_1_improvement_formula():
    cases = [
        # (original RMSE, transformed RMSE, expected %, tolerance)
        (0.1184, 0.0526, 55.57, 0.01),
        (0.0694, 0.0664, 4.32, 0.01),
        (0.0724, 0.0673, 7.04, 0.01),
        (0.1643, 0.1478, 10.05, 0.05),  # exact value 10.04; wider tolerance
    ]
    for orig, tl, expected, tol in cases:
        assert improvement_pct(orig, tl) == pytest.approx(expected, abs=tol)
    report(1, "all four reference RMSE pairs reproduce their expected percentages")


# --------------------------------------------------------------------------
# 2. Oracle equivalence (bitwise) for first- and second-order transforms
# --------------------------------------------------------------------------

LEARNERS = {
    "ridge": LearnerSpec.ridge(5.0),
    "forest": LearnerSpec.forest(n_trees=6, seed=3),
    "svr": LearnerSpec.svr(c=2.0, epsilon=0.05, sigma=0.3),
}


def test_criterion_2_oracle_equivalence():
    col = generate_collection(SynthSpec(
        n_tasks=4, n_examples_per_task=10, n_features=5, relatedness=0.7,
        nonlinearity=Nonlinearity.NONLINEAR, noise_sd=0.1, seed=21))
    for name, spec in LEARNERS.items():
        bank = stage1_train(col, spec)
        stage2_models, stage2_sources = {}, {}
        for task in col.tasks:
            ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
            oracle = oracle_extrinsic(col, bank, task.task_id)
            assert np.array_equal(ext.values, oracle), f"{name}: first order differs"
            stage2_models[task.task_id] = stage2_train(ext, task.targets, spec)
            stage2_sources[task.task_id] = ext.source_model_ids
        stage2_columns = {t: bank.columns(ids) for t, ids in stage2_sources.items()}
        for task in col.tasks:
            ext2 = second_order_extrinsic(task.task_id, bank, stage2_models, stage2_columns,
                                          cross_predict(bank, task.features))
            # manual chaining oracle, one example and one source at a time
            for j, src in enumerate(ext2.source_model_ids):
                for i in range(task.n_examples):
                    row = task.features[i : i + 1]
                    view = np.column_stack(
                        [predict(bank.models[s], row) for s in stage2_sources[src]])
                    expected = predict(stage2_models[src], view)[0]
                    assert ext2.values[i, j] == expected, f"{name}: second order differs"
    report(2, "first- and second-order transforms match brute-force oracles bitwise "
              "for ridge, forest, and SVR banks")


# --------------------------------------------------------------------------
# 3. Learner correctness against numerical oracles
# --------------------------------------------------------------------------

def test_criterion_3_learner_correctness():
    # ridge vs gradient-descent oracle on seeded 5x3 problems
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        model = fit_ridge(X, y, 10.0)
        # the fit solves on the standardized design
        b0, beta = gradient_descent_ridge(Standardizer.fit(X).transform(X), y, 10.0)
        assert abs(model.state.intercept - b0) < 1e-6
        assert np.max(np.abs(model.state.coef - beta)) < 1e-6

    # objective gradient vanishes at the solution (finite differences)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    lam = 10.0
    model = fit_ridge(X, y, lam)
    X = Standardizer.fit(X).transform(X)  # the design the fit solves
    theta = np.concatenate([[model.state.intercept], model.state.coef])

    def objective(t):
        r = y - t[0] - X @ t[1:]
        return r @ r + lam * t[1:] @ t[1:]

    h = 1e-6
    fd = np.array([(objective(theta + h * e) - objective(theta - h * e)) / (2 * h)
                   for e in np.eye(4)])
    assert np.linalg.norm(fd) < 1e-6

    # SVR dual objective vs projected-gradient oracle on a 6-point problem
    rng = np.random.default_rng(2)
    Xs = rng.normal(size=(6, 1))
    ys = np.sin(Xs[:, 0]) + 0.1 * rng.normal(size=6)
    c, eps, sigma = 2.0, 0.05, 0.5
    K = rbf_gram(Xs, Xs, sigma)
    a, _, _, _ = _smo(K, ys, c, eps, 1e-8, 500_000)
    _, oracle_obj = projected_gradient_svr_dual(K, ys, c, eps)
    assert abs(dual_objective(K, ys, eps, a) - oracle_obj) < 1e-6

    # forest predictions stay within [min(y), max(y)]: 1,000 randomized checks
    rng = np.random.default_rng(4)
    checks = 0
    while checks < 1000:
        n = int(rng.integers(4, 30))
        p = int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) * float(rng.uniform(0.1, 20))
        model = fit_forest(X, y, n_trees=8, min_node_size=int(rng.integers(1, 6)),
                           seed=checks)
        pred = predict(model, rng.normal(size=(50, p)) * 3)
        assert pred.min() >= y.min() - 1e-12 and pred.max() <= y.max() + 1e-12
        checks += len(pred)
    report(3, "ridge matches gradient descent (1e-6), gradients vanish, SVR dual "
              "matches projected gradient (1e-6), forest range bound held on "
              f"{checks} randomized predictions")


# --------------------------------------------------------------------------
# 4 & 5. Qualitative reproduction on the pinned synthetic collection
# --------------------------------------------------------------------------

BENCH_SPEC = SynthSpec(n_tasks=40, n_examples_per_task=200, n_features=30,
                       relatedness=0.8, nonlinearity=Nonlinearity.NONLINEAR,
                       noise_sd=0.1, seed=7)


def _improvements(result):
    intrinsic = {r.task_id: r.mean_rmse for r in result.results
                 if r.representation.order == 0}
    transformed = {r.task_id: r.mean_rmse for r in result.results
                   if r.representation.order > 0}
    wins, _, _ = win_count(intrinsic, transformed)
    mean_int = float(np.mean(sorted(intrinsic.values())))
    mean_tl = float(np.mean(sorted(transformed.values())))
    return wins / len(intrinsic), improvement_pct(mean_int, mean_tl)


@pytest.fixture(scope="module")
def synth_benchmark():
    collection = generate_collection(BENCH_SPEC)
    final = LearnerSpec.forest(n_trees=60, seed=2)
    split = SplitProtocol(SplitKind.KFOLD, k=5)
    rf = run_pipeline(PipelineConfig(
        collection=collection, transformer_spec=LearnerSpec.forest(n_trees=120, seed=1),
        final_spec=final, split=split, seed=7))
    ridge = run_pipeline(PipelineConfig(
        collection=collection, transformer_spec=LearnerSpec.ridge(10.0, seed=1),
        final_spec=final, split=split, seed=7))
    return rf, ridge


def test_criterion_4_transformed_beats_intrinsic(synth_benchmark):
    rf_result, _ = synth_benchmark
    win_rate, mean_improvement = _improvements(rf_result)
    assert win_rate >= 0.70
    assert mean_improvement >= 3.0
    report(4, f"forest transformer wins on {win_rate:.0%} of tasks with "
              f"{mean_improvement:.2f}% mean improvement (needs >=70%, >=3%)")


def test_criterion_5_linear_transformer_fails(synth_benchmark):
    rf_result, ridge_result = synth_benchmark
    _, rf_improvement = _improvements(rf_result)
    _, ridge_improvement = _improvements(ridge_result)
    assert ridge_improvement <= 1.0
    assert rf_improvement - ridge_improvement >= 2.0
    report(5, f"ridge transformer improvement {ridge_improvement:.2f}% (needs <=1%), "
              f"{rf_improvement - ridge_improvement:.2f}pp behind the forest "
              "transformer (needs >=2pp)")


# --------------------------------------------------------------------------
# 6. Width laws
# --------------------------------------------------------------------------

def test_criterion_6_width_laws():
    for n_tasks in (10, 53):
        col = generate_collection(SynthSpec(
            n_tasks=n_tasks, n_examples_per_task=12, n_features=4, relatedness=0.6,
            nonlinearity=Nonlinearity.LINEAR, noise_sd=0.05, seed=31))
        bank = stage1_train(col, LearnerSpec.ridge(5.0))
        for task in col.tasks:
            ext = build_extrinsic(task.task_id, bank, cross_predict(bank, task.features))
            assert ext.n_columns == n_tasks - 1
        # descriptor capping yields exactly min(cap, n - 1) columns
        ext = build_extrinsic(col.tasks[0].task_id, bank,
                              cross_predict(bank, col.tasks[0].features))
        for cap in (1, 5, n_tasks - 1, n_tasks + 10):
            capped = select_descriptors(ext, cap, seed=1)
            assert capped.n_columns == min(cap, n_tasks - 1)
    report(6, "extrinsic width is n-1 on 10- and 53-task collections "
              "(9 and 52 columns); capping yields min(cap, n-1)")


# --------------------------------------------------------------------------
# 7. Determinism and no-leakage
# --------------------------------------------------------------------------

def test_criterion_7_determinism_and_no_leakage(tmp_path):
    col = generate_collection(SynthSpec(
        n_tasks=4, n_examples_per_task=24, n_features=6, relatedness=0.8,
        nonlinearity=Nonlinearity.NONLINEAR, noise_sd=0.1, seed=13))
    split = SplitProtocol(SplitKind.KFOLD, k=3)
    results = []
    for _ in range(2):
        cfg = PipelineConfig(collection=col,
                             transformer_spec=LearnerSpec.forest(n_trees=10, seed=1),
                             final_spec=LearnerSpec.forest(n_trees=10, seed=2),
                             split=split, seed=17)
        results.append(run_pipeline(cfg))
    write_result(results[0], tmp_path / "r1")
    write_result(results[1], tmp_path / "r2")
    assert ((tmp_path / "r1" / "scores.tsv").read_bytes()
            == (tmp_path / "r2" / "scores.tsv").read_bytes())
    assert scores_tsv(results[0]) == scores_tsv(results[1])

    shared = generate_collection(SynthSpec(
        n_tasks=6, n_examples_per_task=30, n_features=5, relatedness=0.8,
        nonlinearity=Nonlinearity.NONLINEAR, noise_sd=0.1, seed=19,
        mode=CollectionMode.SHARED_EXAMPLES))
    cfg = PipelineConfig(collection=shared, transformer_spec=LearnerSpec.ridge(5.0),
                         final_spec=LearnerSpec.ridge(5.0),
                         split=SplitProtocol(SplitKind.HOLDOUT, test_fraction=0.3),
                         seed=23)
    result = run_pipeline(cfg)
    assert "leakage audit: clean" in render_report(result).splitlines()
    # re-run the mechanical audit directly from the fingerprints
    plan = cfg.split.make_plan(30, derive_seed(23, "split"))
    _, test_idx = plan.split(0)
    heldout = [shared.tasks[0].example_ids[i] for i in test_idx]
    train, _ = plan.split(0)
    bank = stage1_train(shared, LearnerSpec.ridge(5.0),
                        {t: train for t in shared.task_ids})
    assert audit_no_leakage(bank, heldout) == []
    report(7, "score tables byte-identical across two runs of one config; "
              "shared-examples fingerprint audit clean on a 6-task collection")


# --------------------------------------------------------------------------
# 8. Metric and clustering property suites (200 randomized cases each)
# --------------------------------------------------------------------------

def test_criterion_8_property_suites():
    from crossrep.clustering import kmeans

    rng = np.random.default_rng(99)
    for case in range(200):
        n = int(rng.integers(1, 30))
        p_vec = rng.normal(size=n) * float(rng.uniform(0.1, 100))
        t_vec = rng.normal(size=n) * float(rng.uniform(0.1, 100))
        c = float(rng.uniform(0.01, 50))
        # rmse symmetry and scaling
        assert rmse(p_vec, t_vec) == rmse(t_vec, p_vec)
        assert rmse(c * p_vec, c * t_vec) == pytest.approx(c * rmse(p_vec, t_vec),
                                                           rel=1e-9, abs=1e-12)
        # improvement invariance under joint rescaling
        orig, tl = float(rng.uniform(0.01, 10)), float(rng.uniform(0, 10))
        assert improvement_pct(c * orig, c * tl) == pytest.approx(
            improvement_pct(orig, tl), rel=1e-9, abs=1e-9)
        # win counts partition the task set
        m = int(rng.integers(1, 12))
        base = {f"t{i}": float(rng.uniform(0.1, 2)) for i in range(m)}
        chal = {k: max(0.0, v + float(rng.normal()) * 0.2) for k, v in base.items()}
        w, l, t = win_count(base, chal)
        assert w + l + t == m

    for case in range(200):
        n = int(rng.integers(2, 14))
        k = int(rng.integers(1, min(n, 4) + 1))
        X = rng.normal(size=(n, 3))
        seed = int(rng.integers(0, 2**31))
        res = kmeans(X, k=k, seed=seed)
        again = kmeans(X, k=k, seed=seed)
        assert np.array_equal(res.assignments, again.assignments)
        hist = res.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
        if res.converged:
            for cluster in range(k):
                members = res.assignments == cluster
                if members.any():
                    assert np.max(np.abs(res.centroids[cluster]
                                         - X[members].mean(axis=0))) < 1e-9
            d2 = ((X[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
            assert np.all(d2[np.arange(n), res.assignments] <= d2.min(axis=1) + 1e-12)
    report(8, "metric and clustering property suites passed 200 randomized cases per property")
