"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's solution paths: ridge is solved by
plain gradient descent, the SVR dual by projected gradient with a tiny
step size, the extrinsic matrix model by model and row by row, and forest
predictions node by node. The scalar RBF kernel, the SVR dual objective
and the inverse of target normalization are checks the library itself
never calls. K-means keeps the all-centroids-at-once broadcast distances
the library computed before it went one centroid at a time.
"""

import numpy as np

from crossrep.clustering import ClusterResult
from crossrep.errors import ValidationError
from crossrep.learners import predict


def rbf_kernel(x, z, sigma):
    """k(x, z) = exp(-sigma * ||x - z||^2) for two vectors."""
    x = np.asarray(x, dtype=np.float64).ravel()
    z = np.asarray(z, dtype=np.float64).ravel()
    if x.shape != z.shape:
        raise ValidationError(f"kernel input length mismatch: {x.shape[0]} vs {z.shape[0]}")
    if sigma <= 0:
        raise ValidationError(f"kernel width must be positive, got {sigma}")
    d = x - z
    return float(np.exp(-sigma * (d * d).sum()))


def dual_objective(K, y, epsilon, a):
    """Objective (minimized) of the 2l-variable SVR dual at point ``a``."""
    l = len(y)
    beta = a[:l] - a[l:]
    return float(0.5 * beta @ K @ beta + epsilon * a.sum() - y @ beta)


def denormalize_targets(values, original):
    """Inverse of ``data.normalize_targets``, from the targets it rescaled."""
    lo, hi = float(np.min(original)), float(np.max(original))
    return np.asarray(values, dtype=np.float64) * (hi - lo) + lo


def ridge_gradient(X, y, b0, beta, lam):
    r = y - b0 - X @ beta
    return np.concatenate([[-2.0 * r.sum()], -2.0 * X.T @ r + 2.0 * lam * beta])


def ridge_objective(X, y, b0, beta, lam):
    r = y - b0 - X @ beta
    return float(r @ r + lam * beta @ beta)


def gradient_descent_ridge(X, y, lam, grad_tol=1e-10, max_iter=2_000_000):
    """Plain gradient descent on ||y - b0 - X beta||^2 + lam ||beta||^2."""
    n, p = X.shape
    aug = np.hstack([np.ones((n, 1)), X])
    lip = 2.0 * (np.linalg.norm(aug, 2) ** 2 + lam)
    step = 1.0 / lip
    theta = np.zeros(p + 1)
    for _ in range(max_iter):
        g = ridge_gradient(X, y, theta[0], theta[1:], lam)
        if np.linalg.norm(g) < grad_tol:
            break
        theta = theta - step * g
    else:
        raise AssertionError("ridge gradient descent failed to converge")
    return theta[0], theta[1:]


def project_box_hyperplane(v, c, u):
    """Exact projection onto {0 <= a <= c, u.a = 0} by bisection on theta."""
    lo = -(c + np.abs(v).max())
    hi = c + np.abs(v).max()

    def h(theta):
        return float(u @ np.clip(v - theta * u, 0.0, c))

    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * u, 0.0, c)


def projected_gradient_svr_dual(K, y, c, epsilon, n_iter=20_000):
    """Projected gradient on the 2l-variable SVR dual; returns (a, objective)."""
    l = len(y)
    u = np.concatenate([np.ones(l), -np.ones(l)])
    p = np.concatenate([epsilon - y, epsilon + y])

    def grad(a):
        beta = a[:l] - a[l:]
        kb = K @ beta
        return np.concatenate([kb, -kb]) + p

    def objective(a):
        beta = a[:l] - a[l:]
        return float(0.5 * beta @ K @ beta + p @ a)

    lip = 2.0 * np.linalg.eigvalsh(K).max() + 1e-9
    step = 1.0 / lip
    a = project_box_hyperplane(np.zeros(2 * l), c, u)
    for _ in range(n_iter):
        a = project_box_hyperplane(a - step * grad(a), c, u)
    return a, objective(a)


def walk_forest_predict(state, X):
    """Forest predictions by walking each tree node by node, one row at a time.

    A row goes left when its split feature is ``<=`` the threshold. Leaf
    values are summed as Python floats in tree order from 0.0 and the sum
    is divided by the tree count, which is the library's float contract.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    for i, row in enumerate(X.tolist()):
        total = 0.0
        for tree in state.trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            total += float(tree.value[node])
        out[i] = total / len(state.trees)
    return out


def oracle_extrinsic(collection, bank, task_id):
    """Naive re-derivation of the extrinsic matrix, for exact comparison.

    Deliberately loops model by model and row by row through the public
    predict call.
    """
    if task_id not in bank.models:
        raise ValidationError(f"unknown task id {task_id!r}")
    X = collection.task(task_id).features
    columns = []
    for src in bank.task_ids:
        if src == task_id:
            continue
        model = bank.models[src]
        col = np.empty(X.shape[0], dtype=np.float64)
        for i in range(X.shape[0]):
            col[i] = predict(model, X[i : i + 1])[0]
        columns.append(col)
    return np.column_stack(columns) if columns else np.empty((X.shape[0], 0))


def loop_cross_predict(bank, X):
    """``cross_predict`` model by model through the public predict call."""
    out = np.empty((X.shape[0], len(bank.models)), dtype=np.float64)
    for j, model in enumerate(bank.models.values()):
        out[:, j] = predict(model, X)
    return out


def loop_second_order_extrinsic(target_task_id, bank, stage2_models, stage2_sources,
                                predictions):
    """``second_order_extrinsic``'s values model by model: each stage-2 model
    on its sources' columns of ``predictions``, picked by task id."""
    other_ids = [t for t in bank.task_ids if t in stage2_models and t != target_task_id]
    out = np.empty((predictions.shape[0], len(other_ids)), dtype=np.float64)
    for c, j in enumerate(other_ids):
        cols = [bank.task_ids.index(s) for s in stage2_sources[j]]
        out[:, c] = predict(stage2_models[j], predictions[:, cols])
    return out


def broadcast_kmeans(X, k, seed, max_iter=300, tol=1e-6):
    """Lloyd's algorithm as ``clustering.kmeans``, with each pass's squared
    distances taken at once as ``((X[:, None, :] - C[None]) ** 2).sum(axis=2)``,
    an n x k x d temporary. ``X`` should be C-ordered, as ``kmeans`` makes it:
    on another layout the broadcast sum may add in a different order."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    chosen, seen_rows = [], set()
    for i in order:
        key = X[i].tobytes()
        if key not in seen_rows:
            seen_rows.add(key)
            chosen.append(int(i))
        if len(chosen) == k:
            break
    pos = 0
    while len(chosen) < k:
        chosen.append(int(order[pos % n]))
        pos += 1
    centroids = X[np.asarray(chosen)].copy()

    def costs(cents):
        return ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)

    def refresh(asg):
        for c in range(k):
            members = asg == c
            if members.any():
                centroids[c] = X[members].mean(axis=0)

    assignments = np.full(n, -1, dtype=np.int64)
    history = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        d2 = costs(centroids)
        new_assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assignments].sum()))
        if np.array_equal(new_assignments, assignments):
            converged = True
            break
        assignments = new_assignments
        refresh(assignments)
        if len(history) >= 2 and history[-2] - history[-1] < tol:
            d2 = costs(centroids)
            confirm = np.argmin(d2, axis=1)
            history.append(float(d2[np.arange(n), confirm].sum()))
            converged = bool(np.array_equal(confirm, assignments))
            assignments = confirm
            break
    d2 = costs(centroids)
    inertia = float(d2[np.arange(n), assignments].sum())
    return ClusterResult(assignments=assignments, centroids=centroids, inertia=inertia,
                         converged=converged, n_iter=it, inertia_history=tuple(history))
