"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's solution paths: ridge is solved by
plain gradient descent, the SVR dual by projected gradient with a tiny
step size, the extrinsic matrix model by model and row by row, and forest
predictions node by node. The scalar RBF kernel, the SVR dual objective
and the inverse of target normalization are checks the library itself
never calls. K-means keeps the all-centroids-at-once broadcast distances
the library computed before it went one centroid and one block of rows at
a time, and the distance table is built whole, as the library did before
it streamed the table to its file. The SMO loop keeps the masked copies of
the violation values that the solver took before it kept penalty vectors.
"""

import numpy as np

from crossrep.clustering import ClusterResult
from crossrep.errors import ConvergenceError, ValidationError
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
    an n x k x d temporary. ``X`` should be C-ordered, as each block ``kmeans``
    reads is: on another layout the broadcast sum may add in a different order."""
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


def distance_table(X, ids):
    """The ``--distances`` table as one string, built whole."""
    X = np.asarray(X, dtype=np.float64)
    lines = ["\t".join(["item_id", *ids])]
    for i, item_id in enumerate(ids):
        d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        lines.append("\t".join([item_id, *(repr(float(v)) for v in d)]))
    return "\n".join(lines) + "\n"


def masked_smo(K, y, c, epsilon, tol, max_iter):
    """The SVR solver's SMO loop as it was before it kept penalty vectors:
    each step copies the violation values onto the up and low sets with
    ``np.copyto(..., where=mask)`` and takes the first maximal (minimal)
    index there. ``_smo`` must return the same bits, iteration count and
    gap, or raise the same error. Returns (a, bias, n_iter, kkt_gap).
    """
    l = len(y)
    a = [0.0] * (2 * l)
    diag = K.diagonal().tolist()
    Kbeta = np.zeros(l, dtype=np.float64)
    vals = np.empty(2 * l, dtype=np.float64)
    v_alpha, v_star = vals[:l], vals[l:]
    # up: alpha below c or alpha* above 0; low: alpha above 0 or alpha* below c.
    zeros = np.zeros(l)
    up = np.concatenate([zeros < c, zeros > 0])
    low = np.concatenate([zeros > 0, zeros < c])
    n_up, n_low = int(up.sum()), int(low.sum())
    # vals on up (low), -inf (+inf) elsewhere: argmax (argmin) is the first
    # maximal (minimal) index of the set, as over vals[up] (vals[low]).
    up_vals = np.full(2 * l, -np.inf)
    low_vals = np.full(2 * l, np.inf)
    step_i = np.empty(l, dtype=np.float64)
    step_j = np.empty(l, dtype=np.float64)

    gap = np.inf
    m = M = 0.0
    it = 0
    while True:
        # vals = -u * g for the gradient g = [(Kbeta + eps) - y, (eps - Kbeta) + y]
        np.add(Kbeta, epsilon, out=v_alpha)
        np.subtract(v_alpha, y, out=v_alpha)
        np.negative(v_alpha, out=v_alpha)
        np.subtract(epsilon, Kbeta, out=v_star)
        np.add(v_star, y, out=v_star)
        if n_up == 0 or n_low == 0:
            gap = 0.0
            break
        np.copyto(up_vals, vals, where=up)
        np.copyto(low_vals, vals, where=low)
        i = int(up_vals.argmax())
        j = int(low_vals.argmin())
        m = vals.item(i)
        M = vals.item(j)
        gap = m - M
        if gap <= tol:
            break
        if it >= max_iter:
            raise ConvergenceError(
                f"SVR solver exhausted {max_iter} iterations; KKT gap {gap:.3e} > tol {tol:.1e}"
            )
        i_alpha, j_alpha = i < l, j < l
        ri, rj = (i if i_alpha else i - l), (j if j_alpha else j - l)
        gi, gj = (-m if i_alpha else m), (-M if j_alpha else M)
        sign = 1.0 if i_alpha == j_alpha else -1.0
        quad = diag[ri] + diag[rj] - 2.0 * sign * K.item(ri, rj)
        if quad <= 0.0:
            quad = 1e-12
        old_i, old_j = a[i], a[j]
        if i_alpha != j_alpha:
            delta = (-gi - gj) / quad
            diff = old_i - old_j
            ai, aj = old_i + delta, old_j + delta
            if diff > 0:
                if aj < 0:
                    aj, ai = 0.0, diff
            else:
                if ai < 0:
                    ai, aj = 0.0, -diff
            if diff > 0:
                if ai > c:
                    ai, aj = c, c - diff
            else:
                if aj > c:
                    aj, ai = c, c + diff
        else:
            delta = (gi - gj) / quad
            total = old_i + old_j
            ai, aj = old_i - delta, old_j + delta
            if total > c:
                if ai > c:
                    ai, aj = c, total - c
                elif aj > c:
                    aj, ai = c, total - c
            else:
                if aj < 0:
                    aj, ai = 0.0, total
                elif ai < 0:
                    ai, aj = 0.0, total
        a[i], a[j] = ai, aj
        # i == j only if a zero gap exceeds tol (tol < 0); a[i] then ends at aj.
        for k, old in ((i, old_i), (j, old_j)) if i != j else ((j, old_j),):
            new = a[k]
            if k < l:  # alpha: up <=> a < c, low <=> a > 0
                was_up, was_low, in_up, in_low = old < c, old > 0, new < c, new > 0
            else:  # alpha*: up <=> a > 0, low <=> a < c
                was_up, was_low, in_up, in_low = old > 0, old < c, new > 0, new < c
            if in_up != was_up:
                up[k] = in_up
                n_up += 1 if in_up else -1
                if not in_up:
                    up_vals[k] = -np.inf
            if in_low != was_low:
                low[k] = in_low
                n_low += 1 if in_low else -1
                if not in_low:
                    low_vals[k] = np.inf
        # Kbeta += K[:, ri] * (u_i * (ai - old_i)) + K[:, rj] * (u_j * (aj - old_j))
        np.multiply(K[ri], (ai - old_i) if i_alpha else -(ai - old_i), out=step_i)
        np.multiply(K[rj], (aj - old_j) if j_alpha else -(aj - old_j), out=step_j)
        np.add(step_i, step_j, out=step_i)
        np.add(Kbeta, step_i, out=Kbeta)
        it += 1

    a = np.array(a)
    free = (a > 0) & (a < c)
    if free.any():
        bias = float(np.mean(vals[free]))
    else:
        bias = float(0.5 * (m + M))
    return a, bias, it, gap
