"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved by sequential pairwise optimization over the 2l box
variables (alpha, alpha*): at each step the maximal-violating pair is
selected and optimized in closed form under the equality constraint.
Termination requires the KKT violation gap to fall below ``tol``; hitting
the iteration cap raises instead of returning silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from .base import (FittedModel, LearnerKind, LearnerSpec, Standardizer, check_fit_input,
                   check_hyperparams)


def rbf_gram(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    """Gram matrix K[i, j] = exp(-sigma * ||A_i - B_j||^2).

    Each entry is one sum along the contiguous feature axis of A_i - B_j,
    so it does not depend on the other rows of A or B (bitwise row
    stability). B is taken up to 64 rows at a time, one 3-D difference
    each; a chunk holds about 2**15 differences (256 KiB) at most, which
    keeps it in cache and peak memory flat, and only one chunk is alive.
    """
    K = np.empty((A.shape[0], B.shape[0]), dtype=np.float64)
    step = max(1, min(64, (1 << 15) // max(1, A.size)))
    for j in range(0, B.shape[0], step):
        d = A - B[j:j + step, None]
        d *= d
        K[:, j:j + step] = np.exp(-sigma * d.sum(axis=2)).T
        del d  # before the next chunk is built, not after
    return K


@dataclass(frozen=True)
class SvrState:
    support: np.ndarray
    dual_coef: np.ndarray
    bias: float
    sigma: float
    n_iter: int
    kkt_gap: float

    def diagnostics(self) -> dict:
        return {"n_iter": self.n_iter, "kkt_gap": self.kkt_gap}


def predict_state(state: SvrState, X: np.ndarray) -> np.ndarray:
    if state.support.shape[0] == 0:
        return np.full(X.shape[0], state.bias, dtype=np.float64)
    K = rbf_gram(X, state.support, state.sigma)
    return (K * state.dual_coef).sum(axis=1) + state.bias


def _smo(K: np.ndarray, y: np.ndarray, c: float, epsilon: float, tol: float,
         max_iter: int) -> tuple[np.ndarray, float, int, float]:
    """Returns (a, bias, n_iter, kkt_gap) for the 2l-variable dual.

    Variable k < l is alpha_k (u_k = +1), variable l + k is alpha*_k
    (u_k = -1). Each iteration refreshes the gradient and the violation
    values in preallocated buffers and updates the up/low index sets only
    at the two variables it moves; the pair update runs on Python floats.
    ``K`` must be exactly symmetric: the Kbeta update reads rows of K in
    place of its columns.
    """
    l = len(y)
    a = [0.0] * (2 * l)
    diag = K.diagonal().tolist()
    neg_u = np.concatenate([-np.ones(l), np.ones(l)])
    Kbeta = np.zeros(l, dtype=np.float64)
    g = np.empty(2 * l, dtype=np.float64)
    g_alpha, g_star = g[:l], g[l:]
    vals = np.empty(2 * l, dtype=np.float64)
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
        # g = [(Kbeta + eps) - y, ((-Kbeta) + eps) + y], vals = -u * g
        np.add(Kbeta, epsilon, out=g_alpha)
        np.subtract(g_alpha, y, out=g_alpha)
        np.negative(Kbeta, out=g_star)
        np.add(g_star, epsilon, out=g_star)
        np.add(g_star, y, out=g_star)
        np.multiply(neg_u, g, out=vals)
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


def fit_svr(X: np.ndarray, y: np.ndarray, *, c: float = 1.0, epsilon: float = 0.1,
            sigma: float = 0.2, tol: float = 1e-3, max_iter: int = 200_000) -> FittedModel:
    """Solve the dual on the standardized X; the support rows are kept standardized."""
    X, y = check_fit_input(X, y, min_rows=2)
    check_hyperparams(LearnerKind.SVR, {"c": c, "epsilon": epsilon, "sigma": sigma,
                                        "tol": tol, "max_iter": max_iter})
    scaler = Standardizer.fit(X)
    Z = scaler.transform(X)
    K = rbf_gram(Z, Z, sigma)
    a, bias, n_iter, gap = _smo(K, y, float(c), float(epsilon), float(tol), int(max_iter))
    l = len(y)
    beta = a[:l] - a[l:]
    sv = beta != 0.0
    spec = LearnerSpec.svr(c=c, epsilon=epsilon, sigma=sigma, tol=tol, max_iter=max_iter)
    state = SvrState(support=Z[sv].copy(), dual_coef=beta[sv].copy(), bias=bias,
                     sigma=float(sigma), n_iter=n_iter, kkt_gap=gap)
    return FittedModel(spec=spec, state=state, feature_count=X.shape[1],
                       standardization=scaler)
