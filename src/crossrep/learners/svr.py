"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved by sequential pairwise optimization over the 2l box
variables (alpha, alpha*): at each step the maximal-violating pair is
selected and optimized in closed form under the equality constraint.
Termination requires the KKT violation gap to fall below ``tol``; hitting
the iteration cap raises instead of returning silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConvergenceError
from .base import (FittedModel, LearnerKind, LearnerSpec, Standardizer, check_fit_input,
                   check_hyperparams)

# floats in one chunk of differences of ``rbf_gram``, and in one row block
# of the Gram that ``predict_stacked`` builds. A chunk is alive next to the
# Gram it fills, so it sets most of a fit's transient memory.
GRAM_CHUNK_FLOATS = 1 << 14


def rbf_gram(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    """Gram matrix K[i, j] = exp(-sigma * ||A_i - B_j||^2).

    Each entry is one sum along the contiguous feature axis of A_i - B_j,
    so it does not depend on the other rows of A or B (bitwise row
    stability). B is taken up to 64 rows at a time: each row's differences
    with A are written into one preallocated chunk of about
    ``GRAM_CHUNK_FLOATS`` differences (128 KiB) at most, reused for every
    chunk, which keeps it in cache and peak memory flat.
    """
    K = np.empty((A.shape[0], B.shape[0]), dtype=np.float64)
    step = max(1, min(64, GRAM_CHUNK_FLOATS // max(1, A.size)))
    buf = np.empty((min(step, B.shape[0]), *A.shape), dtype=np.float64)
    for j in range(0, B.shape[0], step):
        rows = B[j:j + step]
        d = buf[:len(rows)]
        for r, b in enumerate(rows):
            np.subtract(A, b, out=d[r])
        d *= d
        K[:, j:j + step] = np.exp(-sigma * d.sum(axis=2)).T
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


@dataclass(frozen=True)
class SvrStack:
    """m SVR models of one standardization and sigma: the distinct support
    rows of them all, and each model's support rows as positions among them."""

    standardization: Standardizer
    sigma: float
    support: np.ndarray                 # u x width, distinct by bytes
    columns: tuple[np.ndarray, ...]     # m index vectors into ``support``
    dual_coef: tuple[np.ndarray, ...]   # m
    bias: tuple[float, ...]             # m

    @classmethod
    def of(cls, models) -> "SvrStack | None":
        """Stack ``models``; None unless all are SVR models whose standardization
        has the bits of the first one's, and whose sigma is the first one's.
        The models are read in order, and none after the first that differs.
        Support rows are told apart by their bytes, so -0.0 is not 0.0."""
        rows: dict[bytes, int] = {}
        columns, coefs, biases = [], [], []
        first = None
        for m in models:
            if m.kind is not LearnerKind.SVR or m.standardization is None:
                return None
            if first is None:
                first = m
            elif (m.state.sigma != first.state.sigma
                  or m.standardization.mean.tobytes() != first.standardization.mean.tobytes()
                  or m.standardization.scale.tobytes() != first.standardization.scale.tobytes()):
                return None
            columns.append(np.array([rows.setdefault(r.tobytes(), len(rows))
                                     for r in m.state.support], dtype=np.intp))
            coefs.append(m.state.dual_coef)
            biases.append(m.state.bias)
        if first is None:
            return None
        width = first.standardization.mean.shape[0]
        support = np.frombuffer(b"".join(rows), dtype=np.float64).reshape(len(rows), width)
        return cls(standardization=first.standardization, sigma=first.state.sigma,
                   support=support, columns=tuple(columns), dual_coef=tuple(coefs),
                   bias=tuple(biases))


def predict_stacked(stack: SvrStack, X: np.ndarray) -> np.ndarray:
    """Every stacked model's predictions on the rows of X: a rows x m matrix.

    X must be finite and as wide as the support rows. Each block of rows is
    standardized once and its Gram against all the distinct support rows is
    built once; model i reads its own columns of it. A Gram entry depends
    only on its two rows, and each model sums its columns as
    ``predict_state`` does, so column i is bitwise ``predict`` of model i.
    A block's Gram holds at most ``GRAM_CHUNK_FLOATS`` floats (one row when
    the support rows alone are more).
    """
    out = np.empty((X.shape[0], len(stack.bias)), dtype=np.float64)
    step = max(1, GRAM_CHUNK_FLOATS // max(1, stack.support.shape[0]))
    for r in range(0, X.shape[0], step):
        K = rbf_gram(stack.standardization.transform(X[r:r + step]), stack.support,
                     stack.sigma)
        for i, (cols, coef, bias) in enumerate(zip(stack.columns, stack.dual_coef, stack.bias)):
            if len(cols):
                Ki = K.take(cols, axis=1)  # model i's Gram
                Ki *= coef
                np.add(Ki.sum(axis=1), bias, out=out[r:r + step, i])
                del Ki  # before the next model's is taken, not after
            else:
                out[r:r + step, i] = bias
        del K  # before the next block's Gram is built, not after
    return out


def _smo(K: np.ndarray, y: np.ndarray, c: float, epsilon: float, tol: float,
         max_iter: int) -> tuple[np.ndarray, float, int, float]:
    """Returns (a, bias, n_iter, kkt_gap) for the 2l-variable dual.

    Variable k < l is alpha_k (u_k = +1), variable l + k is alpha*_k
    (u_k = -1). Each iteration writes the violation values -u * gradient
    straight into a preallocated buffer and picks the maximal violating pair
    through two penalty vectors: ``up_pen`` is 0.0 on the up set and -inf
    off it, ``low_pen`` 0.0 on the low set and +inf off it. ``vals + up_pen``
    is vals on the up set (x + 0.0 == x) and -inf elsewhere, so its argmax
    is the first maximal index of the set; ``low_pen`` gives the argmin over
    the low set in the same way. A penalty changes only at the two variables
    a step moves. Only values that overflowed to +-inf can meet the opposite
    infinity and give nan; a step whose gap is not below +inf then takes its
    picks over the sets alone, as a masked copy would. The pair update runs
    on Python floats, and the numpy calls take 0-d float64 operands and a
    list of K's row views, which cost less per call than Python floats and
    ``K[r]``. ``K`` must be exactly symmetric: the Kbeta update reads rows
    of K in place of its columns.
    """
    l = len(y)
    a = [0.0] * (2 * l)
    diag = K.diagonal().tolist()
    rows = list(K)
    Kbeta = np.zeros(l, dtype=np.float64)
    vals = np.empty(2 * l, dtype=np.float64)
    v_alpha, v_star = vals[:l], vals[l:]
    eps = np.array(epsilon, dtype=np.float64)
    # up: alpha below c or alpha* above 0; low: alpha above 0 or alpha* below c.
    inf = np.inf
    zeros = np.zeros(l)
    up = np.concatenate([zeros < c, zeros > 0])
    low = np.concatenate([zeros > 0, zeros < c])
    n_up, n_low = int(up.sum()), int(low.sum())
    up_pen = np.where(up, 0.0, -inf)
    low_pen = np.where(low, 0.0, inf)
    up_vals = np.empty(2 * l, dtype=np.float64)
    low_vals = np.empty(2 * l, dtype=np.float64)
    scale_i = np.empty((), dtype=np.float64)
    scale_j = np.empty((), dtype=np.float64)
    step_i = np.empty(l, dtype=np.float64)
    step_j = np.empty(l, dtype=np.float64)

    gap = inf
    m = M = 0.0
    it = 0
    while True:
        # vals = -u * g for the gradient g = [(Kbeta + eps) - y, (eps - Kbeta) + y]
        np.add(Kbeta, eps, out=v_alpha)
        np.subtract(v_alpha, y, out=v_alpha)
        np.negative(v_alpha, out=v_alpha)
        np.subtract(eps, Kbeta, out=v_star)
        np.add(v_star, y, out=v_star)
        if n_up == 0 or n_low == 0:
            gap = 0.0
            break
        np.add(vals, up_pen, out=up_vals)
        np.add(vals, low_pen, out=low_vals)
        i = int(up_vals.argmax())
        j = int(low_vals.argmin())
        m = vals.item(i)
        M = vals.item(j)
        gap = m - M
        if not gap < inf:
            # Only an overflowed vals gets here: +inf (-inf) off the up (low)
            # set plus its penalty is nan, which argmax (argmin) would pick.
            # Take the picks over the sets alone.
            i = int(np.where(up_pen == 0.0, vals, -inf).argmax())
            j = int(np.where(low_pen == 0.0, vals, inf).argmin())
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
                up_pen[k] = 0.0 if in_up else -inf
                n_up += 1 if in_up else -1
            if in_low != was_low:
                low_pen[k] = 0.0 if in_low else inf
                n_low += 1 if in_low else -1
        # Kbeta += K[:, ri] * (u_i * (ai - old_i)) + K[:, rj] * (u_j * (aj - old_j))
        scale_i[()] = (ai - old_i) if i_alpha else -(ai - old_i)
        scale_j[()] = (aj - old_j) if j_alpha else -(aj - old_j)
        np.multiply(rows[ri], scale_i, out=step_i)
        np.multiply(rows[rj], scale_j, out=step_j)
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


@dataclass(frozen=True)
class SvrKernel:
    """A training matrix's standardizer, its standardized rows and their Gram."""

    scaler: Standardizer
    Z: np.ndarray
    K: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray, sigma: float) -> "SvrKernel":
        scaler = Standardizer.fit(X)
        Z = scaler.transform(X)
        return cls(scaler=scaler, Z=Z, K=rbf_gram(Z, Z, sigma))


def fit_svr(X: np.ndarray, y: np.ndarray, *, c: float = 1.0, epsilon: float = 0.1,
            sigma: float = 0.2, tol: float = 1e-3, max_iter: int = 200_000,
            kernel: Callable[[], SvrKernel] | None = None) -> FittedModel:
    """Solve the dual on the standardized X; the support rows are kept standardized.

    Fits of one X and sigma may share its kernel: ``kernel`` then returns
    ``SvrKernel.of(X, sigma)``, built once for all of them. It is called
    after the input checks, so a bad input fails as it does without it.
    """
    X, y = check_fit_input(X, y, min_rows=2)
    check_hyperparams(LearnerKind.SVR, {"c": c, "epsilon": epsilon, "sigma": sigma,
                                        "tol": tol, "max_iter": max_iter})
    kern = SvrKernel.of(X, sigma) if kernel is None else kernel()
    a, bias, n_iter, gap = _smo(kern.K, y, float(c), float(epsilon), float(tol), int(max_iter))
    l = len(y)
    beta = a[:l] - a[l:]
    sv = beta != 0.0
    spec = LearnerSpec.svr(c=c, epsilon=epsilon, sigma=sigma, tol=tol, max_iter=max_iter)
    state = SvrState(support=kern.Z[sv].copy(), dual_coef=beta[sv].copy(), bias=bias,
                     sigma=float(sigma), n_iter=n_iter, kkt_gap=gap)
    return FittedModel(spec=spec, state=state, feature_count=X.shape[1],
                       standardization=kern.scaler)
