"""Self-describing model archives.

One JSON document per model: versioned header, spec echo, fingerprint,
standardization parameters, and the fitted state with arrays stored as
base64 raw bytes so a round trip reproduces bitwise-identical predictions.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from ..data import json_field, read_json
from ..errors import IngestionError
from .base import FittedModel, LearnerKind, LearnerSpec, Standardizer, TrainFingerprint
from .forest import ForestState, Tree
from .ridge import RidgeState
from .svr import SvrState

FORMAT_NAME = "crossrep-model"
FORMAT_VERSION = 1


def _enc(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {"dtype": arr.dtype.str, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _dec(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).reshape(doc["shape"]).copy()


def _dec_floats(doc: dict, key: str, shape: tuple, where: str) -> np.ndarray:
    """Array ``key`` of ``doc``: finite floats of ``shape``, where None is any length.

    Prediction broadcasts these arrays against the input, so a wrong length
    would predict silently instead of failing.
    """
    arr = _dec(doc[key])
    if arr.ndim != len(shape) or any(s is not None and s != a
                                     for s, a in zip(shape, arr.shape)):
        want = ", ".join("n" if s is None else str(s) for s in shape)
        raise IngestionError(f"{where}: {key!r} must have shape ({want}), got {arr.shape}")
    if not (np.issubdtype(arr.dtype, np.floating) and np.isfinite(arr).all()):
        raise IngestionError(f"{where}: {key!r} must hold finite floats")
    return arr


def _predict_scalar(doc: dict, key: str, where: str, positive: bool = False) -> float:
    """Float ``key`` of ``doc``, which prediction reads: finite, and positive if asked."""
    value = json_field(where, doc, key, float)
    if not math.isfinite(value) or (positive and value <= 0):
        raise IngestionError(f"{where}: {key!r} must be finite"
                             f"{' and positive' if positive else ''}, got {value!r}")
    return value


def _state_to_doc(model: FittedModel) -> dict:
    s = model.state
    if isinstance(s, RidgeState):
        return {"coef": _enc(s.coef), "intercept": s.intercept, "lam": s.lam}
    if isinstance(s, ForestState):
        return {
            "seed": s.seed, "mtry": s.mtry, "min_node_size": s.min_node_size,
            "trees": [{"feature": _enc(t.feature), "threshold": _enc(t.threshold),
                       "left": _enc(t.left), "right": _enc(t.right),
                       "value": _enc(t.value)} for t in s.trees],
        }
    if isinstance(s, SvrState):
        return {"support": _enc(s.support), "dual_coef": _enc(s.dual_coef),
                "bias": s.bias, "sigma": s.sigma, "n_iter": s.n_iter,
                "kkt_gap": s.kkt_gap}
    raise IngestionError(f"cannot archive state of type {type(s).__name__}")


def _check_trees(trees: tuple[Tree, ...], feature_count: int, where: str) -> None:
    """The layout rules of ``forest``, which its prediction relies on."""
    names = ("feature", "threshold", "left", "right", "value")
    for t, tree in enumerate(trees):
        n = tree.feature.shape[0] if tree.feature.ndim == 1 else 0
        for name in names:
            arr = getattr(tree, name)
            if arr.ndim != 1 or arr.shape[0] != n or n == 0:
                raise IngestionError(f"{where}: tree {t}: {name!r} must be a non-empty 1-d "
                                     f"array as long as 'feature', got shape {arr.shape}")
            floats = name in ("threshold", "value")
            if not np.issubdtype(arr.dtype, np.floating if floats else np.signedinteger):
                raise IngestionError(f"{where}: tree {t}: {name!r} must hold "
                                     f"{'floats' if floats else 'signed integers'}, "
                                     f"got dtype {arr.dtype.str}")
    # The node rules run once over all trees; int64 arithmetic on the child
    # links wraps only at its maximum, where 'right' <= 'left' catches it.
    sizes = [t.feature.shape[0] for t in trees]
    starts = np.cumsum([0] + sizes[:-1])
    flat = {name: np.concatenate([getattr(t, name) for t in trees]) for name in names}
    feature, left, right = (flat[name].astype(np.int64) for name in ("feature", "left", "right"))
    node = np.arange(feature.shape[0]) - np.repeat(starts, sizes)
    size = np.repeat(sizes, sizes)
    split = feature >= 0
    rules = [
        ("threshold", ~np.isfinite(flat["threshold"]), "must be finite"),
        ("value", ~np.isfinite(flat["value"]), "must be finite"),
        ("feature", ~split & (feature != -1), "must be -1 at a leaf"),
        ("feature", split & (feature >= feature_count),
         f"must be below the feature count {feature_count}"),
        ("left", split & (left <= node), "must point past its node"),
        ("right", split & ((right != left + 1) | (right <= left)), "must be 'left' + 1"),
        ("right", split & (right >= size), "must be below the tree's node count"),
    ]
    for name, bad, rule in rules:
        if bad.any():
            i = int(bad.argmax())
            t = int(np.searchsorted(starts, i, side="right")) - 1
            raise IngestionError(f"{where}: tree {t}: {name!r} of node {node[i]} {rule}, "
                                 f"got {flat[name][i]}")


def _state_from_doc(kind: LearnerKind, doc: dict, where: str, feature_count: int):
    if kind in (LearnerKind.RIDGE, LearnerKind.RIDGE_CV):
        return RidgeState(coef=_dec_floats(doc, "coef", (feature_count,), where),
                          intercept=_predict_scalar(doc, "intercept", where),
                          lam=json_field(where, doc, "lam", float))
    if kind is LearnerKind.FOREST:
        trees = tuple(
            Tree(feature=_dec(t["feature"]), threshold=_dec(t["threshold"]),
                 left=_dec(t["left"]), right=_dec(t["right"]), value=_dec(t["value"]))
            for t in json_field(where, doc, "trees", list)
        )
        if not trees:
            raise IngestionError(f"{where}: 'trees' must be a non-empty list")
        _check_trees(trees, feature_count, where)
        return ForestState(trees=trees, seed=json_field(where, doc, "seed", int),
                           mtry=json_field(where, doc, "mtry", int),
                           min_node_size=json_field(where, doc, "min_node_size", int))
    if kind is LearnerKind.SVR:
        support = _dec_floats(doc, "support", (None, feature_count), where)
        return SvrState(support=support,
                        dual_coef=_dec_floats(doc, "dual_coef", support.shape[:1], where),
                        bias=_predict_scalar(doc, "bias", where),
                        sigma=_predict_scalar(doc, "sigma", where, positive=True),
                        n_iter=json_field(where, doc, "n_iter", int),
                        kkt_gap=json_field(where, doc, "kkt_gap", float))
    raise IngestionError(f"cannot restore state for kind {kind}")


def save_model(model: FittedModel, path: str | Path) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "spec": model.spec.to_dict(),
        "feature_count": model.feature_count,
        "train_fingerprint": {"task_id": model.train_fingerprint.task_id,
                              "row_ids": list(model.train_fingerprint.row_ids)},
        "standardization": None if model.standardization is None else
                           {"mean": _enc(model.standardization.mean),
                            "scale": _enc(model.standardization.scale)},
        "state": _state_to_doc(model),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> FittedModel:
    path = Path(path)
    doc = read_json(path, "model archive")
    if doc.get("format") != FORMAT_NAME:
        raise IngestionError(f"{path}: not a {FORMAT_NAME} archive")
    if doc.get("version") != FORMAT_VERSION:
        raise IngestionError(f"{path}: unsupported archive version {doc.get('version')}")
    fp_doc = json_field(path, doc, "train_fingerprint", dict)
    fp_where = f"{path}: train_fingerprint"
    fp = TrainFingerprint(task_id=json_field(fp_where, fp_doc, "task_id", str),
                          row_ids=tuple(json_field(fp_where, fp_doc, "row_ids", list)))
    feature_count = json_field(path, doc, "feature_count", int)
    try:
        spec = LearnerSpec.from_dict(json_field(path, doc, "spec", dict), f"{path}: spec")
        std_doc = doc["standardization"]
        std_where = f"{path}: standardization"
        std = None if std_doc is None else Standardizer(
            mean=_dec_floats(std_doc, "mean", (feature_count,), std_where),
            scale=_dec_floats(std_doc, "scale", (feature_count,), std_where))
        state = _state_from_doc(spec.kind, json_field(path, doc, "state", dict),
                                f"{path}: state", feature_count)
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"{path}: corrupt model archive, {exc!r}") from None
    return FittedModel(spec=spec, state=state, feature_count=feature_count,
                       train_fingerprint=fp, standardization=std)
