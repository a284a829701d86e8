"""Property: malformed inputs end in a documented exit code, never a traceback.

Hypothesis writes task, pool and score files that may be ragged,
non-numeric, empty, missing a column or hold duplicate ids, plus
malformed ``--learner`` JSON, and config, collection manifest and model
archive documents with missing or wrongly typed fields, and runs the CLI
on them in-process. Every
run must exit 0, 2, 3 or 4 and print no traceback; an exception escaping
``main`` fails the property with the input that raised it. A wrongly
typed or out-of-range learner hyperparameter, or a wrongly typed archived
state value, must exit 3 and name the flag or file and the key. Targets
near the float range must end the same way, without a numpy warning
(which the suite's filter turns into an error).
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrep.cli import main
from crossrep.data import CollectionMode, Task, TaskCollection, write_collection

PROPERTY = settings(max_examples=40, deadline=None)
EXIT_CODES = {0, 2, 3, 4}

CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "abc", "0x1", "1_0",
                     '"1,5"', '"', "e1"]),
    st.text(max_size=4),
)
IDS = st.sampled_from(["e0", "e1", "e2", "e3", "e4", "e5", "", '"e,1"', "e 1"])


@st.composite
def tables(draw, columns):
    """Delimited text over ``columns``, with the defects named above."""
    header = list(columns)
    defect = draw(st.sampled_from(["none", "none", "drop", "duplicate", "empty"]))
    if defect == "empty":
        return draw(st.sampled_from(["", "\n", " \n\n"]))
    if defect == "drop":
        del header[draw(st.integers(0, len(header) - 1))]
    elif defect == "duplicate":
        header.append(draw(st.sampled_from(header)))
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        width = len(header) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        cells = draw(st.lists(CELLS, min_size=max(width - 1, 0), max_size=max(width - 1, 0)))
        rows.append([draw(IDS), *cells])
    delimiter = draw(st.sampled_from([",", "\t"]))
    return "".join(delimiter.join(row) + "\n" for row in rows)


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check(code, err):
    assert code in EXIT_CODES, err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def bank(tmp_path_factory):
    """A 3-task ridge bank over two features, and its collection manifest."""
    root = tmp_path_factory.mktemp("bank")
    assert run("synth", "--tasks", 3, "--examples", 10, "--features", 2, "--seed", 1,
               "--out", root / "coll")[0] == 0
    manifest = root / "coll" / "manifest.json"
    assert run("train-bank", "--collection", manifest, "--learner", '{"kind": "ridge"}',
               "--out", root / "bank")[0] == 0
    return root / "bank", manifest


@given(tables(("id", "x0", "x1", "y")), tables(("id", "x0", "x1", "y")))
@PROPERTY
def test_run_on_malformed_task_files(first, second):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "a.csv").write_text(first, encoding="utf-8")
        (root / "b.csv").write_text(second, encoding="utf-8")
        (root / "manifest.json").write_text(json.dumps(
            {"collection_id": "c", "mode": "independent", "target": "y",
             "tasks": ["a.csv", "b.csv"]}))
        (root / "cfg.json").write_text(json.dumps(
            {"collection": "manifest.json", "transformer": {"kind": "ridge"},
             "final": {"kind": "ridge"}, "split": {"kind": "kfold", "k": 2}, "seed": 0}))
        check(*run("run", "--config", root / "cfg.json", "--out", root / "out"))


@given(tables(("id", "x0", "x1")))
@PROPERTY
def test_cluster_on_malformed_pool_files(bank, pool):
    bank_dir, _ = bank
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pool.csv").write_text(pool, encoding="utf-8")
        check(*run("cluster", "--bank", bank_dir, "--pool", root / "pool.csv", "--k", 2,
                   "--out", root / "out"))


SCORE_COLUMNS = ("task_id", "final", "representation", "order", "n_folds", "mean_rmse",
                 "per_fold_rmse", "plan_digest")


@given(st.lists(tables(SCORE_COLUMNS), min_size=1, max_size=2))
@PROPERTY
def test_compare_on_malformed_score_files(score_files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(score_files):
            paths.append(Path(tmp) / f"scores{i}.tsv")
            paths[-1].write_text(text, encoding="utf-8")
        check(*run("compare", *paths))


VALUES = st.sampled_from([-1, 0, 1, 2.5, True, None, "a", [], [1.0], {}])
LEARNER_DOCS = st.dictionaries(
    st.sampled_from(["kind", "seed", "lam", "lambda_grid", "k", "n_trees", "mtry",
                     "min_node_size", "c", "epsilon", "sigma", "tol", "max_iter", "extra"]),
    VALUES, max_size=3,
).flatmap(lambda doc: st.sampled_from(["ridge", "ridge_cv", "forest", "svr", "boost", 1])
          .map(lambda kind: {"kind": kind, **doc}))


@given(st.one_of(
    LEARNER_DOCS.map(json.dumps),
    LEARNER_DOCS.map(json.dumps).flatmap(
        lambda text: st.integers(0, len(text) - 1).map(lambda n: text[:n])),
    st.sampled_from(["[]", "1", '"ridge"', "null", "{}", "{'kind': 'ridge'}"]),
    st.text(max_size=8),
))
@PROPERTY
def test_train_bank_on_malformed_learner_json(bank, learner):
    _, manifest = bank
    with tempfile.TemporaryDirectory() as tmp:
        check(*run("train-bank", "--collection", manifest, "--learner", learner,
                   "--out", Path(tmp) / "bank"))


HYPERPARAM_TYPES = {
    "ridge": {"lam": float},
    "ridge_cv": {"lambda_grid": list, "k": int},
    "forest": {"n_trees": int, "mtry": int, "min_node_size": int},
    "svr": {"c": float, "epsilon": float, "sigma": float, "tol": float, "max_iter": int},
}
WRONG_VALUES = {
    float: st.sampled_from([True, False, None, "1", "1.5", [], [1.0], {}]),
    int: st.sampled_from([2.5, 2.0, True, None, "1", [], [1], {}]),
    list: st.sampled_from([1.0, True, None, "1.0", {}, [True], ["1.0"], [1.0, None]]),
}


NAN, INF = float("nan"), float("inf")
# Values of the right JSON type outside the bounds the fits enforce; JSON
# text spells the non-finite floats NaN and Infinity.
OUT_OF_RANGE = {
    "lam": st.sampled_from([-1.0, -1, -5e-324, NAN, INF]),
    "lambda_grid": st.sampled_from([[], [1.0, -0.5], [-1], [NAN], [0.1, INF]]),
    "k": st.sampled_from([1, 0, -3]),
    "n_trees": st.sampled_from([0, -1]),
    "min_node_size": st.sampled_from([0, -2]),
    "c": st.sampled_from([0, 0.0, -1.0, NAN, INF]),
    "epsilon": st.sampled_from([-0.1, -1, NAN, INF]),
    "sigma": st.sampled_from([0, -2.0, NAN, INF]),
    "tol": st.sampled_from([NAN, INF, -INF]),
    "mtry": st.sampled_from([-1, -3]),
    "max_iter": st.sampled_from([-1, -200_000]),
}


@st.composite
def bad_hyperparams(draw):
    """(kind, key, value): one hyperparameter of a kind with a wrongly typed or
    out-of-range value."""
    kind = draw(st.sampled_from(sorted(HYPERPARAM_TYPES)))
    key, kind_of_value = draw(st.sampled_from(list(HYPERPARAM_TYPES[kind].items())))
    wrong = [WRONG_VALUES[kind_of_value]] + ([OUT_OF_RANGE[key]] if key in OUT_OF_RANGE else [])
    return kind, key, draw(st.one_of(wrong))


@given(bad_hyperparams(), st.integers(0, 3))
@PROPERTY
def test_train_bank_rejects_bad_hyperparameter(bank, case, seed):
    _, manifest = bank
    kind, key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run("train-bank", "--collection", manifest, "--out", Path(tmp) / "bank",
                        "--learner", json.dumps({"kind": kind, "seed": seed, key: value}))
    assert code == 3, err
    assert "--learner" in err and repr(key) in err
    assert "Traceback" not in err


@given(st.one_of(
    WRONG_VALUES[float].map(lambda value: ("spec", "lam", value)),
    st.tuples(st.just("state"), st.sampled_from(["lam", "intercept"]), WRONG_VALUES[float]),
))
@PROPERTY
def test_inspect_bank_rejects_mistyped_archive_value(bank, edit):
    """A ridge archive whose spec hyperparameter or state scalar has the wrong type."""
    bank_dir, _ = bank
    where, key, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        copied = Path(tmp) / "bank"
        shutil.copytree(bank_dir, copied)
        archive = copied / "task001.model.json"
        doc = json.loads(archive.read_text())
        (doc["spec"]["hyperparams"] if where == "spec" else doc["state"])[key] = value
        archive.write_text(json.dumps(doc), encoding="utf-8")
        code, err = run("inspect-bank", "--bank", copied)
    assert code == 3, err
    assert str(archive) in err and repr(key) in err
    assert "Traceback" not in err


CONFIG_VALUES = st.sampled_from([
    -1, 0, 1, 2, 2.5, 0.3, True, None, "a", "", "kfold", "holdout", "full_task",
    "train_split_only", [], [1.0], {}, {"kind": "ridge"},
])
SPLIT_DOCS = st.dictionaries(
    st.sampled_from(["kind", "k", "test_fraction"]),
    st.one_of(CONFIG_VALUES, st.sampled_from(["kfold", "holdout", 3, 0.5])), max_size=3)
CONFIG_FIELDS = ("collection", "transformer", "final", "split", "seed", "descriptor_cap",
                 "order", "stage1_scope", "strict", "augment", "normalize_targets")


@given(st.one_of(
    st.tuples(st.dictionaries(st.sampled_from(CONFIG_FIELDS),
                              st.one_of(CONFIG_VALUES, SPLIT_DOCS), max_size=3),
              st.lists(st.sampled_from(CONFIG_FIELDS), max_size=2)),
    st.sampled_from(["[]", "1", '"cfg"', "null"]),
))
@PROPERTY
def test_run_on_malformed_config(bank, config):
    _, manifest = bank
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if isinstance(config, str):
            text = config
        else:
            overrides, dropped = config
            doc = {"collection": str(manifest), "transformer": {"kind": "ridge"},
                   "final": {"kind": "ridge"}, "split": {"kind": "kfold", "k": 2},
                   "seed": 0, **overrides}
            for field in dropped:
                doc.pop(field, None)
            text = json.dumps(doc)
        (root / "cfg.json").write_text(text, encoding="utf-8")
        check(*run("run", "--config", root / "cfg.json", "--out", root / "out"))


MANIFEST_VALUES = st.sampled_from([-1, 0, 2.5, True, None, "", "a", "c", "independent",
                                   "shared", "y", "x0", [], {}, {"a": 1}])
TASK_ENTRIES = st.sampled_from(["task000.csv", "task001.csv", "task002.csv", "absent.csv",
                                "", 1, 2.5, True, None, [], {}])
MANIFEST_KEYS = ("collection_id", "mode", "target", "tasks")


@given(st.one_of(
    st.tuples(st.dictionaries(st.sampled_from(MANIFEST_KEYS),
                              st.one_of(MANIFEST_VALUES, st.lists(TASK_ENTRIES, max_size=3)),
                              max_size=2),
              st.lists(st.sampled_from(MANIFEST_KEYS), max_size=2)),
    st.sampled_from(["[]", "1", '"manifest"', "null", "{", ""]),
))
@PROPERTY
def test_train_bank_on_malformed_manifest(bank, manifest):
    _, good = bank
    if isinstance(manifest, str):
        text = manifest
    else:
        overrides, dropped = manifest
        doc = {**json.loads(good.read_text()), **overrides}
        for key in dropped:
            doc.pop(key, None)
        text = json.dumps(doc)
    # Task entries are relative to the manifest, so it sits next to the task files.
    path = good.parent / "property_manifest.json"
    path.write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        check(*run("train-bank", "--collection", path, "--learner", '{"kind": "ridge"}',
                   "--out", Path(tmp) / "bank"))


ARCHIVE_VALUES = st.sampled_from([-1, 0, 2.5, True, None, "a", [], [1.0], {},
                                  {"kind": "ridge"}, {"dtype": "<f8", "shape": [2], "data": ""}])
ARCHIVE_EDITS = st.tuples(
    st.sampled_from(["spec", "state", "train_fingerprint"]),
    st.sampled_from([None, "kind", "hyperparams", "seed", "coef", "intercept", "lam",
                     "task_id", "row_ids"]),
    st.one_of(st.just("drop"), ARCHIVE_VALUES),
)


@given(st.lists(ARCHIVE_EDITS, min_size=1, max_size=2))
@PROPERTY
def test_inspect_bank_on_malformed_archive(bank, edits):
    """Drop or retype a top-level key of one archive, or a key inside it."""
    bank_dir, _ = bank
    with tempfile.TemporaryDirectory() as tmp:
        copied = Path(tmp) / "bank"
        shutil.copytree(bank_dir, copied)
        archive = copied / "task001.model.json"
        doc = json.loads(archive.read_text())
        for key, inner, value in edits:
            target, name = (doc, key) if inner is None else (doc.get(key), inner)
            if not isinstance(target, dict):
                continue
            if value == "drop":
                target.pop(name, None)
            else:
                target[name] = copy.deepcopy(value)  # sampled values are shared objects
        archive.write_text(json.dumps(doc), encoding="utf-8")
        check(*run("inspect-bank", "--bank", copied))


SMALL_LEARNERS = {"ridge": {"kind": "ridge", "lam": 1.0},
                  "ridge_cv": {"kind": "ridge_cv", "lambda_grid": [0.1, 1.0, 10.0], "k": 3},
                  "forest": {"kind": "forest", "n_trees": 5, "seed": 0},
                  "svr": {"kind": "svr", "max_iter": 2000}}
EXTREME_RUNS = [
    *((kind, "ridge", scale, False) for kind in SMALL_LEARNERS for scale in (1e160, 1e307)),
    *(("ridge", kind, scale, False) for kind in SMALL_LEARNERS if kind != "ridge"
      for scale in (1e160, 1e307)),
    ("ridge", "ridge", None, True),
    *((kind, "ridge", "x0", False) for kind in SMALL_LEARNERS),
    ("ridge", "svr", "x0", False),
]


@pytest.mark.parametrize("transformer, final, scale, normalize", EXTREME_RUNS)
def test_run_on_extreme_targets(transformer, final, scale, normalize):
    """Four independent tasks of 20 x 3; the first task's targets are scaled
    by ``scale``, or alternate between 1e308 and -1e308 (``scale`` None),
    or its feature x0 is drawn uniform in 5e307..1e308 (``scale`` "x0"), a
    column whose mean overflows."""
    rng = np.random.default_rng(0)
    ids = tuple(f"e{i}" for i in range(20))
    tasks = []
    for t in range(4):
        X, y = rng.normal(size=(20, 3)), rng.normal(size=20)
        if t == 0 and scale == "x0":
            X[:, 0] = rng.uniform(5e307, 1e308, size=20)
        elif t == 0:
            y = np.resize([1e308, -1e308], 20) if scale is None else y * scale
        tasks.append(Task(f"t{t}", X, y, ("x0", "x1", "x2"), ids))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_collection(TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "c"),
                         root / "coll")
        (root / "cfg.json").write_text(json.dumps(
            {"collection": "coll/manifest.json", "transformer": SMALL_LEARNERS[transformer],
             "final": SMALL_LEARNERS[final], "split": {"kind": "kfold", "k": 3}, "seed": 0,
             "normalize_targets": normalize}))
        check(*run("run", "--config", root / "cfg.json", "--out", root / "out"))
