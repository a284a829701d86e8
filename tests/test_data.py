import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossrep
from crossrep.data import (CollectionMode, Task, TaskCollection, json_field,
                           load_collection, load_task, make_fold_plan, make_holdout_plan,
                           normalize_targets, read_json, write_collection)
from crossrep.errors import IngestionError, ValidationError

from helpers import denormalize_targets

from conftest import make_task


class TestLoadTask:
    def test_basic_csv(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,f1,f2,y\na,1,2,0.5\nb,3,4,0.6\nc,5,6,0.7\n")
        task = load_task(f, target="y")
        assert task.features.shape == (3, 2)
        assert len(task.targets) == 3
        assert task.feature_names == ("f1", "f2")
        assert task.example_ids == ("a", "b", "c")

    def test_tab_delimited_autodetect(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("id\tf1\tf2\ty\na\t1\t2\t3\nb\t4\t5\t6\n")
        task = load_task(f, target="y")
        assert task.features[1, 1] == 5.0

    def test_nan_cell_named(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,f1,f2,y\na,1,NaN,0.5\nb,3,4,0.6\n")
        with pytest.raises(IngestionError, match=r"row 2.*'f2'"):
            load_task(f, target="y")

    def test_non_numeric_cell_named(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,f1,f2,y\na,1,2,0.5\nb,3,oops,0.6\n")
        with pytest.raises(IngestionError, match=r"'oops' at row 3, column 'f2'"):
            load_task(f, target="y")

    def test_header_only_is_zero_examples(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,f1,f2,y\n")
        with pytest.raises(IngestionError, match="zero examples"):
            load_task(f, target="y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            load_task(tmp_path / "absent.csv", target="y")

    def test_duplicate_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,f1,f1,y\na,1,2,0.5\n")
        with pytest.raises(IngestionError, match="duplicate header column 'f1'"):
            load_task(f, target="y")

    def test_missing_target_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,f1,f2,z\na,1,2,0.5\n")
        with pytest.raises(IngestionError, match="missing target column 'y'"):
            load_task(f, target="y")

    def test_column_order_preserved(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,b,y,a\nr,1,9,2\ns,3,8,4\n")
        task = load_task(f, target="y")
        assert task.feature_names == ("b", "a")
        assert task.features[0].tolist() == [1.0, 2.0]
        assert task.targets.tolist() == [9.0, 8.0]


class TestTaskInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="row count mismatch"):
            Task("t", np.ones((3, 2)), np.ones(2), ("a", "b"), ("x", "y", "z"))

    def test_duplicate_feature_names(self):
        with pytest.raises(ValidationError, match="duplicate feature name"):
            Task("t", np.ones((2, 2)), np.ones(2), ("a", "a"), ("x", "y"))

    def test_duplicate_example_id(self):
        with pytest.raises(ValidationError, match="task 't': duplicate example id 'e1'"):
            Task("t", np.zeros((2, 1)), np.zeros(2), ("a",), ("e1", "e1"))

    def test_nonfinite_feature_rejected(self):
        X = np.ones((2, 2))
        X[1, 0] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            Task("t", X, np.ones(2), ("a", "b"), ("x", "y"))

    def test_immutability(self):
        task = make_task("t")
        with pytest.raises(ValueError):
            task.features[0, 0] = 99.0


class TestTaskCollection:
    def test_three_tasks(self):
        tasks = [make_task(f"t{i}", p=5, seed=i) for i in range(3)]
        col = TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "c")
        assert col.n_tasks == 3

    def test_feature_mismatch_reports_column(self):
        a = make_task("a", p=3)
        b = Task("b", np.ones((2, 2)), np.ones(2), ("f0", "f1"), ("x", "y"))
        with pytest.raises(ValidationError, match="first differing column 'f2'"):
            TaskCollection([a, b], CollectionMode.INDEPENDENT_EXAMPLES, "c")

    def test_shared_mode_requires_same_ids_in_order(self):
        a = make_task("a", n=4, mode_shared_ids=True)
        b = make_task("b", n=4, mode_shared_ids=True)
        reordered = Task("b", b.features, b.targets, b.feature_names,
                         tuple(reversed(b.example_ids)))
        with pytest.raises(ValidationError, match="identical example ids"):
            TaskCollection([a, reordered], CollectionMode.SHARED_EXAMPLES, "c")

    def test_shared_mode_requires_same_feature_values(self):
        a = make_task("a", n=4, mode_shared_ids=True)
        b = make_task("b", n=4, mode_shared_ids=True)
        X = b.features.copy()
        X[2, 1] += 1.0
        changed = Task("b", X, b.targets, b.feature_names, b.example_ids)
        TaskCollection([a, b], CollectionMode.SHARED_EXAMPLES, "c")
        with pytest.raises(ValidationError, match="task 'b' differs from 'a' at example "
                                                  "'ex2', column 'f1'"):
            TaskCollection([a, changed], CollectionMode.SHARED_EXAMPLES, "c")

    def test_duplicate_task_id_is_named(self):
        tasks = [make_task("a"), make_task("b", seed=1), make_task("a", seed=2)]
        with pytest.raises(ValidationError, match="^duplicate task id 'a' in collection$"):
            TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "c")

    def test_fewer_than_two_tasks(self):
        with pytest.raises(ValidationError, match="at least 2"):
            TaskCollection([make_task("a")], CollectionMode.INDEPENDENT_EXAMPLES, "c")


class TestFoldPlan:
    def test_singleton_folds(self):
        plan = make_fold_plan(10, 10, seed=0)
        sizes = np.bincount(plan.assignments)
        assert sizes.tolist() == [1] * 10

    def test_sizes_10_3(self):
        plan = make_fold_plan(10, 3, seed=0)
        sizes = sorted(np.bincount(plan.assignments).tolist())
        assert sizes == [3, 3, 4]

    def test_determinism_large(self):
        a = make_fold_plan(7000, 10, seed=1)
        b = make_fold_plan(7000, 10, seed=1)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.digest == b.digest

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            make_fold_plan(5, 6, seed=0)
        with pytest.raises(ValidationError):
            make_fold_plan(5, 1, seed=0)

    @given(n=st.integers(2, 200), k=st.integers(2, 20), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_partition_and_balance(self, n, k, seed):
        if k > n:
            k = n
        plan = make_fold_plan(n, k, seed)
        sizes = np.bincount(plan.assignments, minlength=k)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1
        for f in range(k):
            train, test = plan.split(f)
            assert len(train) + len(test) == n
            assert not set(train) & set(test)


class TestHoldoutPlan:
    def test_70_30(self):
        plan = make_holdout_plan(10, 0.3, seed=0)
        train, test = plan.split(0)
        assert len(train) == 7 and len(test) == 3

    def test_minimal(self):
        plan = make_holdout_plan(2, 0.5, seed=0)
        train, test = plan.split(0)
        assert len(train) == 1 and len(test) == 1

    def test_determinism(self):
        a = make_holdout_plan(50, 0.3, seed=9)
        b = make_holdout_plan(50, 0.3, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            make_holdout_plan(10, 0.0, seed=0)
        with pytest.raises(ValidationError):
            make_holdout_plan(10, 1.0, seed=0)

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            make_holdout_plan(2, 0.1, seed=0)


class TestNormalization:
    def test_basic(self):
        task = make_task("t", targets=np.array([2.0, 4.0, 6.0]), n=3)
        norm = normalize_targets(task)
        assert norm.targets.tolist() == [0.0, 0.5, 1.0]
        assert np.array_equal(norm.features, task.features)
        assert (norm.task_id, norm.example_ids) == (task.task_id, task.example_ids)

    def test_identity_case(self):
        task = make_task("t", targets=np.array([0.0, 1.0]), n=2)
        norm = normalize_targets(task)
        assert norm.targets.tolist() == [0.0, 1.0]

    def test_round_trip(self):
        task = make_task("t", targets=np.array([3.3, 7.1, 5.0]), n=3)
        norm = normalize_targets(task)
        back = denormalize_targets(norm.targets, task.targets)
        assert np.allclose(back, [3.3, 7.1, 5.0], atol=1e-12)

    def test_constant_targets_rejected(self):
        task = make_task("t", targets=np.array([4.0, 4.0, 4.0]), n=3)
        with pytest.raises(ValidationError, match="constant target"):
            normalize_targets(task)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, values):
        y = np.asarray(values)
        if y.max() == y.min():
            return
        task = make_task("t", targets=y, n=len(y))
        norm = normalize_targets(task)
        assert norm.targets.min() >= 0.0 and norm.targets.max() <= 1.0
        back = denormalize_targets(norm.targets, task.targets)
        assert np.max(np.abs(back - y)) < 1e-9 * max(1.0, np.max(np.abs(y)))


class TestManifestRoundTrip:
    def test_write_then_load(self, tmp_path, small_collection):
        manifest = write_collection(small_collection, tmp_path / "coll")
        loaded = load_collection(manifest)
        assert loaded.task_ids == small_collection.task_ids
        assert loaded.mode is CollectionMode.INDEPENDENT_EXAMPLES
        for a, b in zip(loaded.tasks, small_collection.tasks):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.targets, b.targets)

    def test_shared_tasks_hold_the_first_tasks_rows(self, tmp_path, shared_collection):
        loaded = load_collection(write_collection(shared_collection, tmp_path / "coll"))
        first = loaded.tasks[0]
        for task, orig in zip(loaded.tasks[1:], shared_collection.tasks[1:]):
            assert task.features is first.features
            assert task.example_ids is first.example_ids
            assert np.array_equal(task.targets, orig.targets)

    def test_shared_task_that_differs_keeps_its_rows_and_is_named(self, tmp_path,
                                                                  shared_collection):
        manifest = write_collection(shared_collection, tmp_path / "coll")
        task = tmp_path / "coll" / "g2.csv"
        header, first, *rest = task.read_text().splitlines()
        cells = first.split(",")
        cells[2] = repr(float(cells[2]) + 1.0)
        task.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        with pytest.raises(ValidationError, match="shared-examples collection requires "
                           "identical feature values; task 'g2' differs from 'g0' at "
                           "example 'row0', column 'f1'"):
            load_collection(manifest)

    def test_manifest_missing_key(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"mode": "independent"}')
        with pytest.raises(IngestionError, match="missing key"):
            load_collection(bad)


class TestJsonDocument:
    @pytest.mark.parametrize("text, message", [
        (None, "config file not found"),
        (b"{\n  broken", "invalid JSON at line 2, column 3"),
        (b'{"a": "\xe9"}', "not UTF-8 text"),
        (b"[1]", r"the config file must be a JSON object, got \[1\]"),
    ])
    def test_read_json_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "doc.json"
        if text is not None:
            path.write_bytes(text)
        with pytest.raises(IngestionError, match=message) as exc:
            read_json(path, "config file")
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("doc, kind, default, expected", [
        ({"k": 3}, float, 0.0, 3), ({"k": 3}, int, 0, 3), ({"k": None}, int, 7, 7),
        ({}, str, None, None), ({"k": False}, bool, True, False),
    ])
    def test_json_field_accepts(self, doc, kind, default, expected):
        assert json_field("f.json", doc, "k", kind, default) == expected

    @pytest.mark.parametrize("doc, kind, message", [
        ({}, int, "f.json: missing key 'k'"),
        ({"k": None}, int, "f.json: 'k' must be an integer, got None"),
        ({"k": True}, int, "'k' must be an integer, got True"),
        ({"k": True}, float, "'k' must be a number, got True"),
        ({"k": 1.5}, int, "'k' must be an integer, got 1.5"),
        ({"k": "1"}, float, "'k' must be a number, got '1'"),
        ({"k": []}, dict, "'k' must be an object, got \\[\\]"),
    ])
    def test_json_field_rejects(self, doc, kind, message):
        with pytest.raises(IngestionError, match=message):
            json_field("f.json", doc, "k", kind)


def test_json_is_decoded_in_one_place():
    """Only ``data.read_json`` and the ``--learner`` option decode JSON text."""
    decoders = set()
    package = Path(crossrep.__file__).parent
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}  # node -> innermost function; ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                decoders.add(f"{module} (from json import)")
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                decoders.add(f"{module}.{enclosing.get(node, '<module>')}")
    assert decoders == {"data.read_json", "cli.cmd_train_bank"}
