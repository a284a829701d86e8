import ast
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossrep
from crossrep.data import (CollectionMode, Task, TaskCollection, json_field,
                           load_collection, load_task, make_fold_plan, make_holdout_plan,
                           normalize_targets, read_json, write_collection,
                           write_task_file)
from crossrep.errors import IngestionError, ValidationError
from crossrep.synth import SynthSpec, generate_collection

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

    def test_tasks_are_kept_in_lexical_task_id_order(self):
        tasks = [make_task(t, seed=i) for i, t in enumerate(["t2", "t10", "b", "t1"])]
        col = TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "c")
        assert col.task_ids == ("b", "t1", "t10", "t2")
        assert col.task("t10") is tasks[1]

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

    def test_tasks_hold_one_copy_of_each_id_and_feature_name(self, tmp_path):
        spec = SynthSpec(n_tasks=4, n_examples_per_task=15, n_features=3, relatedness=0.5,
                         seed=2)
        loaded = load_collection(write_collection(generate_collection(spec), tmp_path / "c"))
        first = loaded.tasks[0]
        for task in loaded.tasks[1:]:
            assert task.feature_names is first.feature_names
            assert len(task.example_ids) == len(first.example_ids)
            assert all(a is b for a, b in zip(task.example_ids, first.example_ids))

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

    @pytest.mark.parametrize("fixture", ["small_collection", "shared_collection"])
    def test_each_loaded_task_is_built_once(self, tmp_path, monkeypatch, request, fixture):
        """Each Task checks its rows once: the loader decides what a task
        shares before it builds the task."""
        manifest = write_collection(request.getfixturevalue(fixture), tmp_path / "coll")
        real, built = Task.__post_init__, []

        def spy(task):
            built.append(task.task_id)
            real(task)

        monkeypatch.setattr(Task, "__post_init__", spy)
        loaded = load_collection(manifest)
        assert sorted(built) == list(loaded.task_ids)

    def test_manifest_missing_key(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"mode": "independent"}')
        with pytest.raises(IngestionError, match="missing key"):
            load_collection(bad)


def load_per_cell(manifest, files, mode=CollectionMode.SHARED_EXAMPLES):
    """The collection as parsing every cell of every file gives it: each
    task by ``load_task``, in the manifest's order, then the collection's
    checks."""
    return TaskCollection([load_task(manifest.parent / f, "y") for f in files], mode, "c")


def outcome(load):
    try:
        return load()
    except (IngestionError, ValidationError) as exc:
        return type(exc), str(exc)


@st.composite
def shared_files(draw):
    """Task files of one shared collection as text: comma or tab, the
    target at any column, blank lines, feature cells written in two
    equal forms and ids quoted or not, and at most one differing feature
    value and one bad target cell in a later file."""
    delim = draw(st.sampled_from([",", "\t"]))
    n, p, n_tasks = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    number = st.floats(-1e6, 1e6).map(lambda v: v + 0.0)  # no -0.0: it equals 0.0
    X = draw(st.lists(st.lists(number, min_size=p, max_size=p), min_size=n, max_size=n))
    blanks = st.lists(st.sampled_from(["", "", delim * p, " "]), min_size=n + 1,
                      max_size=n + 1)
    first_blanks = draw(blanks)
    differ = draw(st.none() | st.tuples(st.integers(1, n_tasks - 1), st.integers(0, n - 1),
                                        st.integers(0, p - 1)))
    bad = draw(st.none() | st.tuples(st.integers(1, n_tasks - 1), st.integers(0, n - 1),
                                     st.sampled_from(["oops", "nan", "-inf", ""])))
    files = {}
    for k in range(n_tasks):
        at = draw(st.integers(0, p))  # the target's place among the value columns
        spaced = first_blanks if k == 0 or draw(st.booleans()) else draw(blanks)
        lines = [delim.join(["id", *[f"x{j}" for j in range(p)][:at], "y",
                             *[f"x{j}" for j in range(p)][at:]]), spaced[0]]
        for i in range(n):
            cells = [draw(st.sampled_from([repr, lambda v: format(v, ".17e")]))(v)
                     for v in X[i]]
            if differ is not None and differ[:2] == (k, i):
                cells[differ[2]] = repr(X[i][differ[2]] + 1.0)
            target = draw(st.sampled_from(["0.5", "-2.0"]) | st.floats(-10, 10).map(repr))
            if bad is not None and bad[:2] == (k, i):
                target = bad[2]
            cells.insert(at, target)
            example_id = draw(st.sampled_from([f"e{i}", f'"e{i}"']))
            lines += [delim.join([example_id, *cells]), spaced[i + 1]]
        files[f"t{k}.csv"] = "\n".join(lines) + "\n"
    return files


class TestSharedReader:
    """A shared collection's later file takes the first file's parsed values
    for each row whose id and feature cells are the same text at the same
    line, and parses only the target cell there."""

    def write(self, root, files):
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        manifest = root / "manifest.json"
        manifest.write_text(json.dumps({"collection_id": "c", "mode": "shared",
                                        "target": "y", "tasks": list(files)}))
        return manifest

    @given(files=shared_files())
    @settings(max_examples=150, deadline=None)
    def test_loads_as_a_per_cell_parse_with_one_copy_of_the_rows(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = self.write(Path(tmp), files)
            got = outcome(lambda: load_collection(manifest))
            expected = outcome(lambda: load_per_cell(manifest, files))
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert isinstance(got, TaskCollection)
        first = got.tasks[0]
        for a, b in zip(got.tasks, expected.tasks):
            assert a.task_id == b.task_id
            assert (a.example_ids, a.feature_names) == (b.example_ids, b.feature_names)
            assert a.features.tobytes() == b.features.tobytes()
            assert a.targets.tobytes() == b.targets.tobytes()
            assert a.features is first.features and a.example_ids is first.example_ids

    @pytest.mark.parametrize("later, expected", [
        ("e0,1.00,3\ne1,2.0,4\n", None),
        ("e0,1.5,3\ne1,2.0,4\n",
         (ValidationError, "shared-examples collection requires identical feature values; "
                           "task 't1' differs from 't0' at example 'e0', column 'x0'")),
        ("e0,1.0,3\ne1,2.0,oops\n",
         (IngestionError, "{root}/t1.csv: non-numeric value 'oops' at row 3, column 'y'")),
        ("e0,1.0,3\ne1,2.0,inf\n",
         (IngestionError, "{root}/t1.csv: non-finite value 'inf' at row 3, column 'y'")),
        ("e0,1.0,3\ne0,2.0,4\n",
         (IngestionError, "{root}/t1.csv: duplicate example id 'e0' at row 3 (first at row 2)")),
    ], ids=["equal_text_differs", "value_differs", "bad_target", "inf_target", "duplicate_id"])
    def test_pinned_later_files(self, tmp_path, later, expected):
        manifest = self.write(tmp_path, {"t0.csv": "id,x0,y\ne0,1.0,1\ne1,2.0,2\n",
                                         "t1.csv": "id,x0,y\n" + later})
        got = outcome(lambda: load_collection(manifest))
        if expected is None:
            assert got.tasks[1].features is got.tasks[0].features
            assert got.tasks[1].targets.tolist() == [3.0, 4.0]
        else:
            assert got == (expected[0], expected[1].format(root=tmp_path))

    def test_a_first_file_cell_holding_a_nul_is_parsed_again(self, tmp_path):
        """The csv reader passes NUL through, so NUL-joined cells can be equal
        text for different cells: here the later file's feature cell is not a
        number, and the load fails as parsing every cell does."""
        files = {"t0.csv": "id,x0,x1,y\ne0\0,1,2,1\n", "t1.csv": "id,x0,x1,y\ne0,\x001,2,3\n"}
        manifest = self.write(tmp_path, files)
        expected = outcome(lambda: load_per_cell(manifest, files))
        assert expected[0] is IngestionError and "non-numeric value" in expected[1]
        assert outcome(lambda: load_collection(manifest)) == expected


def two_tasks(ids=("e0", "e1"), names=("f0", "f1"), task_id="t1"):
    tasks = [Task(t, np.arange(4.0).reshape(2, 2) + i, np.array([1.0, 2.0]), names, ids)
             for i, t in enumerate(("t0", task_id))]
    return TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "c")


class TestWriteRefusals:
    """The writer refuses, before it opens the task's file, an id or name
    that the reader would change or reject."""

    @pytest.mark.parametrize("collection, target, message", [
        (two_tasks(ids=(" e1", "e2")), "y",
         "task 't0': cannot write example id ' e1': it has leading or trailing whitespace"),
        (two_tasks(ids=("e0", "a\nb")), "y",
         "task 't0': cannot write example id 'a\\nb': it holds a line break"),
        (two_tasks(ids=("a\rb", "e1")), "y",
         "task 't0': cannot write example id 'a\\rb': it holds a line break"),
        (two_tasks(ids=("a\x0cb", "e1")), "y",
         "task 't0': cannot write example id 'a\\x0cb': it holds a line break"),
        (two_tasks(names=("f0", "a\tb")), "y",
         "task 't0': cannot write feature name 'a\\tb': it holds a tab"),
        (two_tasks(), " y",
         "task 't0': cannot write target column name ' y': it has leading or trailing "
         "whitespace"),
        (two_tasks(names=("id", "f1")), "y",
         "task 't0': cannot write feature name 'id': it is the id column's name"),
        (two_tasks(), "id",
         "task 't0': cannot write target column name 'id': it is the id column's name"),
        (two_tasks(ids=("e0", "\udc80")), "y",
         "task 't0': cannot write example id '\\udc80': it is not UTF-8 text"),
        (two_tasks(task_id="a/b"), "y",
         "task 'a/b': cannot write task id 'a/b': it is not the stem of a file name"),
    ], ids=["id_space", "id_newline", "id_cr", "id_formfeed", "name_tab", "target_space",
            "name_id", "target_id", "id_surrogate", "task_id_slash"])
    def test_a_value_the_reader_would_not_give_back_is_refused(self, tmp_path, collection,
                                                               target, message):
        with pytest.raises(ValidationError) as exc:
            write_collection(collection, tmp_path / "c", target=target)
        assert str(exc.value) == message
        assert not any((tmp_path / "c").iterdir())

    def test_the_refusal_comes_before_the_file_is_opened(self, tmp_path):
        task = two_tasks(ids=("e0", "e1 ")).tasks[0]
        with pytest.raises(ValidationError, match="example id 'e1 '"):
            write_task_file(task, tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)

    @given(ids=st.lists(text, min_size=2, max_size=3, unique=True),
           names=st.lists(text, min_size=1, max_size=3, unique=True), target=text)
    @settings(max_examples=300, deadline=None)
    def test_what_the_writer_accepts_reads_back_as_itself(self, ids, names, target):
        if target in names:
            return
        X = np.arange(len(ids) * len(names), dtype=float).reshape(len(ids), len(names))
        tasks = [Task(f"t{i}", X + i, np.arange(len(ids)) - 0.5 * i, tuple(names), tuple(ids))
                 for i in range(2)]
        with tempfile.TemporaryDirectory() as tmp:
            try:
                manifest = write_collection(
                    TaskCollection(tasks, CollectionMode.INDEPENDENT_EXAMPLES, "c"),
                    Path(tmp) / "c", target=target)
            except ValidationError:
                return
            loaded = load_collection(manifest)
        for a, b in zip(loaded.tasks, tasks):
            assert (a.example_ids, a.feature_names) == (b.example_ids, b.feature_names)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.targets, b.targets)


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

    def test_json_field_takes_an_enum_member_by_its_value(self):
        assert json_field("f.json", {"k": "shared"}, "k", CollectionMode) \
            is CollectionMode.SHARED_EXAMPLES
        assert json_field("f.json", {"k": None}, "k", CollectionMode, None) is None

    @pytest.mark.parametrize("value", ["Shared", "", 1, True, 1.5, None, ["shared"],
                                       {"shared": 1}])
    def test_json_field_rejects_a_value_outside_the_enum(self, value):
        with pytest.raises(IngestionError) as info:
            json_field("f.json", {"k": value}, "k", CollectionMode)
        assert str(info.value) == (f"f.json: 'k' must be 'independent' or 'shared', "
                                   f"got {value!r}")


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
