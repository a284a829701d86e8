"""Task data model, file ingestion, split planning, and target normalization.

A task file is a UTF-8 delimited table (comma or tab, auto-detected from
the header line): first column holds unique example ids, one header-named
column holds the regression target, and every remaining column is a
numeric feature. A pool file is a task file without the target column. A
collection manifest is a JSON document listing task files, the
target column name, the collection mode, and a collection id.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import IngestionError, ValidationError


class CollectionMode(Enum):
    """How example rows relate across the tasks of a collection."""

    INDEPENDENT_EXAMPLES = "independent"
    SHARED_EXAMPLES = "shared"


class SplitKind(Enum):
    KFOLD = "kfold"
    HOLDOUT = "holdout"


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Task:
    """One regression problem: a feature matrix, a target vector, and ids.

    Immutable after construction; all invariants are checked up front so
    downstream code can rely on clean, finite, consistently shaped data.
    """

    task_id: str
    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]
    example_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        targs = np.asarray(self.targets, dtype=np.float64)
        if feats.ndim != 2:
            raise ValidationError(f"task {self.task_id!r}: features must be a 2-d matrix")
        if targs.ndim != 1:
            raise ValidationError(f"task {self.task_id!r}: targets must be a 1-d vector")
        n = feats.shape[0]
        if n == 0:
            raise ValidationError(f"task {self.task_id!r} has zero examples")
        if len(targs) != n or len(self.example_ids) != n:
            raise ValidationError(
                f"task {self.task_id!r}: row count mismatch "
                f"(features {n}, targets {len(targs)}, ids {len(self.example_ids)})"
            )
        if len(self.feature_names) != feats.shape[1]:
            raise ValidationError(
                f"task {self.task_id!r}: {len(self.feature_names)} feature names "
                f"for {feats.shape[1]} columns"
            )
        seen: set[str] = set()
        for name in self.feature_names:
            if name in seen:
                raise ValidationError(f"task {self.task_id!r}: duplicate feature name {name!r}")
            seen.add(name)
        example_ids = tuple(self.example_ids)  # a tuple of strings is kept, not copied
        if not all(isinstance(e, str) for e in example_ids):
            example_ids = tuple(str(e) for e in example_ids)
        if len(set(example_ids)) != n:
            seen = set()
            for example_id in example_ids:
                if example_id in seen:
                    raise ValidationError(
                        f"task {self.task_id!r}: duplicate example id {example_id!r}")
                seen.add(example_id)
        if not np.isfinite(feats).all():
            i, j = np.argwhere(~np.isfinite(feats))[0]
            raise ValidationError(
                f"task {self.task_id!r}: non-finite feature value at row "
                f"{self.example_ids[i]!r}, column {self.feature_names[j]!r}"
            )
        if not np.isfinite(targs).all():
            i = int(np.flatnonzero(~np.isfinite(targs))[0])
            raise ValidationError(
                f"task {self.task_id!r}: non-finite target at row {self.example_ids[i]!r}"
            )
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "targets", _readonly(targs))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "example_ids", example_ids)

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    def with_targets(self, targets: np.ndarray) -> "Task":
        return Task(self.task_id, self.features, targets, self.feature_names, self.example_ids)


@dataclass(frozen=True)
class TaskCollection:
    """A set of tasks sharing one intrinsic feature space, sorted by task id.

    The order is lexical (``t10`` before ``t2``) whatever order the tasks
    are given in, so the bank's columns, every view built from them and
    every table that lists tasks do not depend on how a manifest lists them.
    """

    tasks: tuple[Task, ...]
    mode: CollectionMode
    feature_space_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(sorted(self.tasks, key=lambda t: t.task_id)))
        if len(self.tasks) < 2:
            raise ValidationError("a collection needs at least 2 tasks")
        ref = self.tasks[0]
        seen: set[str] = set()
        for t in self.tasks:
            if t.task_id in seen:
                raise ValidationError(f"duplicate task id {t.task_id!r} in collection")
            seen.add(t.task_id)
        for t in self.tasks[1:]:
            if t.feature_names != ref.feature_names:
                col = _first_name_mismatch(ref.feature_names, t.feature_names)
                raise ValidationError(
                    f"feature-space mismatch between tasks {ref.task_id!r} and "
                    f"{t.task_id!r}: first differing column {col!r}"
                )
        if self.mode is CollectionMode.SHARED_EXAMPLES:
            for t in self.tasks[1:]:
                if t.example_ids != ref.example_ids:
                    raise ValidationError(
                        f"shared-examples collection requires identical example ids in "
                        f"identical order; task {t.task_id!r} differs from {ref.task_id!r}"
                    )
                if t.features is not ref.features and not np.array_equal(t.features,
                                                                         ref.features):
                    i, j = np.argwhere(t.features != ref.features)[0]
                    raise ValidationError(
                        f"shared-examples collection requires identical feature values; "
                        f"task {t.task_id!r} differs from {ref.task_id!r} at example "
                        f"{t.example_ids[i]!r}, column {t.feature_names[j]!r}"
                    )

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.task_id for t in self.tasks)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def task(self, task_id: str) -> Task:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(f"unknown task id {task_id!r}")


def _first_name_mismatch(a: tuple[str, ...], b: tuple[str, ...]) -> str:
    for i in range(max(len(a), len(b))):
        ai = a[i] if i < len(a) else "<missing>"
        bi = b[i] if i < len(b) else "<missing>"
        if ai != bi:
            return bi if bi != "<missing>" else ai
    return "<none>"


@dataclass(frozen=True)
class SplitPlan:
    """A deterministic partition of n examples into folds or a holdout.

    ``assignments`` holds one integer per example: the fold index for a
    k-fold plan, or 0 (train) / 1 (test) for a holdout plan.
    """

    kind: SplitKind
    assignments: np.ndarray
    seed: int
    k: int = 0
    test_fraction: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", _readonly(np.asarray(self.assignments, dtype=np.int64)))

    @property
    def n(self) -> int:
        return len(self.assignments)

    @property
    def n_splits(self) -> int:
        return self.k if self.kind is SplitKind.KFOLD else 1

    def split(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_indices, test_indices) for split number ``i``."""
        if not 0 <= i < self.n_splits:
            raise ValidationError(f"split index {i} out of range for {self.n_splits} splits")
        if self.kind is SplitKind.KFOLD:
            test = self.assignments == i
        else:
            test = self.assignments == 1
        idx = np.arange(self.n)
        return idx[~test], idx[test]

    @property
    def digest(self) -> str:
        """Stable content hash; equal plans hash equal on any platform."""
        h = hashlib.sha256()
        h.update(self.kind.value.encode())
        h.update(f":{self.seed}:{self.k}:{self.test_fraction!r}:".encode())
        h.update(self.assignments.tobytes())
        return h.hexdigest()


def make_fold_plan(n: int, k: int, seed: int) -> SplitPlan:
    """Shuffle n examples into k folds whose sizes differ by at most 1."""
    if k < 2:
        raise ValidationError(f"k must be at least 2, got {k}")
    if k > n:
        raise ValidationError(f"k ({k}) exceeds the number of examples ({n})")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        assignments[order[start : start + size]] = fold
        start += size
    return SplitPlan(SplitKind.KFOLD, assignments, seed=seed, k=k)


def make_holdout_plan(n: int, test_fraction: float, seed: int) -> SplitPlan:
    """Reserve round(n * test_fraction) examples as the test side."""
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise ValidationError(f"test_fraction {test_fraction} leaves an empty train or test side")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignments = np.zeros(n, dtype=np.int64)
    assignments[order[:n_test]] = 1
    return SplitPlan(SplitKind.HOLDOUT, assignments, seed=seed, test_fraction=test_fraction)


def normalize_targets(task: Task) -> Task:
    """The task with its targets rescaled to [0, 1] by their global min/max."""
    lo = float(task.targets.min())
    hi = float(task.targets.max())
    if hi == lo:
        raise ValidationError(f"task {task.task_id!r}: constant target vector cannot be normalized")
    # a finite span bounds every target's distance from lo, so only this
    # subtraction, of Python floats, can overflow, and it does so quietly
    span = hi - lo
    if not math.isfinite(span):
        raise ValidationError(f"task {task.task_id!r}: target range {lo!r} to {hi!r} "
                              "overflows, cannot be normalized")
    return task.with_targets((task.targets - lo) / span)


def read_table(path: str | Path, what: str) -> tuple[tuple[str, ...],
                                                     list[tuple[int, list[str]]]]:
    """Header and data rows of a UTF-8 delimited text file.

    The delimiter (tab, else comma) is detected from the header line and
    cells may be quoted. Blank rows are skipped; every other row comes
    with its line number and must have one cell per header column.
    ``what`` names the kind of file when it is missing.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestionError(f"{what} not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not lines or not lines[0].strip():
        raise IngestionError(f"{path}: empty file")
    reader = csv.reader(lines, delimiter="\t" if "\t" in lines[0] else ",")
    try:
        header = tuple(h.strip() for h in next(reader))
        seen: set[str] = set()
        for name in header:
            if name in seen:
                raise IngestionError(f"{path}: duplicate header column {name!r}")
            seen.add(name)
        rows = []
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise IngestionError(f"{path}: row {reader.line_num} has {len(row)} cells, "
                                     f"expected {len(header)}")
            rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise IngestionError(f"{path}: row {reader.line_num}: {exc}") from None
    return header, rows


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in a UTF-8 file.

    A missing file, text that is not UTF-8, invalid JSON and a document
    that is not an object are IngestionErrors naming the file; ``what``
    names the kind of file.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestionError(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                             f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise IngestionError(f"{path}: the {what} must be a JSON object, got {doc!r}")
    return doc


_JSON_KINDS = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def json_float(where: str | Path, key: str, value: int | float) -> float:
    """A JSON number as a float; an integer too large for a float is an error."""
    try:
        return float(value)
    except OverflowError:
        raise IngestionError(f"{where}: {key!r} must be a number within float range, "
                             f"got an integer of {value.bit_length()} bits") from None


def json_field(where: str | Path, doc: dict, key: str, kind: type, default=_REQUIRED):
    """``doc[key]`` if it is a JSON ``kind``: an integer is a number, a boolean is not.

    A number is returned as a float (see ``json_float``). For an ``Enum``
    ``kind`` the value must be one of its members' values, and the member
    is returned. A null or absent key gives ``default``; without a default
    the key is required. Errors are IngestionErrors prefixed with
    ``where``, the file and, for a nested object, the key that holds it.
    """
    value = doc.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in doc:
        raise IngestionError(f"{where}: missing key {key!r}")
    if issubclass(kind, Enum):
        for member in kind:
            if member.value == value:
                return member
        *rest, last = (repr(member.value) for member in kind)
        raise IngestionError(f"{where}: {key!r} must be {', '.join(rest)} or {last}, "
                             f"got {value!r}")
    if kind in (int, float):
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise IngestionError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return json_float(where, key, value) if kind is float else value


def parse_value(path: Path, line: int, column: str, cell: str) -> float:
    """One finite float cell; the error names the file, row and column."""
    try:
        value = float(cell)
    except ValueError:
        raise IngestionError(f"{path}: non-numeric value {cell.strip()!r} at row {line}, "
                             f"column {column!r}") from None
    if not math.isfinite(value):
        raise IngestionError(f"{path}: non-finite value {cell.strip()!r} at row {line}, "
                             f"column {column!r}")
    return value


_Rows = list[tuple[int, list[str]]]


def _row_key(row: list[str], skip: int) -> str | None:
    """The cells of ``row`` but its ``skip``-th, joined by NUL; None when a
    cell holds a NUL (the csv reader passes it through), so that two rows
    with equal keys have equal cells."""
    key = "\0".join(row[:skip] + row[skip + 1:])
    return None if key.count("\0") != len(row) - 2 else key


def _example_table(path: Path, header: tuple[str, ...], rows: _Rows,
                   like: tuple[list[str | None], np.ndarray, int] | None = None
                   ) -> tuple[tuple[str, ...], np.ndarray]:
    """Unique example ids (first column) and the values of every other column.

    ``like`` is an earlier file's row keys (see ``_row_key``) and values,
    under the same header and on the same lines, and the index of one
    column: a row whose other cells are the same text as that file's row
    takes its values, and only its cell in that column is parsed. The
    values and every error are those of parsing each cell.
    """
    if not rows:
        raise IngestionError(f"{path}: header only, zero examples")
    if like is None:
        values = np.empty((len(rows), len(header) - 1), dtype=np.float64)
    else:
        like_keys, like_values, keep = like
        values = like_values.copy()
    first_row: dict[str, int] = {}
    for i, (line, row) in enumerate(rows):
        example_id = row[0].strip()
        if example_id in first_row:
            raise IngestionError(f"{path}: duplicate example id {example_id!r} at row {line} "
                                 f"(first at row {first_row[example_id]})")
        first_row[example_id] = line
        try:
            if like is not None and like_keys[i] is not None \
                    and _row_key(row, keep) == like_keys[i]:
                values[i, keep - 1] = float(row[keep])
            else:
                values[i] = [float(cell) for cell in row[1:]]
        except ValueError:
            for j in range(1, len(row)):
                parse_value(path, line, header[j], row[j])
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        line, row = rows[i]
        parse_value(path, line, header[j + 1], row[j + 1])
    return tuple(first_row), values


def _target_column(path: Path, header: tuple[str, ...], target: str) -> int:
    """The header index of a task file's target column."""
    if len(header) < 3:
        raise IngestionError(f"{path}: need at least an id column, one feature, and a target")
    if target not in header[1:]:
        raise IngestionError(f"{path}: missing target column {target!r}")
    return header.index(target)


def _task(path: Path, header: tuple[str, ...], target_col: int, example_ids: tuple[str, ...],
          values: np.ndarray,
          share: tuple[Task | None, CollectionMode, dict[str, str]] | None = None) -> Task:
    """The task of a parsed task file, named by the file's stem. ``share``
    is ``_share``'s first task, mode and strings: the task then holds what
    it shares with the tasks loaded before it."""
    feature_cols = [j for j in range(values.shape[1]) if j != target_col - 1]
    names = tuple(header[j + 1] for j in feature_cols)
    features = values[:, feature_cols]
    if share is not None:
        names, example_ids, features = _share(names, example_ids, features, *share)
    return Task(task_id=path.stem, features=features, targets=values[:, target_col - 1],
                feature_names=names, example_ids=example_ids)


def load_task(path: str | Path, target: str) -> Task:
    """Load one task from a delimited text file, named by the file's stem.

    The first column is the example id, ``target`` names the target
    column, and every other column is parsed as a numeric feature.
    """
    path = Path(path)
    header, rows = read_table(path, "task file")
    target_col = _target_column(path, header, target)
    return _task(path, header, target_col, *_example_table(path, header, rows))


def load_pool(path: str | Path) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """Pooled example rows, their ids and the feature names: a task file
    without a target column."""
    path = Path(path)
    header, rows = read_table(path, "pool file")
    if len(header) < 2:
        raise IngestionError(f"{path}: need at least an id column and one feature")
    example_ids, values = _example_table(path, header, rows)
    return values, example_ids, tuple(header[1:])


def load_collection(manifest_path: str | Path) -> TaskCollection:
    """Load a collection from a JSON manifest listing task files."""
    path = Path(manifest_path)
    doc = read_json(path, "manifest")
    collection_id = json_field(path, doc, "collection_id", str)
    mode = json_field(path, doc, "mode", CollectionMode)
    target = json_field(path, doc, "target", str)
    files = json_field(path, doc, "tasks", list)
    if not files or not all(isinstance(f, str) for f in files):
        raise IngestionError(f"{path}: 'tasks' must be a non-empty list of file paths, "
                             f"got {files!r}")
    first_file: dict[str, str] = {}
    for f in files:
        task_id = (path.parent / f).stem  # the id load_task gives the file's task
        if task_id in first_file:
            raise IngestionError(f"{path}: 'tasks' lists task id {task_id!r} twice, as "
                                 f"{first_file[task_id]!r} and {f!r}")
        first_file[task_id] = f
    tasks: list[Task] = []
    strings: dict[str, str] = {}
    # a shared collection's first header, line numbers, row keys and values
    first_table = None
    for f in files:
        file = path.parent / f
        header, rows = read_table(file, "task file")
        target_col = _target_column(file, header, target)
        like = None
        if first_table is not None and header == first_table[0] \
                and [line for line, _ in rows] == first_table[1]:
            like = (first_table[2], first_table[3], target_col)
        example_ids, values = _example_table(file, header, rows, like)
        if mode is CollectionMode.SHARED_EXAMPLES and first_table is None:
            first_table = (header, [line for line, _ in rows],
                           [_row_key(row, target_col) for _, row in rows], values)
        tasks.append(_task(file, header, target_col, example_ids, values,
                           (tasks[0] if tasks else None, mode, strings)))
        del rows, values  # so one later file's cells, not two, are alive as the next is read
    return TaskCollection(tasks, mode, collection_id)


def _share(names: tuple[str, ...], ids: tuple[str, ...], features: np.ndarray,
           first: Task | None, mode: CollectionMode, strings: dict[str, str]
           ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """A loaded task's feature names, example ids and features, holding the
    collection's one copy of what they share.

    ``strings`` maps each example id and feature name the collection's
    task files gave so far to its first copy, and a header equal to
    ``first``'s is ``first``'s tuple, so many tasks over the same examples
    hold one string per id, not one per (task, row). In a shared collection
    a task whose example ids and feature values equal ``first``'s takes
    ``first``'s id tuple and feature array, so the collection holds one
    copy of its rows; a task that differs keeps its own, for
    ``TaskCollection`` to name.
    """
    if first is not None and names == first.feature_names:
        names = first.feature_names
    else:
        names = tuple(strings.setdefault(s, s) for s in names)
    ids = tuple(strings.setdefault(s, s) for s in ids)
    if mode is CollectionMode.SHARED_EXAMPLES and first is not None \
            and ids == first.example_ids and np.array_equal(features, first.features):
        ids, features = first.example_ids, first.features
    return names, ids, features


def _check_cell(task: Task, what: str, value: str, header: bool = False) -> None:
    """Raise a ValidationError naming ``task`` and ``value`` unless the
    reader gives ``value`` back from a task file's cell: it splits the file
    into lines as ``str.splitlines`` does, strips each id and header cell,
    reads a header that holds a tab as tab-delimited, and decodes UTF-8."""
    if value != value.strip():
        problem = "has leading or trailing whitespace"
    elif "".join(value.splitlines()) != value:
        problem = "holds a line break"
    elif header and "\t" in value:
        problem = "holds a tab"
    elif header and value == "id":
        problem = "is the id column's name"
    else:
        try:
            value.encode("utf-8")
            return
        except UnicodeEncodeError:
            problem = "is not UTF-8 text"
    raise ValidationError(f"task {task.task_id!r}: cannot write {what} {value!r}: it {problem}")


def _row_prefixes(task: Task) -> list[str]:
    """Each data row of ``task``'s file up to its target cell: the id and
    feature cells as ``csv.writer`` writes them and the comma before the
    target. CSV quotes each cell on its own, so a prefix plus ``repr`` of
    the target is the row ``csv.writer`` writes."""
    for name in task.feature_names:
        _check_cell(task, "feature name", name, header=True)
    for example_id in task.example_ids:
        _check_cell(task, "example id", example_id)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [example_id, *map(repr, row), ""]
        for example_id, row in zip(task.example_ids, task.features.tolist()))
    return buf.getvalue().split("\n")[:-1]  # no checked cell holds a line break


def _same_rows(a: Task, b: Task) -> bool:
    """Whether two tasks' files have the same id and feature cells: the same
    ids and names, and features of the same bits (``-0.0`` is not ``0.0``)."""
    return (a.example_ids == b.example_ids and a.feature_names == b.feature_names
            and (a.features is b.features or a.features.tobytes() == b.features.tobytes()))


def _write_rows(task: Task, path: Path, target: str, prefixes: list[str]) -> None:
    """Write ``task``'s file from its rows' prefixes (see ``_row_prefixes``)."""
    if target in task.feature_names:
        raise ValidationError(f"target column name {target!r} collides with a feature name")
    _check_cell(task, "target column name", target, header=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["id", *task.feature_names, target])
        fh.writelines(f"{prefix}{y!r}\n" for prefix, y in zip(prefixes, task.targets.tolist()))


def write_task_file(task: Task, path: str | Path, target: str = "y") -> None:
    """Write a task in the standard delimited format (comma-separated).

    An id or name that a task file does not give back, such as one with
    leading whitespace or a line break, is a ValidationError naming the
    task and the value, raised before the file is opened.
    """
    _write_rows(task, Path(path), target, _row_prefixes(task))


def write_collection(collection: TaskCollection, out_dir: str | Path,
                     target: str = "y") -> Path:
    """Write all task files plus a manifest; returns the manifest path.

    A task with the same example ids, feature names and feature bits as
    the task before it reuses that task's rendered rows, so a shared
    collection formats its id and feature cells once.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    previous, prefixes = None, []
    for task in collection.tasks:
        fname = f"{task.task_id}.csv"
        if Path(fname).name != fname or Path(fname).stem != task.task_id or "\0" in fname:
            raise ValidationError(f"task {task.task_id!r}: cannot write task id "
                                  f"{task.task_id!r}: it is not the stem of a file name")
        if previous is None or not _same_rows(task, previous):
            prefixes = _row_prefixes(task)
        _write_rows(task, out_dir / fname, target, prefixes)
        previous = task
        files.append(fname)
    manifest = {
        "collection_id": collection.feature_space_id,
        "mode": collection.mode.value,
        "target": target,
        "tasks": files,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_path
