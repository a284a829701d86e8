"""Byte goldens of the files ``write_collection`` writes.

The value digests elsewhere cannot see a change in how a task file is
written, because ``repr`` round-trips any float. These pin every byte of
every file (task files and manifest) for a shared and an independent
``synth`` collection and for a hand-built one whose ids and names need CSV
quoting. The digests were recorded before the writer rendered a shared
block once, and must pass unedited. ``setup_digests.json`` pins every file
``crossrep synth`` writes for each benchmark workload's seed-0 full-size
set-up, recorded while every cell still went through ``csv.writer``; a
property checks drawn tasks against that renderer (``csv_task_file``).
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrep.cli import main
from crossrep.data import (CollectionMode, Task, TaskCollection, load_task, write_collection,
                           write_task_file)
from crossrep.synth import SynthSpec, generate_collection
from helpers import csv_task_file
from test_bench_digests import WORKLOADS


def synth(mode):
    return generate_collection(SynthSpec(n_tasks=3, n_examples_per_task=7, n_features=3,
                                         relatedness=0.6, seed=13, mode=mode))


def quoted():
    """Ids and names holding a comma or a double quote, and values whose
    ``repr`` takes every form: -0.0, subnormal, exponent, integral."""
    X = np.array([[-0.0, 5e-324, 1.5e300], [1.0, -2.25, 0.1], [3.0, 1e-05, -7e22]])
    ids = ("a,1", 'b"2', 'c,"3"')
    names = ("f,1", 'g"2', "h")
    tasks = [Task(f"q{i}", X, np.array([0.5, -1.0, 2.0 ** i]), names, ids) for i in range(3)]
    return TaskCollection(tasks, CollectionMode.SHARED_EXAMPLES, 'quoted "c"')


COLLECTIONS = {
    "shared_synth": (lambda: synth(CollectionMode.SHARED_EXAMPLES), "y"),
    "independent_synth": (lambda: synth(CollectionMode.INDEPENDENT_EXAMPLES), "y"),
    "quoted_names": (quoted, "y,t"),
}

GOLDEN = {
    "shared_synth": {
        "manifest.json": "c1b76aefbddcfdb4083ebf22c763e5add9cfc74e7c508c7658866bc2c64e4714",
        "task000.csv": "ad4b0cf23d37422fc60f86b3ba331a8b0f3ee72b3f97dcecc7734ee8eedc6c3a",
        "task001.csv": "be388e57806b7ea096bfcf03d94306185adb6344e309376edef59e2ab2348fc6",
        "task002.csv": "e8587cc3429e16857a91be7756bfc5ce3f15ad5b61e59f07cf8f4caaa4a7f728",
    },
    "independent_synth": {
        "manifest.json": "3ad70ea0940a9ac93b93ecb0fd3019e247009e1de229145650d4c4af32606d3c",
        "task000.csv": "2380e03949cc270d9ab36321ca560ae6425681b487b7fa2e6422bd1b08a8cca1",
        "task001.csv": "fcd0fe3aafa21017edc2d2b27e579e5510f9c7e11d94852a375530da2ac1867f",
        "task002.csv": "ec8acf736a002982d48086bfa96f64d9d7752f0cf5dcc14c07fb41800f070542",
    },
    "quoted_names": {
        "manifest.json": "97de1f358975edcc8708c2d54486bae1ab9f3022c112299c4afdc81312d32c98",
        "q0.csv": "ef35adfc47fcd38dfc0f85d48bb6ca1ba13c621f7fa0804d3fae12c3876b4d44",
        "q1.csv": "7a5118b38693a9bc0b62b9240850b915d6ef46ab7b82a3fcfc6feb2890c5b3c1",
        "q2.csv": "247b4143f2d550cf52ad0d5780dbac9747156ca6246ca50f4060057ab40610e3",
    },
}


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(COLLECTIONS))
def test_written_files_keep_their_bytes(tmp_path, name):
    build, target = COLLECTIONS[name]
    write_collection(build(), tmp_path / "c", target=target)
    assert _digests(tmp_path / "c") == GOLDEN[name]


SETUP_DIGESTS = json.loads(Path(__file__).with_name("setup_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_setup_files_keep_their_bytes(tmp_path, name):
    """The ``synth`` step of the workload's set-up, at full size and seed 0:
    12 to 100 tasks, whose Gaussian draws include exponent forms such as
    ``-7.093645266259751e-05``."""
    workload = WORKLOADS[name]
    argv = workload.setup_commands(workload.sizes("full"), 0, tmp_path)[0]
    assert argv[0] == "synth"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert _digests(tmp_path / "data") == SETUP_DIGESTS[name]


def _cell_text(alphabet):
    """Cells the reader gives back: no whitespace at either end, no line break."""
    return st.text(st.sampled_from(alphabet), max_size=5).filter(lambda s: s == s.strip())


IDS = _cell_text('a7 ,"\t\0\u00e9\u4e2d\U0001f600')
NAMES = _cell_text('a7 ,"\0\u00e9\u4e2d\U0001f600').filter(lambda s: s != "id")
VALUES = st.one_of(st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, 1.5e300, -1.5e300]),
                   st.integers(-10 ** 17, 10 ** 17).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tasks(draw):
    """A task of 1 to 4 rows and 0 to 5 feature columns, and a target name."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    header = draw(st.lists(NAMES, min_size=p + 1, max_size=p + 1, unique=True))
    table = np.array(draw(st.lists(VALUES, min_size=n * (p + 1), max_size=n * (p + 1))))
    table = table.reshape(n, p + 1)
    return Task("t", table[:, :p], table[:, p], tuple(header[:p]), tuple(ids)), header[p]


@given(tasks())
@example((Task("t", np.empty((2, 0)), np.array([0.0, -1.5]), (), ("a", "")), "y"))
@settings(max_examples=300, deadline=None)
def test_written_task_file_is_the_csv_writers(drawn):
    """``write_task_file`` writes what ``csv.writer`` writes for every cell.
    The file reads back to the same ids and value bits; a file of no
    feature columns, which the reader refuses, is checked by its bytes."""
    task, target = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_task_file(task, path, target)
        assert path.read_bytes() == csv_task_file(task, target).encode("utf-8")
        if task.feature_names:
            back = load_task(path, target)
            assert back.example_ids == task.example_ids
            assert back.feature_names == task.feature_names
            assert back.features.tobytes() == task.features.tobytes()
            assert back.targets.tobytes() == task.targets.tobytes()
