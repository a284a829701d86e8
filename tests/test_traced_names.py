"""The benchmark tracer's named spans still name functions it can wrap.

``perfbench/tracing.py`` wraps every public function a layer module
defines and reports each ``NAMED_SPANS`` entry it did not find as absent.
This reads the two tables from that file, without importing or changing
it, so a refactor that deletes, renames or privatises a traced function
fails here, in the fast suite.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("LAYERS", "NAMED_SPANS")}


TABLES = _tables()


def test_tables_found():
    assert TABLES["LAYERS"] and TABLES["NAMED_SPANS"]


@pytest.mark.parametrize("name", TABLES["NAMED_SPANS"])
def test_named_span_is_a_public_function_of_its_layer(name):
    layer, attr = name.rsplit(".", 1)
    modname = TABLES["LAYERS"][layer]
    obj = getattr(importlib.import_module(modname), attr, None)
    assert not attr.startswith("_"), name
    assert inspect.isfunction(obj), f"{modname} has no function {attr!r}"
    assert obj.__module__ == modname, f"{name} is defined in {obj.__module__}"
