"""The perfbench tracer names its layers as ``module.function`` strings; each
must name a public function that its tarpreg module defines, or the layer
would silently report 0 calls after a rename or an inlining."""
import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _layer_functions():
    # read the literal without importing perfbench/run.py
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYER_FUNCTIONS not found in perfbench/run.py")


def test_traced_layers_are_public_tarpreg_functions():
    names = _layer_functions()
    assert names
    for name in names:
        module, func = name.split(".")
        assert not func.startswith("_"), name
        obj = getattr(importlib.import_module(f"tarpreg.{module}"), func, None)
        assert inspect.isfunction(obj), name
        assert obj.__module__ == f"tarpreg.{module}", name
