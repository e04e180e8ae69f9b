"""The benchmark's tracer patches package functions by name; a rename in
the package must fail here, not only when the benchmark runs."""
import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHES table in {TRACING}")


@pytest.mark.parametrize("module, attr, span", traced_targets())
def test_traced_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None))
