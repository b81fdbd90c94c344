"""The benchmark's tracer (bench/spans.py) wraps varpart functions by module
attribute, so renaming or removing one silently drops its spans from
``bench/run.py --trace 1``. Every name it lists must stay bound."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _module_bindings():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans._MODULE_BINDINGS


@pytest.mark.parametrize(
    "module, name",
    [(mod, nm) for mod, names in _module_bindings().items() for nm in names],
)
def test_traced_binding_exists(module, name):
    fn = getattr(importlib.import_module(module), name, None)
    assert inspect.isfunction(fn), f"{module}.{name}"
