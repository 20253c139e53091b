"""The benchmark's tracer patches sublin functions by name; each must still exist."""
import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _traced_names():
    """(module, function) pairs of perfbench/tracing.py's SPANNED and COUNTED tables."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for table in (tracing.SPANNED, tracing.COUNTED)
            for module, names in table.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_function_exists(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"sublin.{module}"), name, None))
