"""The benchmark's span tracer names engine functions; each name must exist.

``perfbench/tracing.py`` wraps every function in its ``TRACED`` table by
looking it up on its ``robustgames`` module and copying its ``__name__``,
so a renamed or removed engine function would break only the traced
benchmark run.  This reads the table and edits nothing under ``perfbench``.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_is_an_engine_function():
    table = _traced_table()
    assert table
    for layer, names in table.items():
        module = importlib.import_module(f"robustgames.{layer}")
        for name in names:
            function = getattr(module, name, None)
            assert inspect.isfunction(function), f"robustgames.{layer}.{name}"
            assert function.__name__ == name
