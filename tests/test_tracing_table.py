"""The benchmark reads engine names; each name must exist.

``perfbench/tracing.py`` wraps every function in its ``TRACED`` table by
looking it up on its ``robustgames`` module and copying its ``__name__``,
and the workloads call the engine through ``mods.<layer>.<name>`` or
through a local alias of ``mods.<layer>``.  A renamed or removed engine
name would break only a benchmark run, so these tests read the table and
the workload sources and edit nothing under ``perfbench``.
"""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import robustgames

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
LAYERS = frozenset(m.name for m in pkgutil.iter_modules(robustgames.__path__))


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


def _layer_of(node):
    """The layer ``node`` names when it is ``mods.<layer>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "mods"
        and node.attr in LAYERS
    ):
        return node.attr
    return None


def _aliases(function):
    """Names bound to a layer in ``function``: parameters named after a
    layer, and plain or tuple assignments from ``mods.<layer>``."""
    aliases = {a.arg: a.arg for a in function.args.args if a.arg in LAYERS}
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            for name, value in pairs:
                layer = _layer_of(value)
                if isinstance(name, ast.Name) and layer:
                    aliases[name.id] = layer
    return aliases


def _engine_reads(tree):
    """Every (layer, name, line) the source reads off an engine module."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            layer = _layer_of(node.value)
            if layer:
                reads.append((layer, node.attr, node.lineno))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = _aliases(function)
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                reads.append((aliases[node.value.id], node.attr, node.lineno))
    return reads


def test_every_engine_name_perfbench_reads_exists():
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources
    seen = set()
    for path in sources:
        for layer, name, line in _engine_reads(ast.parse(path.read_text(), str(path))):
            module = importlib.import_module(f"robustgames.{layer}")
            assert hasattr(module, name), f"{path.name}:{line} robustgames.{layer}.{name}"
            seen.add((layer, name))
    # The walk finds both spellings: ``mods.vcg.winner_determination`` and
    # ``vcg.classify_attack`` through the ``vcg = mods.vcg`` alias.
    assert {("vcg", "winner_determination"), ("vcg", "classify_attack")} <= seen
