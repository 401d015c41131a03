"""The names the benchmark's tracer wraps must exist in ulrichmf.

perfbench/tracing.py looks layers, classes and functions up by name and
silently wraps nothing when a name is gone, so a renamed function would turn
a per-layer count into a constant 0.  This reads the tracer's tables without
changing them.
"""

import importlib
import importlib.util
import os

import pytest

from ulrichmf import cli, knorrer, pencil

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(qualified: str):
    layer, *attrs = qualified.split(".")
    obj = importlib.import_module(f"ulrichmf.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


TRACER = load_tracing()


@pytest.mark.parametrize("name", sorted(TRACER.COUNTERS))
def test_counted_names_resolve(name):
    assert callable(resolve(name))


@pytest.mark.parametrize("name", sorted(
    f"{layer}.{attr}" for layer, attrs in TRACER.EXTRA_FUNCTIONS.items() for attr in attrs
))
def test_extra_function_names_resolve(name):
    assert callable(resolve(name))


def test_layers_are_modules():
    for layer in TRACER.ALL_MODULES:
        importlib.import_module(f"ulrichmf.{layer}")


def test_by_value_imports_kept():
    # the tracer re-patches names imported by value; these two are the ones it documents
    assert knorrer.simultaneous_diagonalize is pencil.simultaneous_diagonalize
    assert cli.smoothness_check is pencil.smoothness_check
