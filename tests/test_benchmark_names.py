"""The package names that the benchmark harness in perfbench/ reads.

The harness wraps and calls functions, methods and kernels by name, and its
own tests live outside `tests/`.  These checks fail when one of those names
is renamed or deleted.  `perfbench/tracer.py` is executed from its source,
so no bytecode is written next to it.
"""

import importlib
import inspect
import pathlib
import types

import pytest

from boltzsphere import _kernels, lifted

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), vars(module))
    return module


def test_every_layer_imports(tracer):
    for layer in tracer.LAYERS:
        importlib.import_module(f"boltzsphere.{layer}")


def test_every_traced_method_resolves(tracer):
    for layer, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(f"boltzsphere.{layer}"), cls_name)
        assert inspect.isfunction(vars(cls)[attr]), (layer, cls_name, attr)


def test_every_traced_kernel_is_on_the_default_namespace(tracer):
    kernels = _kernels.default_kernels()
    for attr in tracer.KERNELS:
        assert callable(getattr(kernels, attr)), attr


def test_lifted_grid_is_a_module_function():
    assert inspect.isfunction(lifted.lifted_grid)
    assert lifted.lifted_grid.__module__ == "boltzsphere.lifted"


def test_kernel_flags_read_by_the_child_exist():
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert hasattr(_kernels.default_kernels(), "jitted")
