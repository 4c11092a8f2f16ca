"""The package names that the benchmark harness in perfbench/ reads.

The harness wraps and calls functions, methods and kernels by name, and its
own tests live outside `tests/`.  These checks fail when one of those names
is renamed or deleted, and every argv that a workload passes to the CLI
parses and loads.  `perfbench/tracer.py` and `perfbench/workloads.py` are
executed from their source, so no bytecode is written next to them.
"""

import importlib
import inspect
import pathlib
import types

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere import _kernels, cli, lifted

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _from_source(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


@pytest.fixture(scope="module")
def tracer():
    return _from_source("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _from_source("workloads")


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


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_every_planned_argv_parses_and_loads(workloads, size, tmp_path):
    # a flag the CLI drops or a value it refuses would end the benchmark's
    # pass, and the benchmark's own tests run outside `tests/`
    for workload in workloads.WORKLOADS:
        argvs = workloads.plan(workload, size, 20240901, str(tmp_path))["argv"]
        assert argvs, workload
        for argv in argvs:
            args = cli._parser().parse_args(argv)
            assert cli._load_config(args, args.command).experiment == argv[0]


def test_lifted_grid_is_a_module_function():
    assert inspect.isfunction(lifted.lifted_grid)
    assert lifted.lifted_grid.__module__ == "boltzsphere.lifted"


def test_kernel_flags_read_by_the_child_exist():
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert hasattr(_kernels.default_kernels(), "jitted")


# The parameters that the hooks of perfbench/tracer.py read by position,
# as (layer, function, {position: name}).  The chain hook reads log_us and
# the four arguments from step0 on; a kernel is called positionally.
_READ_BY_POSITION = [
    ("_kernels", "pair_chain",
     {6: "log_us", 7: "step0", 8: "burn_in", 9: "thin", 10: "out"}),
    ("_kernels", "triple_chain",
     {7: "log_us", 8: "step0", 9: "burn_in", 10: "thin", 11: "out"}),
    ("_kernels", "dsmc_advance", {4: "dts"}),
    ("lifted", "convolution_power", {0: "g", 1: "N"}),
    ("conditioned", "conditioned_marginal_density", {0: "law", 1: "ell", 2: "V_ell"}),
    ("conditioned", "sample_conditioned_batch", {2: "n_states"}),
    ("geometry", "ipp_residual", {2: "samples"}),
    ("uniform", "sample_uniform_batch", {1: "n"}),
    ("cli", "main", {0: "argv"}),
    ("reporting", "write_csv", {0: "path"}),
    ("reporting", "write_json", {0: "path"}),
    ("reporting", "svg_line_plot", {0: "path"}),
]


@pytest.mark.parametrize("layer, name, positions", _READ_BY_POSITION)
def test_argument_positions_read_by_the_hooks(layer, name, positions):
    fn = getattr(importlib.import_module(f"boltzsphere.{layer}"), name)
    params = list(inspect.signature(fn).parameters)
    assert {pos: params[pos] for pos in positions} == positions


def test_every_hooked_function_is_checked(tracer):
    checked = {f"{tracer._label(layer)}.{name}" for layer, name, _ in _READ_BY_POSITION}
    assert set(tracer.HOOKS) == checked


def test_traced_builds_take_their_spectra_from_the_one_allocator(tracer, mappings):
    # the tracer's wrapper of convolution_power holds the raster while the
    # power runs; a traced build still maps its raster and its spectrum with
    # lifted._zeros, as an untraced one does, and its values are that spectrum
    f = bs.get_density("uniform", 1)
    untraced = lifted.lifted_grid(f, 16, shape=(256, 256)).power.values
    run = tracer.Tracer()
    run.install()
    try:
        traced = lifted.lifted_grid(f, 16, shape=(256, 256)).power.values
    finally:
        run.restore()
    assert run.name.count("lifted.convolution_power") == 1
    raster, spectrum = 129 * 256, 129 * 2 * 129
    assert [n for n, _, _ in mappings] == [raster, spectrum, raster, spectrum]
    assert np.shares_memory(untraced, np.frombuffer(mappings[1][1]()))
    assert np.shares_memory(traced, np.frombuffer(mappings[3][1]()))
    assert traced.tobytes() == untraced.tobytes()
