"""The grid-build thread pool and the exact-curve memo change no number.

The exact d = 1 pipeline builds its grids on `_workers._map_grid_builds`
(up to two threads, one per usable CPU).  It keeps two memos,
`conditioned._CURVES` (one-particle curves) and `lifted._GAPS`
(Berry-Esseen gaps), neither of which holds a grid: no grid outlives the
call that built it.  Every raster and spectrum, on the pool or off it, is
a new anonymous mapping (`lifted._zeros`).  These tests hold the results
at one worker equal to those at two, with both memos emptied before each
run, check that the memo keeps what it should and that no grid stays alive,
that an array a caller kept is never overwritten, that no mapping outlives
its map, and that typed errors raised on a pool thread reach the CLI
unchanged.
"""

import mmap
import os
import sys
import threading
import weakref

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere import _workers, cli, conditioned, lifted
from boltzsphere.conditioned import (
    ConditionedLaw,
    conditioned_marginal_density,
    entropy_per_particle,
    entropy_rate_experiment,
    w1_rate_experiment,
)

UNIF = bs.get_density("uniform", 1)
SHAPE = (256, 256)

# the spectral subcommands at the benchmark's tiny size (perfbench/workloads.py)
TINY_SPECTRAL = [
    ["w1-rate", "--n-list", "8,16", "--grid-shape", "512x512"],
    ["entropy-rate", "--n-list", "16,32", "--grid-shape", "512x512"],
    ["zprime", "--density", "uniform", "--n-list", "8,16", "--grid-shape", "512x512"],
    ["berry-esseen", "--n-list", "2,4,8"],
]


def _empty_memos(monkeypatch):
    monkeypatch.setattr(conditioned, "_CURVES", type(conditioned._CURVES)())
    monkeypatch.setattr(lifted, "_GAPS", {})


@pytest.fixture
def fresh(monkeypatch):
    """Empty memos; returns (N, weak reference) of each grid built."""
    _empty_memos(monkeypatch)
    built = []
    init = lifted.LiftedGrid.__init__

    def counting_init(self, f, N, *args, **kwargs):
        built.append((N, weakref.ref(self)))
        init(self, f, N, *args, **kwargs)

    monkeypatch.setattr(lifted.LiftedGrid, "__init__", counting_init)
    return built


def _built(fresh):
    return sorted(N for N, _ in fresh)


def _alive(fresh):
    return [N for N, grid in fresh if grid() is not None]


def _law(N):
    return ConditionedLaw(f=UNIF, spec=bs.SphereSpec.boltzmann(1, N), grid_shape=SHAPE)


def _results(monkeypatch, workers, out):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda n=workers: n)
    _empty_memos(monkeypatch)
    w1_rows = np.array(w1_rate_experiment(UNIF, [8, 16, 32], grid_shape=SHAPE))
    _empty_memos(monkeypatch)
    entropy = np.array([entropy_per_particle(_law(N)) for N in (16, 32)])
    _empty_memos(monkeypatch)
    entropy_rows = np.array(entropy_rate_experiment(UNIF, [16, 32], grid_shape=SHAPE))
    zdir = out / "zprime"
    code = cli.main(["zprime", "--density", "uniform", "--n-list", "8,16,32",
                     "--grid-shape", "256x256", "--out", str(zdir)])
    assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE)
    zrows = np.loadtxt(zdir / "zprime.csv", delimiter=",", skiprows=2)
    _empty_memos(monkeypatch)
    csvs = {}
    for argv in TINY_SPECTRAL:
        tdir = out / "tiny"
        cli.main(argv + ["--out", str(tdir)])
        csvs[argv[0]] = (tdir / f"{argv[0]}.csv").read_bytes()
    return [w1_rows, entropy, entropy_rows, zrows], csvs


def test_one_and_two_workers_give_equal_numbers(monkeypatch, tmp_path, capsys):
    one, one_csv = _results(monkeypatch, 1, tmp_path / "one")
    two, two_csv = _results(monkeypatch, 2, tmp_path / "two")
    for a, b in zip(one, two):
        assert np.array_equal(a, b)
    assert one_csv == two_csv


def test_entropy_rate_after_w1_rate_builds_no_grid(fresh, tmp_path, capsys):
    shape = ["--grid-shape", "256x256", "--out", str(tmp_path)]
    cli.main(["w1-rate", "--n-list", "8,16,32"] + shape)
    assert _built(fresh) == [7, 15, 31]
    cli.main(["entropy-rate", "--n-list", "16,32"] + shape)
    assert _built(fresh) == [7, 15, 31]


def test_spectral_subcommands_leave_no_grid_alive(fresh, tmp_path, capsys):
    shape = ["--grid-shape", "256x256", "--out", str(tmp_path)]
    for argv in (["w1-rate", "--n-list", "8,16,32"], ["entropy-rate", "--n-list", "16,32,64"],
                 ["zprime", "--density", "uniform", "--n-list", "8,16,32"]):
        assert cli.main(argv + shape) in (cli.EXIT_OK, cli.EXIT_TOLERANCE)
    assert _built(fresh) == [7, 8, 15, 16, 31, 32, 63]
    assert _alive(fresh) == []


@pytest.mark.parametrize(
    "call, built",
    [
        (lambda lw: conditioned_marginal_density(lw, 1, np.array([[0.1], [0.5]])), [15, 16]),
        (lambda lw: lw.log_zprime(16, lw.spec.r, 0.0), [16]),
        (lambda lw: lifted.lifted_grid(UNIF, 16, shape=SHAPE).log_z_prime(lw.spec.r, 0.0), [16]),
    ],
    ids=["conditioned_marginal_density", "log_zprime", "log_z_prime_exact"],
)
def test_point_apis_leave_no_grid_alive(fresh, call, built):
    value = call(_law(16))
    assert np.all(np.isfinite(value))
    assert _built(fresh) == built
    assert _alive(fresh) == []


def _record_threads(monkeypatch, module, name):
    """Wrap module.name so each call records whether it ran off the main thread."""
    threads = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        threads.append(threading.current_thread() is not threading.main_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return threads


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["w1-rate", "--n-list", "8,16", "--grid-shape", "16x16"], "reached the window boundary"),
        (["zprime", "--density", "uniform", "--n-list", "8,16", "--grid-shape", "16x16"],
         "reached the window boundary"),
        (["w1-rate", "--n-list", "8,16", "--grid-shape", "32x32"], "grid misconfigured"),
    ],
)
def test_worker_errors_reach_main_typed(fresh, monkeypatch, tmp_path, capsys, workers, argv, message):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda n=workers: n)
    threads = _record_threads(monkeypatch, lifted, "convolution_power")
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_RUNTIME
    assert message in capsys.readouterr().err
    assert threads and all(threads)


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_errors_keep_their_type(fresh, monkeypatch, workers):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda n=workers: n)
    threads = _record_threads(monkeypatch, conditioned, "_compute_curve")
    with pytest.raises(bs.CoverageError):
        w1_rate_experiment(UNIF, [8, 16], grid_shape=(16, 16))
    with pytest.raises(bs.SupportError):
        w1_rate_experiment(UNIF, [8, 16], grid_shape=(32, 32))
    assert threads and all(threads)


def test_map_grid_builds_keeps_order_and_raises_first_error(monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        items = list(range(64))
        assert _workers._map_grid_builds(lambda x: x * x, items) == [x * x for x in items]
        assert _workers._map_grid_builds(lambda x: x, []) == []

        def fail_from_ten(x):
            if x >= 10:
                raise bs.CoverageError(f"item {x}")
            return x

        with pytest.raises(bs.CoverageError, match="item 10"):
            _workers._map_grid_builds(fail_from_ten, items)
    finally:
        sys.setswitchinterval(interval)


def _mapped(mappings):
    """How many of the recorded mappings (conftest.py) are still mapped."""
    return sum(ref() is not None for _, ref, _ in mappings)


def _kept_values(N):
    return lifted.LiftedGrid(UNIF, N, shape=SHAPE).power.values


def _held_raster(N):
    # as the benchmark's tracer does: the raster stays referenced while its
    # power is built
    raster = lifted.rasterize_lifted(UNIF, window=lifted.default_window(UNIF, N), shape=SHAPE)
    before = raster.values.copy()
    values = lifted.convolution_power(raster, N).values
    assert np.array_equal(raster.values, before)
    return values


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fn", [_kept_values, _held_raster])
def test_kept_arrays_are_never_overwritten(monkeypatch, mappings, workers, fn):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda n=workers: n)
    Ns = [8, 16, 32, 64]
    outside = [_kept_values(N) for N in Ns]
    assert len(mappings) == 2 * len(Ns)  # a raster and a spectrum per build
    inside = _workers._map_grid_builds(fn, Ns)
    assert len(mappings) == 4 * len(Ns)
    # each kept values array keeps its own spectrum's mapping, and no other
    assert _mapped(mappings) == 2 * len(Ns)
    assert [v.tobytes() for v in inside] == [v.tobytes() for v in outside]


def test_no_buffer_outlives_its_map(monkeypatch, mappings, tmp_path, capsys):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    _empty_memos(monkeypatch)
    _workers._map_grid_builds(lambda N: lifted.lifted_grid(UNIF, N, shape=SHAPE).log_density(0.0, N), [8, 16, 32])
    assert len(mappings) == 6  # a raster and a spectrum per build
    assert _mapped(mappings) == 0
    code = cli.main(["w1-rate", "--n-list", "8,16,32", "--grid-shape", "256x256", "--out", str(tmp_path)])
    assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE)
    assert len(mappings) == 12
    assert _mapped(mappings) == 0


def test_lattices_run_beside_no_buffer(monkeypatch, mappings, tmp_path, capsys):
    lattice_gap = lifted._lattice_gap
    buffer_alive = []

    def recording(*args):
        buffer_alive.append(_mapped(mappings) > 0)
        return lattice_gap(*args)

    monkeypatch.setattr(lifted, "_lattice_gap", recording)
    _empty_memos(monkeypatch)
    code = cli.main(["berry-esseen", "--n-list", "2,4,8", "--out", str(tmp_path)])
    assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE)
    assert len(buffer_alive) == 3 and mappings == []
    # zprime maps its lattices after its grids, once every grid is unmapped
    buffer_alive.clear()
    _empty_memos(monkeypatch)
    code = cli.main(["zprime", "--density", "uniform", "--n-list", "8,16,32",
                     "--grid-shape", "256x256", "--out", str(tmp_path)])
    assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE)
    assert mappings and buffer_alive == [False, False, False]


def test_worker_count_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity is Linux only; elsewhere the pool is sized from
    # os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _workers._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undetermined
    assert _workers._usable_cpus() == 1


def test_grid_without_huge_page_advice(monkeypatch):
    # mmap.MADV_HUGEPAGE is Linux only; without it the mappings go unadvised
    # and the grid keeps its bytes
    want = lifted.lifted_grid(UNIF, 16, shape=SHAPE).power.values.tobytes()
    monkeypatch.delattr(mmap, "MADV_HUGEPAGE")
    assert lifted.lifted_grid(UNIF, 16, shape=SHAPE).power.values.tobytes() == want
