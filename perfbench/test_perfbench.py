"""The benchmark's own test: every workload at a tiny size, every named
metric emitted with its unit, and a tracer that leaves the package as it
found it.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(trace):
    proc = _run("--workload", "all", "--size", "tiny", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    expected = {f"{w}.{s['name']}": s["unit"] for w in names for s in specs}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace == 0:
        for w in names:
            for s in specs:
                assert result["metrics"][f"{w}.{s['name']}"]["value"] > 0


def test_tracer_restores_every_wrapped_function():
    import boltzsphere  # noqa: F401
    import boltzsphere.cli  # noqa: F401
    from boltzsphere import _kernels, lifted
    from boltzsphere.densities import get_density

    _kernels.default_kernels()  # built during set-up, before any pass

    def snapshot():
        mods = {n: dict(vars(m)) for n, m in sys.modules.items()
                if n == "boltzsphere" or n.startswith("boltzsphere.")}
        classes = {(layer, cls, attr): vars(getattr(sys.modules[f"boltzsphere.{layer}"], cls))[attr]
                   for layer, cls, attr in tracing.METHODS}
        ns = dict(vars(_kernels.default_kernels()))
        return mods, classes, ns

    before = snapshot()
    tr = tracing.Tracer()
    tr.install()
    try:
        targets = tr.wrapped_targets()
        assert any(attr == "lifted_grid" for _, attr in targets)
        assert any(attr == "dsmc_advance" for _, attr in targets)
        assert lifted.GridDensity.interp_log is not before[1][("lifted", "GridDensity", "interp_log")]
        grid = lifted.lifted_grid(get_density("uniform", 1), 4, shape=(64, 64))
        grid.log_density(0.0, 4.0)
    finally:
        tr.restore()
    assert "lifted.lifted_grid" in tr.name and "lifted.GridDensity.interp_log" in tr.name
    after = snapshot()
    for name, attrs in before[0].items():
        for attr, value in attrs.items():
            assert after[0][name][attr] is value, f"{name}.{attr} not restored"
    assert all(after[1][k] is v for k, v in before[1].items())
    assert all(after[2][k] is v for k, v in before[2].items())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "spectral", "--size", "tiny", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pass_count_depends_on_the_arguments_only():
    import run

    assert run.pass_count("spectral", 30, "full") == 2
    assert run.pass_count("collision", 30, "full") == 1
    assert run.pass_count("montecarlo", 1, "full") == 1
    assert run.pass_count("collision", 300, "tiny") == 1


def test_speed_probe_scales_by_the_median_sample():
    import child

    probe = child.SpeedProbe(period_s=1.0, nominal_s=2.0)
    probe.samples = [1.0, 4.0, 3.0, 4.0, 5.0]
    timing = probe.stop(20.0)
    assert timing == {"s": 3.0, "scaled_s": 1.5, "probe_s": 4.0, "probe_n": 5}
