"""Cold start: the package imports scipy.special and no other scipy module,
and compiles no generated kernel.

The heavier scipy modules load only inside the functions that use them
(transport LPs, k-d trees, quadrature, the KS test), so a subcommand that
needs none of them never pays for their import.  The chain kernels and the
collision event loop are compiled on first use.  Each check runs in a fresh
interpreter, because this test process has imported those modules and
compiled those kernels already.
"""

import json
import os
import subprocess
import sys

import pytest

import boltzsphere
from boltzsphere import _kernels, cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(boltzsphere.__file__)))
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.integrate", "scipy.sparse")


def run_fresh(code: str):
    """Run `code` in a fresh interpreter that imports boltzsphere from this
    source tree; the JSON value on its last line of output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_scipy_modules(code: str) -> set:
    """The scipy modules in sys.modules after running `code` in a fresh
    interpreter."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n"
    )
    return set(run_fresh(code + report))


def test_package_import_loads_only_scipy_special():
    loaded = loaded_scipy_modules(
        "import boltzsphere, boltzsphere.cli\n"
        "from boltzsphere import _kernels\n"
        "_kernels.default_kernels()\n"
    )
    assert "scipy.special" in loaded
    assert not loaded.intersection(HEAVY)


PROCESS_MACHINERY = ("multiprocessing", "concurrent.futures.process")


def loaded_process_machinery(code: str) -> list:
    """Which of PROCESS_MACHINERY are in sys.modules after running `code` in
    a fresh interpreter."""
    return run_fresh(
        code + "\nimport json, sys\n"
        f"print(json.dumps([m for m in {PROCESS_MACHINERY!r} if m in sys.modules]))\n"
    )


def test_cli_import_loads_no_process_machinery():
    # the `_beside` worker imports what it needs when it forks
    assert loaded_process_machinery("import boltzsphere.cli") == []


def test_dsmc_at_two_jobs_loads_no_process_machinery(tmp_path):
    # --jobs selects nothing: the worker is one forked child, with no pool
    argv = ["dsmc", "--n-list", "16", "--replicas", "2", "--t-end", "2", "--samples", "1000",
            "--jobs", "2", "--out", str(tmp_path)]
    loaded = loaded_process_machinery(
        "import sys\n"
        "from boltzsphere import cli\n"
        f"code = cli.main({argv!r})\n"
        f"if code != {cli.EXIT_OK}:\n"
        "    sys.exit(code)\n"
    )
    assert (tmp_path / "dsmc.csv").exists()
    assert loaded == []


def test_w1_rate_leaves_scipy_integrate_unloaded(tmp_path):
    argv = ["w1-rate", "--n-list", "8,16", "--grid-shape", "256x256", "--out", str(tmp_path)]
    loaded = loaded_scipy_modules(
        "import sys\n"
        "from boltzsphere import cli\n"
        f"code = cli.main({argv!r})\n"
        f"if code != {cli.EXIT_OK}:\n"
        "    sys.exit(code)\n"
    )
    assert (tmp_path / "w1-rate.csv").exists()
    assert "scipy.integrate" not in loaded


@pytest.mark.parametrize("d", [1, 3])
def test_l1_gap_leaves_quadrature_and_root_finding_unloaded(tmp_path, d):
    # the gap is a closed form in scipy.special's incomplete beta and gamma
    argv = ["l1-gap", "--d", str(d), "--out", str(tmp_path)]
    loaded = loaded_scipy_modules(
        "import sys\n"
        "from boltzsphere import cli\n"
        f"code = cli.main({argv!r})\n"
        f"if code != {cli.EXIT_OK}:\n"
        "    sys.exit(code)\n"
    )
    assert (tmp_path / "l1-gap.csv").exists()
    assert not loaded.intersection({"scipy.integrate", "scipy.optimize"})


def test_chain_kernels_compile_on_first_use_and_once():
    before, keys, reused = run_fresh(
        "import json\n"
        "import boltzsphere as bs, boltzsphere.cli\n"
        "from boltzsphere import _kernels\n"
        "from boltzsphere.conditioned import ConditionedLaw, sample_conditioned_batch\n"
        "_kernels.default_kernels()\n"
        "before = sorted(_kernels._GENERATED)\n"
        "law = ConditionedLaw(bs.get_density('mixture', 3), bs.SphereSpec.boltzmann(3, 8))\n"
        "sample_conditioned_batch(law, 1, 2)\n"
        "first = dict(_kernels._GENERATED)\n"
        "sample_conditioned_batch(law, 2, 2)\n"
        "again = ConditionedLaw(bs.get_density('mixture', 3), bs.SphereSpec.boltzmann(3, 8))\n"
        "sample_conditioned_batch(again, 3, 2)\n"
        "reused = _kernels._GENERATED == first and all(\n"
        "    _kernels._GENERATED[k] is fn for k, fn in first.items())\n"
        "print(json.dumps([before, sorted(first), reused]))\n"
    )
    assert before == []
    assert keys == [["pair_chain", "mixture", 3]]
    assert reused


def test_event_loop_compiles_on_first_use_and_once():
    before, keys, reused = run_fresh(
        "import json\n"
        "import numpy as np\n"
        "import boltzsphere.cli\n"
        "from boltzsphere import _kernels\n"
        "advance = _kernels.default_kernels().dsmc_advance\n"
        "before = sorted(_kernels._GENERATED)\n"
        "rng = np.random.default_rng(0)\n"
        "def step():\n"
        "    v = rng.normal(size=(8, 3))\n"
        "    ii, jj = _kernels.draw_pair_indices(rng, 50, 8)\n"
        "    advance(v, 0.0, np.inf, 1.0, np.ones(50), ii, jj, _kernels.draw_unit_vectors(rng, 50, 3))\n"
        "step()\n"
        "first = dict(_kernels._GENERATED)\n"
        "step()\n"
        "reused = _kernels._GENERATED == first and all(\n"
        "    _kernels._GENERATED[k] is fn for k, fn in first.items())\n"
        "print(json.dumps([before, sorted(first), reused]))\n"
    )
    assert before == []
    assert keys == [["dsmc_collide", None, 3]]
    assert reused


def test_package_imports_without_linux_only_names():
    # macOS has neither os.sched_getaffinity nor mmap.MADV_HUGEPAGE; the
    # grid pool sizes itself from os.cpu_count() when it maps
    workers = run_fresh(
        "import mmap, os\n"
        "del os.sched_getaffinity, mmap.MADV_HUGEPAGE\n"
        "import json, boltzsphere.cli\n"
        "from concurrent.futures import thread\n"
        "from boltzsphere import _workers\n"
        "sizes = []\n"
        "class Recording(thread.ThreadPoolExecutor):\n"
        "    def __init__(self, max_workers):\n"
        "        sizes.append(max_workers)\n"
        "        super().__init__(max_workers)\n"
        "thread.ThreadPoolExecutor = Recording\n"
        "_workers._map_grid_builds(abs, range(4))\n"
        "print(json.dumps(sizes))\n"
    )
    assert workers == [min(2, os.cpu_count())]
