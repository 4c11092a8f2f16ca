"""Cold start: the package imports scipy.special and no other scipy module.

The heavier scipy modules load only inside the functions that use them
(transport LPs, k-d trees, quadrature, the KS test), so a subcommand that
needs none of them never pays for their import.  Each check runs in a fresh
interpreter, because this test process has imported them already.
"""

import json
import os
import subprocess
import sys

import boltzsphere
from boltzsphere import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(boltzsphere.__file__)))
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.integrate", "scipy.sparse")


def loaded_scipy_modules(code: str) -> set:
    """The scipy modules in sys.modules after running `code` in a fresh
    interpreter that imports boltzsphere from this source tree."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code + report], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_loads_only_scipy_special():
    loaded = loaded_scipy_modules(
        "import boltzsphere, boltzsphere.cli\n"
        "from boltzsphere import _kernels\n"
        "_kernels.default_kernels()\n"
    )
    assert "scipy.special" in loaded
    assert not loaded.intersection(HEAVY)


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
