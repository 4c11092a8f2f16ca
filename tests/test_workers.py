"""The package's use of a second core sits in one module, `_workers.py`.

The grid pool's threads, the forked worker and the CPU count are named
there and nowhere else, and the modules that use them import that module,
not one another: `conditioned` loads without `dsmc`.
"""

import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import boltzsphere
from boltzsphere import _workers

PACKAGE = Path(boltzsphere.__file__).parent


def test_the_policy_is_named_in_one_module():
    pattern = re.compile(r"os\.fork|ThreadPoolExecutor|sched_getaffinity")
    naming = sorted(p.name for p in PACKAGE.glob("*.py") if pattern.search(p.read_text(encoding="utf-8")))
    assert naming == ["_workers.py"]


def test_conditioned_loads_without_dsmc():
    # the package's __init__ imports every module, so a bare package stands
    # in for it: what loads is what conditioned.py itself imports
    code = (
        "import json, sys, types\n"
        "package = types.ModuleType('boltzsphere')\n"
        f"package.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['boltzsphere'] = package\n"
        "import boltzsphere.conditioned\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('boltzsphere.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "boltzsphere.conditioned" in loaded
    assert "boltzsphere.dsmc" not in loaded


def _out_of_processes():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("failing", ["pipe", "fork"])
def test_a_failed_fork_runs_inline_and_closes_its_pipe(monkeypatch, failing):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    opened = []
    pipe = os.pipe

    def recording_pipe():
        fds = pipe()
        opened.extend(fds)
        return fds

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, failing, _out_of_processes)
    with _workers._beside(os.getpid) as result:
        assert result() == os.getpid()
    assert len(opened) == (2 if failing == "fork" else 0)
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
