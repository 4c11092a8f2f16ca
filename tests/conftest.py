"""Fixtures shared by the grid tests and the forked-worker tests."""

import os
import signal
import weakref

import pytest

from boltzsphere import lifted


@pytest.fixture
def mappings(monkeypatch):
    """Each mapping `lifted._zeros` hands out, on the grid pool or off it,
    as (floats, weak reference to the mapping, how many earlier mappings
    were alive when it was made)."""
    made = []
    zeros = lifted._zeros

    def recording(n):
        alive = sum(ref() is not None for _, ref, _ in made)
        buf = zeros(n)
        made.append((n, weakref.ref(buf.base.obj), alive))
        return buf

    monkeypatch.setattr(lifted, "_zeros", recording)
    return made


@pytest.fixture
def forked_children(monkeypatch):
    """Two usable CPUs, so that work handed to `_beside` (dsmc's drift
    check, metrics-selftest's share of pairs, a batch's second chain) runs
    in a forked child; the list of the pids forked.  A child a test leaves
    running is killed."""
    monkeypatch.setattr(lifted, "_usable_cpus", lambda: 2)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
