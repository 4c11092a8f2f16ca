"""The package's one policy for using a second core.

- Grid and lattice builds run on at most two threads (`_map_grid_builds`):
  numpy's FFTs release the GIL.  The unit is the build: on the z pass two
  builds reach 1.74x on two cores and the column-block halves of one build
  1.68x, but one build at a time with its z pass split took 15.5 MB off the
  spectral workload's peak and added 41% to its raw wall time.  Memory
  sets the cap: a build peaks at one half-grid mapping (17 MB at the
  default shape) and two 1 MiB blocks.
- Python loops that hold the GIL run in one forked worker (`_beside`)
  while the calling process runs the rest of the work.
- The worker runs inline when os.fork is missing or fails, when one CPU is
  usable (a child would only take turns with this process), or when
  another Python thread is alive (a child forked then can deadlock on a
  lock that thread held).
- Both read the usable CPUs when they run.  No split of the work depends
  on the path or on the CPU count, so the output bytes do not either.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

from .errors import WorkerError


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _map_grid_builds(fn, items) -> list:
    """[fn(x) for x in items] on at most two threads, in order, for work
    that builds one grid or lattice per item and keeps a small result.  An
    exception raised by fn reaches the caller unchanged, as from a loop."""
    items = list(items)
    if not items:
        return []
    from concurrent.futures.thread import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(2, _usable_cpus(), len(items))) as pool:
        return list(pool.map(fn, items))


@contextlib.contextmanager
def _beside(fn, *args):
    """Run fn(*args) in one forked child while the body of the with block
    runs in this process, or inline before it; yields a function that
    returns fn's value or raises its exception.  The child is reaped on
    every path, and killed first if the block leaves before the result."""
    pid = -1
    if hasattr(os, "fork") and _usable_cpus() > 1 and threading.active_count() == 1:
        r = w = -1
        try:
            r, w = os.pipe()
            pid = os.fork()
        except OSError:  # out of descriptors, processes or memory
            for fd in (r, w):
                if fd >= 0:
                    os.close(fd)
    if pid < 0:
        value = fn(*args)
        yield lambda: value
        return
    if pid == 0:
        # the child sends (ok, value or exception) and leaves with os._exit,
        # so it never flushes the stdio buffers or runs the exit handlers it
        # inherited; an outcome that does not pickle leaves code 1
        code = 1
        try:
            os.close(r)
            try:
                outcome = pickle.dumps((True, fn(*args)))
            except Exception as exc:
                outcome = pickle.dumps((False, exc))
            with open(w, "wb") as pipe:
                pipe.write(outcome)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    reaped = False

    def result():
        # the pickle is loaded as it is read from the pipe, so the value is
        # held once; a child that ended with a non-zero code is a
        # WorkerError, whatever its truncated pickle made the load raise
        nonlocal reaped
        try:
            ok, value = pickle.load(pipe)
        except Exception:
            pipe.read()  # the rest of the pickle, or a child still writing never ends
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            if code != 0:  # a negative code is the signal that ended it
                raise WorkerError(f"worker process ended with code {code} and no result")
        if ok:
            return value
        raise value

    with open(r, "rb") as pipe:
        try:
            yield result
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
