"""One pass of one workload in a fresh process (or only its set-up).

Usage: python3 perfbench/child.py --root DIR --workload NAME --seed N
           --size full|tiny --trace 0|1 --out DIR
       python3 perfbench/child.py --root DIR --setup-only

Set-up is timed first, before anything but the standard library is
imported: importing ``boltzsphere`` and ``boltzsphere.cli`` and building
``_kernels.default_kernels()``.  The pass then runs with its outputs in
--out, and the last line of standard output is one JSON record.  Both
intervals are reported as measured and scaled to a nominal core speed (see
SpeedProbe).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

# The speed probe.  The cores of a shared host change speed by up to a
# factor of two within seconds and between minutes, so a bare wall time
# measures the host as much as the program.  While an interval is timed, a
# timer signal runs a fixed piece of work every PERIOD_S and records how long
# it took; the interval, less the probe's own time, is then scaled by
# NOMINAL_S / (median probe sample): seconds at the core speed at which the
# probe takes NOMINAL_S.  Set-up is probed with the pure-Python loop only
# (numpy is not imported yet); a pass, whose time is split between
# interpreted loops and numpy kernels, with the loop plus one FFT.
LOOP_ITERS = 20000
FFT_SIZE = 1 << 16
SETUP_PERIOD_S = 0.05
PASS_PERIOD_S = 0.1
NOMINAL_LOOP_S = 1.6e-3  # median loop sample on a 2-core Xeon VM
NOMINAL_PROBE_S = 2.8e-3  # median loop + FFT sample on the same VM
MIN_SAMPLES = 5


def reference_loop() -> float:
    """A fixed piece of pure-Python work."""
    x = 0.0
    for i in range(LOOP_ITERS):
        x += i * 0.5
    return x


class SpeedProbe:
    """Samples the speed of the core this process runs on while it works."""

    def __init__(self, period_s: float, nominal_s: float, fft_input=None):
        self.period_s = period_s
        self.nominal_s = nominal_s
        self.fft_input = fft_input
        self.samples = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop()
        if self.fft_input is not None:
            sys.modules["numpy"].fft.rfft(self.fft_input)
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self, elapsed: float) -> dict:
        """Stop sampling; the interval without the probe's time, and scaled."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        net = elapsed - sum(self.samples)
        n = len(self.samples)
        while len(self.samples) < MIN_SAMPLES:  # short intervals: sample after
            self._sample()
        xs = sorted(self.samples)
        probe_s = xs[len(xs) // 2]
        return {"s": net, "scaled_s": net * self.nominal_s / probe_s,
                "probe_s": probe_s, "probe_n": n}


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    probe = SpeedProbe(SETUP_PERIOD_S, NOMINAL_LOOP_S)
    probe.start()
    t0 = time.perf_counter()
    import boltzsphere
    import boltzsphere.cli
    from boltzsphere import _kernels

    _kernels.default_kernels()
    setup = probe.stop(time.perf_counter() - t0)
    if os.path.dirname(os.path.abspath(boltzsphere.__file__)) != os.path.join(src, "boltzsphere"):
        print(f"boltzsphere imported from {boltzsphere.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    import scipy

    import tracer as tracing
    import workloads

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    # the traced pass runs unprobed, so that no span holds probe time
    probe = SpeedProbe(PASS_PERIOD_S, NOMINAL_PROBE_S,
                       numpy.random.default_rng(0).random(FFT_SIZE))
    if tr is None:
        probe.start()
    cpu0 = _cpu()
    w0 = time.perf_counter()
    try:
        result = workloads.run_pass(args.workload, args.size, args.seed, args.out)
    finally:
        wall_s = time.perf_counter() - w0
        cpu_s = _cpu() - cpu0
        wall = probe.stop(wall_s)
        if tr is not None:
            tr.restore()
    record = {
        "setup": setup,
        "wall": wall,
        "cpu_s": cpu_s - (wall_s - wall["s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": _kernels.HAVE_NUMBA,
            "jitted": bool(_kernels.default_kernels().jitted),
        },
        **result,
    }
    if tr is not None:
        record["layers"] = tr.layer_metrics(workloads.SUBCOMMANDS)
        tr.write_spans(os.path.join(os.path.dirname(args.out), f"spans-{args.workload}.json"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
