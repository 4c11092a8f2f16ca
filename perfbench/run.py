#!/usr/bin/env python3
"""The boltzsphere benchmark: three workloads, timed end to end and traced
per module from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectral|collision|montecarlo|all
        [--seed 20240901] [--seconds 30] [--trace 0|1] [--size full|tiny]

Workloads (each pass runs in a fresh process, so the grid cache, the lazy
kernel namespace and the peak-memory counter belong to that pass alone):

    spectral    CLI w1-rate, entropy-rate, zprime --density uniform and
                berry-esseen at their default N lists and 2048^2 grid: the
                exact d = 1 pipeline (grid kernels, grid cache, marginals).
    collision   CLI dsmc at its default physics with 8 replicas: the event
                kernel plus many short conditioned chains that only burn in.
    montecarlo  four long thinned sample_conditioned_batch chains (one per
                density code and move type), then CLI ipp-check with 4000
                samples and metrics-selftest: long chains, geometry, metrics.

All work runs with --jobs 1.  --seed is the master seed handed to the CLI
and to the sampler calls; its default is the CLI's own default.

A run first times set-up (import boltzsphere and boltzsphere.cli, build
default_kernels()) in three fresh processes, then runs as many passes as
fit in --seconds at the workload's nominal pass time (at least one; the
count depends on the arguments only, so runs with the same seed attempt the
same operations).  Each pass adds one more set-up sample.  Reported: the
median over the run's samples.

setup_s and wall_s are scaled to a nominal core speed: while each interval
runs, a timer samples how long a fixed reference computation takes, and the
interval is multiplied by nominal / median sample (see child.SpeedProbe).
The cores of a shared host drift in speed by up to 2x, which a bare wall
time would report as a change of the program.  The times as measured are
printed as raw_setup_s and raw_wall_s and kept in the run record.

With --trace 1 the run alternates an untraced and a traced pass and reports
the per-layer metrics of the traced pass, the process CPU figures of the
untraced one and the tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts every failed
operation (see workloads.py); `correct` is false when an operation other
than a significance test or the declared-red criterion 6 slope check fails,
or a subcommand raises.  CSV digests that differ from perfbench/baseline.json
at the baseline seed are reported, not counted as failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spectral", "collision", "montecarlo")
SETUP_PROBES = 3
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# Typical scaled time of one full-size pass; sets the pass count of a run.
NOMINAL_PASS_S = {"spectral": 12.0, "collision": 25.0, "montecarlo": 14.0}
WORK_DIR = ".perfbench"


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _child(args: list, timeout: float) -> dict:
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(ROOT, WORK_DIR, "tmp")
    env["PYTHONHASHSEED"] = "0"  # same set and dict order in every pass
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT, *args],
        stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0), env=env, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _pass(workload, seed, size, trace, deadline) -> dict:
    out = os.path.join(ROOT, WORK_DIR, f"out-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        return _child(["--workload", workload, "--seed", str(seed), "--size", size,
                       "--trace", str(trace), "--out", out], deadline - time.monotonic())
    finally:
        shutil.rmtree(out, ignore_errors=True)


def pass_count(workload, seconds, size) -> int:
    """Passes in one run: as many nominal passes as fit in --seconds, at
    least one.  The count depends on the arguments alone, so two runs with
    the same arguments attempt the same operations."""
    if size != "full":
        return 1
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def run_workload(workload, seed, seconds, trace, size) -> dict:
    """All passes of one run; returns the aggregated record."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    os.makedirs(os.path.join(ROOT, WORK_DIR, "tmp"), exist_ok=True)
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(_child(["--setup-only"], deadline - time.monotonic())["setup"])
    passes, traced = [], []
    for _ in range(pass_count(workload, seconds, size)):
        rec = _pass(workload, seed, size, 0, deadline)
        passes.append(rec)
        if trace:
            traced.append(_pass(workload, seed, size, 1, deadline))
        setup.append(rec["setup"])
    everything = passes + traced
    ops = [op for rec in everything for op in rec["ops"]]
    bad = [op for op in ops if not op[1]]
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "setup_s": [t["scaled_s"] for t in setup],
        "wall_s": [r["wall"]["scaled_s"] for r in passes],
        "raw_setup_s": [t["s"] for t in setup],
        "raw_wall_s": [r["wall"]["s"] for r in passes],
        "probe_s": [r["wall"]["probe_s"] for r in passes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
        "cpu_s": [r["cpu_s"] for r in passes],
        "attempted": len(ops),
        "failed": len(bad),
        "failed_ops": sorted({f"{op[2]}: {op[0]}" for op in bad}),
        "correct": not any(op[2] in ("check", "error") for op in bad),
        "digests": passes[0]["digests"],
        "health": passes[0]["health"],
        "plan": passes[0]["plan"],
        "versions": passes[0]["versions"],
        "run_s": time.monotonic() - start,
    }
    if trace:
        result["layers"] = _layer_metrics(passes, traced)
    return result


def _layer_metrics(passes, traced) -> dict:
    """Median over traced passes of each per-layer metric, plus the process
    figures of the untraced passes and the tracing overhead."""
    names = traced[0]["layers"].keys()
    out = {k: _median([t["layers"][k] for t in traced]) for k in names}
    for k, v in traced[0]["health"].items():
        out[k] = v
    wall = _median([p["wall"]["s"] for p in passes])
    wall_t = _median([t["wall"]["s"] for t in traced])
    cpu = _median([p["cpu_s"] for p in passes])
    out["process.cpu_s"] = cpu
    out["process.cpu_util"] = cpu / wall
    out["process.probe_ms"] = 1000.0 * _median([p["wall"]["probe_s"] for p in passes])
    out["trace.untraced_wall_s"] = wall
    out["trace.traced_wall_s"] = wall_t
    out["trace.overhead_s"] = wall_t - wall
    out["trace.overhead_frac"] = (wall_t - wall) / wall
    return out


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _baseline_digests(seed, size) -> dict:
    try:
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
            base = json.load(fh)
    except FileNotFoundError:
        return {}
    if seed != base["meta"]["seed"] or size != "full":
        return {}
    return base.get("digests", {})


def _metric_specs(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def _metrics(res, trace) -> dict:
    out = {}
    for spec in _metric_specs(trace):
        name = spec["name"]
        if trace:
            value = res["layers"][name]
        else:
            value = _median(res[name])
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def _report(res, trace) -> None:
    """Human-readable lines and the run record, all before the result line."""
    w = res["workload"]
    n = len(res["wall_s"])
    for key, unit in (("setup_s", "s"), ("wall_s", "s"), ("raw_setup_s", "s"),
                      ("raw_wall_s", "s"), ("peak_rss_mb", "MB")):
        xs = res[key]
        print(f"{w} {key} median {_median(xs):.4f} {unit}, max {max(xs):.4f} {unit}, "
              f"n={len(xs)} (no tail percentile: it needs more than ten samples)")
    print(f"{w} fail_frac {res['failed'] / res['attempted']:.6f} 1 "
          f"({res['failed']} of {res['attempted']} operations in {n} passes)")
    for op in res["failed_ops"]:
        print(f"{w} failed {op}")
    base = _baseline_digests(res["seed"], res["size"])
    for name, digest in sorted(res["digests"].items()):
        if name in base and base[name] != digest:
            print(f"{w} digest differs from the baseline: {name} {digest}")
    if trace:
        lay = res["layers"]
        print(f"{w} tracing overhead {lay['trace.overhead_s']:.4f} s "
              f"({100 * lay['trace.overhead_frac']:.2f}% of {lay['trace.untraced_wall_s']:.4f} s)")
    meta = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **res["versions"],
    }
    record = {k: v for k, v in res.items() if k != "versions"}
    record["meta"] = meta
    print("record " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=20240901)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "boltzsphere", "__init__.py")):
        print(f"no boltzsphere sources under {ROOT}/src; nothing to benchmark", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.size)
            _report(res, args.trace)
            results.append(res)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, WORK_DIR, "tmp"), ignore_errors=True)
    metrics = {}
    for res in results:
        for name, m in _metrics(res, args.trace).items():
            metrics[name if len(results) == 1 else f"{res['workload']}.{name}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
