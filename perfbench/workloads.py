"""What one pass of each workload runs, and how its outputs are checked.

A pass drives the program only through its public entry points:
``boltzsphere.cli.main([...])`` with its output in a scratch directory, and
``boltzsphere.conditioned.sample_conditioned_batch``.  Both are looked up at
call time, so a tracer installed around the pass sees the calls.

An operation is one PASS/FAIL line printed by a subcommand, or one oracle
check on an API call.  A subcommand that raises, or exits with code 3 or 5,
is one failed operation of kind "error".  Each operation has a kind:

    check        a deterministic tolerance or identity
    statistical  a significance test (KS p > alpha, |z| <= k stderr); on a
                 correct program it fails on about alpha of the seeds
    declared-red criterion 6's W1 slope window, which ROADMAP keeps red
    error        the subcommand raised or exited with code 3 or 5
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np
from scipy import special, stats

import boltzsphere.cli
import boltzsphere.conditioned
from boltzsphere.densities import get_density
from boltzsphere.geometry import SphereSpec

# Check labels (by prefix) whose pass rule is a significance test.
STATISTICAL = {
    "dsmc": ("E|v1|^4 ->", "KS equilibrium crosscheck"),
    "ipp-check": ("(d=",),
    "metrics-selftest": ("relative entropy", "relative Fisher"),
}
DECLARED_RED = {"w1-rate": ("slope ",)}

# Per size: the subcommands of each workload (before the shared flags) and
# the sampler calls of montecarlo as (label, density, d, N, n_states, ks).
SIZES = {
    "full": {
        "spectral": [
            ["w1-rate"], ["entropy-rate"], ["zprime", "--density", "uniform"], ["berry-esseen"],
        ],
        "collision": [["dsmc", "--replicas", "8"]],
        "montecarlo": [["ipp-check", "--samples", "4000"], ["metrics-selftest"]],
        "chains": [
            ("triple-uniform-d1", "uniform", 1, 64, 2000, False),
            ("pair-mixture-d3", "mixture", 3, 64, 2000, False),
            ("triple-gaussian-d1", "gaussian", 1, 16, 2000, True),
            ("pair-gaussian-d2", "gaussian", 2, 16, 2000, True),
        ],
    },
    "tiny": {
        "spectral": [
            ["w1-rate", "--n-list", "8,16", "--grid-shape", "512x512"],
            ["entropy-rate", "--n-list", "16,32", "--grid-shape", "512x512"],
            ["zprime", "--density", "uniform", "--n-list", "8,16", "--grid-shape", "512x512"],
            ["berry-esseen", "--n-list", "2,4,8"],
        ],
        "collision": [["dsmc", "--replicas", "2", "--n-list", "16"]],
        "montecarlo": [["ipp-check", "--samples", "200"], ["metrics-selftest", "--samples", "4000"]],
        "chains": [
            ("triple-uniform-d1", "uniform", 1, 16, 100, False),
            ("pair-mixture-d3", "mixture", 3, 16, 100, False),
            ("triple-gaussian-d1", "gaussian", 1, 16, 200, True),
            ("pair-gaussian-d2", "gaussian", 2, 16, 200, True),
        ],
    },
}

WORKLOADS = ("spectral", "collision", "montecarlo")
SUBCOMMANDS = tuple(argv[0] for w in WORKLOADS for argv in SIZES["full"][w])


def plan(workload: str, size: str, seed: int, out: str) -> dict:
    """The exact CLI argv lists and API arguments of one pass."""
    table = SIZES[size]
    shared = ["--seed", str(seed), "--out", out, "--jobs", "1"]
    argv = [list(sub) + shared for sub in table[workload]]
    api = []
    if workload == "montecarlo":
        api = [
            {"call": "sample_conditioned_batch", "label": label, "density": density,
             "d": d, "N": N, "n_states": n, "rng_seed": seed + k, "ks": ks}
            for k, (label, density, d, N, n, ks) in enumerate(table["chains"])
        ]
    # the sampler calls come first in montecarlo, then its subcommands
    return {"api": api, "argv": argv}


def _kind(sub: str, label: str) -> str:
    if any(label.startswith(p) for p in DECLARED_RED.get(sub, ())):
        return "declared-red"
    if any(label.startswith(p) for p in STATISTICAL.get(sub, ())):
        return "statistical"
    return "check"


def run_cli(argv: list, ops: list, digests: dict, out: str) -> None:
    """One subcommand in-process; its PASS/FAIL lines become operations."""
    sub = argv[0]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = boltzsphere.cli.main(argv)
    except Exception:  # the pass must go on and report the failure
        traceback.print_exc(file=sys.stderr)
        code = None
    for line in buf.getvalue().splitlines():
        for word in ("PASS", "FAIL"):
            if line.startswith(word + "  "):
                label = line[len(word) + 2:]
                ops.append([f"{sub}: {label}", word == "PASS", _kind(sub, label)])
    if code is None or code in (3, 5):
        ops.append([f"{sub}: exit {code}", False, "error"])
    csv = os.path.join(out, f"{sub}.csv")
    if os.path.exists(csv):
        with open(csv, "rb") as fh:
            digests[f"{sub}.csv"] = hashlib.sha256(fh.read()).hexdigest()


def _coordinate_cdf(x: np.ndarray, d: int, N: int) -> np.ndarray:
    """Closed-form CDF of one velocity coordinate under the uniform law on
    the collision sphere: v = sqrt(M) T, T ~ (1 - t^2)^((M-3)/2), M = d(N-1)."""
    M = d * (N - 1)
    t2 = np.clip(x * x / M, 0.0, 1.0)
    return 0.5 * (1.0 + np.sign(x) * special.betainc(0.5, 0.5 * (M - 1), t2))


def run_chain(call: dict, ops: list) -> None:
    """One sampler call plus its oracle checks."""
    label, d, N = call["label"], call["d"], call["N"]
    spec = SphereSpec.boltzmann(d, N)
    law = boltzsphere.conditioned.ConditionedLaw(f=get_density(call["density"], d), spec=spec)
    try:
        states = boltzsphere.conditioned.sample_conditioned_batch(
            law, call["rng_seed"], call["n_states"]
        )
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ops.append([f"{label}: sampler raised", False, "error"])
        return
    tol = spec.constraint_tolerance()
    momentum = np.max(np.linalg.norm(states.sum(axis=1), axis=1))
    energy = np.max(np.abs(np.sum(states * states, axis=(1, 2)) - d * N))
    ops.append([f"{label}: {states.shape[0]} states on the sphere "
                f"(momentum {momentum:.1e}, energy {energy:.1e} <= {tol:.1e})",
                bool(states.shape == (call["n_states"], N, d) and momentum <= tol
                     and energy <= tol), "check"])
    if call["density"] == "uniform":
        vmax = float(np.max(np.abs(states)))
        ops.append([f"{label}: box states inside |v| <= sqrt 3 (max {vmax:.6f})",
                    vmax <= math.sqrt(3.0), "check"])
    if call["ks"]:
        p = float(stats.kstest(states[:, 0, 0], lambda x: _coordinate_cdf(x, d, N)).pvalue)
        ops.append([f"{label}: KS against the uniform-law coordinate marginal p={p:.3f} > 0.01",
                    p > 0.01, "statistical"])


def run_pass(workload: str, size: str, seed: int, out: str) -> dict:
    """Run one pass; returns its plan, operations, CSV digests and health values."""
    steps = plan(workload, size, seed, out)
    ops, digests = [], {}
    health = {"dsmc.drift_momentum": 0.0, "dsmc.drift_energy": 0.0}
    for call in steps["api"]:
        run_chain(call, ops)
    for argv in steps["argv"]:
        run_cli(argv, ops, digests, out)
    report = os.path.join(out, "dsmc.json")
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            drift = json.load(fh).get("drift", {})
        health = {"dsmc.drift_momentum": drift.get("momentum", 0.0),
                  "dsmc.drift_energy": drift.get("energy", 0.0)}
    return {"plan": steps, "ops": ops, "digests": digests, "health": health}
