"""Command-line front end: experiment orchestration and report emission.

Every subcommand runs a declared experiment with pinned tolerances, writes a
CSV (one comment header naming units and the config hash) plus a JSON report
into the output directory, and exits 0 only when all tolerances are met.
Each experiment is one row of `EXPERIMENTS`: the function that computes its
checks and rows, its default overrides, its rules on d and N and, for a
rate in N, the `Rate` that declares its fit and bounds.  `run_experiment`
drives one row, and `report` drives every row.

Exit codes:
    0  all declared tolerances met
    2  usage error (unknown subcommand, bad flags; argparse default)
    3  malformed configuration
    4  tolerance failure
    5  runtime failure (coverage, capacity, support, parameter and worker errors)
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import __version__
from .conditioned import entropy_rate_experiment, w1_rate_experiment
from .densities import gaussian_density, get_density, registry_names
from .dsmc import CollisionKernel, ConditionedInitial, _advance, _beside, _conservation_drift
from .dsmc import RunResult, equilibrium_crosscheck, replica_series
from .errors import BoltzsphereError, ConfigError, ParameterError
from .geometry import (
    ScalarField,
    SphereSpec,
    VectorField,
    helmert_forward,
    helmert_inverse,
    helmert_matrix,
    ipp_pointwise,
    ipp_residual,
    on_sphere,
    project_to_sphere,
    tangent_gradient,
)
from .lifted import _map_grid_builds, berry_esseen_sup, lifted_grid, z_prime_asymptotic
from .metrics import (
    EmpiricalMeasure,
    interpolation_check,
    relative_entropy_vs_gaussian,
    relative_fisher,
    w1,
    w2,
)
from .reporting import config_hash, fit_loglog, svg_line_plot, write_csv, write_json
from .rng import stream
from .uniform import (
    UniformMarginal,
    l1_chaos_gap,
    marginal_density,
    marginal_moment,
    sample_uniform_batch,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_TOLERANCE = 4
EXIT_RUNTIME = 5

_DEFAULT_SEED = 20240901
_TOLERANCE_PROFILES = ("strict", "default")
_DRIFT_EVENTS = 1_000_000
# a pointwise-cancelling ipp-check integrand may be this many units of
# rounding (eps) of the largest sum of its terms' magnitudes
_IPP_ULPS = 64


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; file keys and flags share names."""

    experiment: str = ""
    density: str = "uniform"
    d: int = 1
    n_list: tuple = ()
    samples: int = 100_000
    replicas: int = 64
    seed: int = _DEFAULT_SEED
    grid_shape: tuple = (2048, 2048)
    be_cells: int = 1 << 18
    t_end: float = 20.0
    n_times: int = 11
    out: str = "out"
    jobs: int = 1
    tolerance_profile: str = "default"

    def stderr_mult(self) -> float:
        return 2.0 if self.tolerance_profile == "strict" else 3.0

    def rel_scale(self) -> float:
        return 2.0 / 3.0 if self.tolerance_profile == "strict" else 1.0

    def as_dict(self) -> dict:
        """Every field but out and jobs, which do not change the results."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("out", "jobs")}
        out["n_list"] = ",".join(str(n) for n in self.n_list)
        out["grid_shape"] = f"{self.grid_shape[0]}x{self.grid_shape[1]}"
        return out

    def hash(self) -> str:
        return config_hash(self.as_dict())


@dataclass
class Outcome:
    """What one experiment computed, in the form the driver prints and writes."""

    checks: list  # (label, passed)
    columns: tuple
    rows: list
    units: str
    extras: dict = field(default_factory=dict)  # JSON keys beside "passed"


@dataclass(frozen=True)
class Rate:
    """A value that decays in N: rows (N, value, ...) whose log-log slope must
    be at most `hi`; a faster decay meets a bound too, so the window is open
    below.  The check prints as "{label} {slope:.3f} <= {hi}"."""

    title: str  # of the plot
    label: str
    hi: float
    name: str = ""  # of the value, in the two checks below
    calibrated: bool = False  # value <= C/sqrt(N), C calibrated at the first N
    # a Gaussian base is a fixed point: its values are checked against this
    # alone, in place of every other check, and not fitted
    gaussian_tol: Optional[float] = None


@dataclass(frozen=True)
class Experiment:
    """One subcommand: how it runs and which configurations it accepts."""

    run: Callable[[ExperimentConfig], Outcome]
    defaults: dict = field(default_factory=dict)
    d1_only: bool = False  # its grid, lattice or marginal is built for d = 1
    rate: Optional[Rate] = None  # fits a rate in N, so it needs two values of N
    n_min: Optional[Callable[[int], tuple]] = None  # d -> (smallest N, why)
    rules: Optional[Callable[[ExperimentConfig], None]] = None  # more ConfigError checks


def _parse_kv_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                out[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return out


def _apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    # the subcommand names the experiment; no file or flag may rename it.
    # A value takes the type of its field's default.
    types = {f.name: type(f.default) for f in fields(cfg) if f.name != "experiment"}
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if key == "n_list":
                if isinstance(val, str):
                    val = tuple(int(x) for x in val.split(",") if x.strip())
                else:
                    val = tuple(int(x) for x in val)
            elif key == "grid_shape":
                if isinstance(val, str):
                    a, _, b = val.partition("x")
                    val = (int(a), int(b))
            else:
                val = types[key](val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}")
        cfg = replace(cfg, **{key: val})
    return cfg


def _load_config(args, experiment: str) -> ExperimentConfig:
    """The experiment's defaults, then the config file, then the flags; every
    rule is checked here, before any output directory is made."""
    row = EXPERIMENTS[experiment]
    cfg = ExperimentConfig(experiment=experiment)
    cfg = _apply_overrides(cfg, row.defaults)
    if args.config:
        cfg = _apply_overrides(cfg, _parse_kv_file(args.config))
    flags = {key: val for key, val in vars(args).items() if key not in ("command", "config")}
    cfg = _apply_overrides(cfg, flags)
    if cfg.tolerance_profile not in _TOLERANCE_PROFILES:
        raise ConfigError(
            f"unknown tolerance_profile {cfg.tolerance_profile!r}; one of {_TOLERANCE_PROFILES}"
        )
    if cfg.density not in registry_names():
        raise ConfigError(f"unknown density {cfg.density!r}; registry: {registry_names()}")
    if "n_list" in row.defaults and not cfg.n_list:
        raise ConfigError(f"{experiment} needs at least one N; n_list is empty")
    if cfg.n_list and any(b <= a for a, b in zip(cfg.n_list, cfg.n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    if cfg.n_list and cfg.n_list[0] < 1:
        raise ConfigError(f"n_list values must be at least 1, got {cfg.n_list[0]}")
    for key in ("d", "samples", "replicas", "be_cells", "n_times", "jobs"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    if row.d1_only and cfg.d != 1:
        raise ConfigError(f"{experiment} runs at d = 1 only, got d = {cfg.d}")
    if row.rate is not None and len(cfg.n_list) < 2:
        raise ConfigError(f"{experiment} needs at least two values of N to plot a rate")
    if row.rules is not None:
        row.rules(cfg)
    if row.n_min is not None:
        n_min, why = row.n_min(cfg.d)
        if cfg.n_list[0] < n_min:
            raise ConfigError(f"{experiment} needs N >= {n_min}{why}, got N = {cfg.n_list[0]}")
    if not (cfg.t_end > 0.0 and math.isfinite(cfg.t_end)):
        raise ConfigError(f"t_end must be positive and finite, got {cfg.t_end}")
    if min(cfg.grid_shape) <= 0:
        raise ConfigError(f"grid_shape sides must be positive, got {cfg.grid_shape}")
    if cfg.grid_shape[0] % 2:
        raise ConfigError(f"grid_shape nz must be even (origin on the lattice), got {cfg.grid_shape}")
    if cfg.be_cells % 2:
        raise ConfigError(f"be_cells must be even (origin on the lattice), got {cfg.be_cells}")
    return cfg


def _check_rate(rate: Rate, cfg: ExperimentConfig, res: Outcome):
    """Append the rate's checks to `res`, the slope check last, and return
    its fit; for a Gaussian fixed point, replace them and return None."""
    if rate.gaussian_tol is not None and get_density(cfg.density).is_gaussian:
        worst = max(r[1] for r in res.rows)
        res.checks = [(f"{rate.name} {worst:.2e} <= {rate.gaussian_tol} (Gaussian fixed point)",
                       worst <= rate.gaussian_tol)]
        return None
    if rate.calibrated:
        n0, v0 = res.rows[0][:2]
        c = v0 * math.sqrt(n0)
        ratio = max(r[1] * math.sqrt(r[0]) for r in res.rows) / c
        res.checks.append((f"{rate.name} under C/sqrt(N), C calibrated at N={n0} "
                           f"(max sqrt(N) {rate.name} / C = {ratio:.4f})", ratio <= 1.0))
        res.extras["bound"] = {"rule": f"{rate.name} <= C/sqrt(N)", "C": c, "calibrated_at_N": n0}
    fit = fit_loglog([r[:2] for r in res.rows]).check(rate.hi)
    res.checks.append((f"{rate.label} {fit.slope:.3f} <= {rate.hi}", fit.passed))
    return fit


def run_experiment(name: str, args) -> int:
    """Load, check and run one experiment, print its checks and write its CSV,
    JSON and (for a rate in N) SVG; the one place every JSON report gains its
    keys and every rate is checked and fitted.  A config or runtime error
    prints one line and returns 3 or 5."""
    try:
        cfg = _load_config(args, name)
        os.makedirs(cfg.out, exist_ok=True)
        rate = EXPERIMENTS[name].rate
        res = EXPERIMENTS[name].run(cfg)
        fit = None if rate is None else _check_rate(rate, cfg, res)
        for label, ok in res.checks:
            print(f"{'PASS' if ok else 'FAIL'}  {label}")
        code = EXIT_OK if all(ok for _, ok in res.checks) else EXIT_TOLERANCE
        path = os.path.join(cfg.out, name)
        header = f"boltzsphere {name} v{__version__} config_hash={cfg.hash()} units={res.units}"
        write_csv(f"{path}.csv", res.columns, res.rows, header)
        report = {"passed": code == EXIT_OK, **res.extras, "config": cfg.as_dict(),
                  "config_hash": cfg.hash()}
        if rate is not None:
            report["fit"] = None if fit is None else fit.to_dict()
            svg_line_plot(f"{path}.svg", [r[0] for r in res.rows], [r[1] for r in res.rows],
                          rate.title, fit=None if fit is None else (fit.slope, fit.intercept))
        write_json(f"{path}.json", report)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BoltzsphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


# ---------------------------------------------------------------- experiments


def _geometry_selftest(cfg: ExperimentConfig) -> Outcome:
    gen = stream(cfg.seed, "geom")
    checks = []
    errs = {"roundtrip": 0.0, "isometry": 0.0}
    for _ in range(64):
        d = int(gen.integers(1, 4))
        N = int(gen.integers(2, 33))
        V = gen.normal(size=d * N)
        U = helmert_forward(V, d=d)
        errs["isometry"] = max(errs["isometry"], abs(U @ U - V @ V) / max(V @ V, 1.0))
        errs["roundtrip"] = max(errs["roundtrip"], float(np.max(np.abs(helmert_inverse(U, d=d) - V))))
    checks.append((f"helmert round-trip {errs['roundtrip']:.2e} <= 1e-12", errs["roundtrip"] <= 1e-12))
    checks.append((f"helmert isometry {errs['isometry']:.2e} <= 1e-12", errs["isometry"] <= 1e-12))
    det_err = max(abs(np.linalg.det(helmert_matrix(n)) - 1.0) for n in range(2, 65))
    checks.append((f"det(M_N)=1 (N<=64) err {det_err:.2e} <= 1e-10", det_err <= 1e-10))
    spec = SphereSpec.boltzmann(2, 8)
    V1 = project_to_sphere(gen.normal(size=16), spec)
    V2 = project_to_sphere(V1, spec)
    idem = float(np.max(np.abs(V1 - V2)))
    checks.append((f"projection idempotent {idem:.2e} <= 1e-12", idem <= 1e-12))
    checks.append(("projection constraints certified", on_sphere(V1, spec)))
    e0 = np.eye(spec.dim_ambient)[0]
    F = ScalarField(value=lambda V: V[:, 0], grad=lambda V: np.broadcast_to(e0, V.shape))
    g = tangent_gradient(F, V1[None, :], spec)[0]
    orth = max(abs(float(g @ V1)), float(np.max(np.abs(g.reshape(spec.N, spec.d).sum(axis=0)))))
    checks.append((f"tangent gradient orthogonality {orth:.2e} <= 1e-10", orth <= 1e-10))
    rows = [(label, int(ok)) for label, ok in checks]
    return Outcome(checks, ("check", "passed"), rows, "dimensionless")


def _uniform_marginal(cfg: ExperimentConfig) -> Outcome:
    from scipy import integrate

    checks = []
    rows = []
    for N in cfg.n_list:
        m = UniformMarginal(SphereSpec.boltzmann(1, N), 1)
        vmax = math.sqrt((N - 1))
        val, _ = integrate.quad(lambda v: marginal_density(m, np.array([v])), -vmax, vmax, limit=400)
        rows.append((N, val, abs(val - 1.0)))
        checks.append((f"integral gamma^{N}_1 = {val:.9f} within 1e-6", abs(val - 1.0) <= 1e-6))
    m4 = UniformMarginal(SphereSpec.boltzmann(1, 4), 1)
    grid = np.linspace(-math.sqrt(3) + 1e-9, math.sqrt(3) - 1e-9, 201)
    dev = float(np.max(np.abs(marginal_density(m4, grid[:, None]) - 1.0 / (2.0 * math.sqrt(3)))))
    checks.append((f"gamma^4_1 constant 1/(2 sqrt 3), dev {dev:.2e} <= 1e-12", dev <= 1e-12))
    return Outcome(checks, ("N", "integral", "abs_error"), rows, "probability mass")


def _l1_gap(cfg: ExperimentConfig) -> Outcome:
    rows = []
    checks = []
    for N in cfg.n_list:
        gap, bound = l1_chaos_gap(cfg.d, N)
        rows.append((N, gap, bound))
        checks.append((f"N={N}: gap {gap:.5f} <= bound {bound:.5f}", gap <= bound))
    return Outcome(checks, ("N", "l1_gap", "bound"), rows, "L1 distance")


def _l1_gap_rules(cfg: ExperimentConfig) -> None:
    if cfg.n_list[-1] > 10**6:
        raise ConfigError(f"l1-gap needs N <= 10^6, where its closed form is within 1e-5 (it loses "
                          f"digits beyond: 1e-2 at N = 10^7), got N = {cfg.n_list[-1]}")


def _zprime(cfg: ExperimentConfig) -> Outcome:
    f = get_density(cfg.density, 1)
    checks = []
    limit = z_prime_asymptotic(f, max(cfg.n_list))
    # the lattices get their own map, after the grids, so that no lattice
    # runs beside a grid: one map taking each N's grid and then its lattice
    # let one worker's lattice run beside the other's grid, and raised the
    # peak RSS of a fresh `zprime --density uniform` from 142.1-142.6 to
    # 142.3-145.2 MB (7 runs each, 2-core VM)
    exact = _map_grid_builds(
        lambda N: math.exp(lifted_grid(f, N, shape=cfg.grid_shape).log_z_prime(math.sqrt(N), 0.0)),
        cfg.n_list,
    )
    sups = _map_grid_builds(lambda N: berry_esseen_sup(f, N, n_cells=cfg.be_cells), cfg.n_list)
    rows = [(N, value, z_prime_asymptotic(f, N), sup) for N, value, sup in zip(cfg.n_list, exact, sups)]
    if f.is_gaussian:
        tol = 0.02 * cfg.rel_scale()
        worst = max(abs(r[1] - 1.0) for r in rows)
        checks.append((f"Z'_N(gaussian) = 1 within {tol:.3f} (worst {worst:.4f})", worst <= tol))
    else:
        tol = 0.03 * cfg.rel_scale()
        last = rows[-1]
        rel = abs(last[1] - limit) / limit
        checks.append(
            (f"Z'_{last[0]}({cfg.density}) = {last[1]:.4f} within {tol:.3f} of limit {limit:.4f}",
             rel <= tol)
        )
    return Outcome(checks, ("N", "zprime_exact", "zprime_asymptotic", "sup_norm_gap"), rows,
                   "dimensionless partition ratio / sup-norm density gap", {"limit": limit})


def _berry_esseen(cfg: ExperimentConfig) -> Outcome:
    g = get_density(cfg.density, 1)
    sups = _map_grid_builds(lambda N: berry_esseen_sup(g, N, n_cells=cfg.be_cells), cfg.n_list)
    return Outcome([], ("N", "sup_gap"), list(zip(cfg.n_list, sups)), "sup-norm density gap")


def _w1_rate(cfg: ExperimentConfig) -> Outcome:
    f = get_density(cfg.density, 1)
    rows = w1_rate_experiment(f, cfg.n_list, grid_shape=cfg.grid_shape)
    checks = [
        ("W1 values all positive", all(v > 0 for _, v in rows)),
        ("W1 decreasing in N", all(a[1] > b[1] for a, b in zip(rows, rows[1:]))),
    ]
    return Outcome(checks, ("N", "w1"), rows, "transport distance")


def _entropy_rate(cfg: ExperimentConfig) -> Outcome:
    f = get_density(cfg.density, 1)
    limit = f.relative_entropy_vs_gamma()
    rows = [
        (N, abs(h - limit), h)
        for N, h in entropy_rate_experiment(f, cfg.n_list, grid_shape=cfg.grid_shape)
    ]
    final_gap = rows[-1][1]
    checks = [(f"|H/N - limit| at N={rows[-1][0]} is {final_gap:.4f} <= 0.02", final_gap <= 0.02)]
    return Outcome(checks, ("N", "entropy_gap_per_particle", "entropy_per_particle"), rows,
                   "nats per particle", {"limit": limit})


def _dsmc_split(cfg: ExperimentConfig) -> int:
    """How many replicas the calling process runs, beside a worker that runs
    the drift walk and the rest: the split evens out their collision events,
    the walk's _DRIFT_EVENTS against a replica's t_end N / 2 plus 3 for each
    of its start's 50 N chain proposals."""
    (N,) = cfg.n_list
    replica = 3 * 50 * N + cfg.t_end * N / 2
    return min(cfg.replicas, round((cfg.replicas * replica + _DRIFT_EVENTS) / (2 * replica)))


def _dsmc(cfg: ExperimentConfig) -> Outcome:
    (N,) = cfg.n_list
    kernel = CollisionKernel.uniform(cfg.d)
    # equilibration from a conditioned far-from-Gaussian start
    init = ConditionedInitial(density=cfg.density, d=cfg.d, N=N)
    times = np.linspace(0.0, cfg.t_end, cfg.n_times)
    k = _dsmc_split(cfg)

    def worker():
        # raw conservation drift over many collisions, no re-projection, and
        # the last replicas, each on its own stream, so the split moves no draw
        drift = _conservation_drift(cfg.seed, N, kernel, _DRIFT_EVENTS)
        return drift, replica_series(init, kernel, times, range(k, cfg.replicas), seed=cfg.seed)

    with _beside(worker) as rest:
        own = replica_series(init, kernel, times, range(k), seed=cfg.seed)

        # long-run coordinate law against the uniform-law marginal
        gen2 = stream(cfg.seed, "dsmc-eq")
        v2 = np.array(init(gen2), dtype=float)
        _advance(v2, 0.0, cfg.t_end * kernel.mean_free_time(N) * 2, kernel, gen2)
        pool = [v2[:, 0].copy()]
        needed = max(12_000, cfg.samples // 10)
        spacing = 8.0 * kernel.mean_free_time(N)
        while sum(p.size for p in pool) < needed:
            _advance(v2, 0.0, spacing, kernel, gen2)
            pool.append(v2[:, 0].copy())
        stat, pval, ok = equilibrium_crosscheck(N, cfg.d, np.concatenate(pool))
        (drift_p, drift_e), theirs = rest()
    res = RunResult.over_replicas(times, own, theirs)

    m4, e4 = res.observables["m4"]
    target_m4 = marginal_moment(UniformMarginal(SphereSpec.boltzmann(cfg.d, N), 1), 4)
    zgap = abs(m4[-1] - target_m4) / max(e4[-1], 1e-12)
    checks = [
        (f"momentum drift {drift_p:.2e} <= 1e-9 over ~{_DRIFT_EVENTS} collisions", drift_p <= 1e-9),
        (f"energy drift {drift_e:.2e} <= 1e-9", drift_e <= 1e-9),
        (f"E|v1|^4 -> {target_m4:.3f} by t={cfg.t_end} mft: {m4[-1]:.3f} +- {e4[-1]:.3f} "
         f"({zgap:.2f} stderr)", zgap <= cfg.stderr_mult()),
        (f"KS equilibrium crosscheck stat={stat:.4f} p={pval:.3f} (alpha=0.01)", ok),
    ]
    return Outcome(checks, ("t_mft", "observable", "mean", "stderr", "n_replicas"), res.rows(),
                   "mean free times / moments", {"drift": {"momentum": drift_p, "energy": drift_e},
                                                 "ks": {"stat": stat, "pvalue": pval}})


def _dsmc_rules(cfg: ExperimentConfig) -> None:
    if len(cfg.n_list) != 1:
        raise ConfigError(f"dsmc runs one N; n_list has {len(cfg.n_list)} values")
    if cfg.replicas < 2:
        raise ConfigError(f"dsmc needs at least two replicas for error bars, got {cfg.replicas}")
    if cfg.d < 2:
        raise ConfigError(f"dsmc collides pairs in d >= 2, got d = {cfg.d}")


def _ipp_fields(d: int, N: int):
    """The field pairs of `ipp-check` as (F, Phi, cancels_pointwise).

    A pair whose integrand vanishes at every point of the sphere is checked
    pointwise against the size of its terms, not by a Monte Carlo z-test.
    """
    n = d * N

    def e_vec(idx):
        out = np.zeros(n)
        out[idx] = 1.0
        return out

    def constant(vec):
        return lambda V: np.broadcast_to(vec, V.shape)

    def jac_constant(mat):
        return lambda V: np.broadcast_to(mat, (V.shape[0], n, n))

    f1 = ScalarField(value=lambda V: V[:, 0], grad=constant(e_vec(0)))
    phi1 = VectorField(value=constant(e_vec(min(d, n - 1))), jacobian=jac_constant(np.zeros((n, n))))
    scale = 2.0 * d * N

    def f2_value(V):
        return np.exp(-np.vecdot(V, V) / scale)

    f2 = ScalarField(value=f2_value, grad=lambda V: -2.0 * V / scale * f2_value(V)[:, None])
    phi2 = VectorField(value=lambda V: V.copy(), jacobian=jac_constant(np.eye(n)))
    f3 = ScalarField(
        value=lambda V: V[:, 0] * V[:, 0], grad=lambda V: 2.0 * V[:, :1] * e_vec(0)
    )

    def phi3_value(V):
        out = np.zeros(V.shape)
        out[:, 1] = np.sin(V[:, 1])
        return out

    def phi3_jac(V):
        out = np.zeros((V.shape[0], n, n))
        out[:, 1, 1] = np.cos(V[:, 1])
        return out

    phi3 = VectorField(value=phi3_value, jacobian=phi3_jac)
    # (f2, phi2), field_pair 1: grad_S f2 is orthogonal to V and
    # Div_S V = dN - d - 1, so the three terms cancel exactly at every V
    return [(f1, phi1, False), (f2, phi2, True), (f3, phi3, False)]


def _ipp_check(cfg: ExperimentConfig) -> Outcome:
    if cfg.samples < 2:  # the z-tests need a standard error
        raise ParameterError(f"not enough samples: ipp-check needs at least 2, got {cfg.samples}")
    rows = []
    checks = []
    for d, N in ((2, 4), (3, 3), (2, 10)):
        spec = SphereSpec.boltzmann(d, N)
        batch = sample_uniform_batch(spec, cfg.samples, stream(cfg.seed, "ipp", d, N))
        for k, (F, Phi, cancels_pointwise) in enumerate(_ipp_fields(d, N)):
            if cancels_pointwise:
                mean, se, worst, size = ipp_pointwise(F, Phi, batch, spec)
                ok = worst <= _IPP_ULPS * np.finfo(float).eps * size
                label = (f"(d={d}, N={N}) pair {k}: pointwise residual max {worst:.2e} "
                         f"<= {_IPP_ULPS} eps x term size {size:.2e}")
            else:
                mean, se = ipp_residual(F, Phi, batch, spec)
                # the pinned rule; its 1e-12 floor is far below these stderrs
                ok = abs(mean) <= cfg.stderr_mult() * se + 1e-12
                label = f"(d={d}, N={N}) pair {k}: residual {mean:+.2e} +- {se:.2e}"
            rows.append((d, N, k, mean, se))
            checks.append((label, ok))
    return Outcome(checks, ("d", "N", "field_pair", "mc_mean", "stderr"), rows,
                   "integration-by-parts residual")


def _pairs_passing(pairs) -> int:
    """How many (a, b) pairs meet the W1-W2 interpolation inequality at k = 4."""
    return sum(interpolation_check(a, b, 4).passed for a, b in pairs)


def _metrics_selftest(cfg: ExperimentConfig) -> Outcome:
    # every random problem is drawn first, in the order the checks use them,
    # so how the pairs are split moves no draw
    gen = stream(cfg.seed, "metrics")
    triples = []
    for _ in range(25):
        dim = int(gen.integers(1, 4))
        triples.append((EmpiricalMeasure(gen.normal(size=(40, dim))),
                        EmpiricalMeasure(gen.normal(0.3, 1.2, size=(40, dim))),
                        EmpiricalMeasure(gen.normal(-0.4, 0.8, size=(40, dim)))))
    pairs = []
    for _ in range(100):
        dim = int(gen.integers(1, 3))
        a = EmpiricalMeasure(gen.normal(gen.normal(), abs(gen.normal()) + 0.2, size=(120, dim)))
        b = EmpiricalMeasure(gen.normal(gen.normal(), abs(gen.normal()) + 0.2, size=(120, dim)))
        pairs.append((a, b))

    # a forked worker checks pairs[k:]; k evens out the two processes' work,
    # counted in cost-matrix entries: n m for each d >= 2 W1 or W2 solve, and
    # on this side also the triples' ten solves each and 4 per sample for the
    # entropy estimate (about its time per sample in 120-point solve entries)
    cost = np.cumsum([2 * a.n * b.n * (a.dim > 1) for a, b in pairs])
    own = sum(10 * a.n * b.n for a, b, _ in triples if a.dim > 1) + 4 * cfg.samples
    k = int(np.searchsorted(cost, (cost[-1] - own) / 2, side="right"))
    checks = []
    with _beside(_pairs_passing, pairs[k:]) as rest:
        # metric axioms on random triples
        worst_tri = -np.inf
        worst_sym = 0.0
        idty_ok = True
        for a, b, c in triples:
            for dist in (w1, w2):
                d_ab = dist(a, b)
                worst_sym = max(worst_sym, abs(d_ab - dist(b, a)))
                worst_tri = max(worst_tri, dist(a, c) - d_ab - dist(b, c))
            idty_ok = idty_ok and w1(a, a) == 0.0 and w2(a, a) == 0.0
        checks.append((f"symmetry violation {worst_sym:.2e} <= 1e-9", worst_sym <= 1e-9))
        checks.append((f"triangle violation {worst_tri:.2e} <= 1e-9", worst_tri <= 1e-9))
        checks.append(("identity of indiscernibles", idty_ok))

        g4 = gaussian_density(1, 4.0)
        s = EmpiricalMeasure(g4.sample(stream(cfg.seed, "metrics", "ent"), cfg.samples))
        est = relative_entropy_vs_gaussian(s)
        z = abs(est.value - 0.8068528194400547) / est.stderr
        checks.append((f"relative entropy N(0,4): {est.value:.5f} ({z:.2f} stderr from 0.80685)",
                       z <= cfg.stderr_mult()))
        fish = relative_fisher(g4, s)
        zf = abs(fish.value - 2.25) / fish.stderr
        checks.append((f"relative Fisher N(0,4): {fish.value:.5f} ({zf:.2f} stderr from 2.25)",
                       zf <= cfg.stderr_mult()))
        n_pairs_ok = _pairs_passing(pairs[:k]) + rest()
    checks.append((f"interpolation inequality on 100 random pairs ({n_pairs_ok} passed)",
                   n_pairs_ok == 100))
    rows = [(label, int(ok)) for label, ok in checks]
    return Outcome(checks, ("check", "passed"), rows, "dimensionless")


# The subcommands, in the order `report` runs them.  The grid pipeline, the
# Berry-Esseen lattice and the uniform marginal are built for d = 1.  A
# Gaussian base is a fixed point of `berry-esseen` (its N-fold power is
# Gaussian) and of `entropy-rate` (conditioned, it is the uniform law).
_CONDITIONED_N = (4, " (the d = 1 conditioned law)")
EXPERIMENTS = {
    "geometry-selftest": Experiment(_geometry_selftest),
    "uniform-marginal": Experiment(_uniform_marginal, {"n_list": (4, 10, 50)}, d1_only=True,
                                   n_min=lambda d: (3, " (at N = 2 the sphere is two points)")),
    "l1-gap": Experiment(_l1_gap, {"n_list": (10, 20, 50, 100)}, rules=_l1_gap_rules,
                         rate=Rate("L1 gap to the Gaussian tensor power", "decay slope", -0.8),
                         n_min=lambda d: (3 + math.ceil(3 / d),
                                          f" at d = {d} (the chaos regime d <= d(N - 2) - 3)")),
    "zprime": Experiment(_zprime, {"density": "gaussian", "n_list": (8, 16, 32, 64, 128)},
                         d1_only=True, n_min=lambda d: (2, " (Z'_1 is a point mass)")),
    "berry-esseen": Experiment(_berry_esseen, {"n_list": (2, 4, 8, 16, 32, 64, 128, 256)},
                               d1_only=True, rate=Rate("Local CLT sup-norm gap", "fitted slope", -0.45,
                                                       "sup gap", calibrated=True, gaussian_tol=1e-6)),
    "w1-rate": Experiment(_w1_rate, {"n_list": (8, 16, 32, 64, 128, 256, 512)}, d1_only=True,
                          rate=Rate("W1 distance of the one-particle marginal to f", "slope", -0.35,
                                    "W1", calibrated=True),
                          n_min=lambda d: _CONDITIONED_N),
    "entropy-rate": Experiment(_entropy_rate, {"n_list": (16, 32, 64, 128, 256)}, d1_only=True,
                               rate=Rate("Entropy-per-particle gap to H(f|gamma)", "entropy gap slope",
                                         -0.35, "entropy gap", gaussian_tol=1e-12),
                               n_min=lambda d: _CONDITIONED_N),
    "dsmc": Experiment(_dsmc, {"density": "mixture", "d": 3, "n_list": (256,)}, rules=_dsmc_rules,
                       n_min=lambda d: (3, " (the d >= 2 conditioned chain of its start)")),
    "ipp-check": Experiment(_ipp_check),
    "metrics-selftest": Experiment(_metrics_selftest),
}


def _report(args) -> int:
    """Run every experiment with its defaults and bundle one report.

    An experiment that fails, or raises, is recorded with its exit code and
    the rest still run; the report exits with the largest code.  The config
    file may set only what report takes as a flag, checked before any
    experiment runs, and the bundle goes where the experiments wrote theirs.
    """
    try:
        values = _parse_kv_file(args.config) if args.config else {}
        allowed = set(vars(args)) - {"command", "config"}
        if refused := sorted(set(values) - allowed):
            raise ConfigError(f"report runs every experiment at its defaults; its config may set only "
                              f"{', '.join(sorted(allowed))}, got {', '.join(refused)}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    codes = {}
    for name in EXPERIMENTS:
        print(f"== {name}")
        codes[name] = run_experiment(name, args)
    worst = max(codes.values())
    base_out = args.out or values.get("out") or ExperimentConfig.out
    os.makedirs(base_out, exist_ok=True)
    summary = {name: {"exit_code": code, "passed": code == EXIT_OK} for name, code in codes.items()}
    write_json(os.path.join(base_out, "report.json"),
               {"experiments": summary, "passed": worst == EXIT_OK})
    rows = [(name, codes[name], int(codes[name] == EXIT_OK)) for name in sorted(codes)]
    write_csv(os.path.join(base_out, "report.csv"), ("experiment", "exit_code", "passed"), rows,
              f"boltzsphere report v{__version__} units=exit codes")
    print(f"{'PASS' if worst == EXIT_OK else 'FAIL'}  report bundle")
    return worst


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="boltzsphere",
        description="Experiments on chaotic measures over the collision sphere",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in list(EXPERIMENTS) + ["report"]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key = value configuration file")
        sp.add_argument("--seed", type=int, help="master seed (never wall-clock)")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--jobs", type=int, help="accepted (at least 1); selects nothing")
        sp.add_argument("--tolerance-profile", choices=_TOLERANCE_PROFILES,
                        dest="tolerance_profile")
        if name == "report":  # runs every experiment at its defaults
            continue
        sp.add_argument("--density", choices=registry_names())
        sp.add_argument("--n-list", dest="n_list", help="comma-separated N values")
        sp.add_argument("--d", type=int, help="spatial dimension")
        sp.add_argument("--samples", type=int)
        sp.add_argument("--replicas", type=int)
        sp.add_argument("--grid-shape", dest="grid_shape", help="e.g. 2048x2048")
        sp.add_argument("--t-end", dest="t_end", type=float, help="mean free times")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one per process: its ten subparsers take about 3 ms to build, and a
    # process may call `main` once per subcommand
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "report":
        return _report(args)
    return run_experiment(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
