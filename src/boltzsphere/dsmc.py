"""Event-driven simulation of the N-particle binary-collision jump process.

Collision rates are velocity independent (Maxwellian molecules), so the
process is simulated exactly: exponential waiting times with total rate
(N-1) beta / 2 (the master-equation normalization with the 1/N rescaling),
a uniform colliding pair, a scattering direction sigma drawn from the
angular law, and the post-collisional update

    v_i* = (v_i + v_j)/2 + |v_i - v_j|/2 sigma,
    v_j* = (v_i + v_j)/2 - |v_i - v_j|/2 sigma,

which conserves the pair's momentum and energy identically.  Reported times
are in mean free times (each particle collides once per unit time on
average); one mean free time is N / ((N-1) beta) master-equation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from . import rng as rngmod
from ._kernels import default_kernels, draw_pair_indices, draw_unit_vectors
from .errors import CapacityError, ParameterError
from .geometry import SphereSpec
from .metrics import EmpiricalMeasure, relative_entropy_vs_gaussian
from .uniform import coordinate_marginal

__all__ = [
    "CollisionKernel",
    "run",
    "RunResult",
    "equilibrium_crosscheck",
]

_EVENT_CHUNK = 1 << 15
_COS_LO = -1.0 + 1e-9  # the low end of truncated_singular's cosine table


def _sphere_area(d: int) -> float:
    from .geometry import log_sphere_surface

    return math.exp(log_sphere_surface(d))


@dataclass(frozen=True)
class CollisionKernel:
    """Angular collision law with velocity-independent rate.

    `beta` is the total angular mass (the per-pair collision rate before the
    1/N rescaling).  A `costheta_sampler` of None means sigma is uniform on
    the sphere; otherwise sigma is rebuilt from a sampled deflection cosine
    around the relative-velocity direction.
    """

    d: int
    beta: float
    costheta_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    label: str = "uniform"

    def __post_init__(self):
        if self.d < 2:
            raise ParameterError("pairwise conservation in d = 1 only permits swaps")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ParameterError("beta must be positive and finite")

    @classmethod
    def uniform(cls, d: int) -> "CollisionKernel":
        return cls(d=d, beta=_sphere_area(d), label="uniform")

    @classmethod
    def truncated_singular(
        cls, d: int, nu: float, cos_max: float, beta: float, table_size: int = 4096
    ) -> "CollisionKernel":
        """b(c) proportional to (1-c)^{-nu} for c <= cos_max, zero beyond.

        The caller supplies the normalization beta; the deflection cosine is
        drawn by numeric inverse CDF of b(c) (1-c^2)^{(d-3)/2}.
        """
        if not _COS_LO < cos_max < 1.0:  # NaN fails too
            raise ParameterError(
                f"cos_max must lie in (-1 + 1e-9, 1), got {cos_max}: the singular"
                " endpoint c = 1 must be truncated, and the cosine table starts at -1 + 1e-9"
            )
        c = np.linspace(_COS_LO, cos_max, table_size)
        w = (1.0 - c) ** (-nu)
        if d != 3:
            w = w * np.maximum(1.0 - c * c, 0.0) ** (0.5 * (d - 3))
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(c))))
        cdf /= cdf[-1]

        def sampler(gen: np.random.Generator, n: int) -> np.ndarray:
            return np.interp(gen.random(n), cdf, c)

        return cls(d=d, beta=beta, costheta_sampler=sampler, label=f"truncated(nu={nu})")

    def rate(self, N: int) -> float:
        """Total event rate (N-1) beta / 2 in master-equation time."""
        return 0.5 * (N - 1) * self.beta

    def mean_free_time(self, N: int) -> float:
        """Master-equation time for one collision per particle on average."""
        return N / ((N - 1) * self.beta)


def _draw_events(gen: np.random.Generator, kernel: CollisionKernel, n: int, N: int) -> tuple:
    """dsmc_advance's draws for n events: exponential waits, pairs, unit
    vectors and, for a non-uniform angular law, deflection cosines, each
    array drawn in full and in this order."""
    dts = -np.log(gen.random(n))
    ii, jj = draw_pair_indices(gen, n, N)
    sigmas = draw_unit_vectors(gen, n, kernel.d)
    cosines = None if kernel.costheta_sampler is None else kernel.costheta_sampler(gen, n)
    return dts, ii, jj, sigmas, cosines


def _advance(v, t, t_target, kernel: CollisionKernel, gen):
    """Apply collision events until master time t_target; returns the new
    clock.

    Each chunk draws 1.25 times the events the rest of the interval expects,
    plus 64, capped at _EVENT_CHUNK, so the stream depends on t_target.  A
    chunk that runs out before t_target is followed by another, which is
    exact: the waits are memoryless, and the clock goes on from the last
    applied event."""
    N = v.shape[0]
    rate = kernel.rate(N)
    while t < t_target:
        # min before int: an infinite target never reaches int()
        n = int(min(_EVENT_CHUNK, 1.25 * (t_target - t) * rate + 64))
        events = _draw_events(gen, kernel, n, N)
        t, _, _ = default_kernels().dsmc_advance(v, t, t_target, rate, *events)
    return t


@dataclass
class RunResult:
    """Observable time series over replicas."""

    times: np.ndarray  # mean free times
    observables: Dict[str, tuple]  # name -> (mean, stderr), arrays over times
    n_replicas: int
    meta: dict = field(default_factory=dict)

    def rows(self):
        out = []
        for name, (mean, err) in sorted(self.observables.items()):
            for t, m, e in zip(self.times, mean, err):
                out.append((float(t), name, float(m), float(e), self.n_replicas))
        return out


def _particle_moment(v: np.ndarray, k: int) -> float:
    return float(np.mean(np.sum(v * v, axis=1) ** (0.5 * k)))


def _resolve_observables(observables):
    scalar_obs = {}
    pooled_entropy = False
    for ob in observables:
        if callable(ob):
            scalar_obs[getattr(ob, "__name__", f"obs{len(scalar_obs)}")] = ob
        elif ob == "m2":
            scalar_obs["m2"] = lambda v: _particle_moment(v, 2)
        elif ob == "m4":
            scalar_obs["m4"] = lambda v: _particle_moment(v, 4)
        elif ob == "rel_entropy_v1":
            pooled_entropy = True
        else:
            raise ParameterError(f"unknown observable {ob!r}")
    return scalar_obs, pooled_entropy


def _replica_series(args):
    """One replica's observable series; module level so pools can pickle it."""
    initial_sampler, kernel, times, seed, rep, scalar_names, keep_snapshots = args
    gen = rngmod.stream(seed, "dsmc", rep)
    v = np.array(initial_sampler(gen), dtype=float)
    if v.ndim != 2 or v.shape[1] != kernel.d:
        raise ParameterError("initial sampler must return an (N, d) array")
    mft = kernel.mean_free_time(v.shape[0])
    scalar_obs, _ = _resolve_observables(scalar_names)
    series = {name: np.empty(len(times)) for name in scalar_obs}
    snaps = [] if keep_snapshots else None
    t_master = 0.0
    for it, t_mft in enumerate(times):
        t_master = _advance(v, t_master, t_mft * mft, kernel, gen)
        for name, fn in scalar_obs.items():
            series[name][it] = fn(v)
        if keep_snapshots:
            snaps.append(v.copy())
    return series, snaps


def run(
    initial_sampler: Callable[[np.random.Generator], np.ndarray],
    kernel: CollisionKernel,
    t_end: float,
    n_replicas: int,
    observables=("m2", "m4"),
    seed: int = 0,
    n_times: int = 11,
    entropy_subsample: int = 20000,
    jobs: int = 1,
) -> RunResult:
    """Evolve independent replicas and record observables on a time grid.

    `initial_sampler` maps a replica's generator to an (N, d) velocity array.
    Times are in mean free times.  Scalar observables (callables or the
    built-ins "m2"/"m4") are averaged across replicas with a standard error;
    "rel_entropy_v1" pools all particles of all replicas at each time and
    reports the k-NN relative entropy against the Gaussian, exploiting
    exchangeability of the particle index.

    Replicas own independent streams keyed by (seed, replica), so results are
    identical for any `jobs` (the pool needs a picklable initial sampler).
    """
    if n_replicas < 2:
        raise ParameterError("need at least two replicas for error bars")
    scalar_obs, pooled_entropy = _resolve_observables(observables)
    scalar_names = [ob for ob in observables if ob != "rel_entropy_v1"]
    times = np.linspace(0.0, t_end, n_times)
    tasks = [
        (initial_sampler, kernel, times, seed, rep, scalar_names, pooled_entropy)
        for rep in range(n_replicas)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            replica_out = list(pool.map(_replica_series, tasks))
    else:
        replica_out = [_replica_series(t) for t in tasks]

    result = {}
    for name in scalar_obs:
        vals = np.stack([replica_out[rep][0][name] for rep in range(n_replicas)], axis=1)
        mean = vals.mean(axis=1)
        err = vals.std(axis=1, ddof=1) / math.sqrt(n_replicas)
        result[name] = (mean, err)
    if pooled_entropy:
        mean = np.empty(n_times)
        err = np.empty(n_times)
        sub_gen = rngmod.stream(seed, "dsmc-entropy")
        for it in range(n_times):
            pooled = np.concatenate([replica_out[rep][1][it] for rep in range(n_replicas)])
            if pooled.shape[0] > entropy_subsample:
                idx = sub_gen.choice(pooled.shape[0], size=entropy_subsample, replace=False)
                pooled = pooled[idx]
            est = relative_entropy_vs_gaussian(EmpiricalMeasure(pooled))
            mean[it], err[it] = est.value, est.stderr
        result["rel_entropy_v1"] = (mean, err)
    return RunResult(
        times=times,
        observables=result,
        n_replicas=n_replicas,
        meta={"seed": seed, "kernel": kernel.label, "beta": kernel.beta},
    )


@dataclass(frozen=True)
class ConditionedInitial:
    """Picklable initial sampler: a conditioned-law chain state per replica."""

    density: str
    d: int
    N: int
    burn_in: Optional[int] = None

    def __call__(self, gen: np.random.Generator) -> np.ndarray:
        from .conditioned import ConditionedLaw, sample_conditioned_batch
        from .densities import get_density
        from .geometry import SphereSpec

        law = ConditionedLaw(
            f=get_density(self.density, self.d), spec=SphereSpec.boltzmann(self.d, self.N)
        )
        return sample_conditioned_batch(law, gen, 1, burn_in=self.burn_in)[0]


@dataclass(frozen=True)
class UniformInitial:
    """Picklable initial sampler from the uniform sphere law."""

    d: int
    N: int

    def __call__(self, gen: np.random.Generator) -> np.ndarray:
        from .geometry import SphereSpec
        from .uniform import sample_uniform

        return sample_uniform(SphereSpec.boltzmann(self.d, self.N), gen)


def equilibrium_crosscheck(N: int, d: int, samples: np.ndarray, alpha: float = 0.01) -> tuple:
    """KS test of pooled velocity coordinates against the uniform-law
    coordinate marginal; returns (statistic, p_value, passed)."""
    from scipy import stats

    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size < 10_000:
        raise CapacityError(f"need at least 1e4 samples, got {samples.size}")
    law = coordinate_marginal(SphereSpec.boltzmann(d, N))
    res = stats.kstest(samples, lambda x: law.cdf(x))
    return float(res.statistic), float(res.pvalue), bool(res.pvalue > alpha)
