"""Event-driven simulation of the N-particle binary-collision jump process.

Collision rates are velocity independent (Maxwellian molecules), so the
process is simulated exactly: exponential waiting times with total rate
(N-1) beta / 2 (the master-equation normalization with the 1/N rescaling),
a uniform colliding pair, a scattering direction sigma drawn uniformly on
the unit sphere, and the post-collisional update

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
from ._kernels import _BLOCK, default_kernels, draw_pair_indices, draw_unit_vectors
from .conditioned import ConditionedLaw, sample_conditioned_batch
from .densities import get_density
from .errors import CapacityError, ParameterError
from .geometry import SphereSpec, log_sphere_surface
from .uniform import coordinate_marginal, sample_uniform

__all__ = [
    "CollisionKernel",
    "replica_series",
    "run",
    "RunResult",
    "equilibrium_crosscheck",
]


def _sphere_area(d: int) -> float:
    return math.exp(log_sphere_surface(d))


@dataclass(frozen=True)
class CollisionKernel:
    """The uniform angular collision law with velocity-independent rate
    (Maxwellian molecules): sigma is uniform on the unit sphere.

    `beta` is the total angular mass (the per-pair collision rate before the
    1/N rescaling).
    """

    d: int
    beta: float

    def __post_init__(self):
        if self.d < 2:
            raise ParameterError("pairwise conservation in d = 1 only permits swaps")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ParameterError("beta must be positive and finite")

    @classmethod
    def uniform(cls, d: int) -> "CollisionKernel":
        return cls(d=d, beta=_sphere_area(d))

    def rate(self, N: int) -> float:
        """Total event rate (N-1) beta / 2 in master-equation time."""
        return 0.5 * (N - 1) * self.beta

    def mean_free_time(self, N: int) -> float:
        """Master-equation time for one collision per particle on average."""
        return N / ((N - 1) * self.beta)


def _draw_events(gen: np.random.Generator, kernel: CollisionKernel, n: int, N: int) -> tuple:
    """dsmc_advance's draws for n events: exponential waits, pairs and unit
    vectors, each array drawn in full and in this order."""
    dts = -np.log(gen.random(n))
    ii, jj = draw_pair_indices(gen, n, N)
    sigmas = draw_unit_vectors(gen, n, kernel.d)
    return dts, ii, jj, sigmas


def _advance(v, t, t_target, kernel: CollisionKernel, gen):
    """Apply collision events until master time t_target; returns the new
    clock.

    Each chunk draws 1.25 times the events the rest of the interval expects,
    plus 64, capped at one kernel block (`_BLOCK`), so the stream depends on
    t_target.  A chunk that runs out before t_target is followed by another,
    which is exact: the waits are memoryless, and the clock goes on from the
    last applied event."""
    N = v.shape[0]
    rate = kernel.rate(N)
    while t < t_target:
        # min before int: an infinite target never reaches int()
        n = int(min(_BLOCK, 1.25 * (t_target - t) * rate + 64))
        events = _draw_events(gen, kernel, n, N)
        t, _, _ = default_kernels().dsmc_advance(v, t, t_target, rate, *events)
    return t


def _conservation_drift(seed: int, N: int, kernel: CollisionKernel, n_events: int) -> tuple:
    """Raw drift of total momentum and energy over about n_events collisions
    from a uniform-law start on the "dsmc-drift" stream, with no
    re-projection: (max |P - P0| / sqrt(E0), |E - E0| / E0)."""
    gen = rngmod.stream(seed, "dsmc-drift")
    v = sample_uniform(SphereSpec.boltzmann(kernel.d, N), gen)
    p0 = v.sum(axis=0).copy()
    e0 = float(np.sum(v * v))
    _advance(v, 0.0, n_events / kernel.rate(N), kernel, gen)
    drift_p = float(np.max(np.abs(v.sum(axis=0) - p0))) / math.sqrt(e0)
    drift_e = abs(float(np.sum(v * v)) - e0) / e0
    return drift_p, drift_e


@dataclass
class RunResult:
    """Observable time series over replicas."""

    times: np.ndarray  # mean free times
    observables: Dict[str, tuple]  # name -> (mean, stderr), arrays over times
    n_replicas: int
    meta: dict = field(default_factory=dict)

    @classmethod
    def over_replicas(cls, times, *parts, meta=None) -> "RunResult":
        """Mean and standard error across replicas of `replica_series`
        results, whose replicas are stacked in the order of `parts`."""
        observables = {}
        for name in parts[0]:
            vals = np.concatenate([part[name] for part in parts], axis=1)
            n_replicas = vals.shape[1]
            observables[name] = (vals.mean(axis=1), vals.std(axis=1, ddof=1) / math.sqrt(n_replicas))
        return cls(times, observables, n_replicas, meta or {})

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
    for ob in observables:
        if callable(ob):
            scalar_obs[getattr(ob, "__name__", f"obs{len(scalar_obs)}")] = ob
        elif ob == "m2":
            scalar_obs["m2"] = lambda v: _particle_moment(v, 2)
        elif ob == "m4":
            scalar_obs["m4"] = lambda v: _particle_moment(v, 4)
        else:
            raise ParameterError(f"unknown observable {ob!r}")
    if not scalar_obs:
        raise ParameterError("need at least one observable")
    return scalar_obs


def replica_series(initial_sampler, kernel: CollisionKernel, times, reps,
                   observables=("m2", "m4"), seed: int = 0) -> Dict[str, np.ndarray]:
    """The observables of replicas `reps` at `times` (mean free times), as
    name -> (len(times), len(reps)) arrays.

    Replica rep starts from `initial_sampler` and runs on its own
    (seed, "dsmc", rep) stream, so its column is the same whichever
    replicas share the call.
    """
    scalar_obs = _resolve_observables(observables)
    series = {name: np.empty((len(times), len(reps))) for name in scalar_obs}
    for col, rep in enumerate(reps):
        gen = rngmod.stream(seed, "dsmc", rep)
        v = np.array(initial_sampler(gen), dtype=float)
        if v.ndim != 2 or v.shape[1] != kernel.d:
            raise ParameterError("initial sampler must return an (N, d) array")
        mft = kernel.mean_free_time(v.shape[0])
        t_master = 0.0
        for it, t_mft in enumerate(times):
            t_master = _advance(v, t_master, t_mft * mft, kernel, gen)
            for name, fn in scalar_obs.items():
                series[name][it, col] = fn(v)
    return series


def run(
    initial_sampler: Callable[[np.random.Generator], np.ndarray],
    kernel: CollisionKernel,
    t_end: float,
    n_replicas: int,
    observables=("m2", "m4"),
    seed: int = 0,
    n_times: int = 11,
) -> RunResult:
    """Evolve independent replicas and record observables on a time grid.

    `initial_sampler` maps a replica's generator to an (N, d) velocity array.
    Times are in mean free times.  Scalar observables (callables or the
    built-ins "m2"/"m4") are averaged across replicas with a standard error.
    """
    if n_replicas < 2:
        raise ParameterError("need at least two replicas for error bars")
    times = np.linspace(0.0, t_end, n_times)
    series = replica_series(initial_sampler, kernel, times, range(n_replicas), observables, seed)
    return RunResult.over_replicas(times, series, meta={"seed": seed, "beta": kernel.beta})


@dataclass(frozen=True)
class ConditionedInitial:
    """Initial sampler: one conditioned-law chain state per replica."""

    density: str
    d: int
    N: int
    burn_in: Optional[int] = None

    def __call__(self, gen: np.random.Generator) -> np.ndarray:
        law = ConditionedLaw(
            f=get_density(self.density, self.d), spec=SphereSpec.boltzmann(self.d, self.N)
        )
        return sample_conditioned_batch(law, gen, 1, burn_in=self.burn_in)[0]


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
