"""The tensor power of a base density conditioned to the collision sphere.

The law is f^{xN} restricted to the centered sphere and renormalized.  Its
ell-particle marginal has the exact ratio form

    F_ell(V_ell) = (f/gamma)^{x ell}(V_ell)
                   * Z'_{N-ell}(f; sqrt(dN - |V_ell|^2), -Vbar_ell) / Z'_N(f)
                   * g_ell(V_ell),

with g_ell the uniform-law marginal, so d = 1 marginals are computable to
grid accuracy through the convolution pipeline, with no Monte Carlo noise.
Sampling uses a Metropolis chain whose proposal is the physical collision
move (pairs for d >= 2, conserved-circle rotations of particle triples for
d = 1): the uniform law is invariant under the symmetric proposal and the
Gaussian tensor power is constant on the sphere, so the chain targets the
conditioned law.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import rng as rngmod
from ._kernels import (
    _BLOCK,
    default_kernels,
    draw_pair_indices,
    draw_triple_indices,
    draw_unit_vectors,
)
from .densities import BaseDensity
from .errors import ParameterError, SupportError
from .geometry import SphereSpec
from .lifted import (
    DEFAULT_SHAPE,
    LiftedGrid,
    _map_grid_builds,
    lifted_grid,
    log_z_prime_asymptotic,
)
from .reporting import RateReport, fit_loglog
from .uniform import UniformMarginal, marginal_log_density, sample_uniform

__all__ = [
    "ConditionedLaw",
    "sample_conditioned_batch",
    "conditioned_marginal_density",
    "w1_rate_experiment",
    "entropy_per_particle",
    "entropy_rate_experiment",
]


@dataclass
class ConditionedLaw:
    """f^{xN} conditioned to the centered sphere, f a registry density with E = d."""

    f: BaseDensity
    spec: SphereSpec
    grid_shape: tuple = DEFAULT_SHAPE

    def __post_init__(self):
        if not self.spec.is_boltzmann:
            raise ParameterError("the conditioned law lives on the collision sphere")
        if self.f.d != self.spec.d:
            raise ParameterError("density dimension does not match the sphere")
        if abs(self.f.E - self.spec.d) > 1e-9:
            raise ParameterError("base density must have second moment E = d")
        d, N = self.spec.d, self.spec.N
        if d == 1 and N < 4:
            raise ParameterError("d = 1 chains need N >= 4 (triple moves)")
        if d >= 2 and N < 3:
            raise ParameterError("d >= 2 chains need N >= 3")

    def log_zprime(self, n: int, r: float, z_mom: float = 0.0) -> float:
        """log Z'_n(f; r, z) for the d = 1 pipeline (exactly 0 for Gaussian f)."""
        grid = _exact_grid(self, n)
        if grid is not None:
            return grid.log_z_prime(r, z_mom)
        if r * r - z_mom * z_mom / n <= 0.0:
            raise SupportError("empty sphere")
        return 0.0


def _lattice_like(spec: SphereSpec, gen: np.random.Generator) -> np.ndarray:
    # regular ladder per coordinate, shuffled across particles; exact momentum
    # zero and energy dN, strictly inside the uniform box support
    N, d = spec.N, spec.d
    base = np.arange(N, dtype=float) - 0.5 * (N - 1)
    base *= math.sqrt(N / float(base @ base))
    v = np.empty((N, d))
    for a in range(d):
        v[:, a] = gen.permutation(base)
    return v


class _Chain:
    """Persistent Metropolis chain state; emits states in batches."""

    def __init__(self, law: ConditionedLaw, rng_seed, burn_in, thin):
        spec = law.spec
        self.N, self.d = spec.N, spec.d
        self.burn_in = 50 * spec.N if burn_in is None else int(burn_in)
        self.thin = spec.N if thin is None else int(thin)
        if self.thin < 1 or self.burn_in < 0:
            raise ParameterError("need thin >= 1 and burn_in >= 0")
        if isinstance(rng_seed, (int, np.integer)):
            self.gen = rngmod.stream(rng_seed, "conditioned")
        elif isinstance(rng_seed, np.random.Generator):
            self.gen = rng_seed
        else:
            raise ParameterError(
                f"rng_seed must be an integer seed or a numpy Generator, got {type(rng_seed).__name__}"
            )
        self.law = law
        self.v = sample_uniform(spec, self.gen)
        if law.f.support_radius is not None:
            # deterministic start inside a compact support; the Metropolis
            # penalty rule would otherwise have to walk into it first
            self.v = _lattice_like(spec, self.gen)
        self.step = 0
        self.accepted = 0
        self._draws = None  # the proposals of the last chunk not yet run

    def _draw_chunk(self) -> tuple:
        """One kernel block of proposals: the draws of each kind in turn."""
        n_prop = _BLOCK
        log_us = np.log(self.gen.random(n_prop))
        if self.d == 1:
            ii, jj, kk = draw_triple_indices(self.gen, n_prop, self.N)
            angles = self.gen.random(n_prop) * (2.0 * math.pi)
            return ii, jj, kk, angles, log_us
        ii, jj = draw_pair_indices(self.gen, n_prop, self.N)
        return ii, jj, draw_unit_vectors(self.gen, n_prop, self.d), log_us

    def states(self, n_states: int) -> np.ndarray:
        """The next n_states thinned states.  The kernel stops at the last
        one, and the next call resumes from the proposals it left."""
        if n_states < 0:
            raise ParameterError(f"need n_states >= 0 (got {n_states})")
        out = np.empty((n_states, self.N, self.d))
        kernels = default_kernels()
        kernel = kernels.triple_chain if self.d == 1 else kernels.pair_chain
        done = 0
        while done < n_states:
            if self._draws is None or len(self._draws[-1]) == 0:
                self._draws = self._draw_chunk()
            done, acc, used = kernel(
                self.v, self.law.f, self.law.f.params, *self._draws,
                self.step, self.burn_in, self.thin, out, done,
            )
            self._draws = tuple(a[used:] for a in self._draws)
            self.step += used
            self.accepted += acc
        return out


def sample_conditioned_batch(
    law: ConditionedLaw,
    rng_seed,
    n_states: int,
    burn_in: Optional[int] = None,
    thin: Optional[int] = None,
) -> np.ndarray:
    """n_states post-burn-in chain states as an (n_states, N, d) array.

    Defaults: burn_in = 50 N proposals, thin = N proposals between states.
    """
    return _Chain(law, rng_seed, burn_in, thin).states(n_states)


def _point_terms(law: ConditionedLaw, ell: int, flat: np.ndarray) -> tuple:
    """(|V|^2, prefix sum, inside-support mask, log f^{x ell}) of (n, ell d) rows."""
    d, N = law.spec.d, law.spec.N
    parts = flat.reshape(-1, ell, d)
    sq = np.sum(flat * flat, axis=1)
    bar = parts.sum(axis=1)
    inside = d * N - sq - np.sum(bar * bar, axis=1) / (N - ell) > 0.0
    logf = np.zeros(flat.shape[0])
    for q in range(ell):
        logf += law.f.log_density(parts[:, q, :])
    return sq, bar, inside, logf


def _exact_grid(law: ConditionedLaw, n: int) -> Optional[LiftedGrid]:
    """A new grid for n, which the exact ratio form reads and the caller
    drops; None for the Gaussian base, whose (f/gamma)^{x n} is identically
    1 on every sphere, so Z' = 1.  Only the curves in `_CURVES` are kept."""
    if law.f.is_gaussian:
        return None
    if law.spec.d != 1:
        raise ParameterError("exact partition values need the d = 1 pipeline")
    return lifted_grid(law.f, n, shape=law.grid_shape)


def _log_marginal_times_zn(
    law: ConditionedLaw, ell: int, flat: np.ndarray, grid: Optional[LiftedGrid]
) -> np.ndarray:
    """log(F_ell Z'_N): the exact marginal's log before the division by Z'_N,
    -inf outside the support.  Rows are validated (n, ell d) points; `grid`
    is `_exact_grid(law, N - ell)`."""
    spec = law.spec
    d, N = spec.d, spec.N
    sq, bar, inside, logf = _point_terms(law, ell, flat)
    log_gauss = -0.5 * sq - 0.5 * ell * d * math.log(2.0 * math.pi)
    log_unif = marginal_log_density(UniformMarginal(spec, ell), flat)
    vals = np.full(flat.shape[0], -np.inf)
    vals[inside] = logf[inside] - log_gauss[inside]
    if grid is not None:
        vals[inside] += grid.log_z_prime(np.sqrt(d * N - sq[inside]), -bar[inside, 0])
    vals[inside] += log_unif[inside]
    return vals


def conditioned_marginal_density(law: ConditionedLaw, ell: int, V_ell) -> np.ndarray:
    """Density of the ell-particle marginal at V_ell (vectorized over rows),
    from the partition-value ratio through the d = 1 grid pipeline."""
    spec = law.spec
    d, N = spec.d, spec.N
    if ell >= N - 1:
        raise ParameterError("need ell <= N-2 for an absolutely continuous marginal")
    pts = np.asarray(V_ell, dtype=float)
    flat = pts.reshape(-1, ell * d) if pts.ndim > 1 else pts.reshape(1, -1)
    if flat.shape[1] != ell * d:
        raise ParameterError(f"points must have {ell * d} coordinates")
    single = pts.ndim == 1

    grid = _exact_grid(law, N - ell)
    out = np.exp(_log_marginal_times_zn(law, ell, flat, grid) - law.log_zprime(N, spec.r, 0.0))
    return float(out[0]) if single else out


def _compute_curve(law: ConditionedLaw, n_points: int) -> tuple:
    """(points, normalized exact one-particle marginal, log Z'_N) for d = 1.

    The marginal integrates to one, so Z'_N is the quadrature mass of
    F_1 Z'_N, and the curve needs the grid for N - 1 only, which is dropped
    on return.  A mass far from the leading-order Z'_N (or, for the Gaussian
    base, from 1) means the grid is misconfigured.
    """
    spec = law.spec
    N = spec.N
    vmax = min(law.f.tail_radius(), math.sqrt(spec.d * N * (N - 1) / N))
    pts = np.linspace(-vmax, vmax, n_points)
    grid = _exact_grid(law, N - 1)
    dens = np.exp(_log_marginal_times_zn(law, 1, pts[:, None], grid))
    mass = float(np.trapezoid(dens, pts))
    log_zn = math.log(mass) if mass > 0.0 else -math.inf
    if law.f.is_gaussian:
        if not 0.9 < mass < 1.1:
            raise SupportError(f"marginal mass {mass:.4f} far from 1; grid misconfigured")
    else:
        ref = log_z_prime_asymptotic(law.f, N)
        if not abs(log_zn - ref) < math.log(1.1):
            raise SupportError(
                f"log Z'_{N} = {log_zn:.4f} by quadrature, {ref:.4f} to leading order; "
                "grid misconfigured"
            )
    dens /= mass
    pts.flags.writeable = False
    dens.flags.writeable = False
    return pts, dens, log_zn


# Exact one-particle curves by (f.key, N, grid shape, n_points), so that
# w1-rate and entropy-rate share their grid builds.  A curve is about 64 KB
# at 4001 points; 32 of them cost 2 MB, less than a tenth of one grid.
_CURVES: OrderedDict = OrderedDict()
_CURVES_SIZE = 32


def _marginal_curves(laws, n_points: int = 4001) -> list:
    """`_compute_curve` of each law, each computed once per process.

    Missing curves are computed two at a time by `_map_grid_builds`, one grid
    per worker.  They are stored here, in the calling thread, after the map
    returns.  The arrays are read-only, since every caller shares them.
    """
    laws = list(laws)
    keys = [(law.f.key, law.spec.N, tuple(law.grid_shape), n_points) for law in laws]
    found = {key: _CURVES[key] for key in keys if key in _CURVES}
    missing = {key: law for key, law in zip(keys, laws) if key not in found}
    computed = _map_grid_builds(partial(_compute_curve, n_points=n_points), missing.values())
    found.update(zip(missing, computed))
    for key in keys:
        _CURVES[key] = found[key]
        _CURVES.move_to_end(key)
    while len(_CURVES) > _CURVES_SIZE:
        _CURVES.popitem(last=False)
    return [found[key] for key in keys]


def _marginal_curve(law: ConditionedLaw, n_points: int = 4001) -> tuple:
    """(points, normalized exact one-particle marginal, log Z'_N) for d = 1,
    memoised; see `_compute_curve`."""
    return _marginal_curves([law], n_points)[0]


def w1_rate_experiment(
    f: BaseDensity, Ns, n_points: int = 4001, grid_shape: tuple = DEFAULT_SHAPE
) -> RateReport:
    """W1 distance between the one-particle marginal and f across N, with a
    log-log slope fit (one-dimensional Kantorovich identity, no Monte Carlo).
    """
    if f.d != 1:
        raise ParameterError("exact densities need d = 1")
    Ns = list(Ns)
    if len(Ns) < 2:
        raise ParameterError("need at least two values of N to fit a slope")
    laws = [ConditionedLaw(f=f, spec=SphereSpec.boltzmann(1, N), grid_shape=grid_shape) for N in Ns]
    rows = []
    for N, (grid, dens, _) in zip(Ns, _marginal_curves(laws, n_points)):
        # cumulative trapezoid, in scipy.integrate.cumulative_trapezoid's own order
        cdf_marginal = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (dens[1:] + dens[:-1]) / 2.0)))
        cdf_f = f.cdf(grid)
        val = float(np.trapezoid(np.abs(cdf_marginal - cdf_f), grid))
        rows.append((N, val, 0.0))
    return fit_loglog(rows)


def entropy_per_particle(law: ConditionedLaw, n_points: int = 4001) -> float:
    """Relative entropy per particle of the conditioned law against the
    uniform law: quadrature of log(f/gamma) under the exact one-particle
    marginal minus log Z'_N / N.

    Returns +inf when f vanishes where the marginal is positive.
    """
    spec = law.spec
    if spec.d != 1:
        raise ParameterError("the exact pipeline is d = 1")
    if law.f.is_gaussian:
        return 0.0
    grid, dens, log_zn = _marginal_curve(law, n_points)
    logf = law.f.log_density(grid[:, None])
    bad = (dens > 1e-12) & ~np.isfinite(logf)
    if np.any(bad):
        return math.inf
    log_gauss = -0.5 * grid * grid - 0.5 * math.log(2.0 * math.pi)
    integrand = np.where(dens > 0.0, dens * (logf - log_gauss), 0.0)
    term1 = float(np.trapezoid(integrand, grid))
    return term1 - log_zn / spec.N


def entropy_rate_experiment(
    f: BaseDensity, Ns, n_points: int = 4001, grid_shape: tuple = DEFAULT_SHAPE
) -> list:
    """[(N, entropy_per_particle)] across N, with the curves of all N
    computed together (two at a time) before the quadratures."""
    laws = [ConditionedLaw(f=f, spec=SphereSpec.boltzmann(1, N), grid_shape=grid_shape) for N in Ns]
    _marginal_curves([law for law in laws if not law.f.is_gaussian], n_points)
    return [(law.spec.N, entropy_per_particle(law, n_points)) for law in laws]
