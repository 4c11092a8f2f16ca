"""Base densities on R^d used to build laws on the collision sphere.

Every registry entry is normalized to mean zero and second moment
``E = integral |v|^2 f = d`` (isotropic per-coordinate scale ``eps = 1``),
which matches the sphere normalization ``sum |v_i|^2 = dN``.  Each entry
carries an evaluable log-density, the score (gradient of the log-density),
a direct sampler and closed-form radial moments up to order six.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, ndtr

from .errors import ParameterError

__all__ = [
    "BaseDensity",
    "get_density",
    "registry_names",
    "gaussian_density",
    "uniform_box_density",
    "gaussian_mixture_density",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BaseDensity:
    """An evaluable probability density on R^d.

    Point arrays have shape (n, d); scalar-valued callables return shape (n,).
    ``moment(k)`` is the radial moment E|v|^k, analytic for even k <= 6.
    ``cdf`` is only defined for d = 1 (used by the grid rasterizer).
    """

    name: str
    d: int
    log_density: Callable[[np.ndarray], np.ndarray]
    score: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    moment: Callable[[int], float]
    E: float
    sigma2: float
    params: tuple = ()
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_radius: Optional[float] = None
    _h_rel_gaussian: Optional[float] = field(default=None, repr=False)

    @property
    def eps(self) -> float:
        """Per-coordinate second-moment scale (E / d)."""
        return self.E / self.d

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def key(self) -> tuple:
        return (self.name, self.d, self.params)

    def points(self, v) -> np.ndarray:
        """Coerce input to an (n, d) float array."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(-1, 1) if self.d == 1 else v.reshape(1, -1)
        if v.shape[-1] != self.d:
            raise ParameterError(f"points have dimension {v.shape[-1]}, density has d={self.d}")
        return v

    def pdf(self, v) -> np.ndarray:
        return np.exp(self.log_density(self.points(v)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sampler(rng, n)

    def tail_radius(self, log_tiny: float = -41.0) -> float:
        """Radius beyond which the density is numerically negligible."""
        if self.support_radius is not None:
            return self.support_radius
        r = np.linspace(0.0, 80.0, 4001)
        pts = np.zeros((r.size, self.d))
        pts[:, 0] = r
        lo = self.log_density(pts)
        above = np.nonzero(lo > log_tiny)[0]
        return float(r[above[-1]] + 0.05) if above.size else 1.0

    def relative_entropy_vs_gamma(self) -> float:
        """H(f | gamma), analytic where known, 1D quadrature otherwise."""
        if self._h_rel_gaussian is not None:
            return self._h_rel_gaussian
        if self.d != 1:
            raise ParameterError("quadrature entropy limit only implemented for d=1")
        from scipy import integrate

        r = self.tail_radius()

        def integrand(v):
            p = float(self.pdf(v)[0])
            if p <= 0.0:
                return 0.0
            return p * (math.log(p) + _HALF_LOG_2PI + 0.5 * v * v)

        val, _ = integrate.quad(integrand, -r, r, limit=200)
        return val


def _gaussian_radial_moment(d: int, sigma2: float, k: int) -> float:
    # E|v|^k for v ~ N(0, sigma2 I_d): 2^{k/2} Gamma((d+k)/2)/Gamma(d/2) sigma^k
    return math.exp(
        0.5 * k * math.log(2.0 * sigma2) + gammaln((d + k) / 2.0) - gammaln(d / 2.0)
    )


def gaussian_density(d: int = 1, sigma2: float = 1.0) -> BaseDensity:
    """Centered isotropic Gaussian N(0, sigma2 I_d); sigma2=1 is the registry entry."""
    if d < 1 or sigma2 <= 0:
        raise ParameterError("need d >= 1 and sigma2 > 0")
    lognorm = -0.5 * d * math.log(2.0 * math.pi * sigma2)

    def log_density(v):
        return lognorm - 0.5 * np.sum(v * v, axis=-1) / sigma2

    def score(v):
        return -v / sigma2

    def sampler(rng, n):
        return rng.normal(0.0, math.sqrt(sigma2), size=(n, d))

    def moment(k):
        return _gaussian_radial_moment(d, sigma2, k)

    cdf = None
    if d == 1:
        s = math.sqrt(sigma2)
        cdf = lambda v: ndtr(np.asarray(v, dtype=float) / s)

    # H(N(0,s2)|gamma) = (d/2)(s2 - 1 - log s2)
    h_rel = 0.5 * d * (sigma2 - 1.0 - math.log(sigma2))
    return BaseDensity(
        name="gaussian",
        d=d,
        log_density=log_density,
        score=score,
        sampler=sampler,
        moment=moment,
        E=d * sigma2,
        sigma2=2.0 * d * sigma2 * sigma2,
        params=(sigma2,),
        cdf=cdf,
        support_radius=None,
        _h_rel_gaussian=h_rel,
    )


def uniform_box_density(d: int = 1) -> BaseDensity:
    """Uniform on the centered box (-sqrt(3), sqrt(3))^d, unit per-coordinate variance."""
    if d < 1:
        raise ParameterError("need d >= 1")
    a = math.sqrt(3.0)
    logval = -d * math.log(2.0 * a)
    m = {2: 1.0, 4: 9.0 / 5.0, 6: 27.0 / 7.0}  # per-coordinate even moments

    def log_density(v):
        inside = np.all(np.abs(v) <= a, axis=-1)
        return np.where(inside, logval, -np.inf)

    def score(v):
        out = np.zeros_like(v)
        on_edge = np.any(np.abs(v) >= a, axis=-1)
        out[on_edge] = np.nan
        return out

    def sampler(rng, n):
        return rng.uniform(-a, a, size=(n, d))

    def moment(k):
        if k == 0:
            return 1.0
        if k == 2:
            return float(d)
        if k == 4:
            return d * m[4] + d * (d - 1)
        if k == 6:
            return d * m[6] + 3 * d * (d - 1) * m[4] + d * (d - 1) * (d - 2)
        raise ParameterError(f"analytic radial moment only for even k <= 6, got {k}")

    cdf = None
    if d == 1:
        cdf = lambda v: np.clip((np.asarray(v, dtype=float) + a) / (2.0 * a), 0.0, 1.0)

    # H(f|gamma) = -log(2 sqrt 3) + (1/2) log(2 pi) + 1/2, per coordinate
    h_rel = d * (-math.log(2.0 * a) + _HALF_LOG_2PI + 0.5)
    return BaseDensity(
        name="uniform",
        d=d,
        log_density=log_density,
        score=score,
        sampler=sampler,
        moment=moment,
        E=float(d),
        sigma2=d * (m[4] - 1.0),
        cdf=cdf,
        support_radius=a,
        _h_rel_gaussian=h_rel,
    )


def _shifted_gaussian_even_moments(m: float, s2: float) -> dict:
    # E[(m + s Z)^{2j}] for Z standard normal, j = 1..3
    m2, m4 = m * m, m**4
    return {
        1: m2 + s2,
        2: m4 + 6 * m2 * s2 + 3 * s2 * s2,
        3: m**6 + 15 * m4 * s2 + 45 * m2 * s2 * s2 + 15 * s2**3,
    }


def gaussian_mixture_density(d: int = 1, separation: float = 0.8) -> BaseDensity:
    """Symmetric two-component Gaussian mixture with isotropic total covariance.

    Components sit at +/- separation * e_1 with covariance I - mu mu^T, so the
    mixture keeps mean 0 and second-moment matrix I_d while each component is
    anisotropic (squeezed along the separation axis).  Bimodal along e_1 for
    separation close to 1.
    """
    if d < 1 or not (0.0 < separation < 1.0):
        raise ParameterError("need d >= 1 and 0 < separation < 1")
    m = float(separation)
    c1 = 1.0 - m * m  # variance along the separation axis
    log_norm = -0.5 * (math.log(2.0 * math.pi * c1) + (d - 1) * math.log(2.0 * math.pi))

    def _comp_quad(v, sign):
        q = (v[..., 0] - sign * m) ** 2 / c1
        if d > 1:
            q = q + np.sum(v[..., 1:] * v[..., 1:], axis=-1)
        return q

    def log_density(v):
        a = log_norm - 0.5 * _comp_quad(v, +1.0)
        b = log_norm - 0.5 * _comp_quad(v, -1.0)
        return np.logaddexp(a, b) + math.log(0.5)

    def score(v):
        a = -0.5 * _comp_quad(v, +1.0)
        b = -0.5 * _comp_quad(v, -1.0)
        wa = 1.0 / (1.0 + np.exp(b - a))  # posterior weight of the + component
        g = np.empty_like(v)
        g[..., 0] = -(v[..., 0] - m) / c1 * wa - (v[..., 0] + m) / c1 * (1.0 - wa)
        if d > 1:
            g[..., 1:] = -v[..., 1:]
        return g

    def sampler(rng, n):
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        out = rng.normal(size=(n, d))
        out[:, 0] = signs * m + out[:, 0] * math.sqrt(c1)
        return out

    mom1 = _shifted_gaussian_even_moments(m, c1)  # moments of the e_1 coordinate squared
    # chi^2_{d-1} moments of the remaining coordinates
    b1, b2, b3 = d - 1.0, (d - 1.0) * (d + 1.0), (d - 1.0) * (d + 1.0) * (d + 3.0)

    def moment(k):
        if k == 0:
            return 1.0
        if k == 2:
            return mom1[1] + b1
        if k == 4:
            return mom1[2] + 2 * mom1[1] * b1 + b2
        if k == 6:
            return mom1[3] + 3 * mom1[2] * b1 + 3 * mom1[1] * b2 + b3
        raise ParameterError(f"analytic radial moment only for even k <= 6, got {k}")

    sigma2 = 2.0 * (c1 * c1 + (d - 1.0)) + 4.0 * m * m * c1

    cdf = None
    if d == 1:
        s = math.sqrt(c1)
        cdf = lambda v: 0.5 * (
            ndtr((np.asarray(v, dtype=float) - m) / s)
            + ndtr((np.asarray(v, dtype=float) + m) / s)
        )

    return BaseDensity(
        name="mixture",
        d=d,
        log_density=log_density,
        score=score,
        sampler=sampler,
        moment=moment,
        E=float(d),
        sigma2=sigma2,
        params=(m,),
        cdf=cdf,
        support_radius=None,
    )


_REGISTRY = {
    "gaussian": lambda d: gaussian_density(d=d),
    "uniform": lambda d: uniform_box_density(d=d),
    "mixture": lambda d: gaussian_mixture_density(d=d),
}


def registry_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def get_density(name: str, d: int = 1) -> BaseDensity:
    """Look up a registry density by name, normalized to E = d."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ParameterError(f"unknown density {name!r}; registry: {registry_names()}")
    return builder(d)
