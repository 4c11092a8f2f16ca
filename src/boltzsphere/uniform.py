"""The uniform probability law on the collision sphere and its marginals.

For the centered sphere with r^2 = dN the ell-particle marginal has the
closed form

    g_ell(V_ell) = [|S^{d(N-ell-1)-1}| / |S^{d(N-1)-1}|] (N/(N-ell))^{d/2}
                   (dN - |V_ell|^2 - |Vbar_ell|^2/(N-ell))_+^{(d(N-ell-1)-2)/2}
                   / (dN)^{(d(N-1)-2)/2},

with Vbar_ell the sum of the first ell particles.  The module provides the
density, closed-form radial moments, an exact sampler (isotropic Gaussian +
projection), the quantitative L1 gap to the Gaussian tensor power, and the
1D law of a single velocity coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, chdtrc, gammaln, hyp2f1, poch

from . import rng as rngmod
from .densities import gaussian_density
from .errors import ParameterError
from .geometry import SphereSpec, log_sphere_surface, project_rows

__all__ = [
    "UniformMarginal",
    "sample_uniform",
    "sample_uniform_batch",
    "marginal_log_density",
    "marginal_density",
    "marginal_moment",
    "moment_bound",
    "l1_chaos_gap",
    "CoordinateMarginal",
    "coordinate_marginal",
]


@dataclass(frozen=True)
class UniformMarginal:
    """The ell-particle marginal of the uniform law on the centered sphere."""

    spec: SphereSpec
    ell: int

    def __post_init__(self):
        if not self.spec.is_boltzmann:
            raise ParameterError("marginals are implemented for the collision case r^2=dN, z=0")
        if self.ell >= self.spec.N:
            raise ParameterError(f"marginal order must satisfy ell <= N-1, got {self.ell}")
        if self.ell < 1:
            raise ParameterError("marginal order must be >= 1")
        if self.spec.d * (self.spec.N - self.ell - 1) < 1:
            raise ParameterError("marginal is not absolutely continuous for this (d, N, ell)")

    @property
    def exponent(self) -> float:
        return 0.5 * (self.spec.d * (self.spec.N - self.ell - 1) - 2)

    @property
    def log_prefactor(self) -> float:
        d, N, ell = self.spec.d, self.spec.N, self.ell
        return (
            log_sphere_surface(d * (N - ell - 1))
            - log_sphere_surface(d * (N - 1))
            + 0.5 * d * (math.log(N) - math.log(N - ell))
            - 0.5 * (d * (N - 1) - 2) * math.log(d * N)
        )

    def support_gap(self, V_ell: np.ndarray) -> np.ndarray:
        """dN - |V_ell|^2 - |Vbar_ell|^2/(N-ell), vectorized over rows."""
        d, N, ell = self.spec.d, self.spec.N, self.ell
        pts = np.asarray(V_ell, dtype=float)
        flat = pts.reshape(-1, ell * d) if pts.ndim > 1 else pts.reshape(1, -1)
        if flat.shape[1] != ell * d:
            raise ParameterError(f"points must have {ell * d} coordinates")
        sq = np.sum(flat * flat, axis=1)
        bar = flat.reshape(-1, ell, d).sum(axis=1)
        return d * N - sq - np.sum(bar * bar, axis=1) / (N - ell)


def marginal_log_density(m: UniformMarginal, V_ell) -> np.ndarray:
    """Log of the marginal density, -inf outside the support; shape (n,)."""
    gap = m.support_gap(V_ell)
    out = np.full(gap.shape, -np.inf)
    pos = gap > 0.0
    with np.errstate(divide="ignore"):
        out[pos] = m.log_prefactor + m.exponent * np.log(gap[pos])
    return out


def marginal_density(m: UniformMarginal, V_ell) -> np.ndarray:
    val = np.exp(marginal_log_density(m, V_ell))
    return val if val.size > 1 else float(val[0])


def sample_uniform(spec: SphereSpec, rng_seed) -> np.ndarray:
    """One exact draw from the uniform law on the centered sphere, as N rows
    of d: the one row of `sample_uniform_batch(spec, 1, rng_seed)`."""
    return sample_uniform_batch(spec, 1, rng_seed)[0].reshape(spec.N, spec.d)


def sample_uniform_batch(spec: SphereSpec, n: int, rng_seed) -> np.ndarray:
    """n uniform-law draws as an (n, dN) array.

    An isotropic Gaussian in R^{dN} is rotation invariant inside the momentum
    hyperplane, so projecting it to the sphere gives the uniform law.
    """
    w = rngmod.generator(rng_seed, "uniform").normal(size=(n, spec.dim_ambient))
    return project_rows(w, spec)


def marginal_moment(m: UniformMarginal, k: float) -> float:
    """Radial moment E |V_ell|^k of the marginal, in closed form for real k >= 0.

    On the momentum hyperplane |V_ell|^2 is a quadratic form with eigenvalue
    1 on d(ell-1) directions, 1 - ell/N on d directions and 0 elsewhere, so
    |V_ell|^2 / (dN) = S (1 - (ell/N) X) with independent S ~ Beta(a, b - a)
    and X ~ Beta(d/2, a - d/2), a = d ell/2, b = d(N-1)/2.  Taking the
    binomial series of (1 - (ell/N) X)^{k/2} term by term gives

        E |V_ell|^k = (dN)^{k/2} (a)_{k/2} / (b)_{k/2} 2F1(-k/2, d/2; a; ell/N).
    """
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    d, N, ell = m.spec.d, m.spec.N, m.ell
    a, b, h = 0.5 * d * ell, 0.5 * d * (N - 1), 0.5 * k
    return float((d * N) ** h * poch(a, h) / poch(b, h) * hyp2f1(-h, 0.5 * d, a, ell / N))


def moment_bound(d: int, k: int, ell: int) -> float:
    """Uniform-in-N bound C_{d,k,ell} on the marginal radial moments.

    Even k:  2^{k/2} ( [d(ell-1)+k-2][d(ell-1)+k-4]...[d(ell-1)]
                        + (d+k-2)(d+k-4)...d ),
    each product running over k/2 factors; odd k via C(k-1) + C(k+1).
    """
    if k < 0:
        raise ParameterError("need k >= 0")
    if k == 0:
        return 1.0
    if k % 2:
        return moment_bound(d, k - 1, ell) + moment_bound(d, k + 1, ell)
    terms = k // 2
    prod_a = 1.0
    prod_b = 1.0
    for j in range(terms):
        prod_a *= d * (ell - 1) + k - 2 - 2 * j
        prod_b *= d + k - 2 - 2 * j
    return 2.0**terms * (prod_a + prod_b)


def _l1_gap_quadrature_1d(m: UniformMarginal) -> float:
    from scipy import integrate

    d, N = m.spec.d, m.spec.N
    gauss = gaussian_density(d=1)
    vmax = math.sqrt(d * N * (N - 1) / N)

    def integrand(v):
        p = float(np.exp(marginal_log_density(m, np.array([[v]])))[0])
        q = float(gauss.pdf(v)[0])
        return abs(p - q)

    val, _ = integrate.quad(integrand, -vmax, vmax, limit=400, epsabs=1e-9)
    # Gaussian mass outside the marginal support
    tail = 2.0 * float(1.0 - gauss.cdf(vmax))
    return val + tail


def _l1_gap_radial(m: UniformMarginal) -> float:
    from scipy import integrate

    d, N = m.spec.d, m.spec.N
    scale = 1.0 + 1.0 / (N - 1)
    vmax = math.sqrt(d * N / scale)
    log_gauss_norm = -0.5 * d * math.log(2.0 * math.pi)
    logc = m.log_prefactor

    def integrand(rho):
        gap = d * N - scale * rho * rho
        p = math.exp(logc + m.exponent * math.log(gap)) if gap > 0 else 0.0
        q = math.exp(log_gauss_norm - 0.5 * rho * rho)
        return abs(p - q) * math.exp(log_sphere_surface(d) + (d - 1) * math.log(rho))

    val, _ = integrate.quad(integrand, 1e-12, vmax, limit=400, epsabs=1e-9)
    # chi-square survival function; chi2.sf(x, df=d) evaluates this same call
    tail = float(chdtrc(d, vmax * vmax))
    return val + tail


def l1_chaos_gap(d: int, ell: int, N: int, n_mc: int = 400_000, seed: int = 0) -> tuple:
    """L1 distance between the ell-marginal and the Gaussian tensor power.

    Returns (gap, bound) with bound = 2 (d(ell+2)+2) / (dN - d(ell+2) - 2),
    valid in the regime d*ell <= d(N-2) - 3.  The gap is quadrature for
    ell = 1 with d <= 2 and importance-sampled Monte Carlo otherwise, using the
    identity |p - q|_1 = 2 E_q (p/q - 1)_+ for variance reduction.
    """
    if d * ell > d * (N - 2) - 3:
        raise ParameterError(f"outside the chaos regime: need d*ell <= d(N-2)-3 (d={d}, ell={ell}, N={N})")
    spec = SphereSpec.boltzmann(d, N)
    m = UniformMarginal(spec, ell)
    bound = 2.0 * (d * (ell + 2) + 2) / (d * N - d * (ell + 2) - 2)
    if d == 1 and ell == 1:
        return _l1_gap_quadrature_1d(m), bound
    if ell == 1 and d == 2:
        return _l1_gap_radial(m), bound
    gen = rngmod.stream(seed, "l1-gap", d, ell, N)
    pts = gen.normal(size=(n_mc, ell * d))
    logp = marginal_log_density(m, pts)
    logq = -0.5 * np.sum(pts * pts, axis=1) - 0.5 * ell * d * math.log(2.0 * math.pi)
    ratio = np.exp(np.clip(logp - logq, -745.0, 60.0))
    vals = 2.0 * np.maximum(ratio - 1.0, 0.0)
    gap = float(vals.mean())
    return gap, bound


@dataclass(frozen=True)
class CoordinateMarginal:
    """Law of a single velocity coordinate v_{1,alpha} under the uniform law.

    On the centered sphere the coordinate functional has hyperplane norm
    sqrt(1 - 1/N), so v_{1,alpha} = sqrt(d(N-1)) T with T distributed as
    (1 - t^2)_+^{(M-3)/2} on (-1, 1), M = d(N-1).
    """

    spec: SphereSpec

    @property
    def M(self) -> int:
        return self.spec.d * (self.spec.N - 1)

    @property
    def radius(self) -> float:
        return math.sqrt(self.M)

    def log_pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        M = self.M
        lognorm = (
            -0.5 * math.log(M)
            - 0.5 * math.log(math.pi)
            - gammaln(0.5 * (M - 1))
            + gammaln(0.5 * M)
        )
        t2 = x * x / M
        out = np.full(x.shape, -np.inf)
        ok = t2 < 1.0
        with np.errstate(divide="ignore"):
            out[ok] = lognorm + 0.5 * (M - 3) * np.log1p(-t2[ok])
        return out

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_pdf(x))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t2 = np.clip(x * x / self.M, 0.0, 1.0)
        inc = betainc(0.5, 0.5 * (self.M - 1), t2)
        return 0.5 * (1.0 + np.sign(x) * inc)


def coordinate_marginal(spec: SphereSpec) -> CoordinateMarginal:
    if not spec.is_boltzmann:
        raise ParameterError("coordinate law implemented for the collision case only")
    return CoordinateMarginal(spec)
