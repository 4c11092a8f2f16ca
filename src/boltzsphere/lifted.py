"""Convolution powers of the lifted law and the partition values they yield.

For a base density f on R (the numeric pipeline is d = 1; higher d is covered
analytically by `z_prime_asymptotic`), the lifted law is the joint law of
(v, v^2): a measure on R x R_+ concentrated on a parabola.  Its N-fold
convolution power s_N is the density of (sum v_i, sum v_i^2), and the exact
partition value on the sphere S^N(sqrt(u), z) follows from

    Z_N(f; sqrt(u), z) = 2 (u - z^2/N)^{1/2} N^{d/2} s_N(z, u) / |S^N(sqrt(u), z)|,

normalized against the Gaussian tensor power (constant on the sphere) to give
Z'_N = Z_N / gamma^{xN}.  Everything runs in log space; the grid machinery is
FFT-based with repeated squaring of the spectrum.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .densities import BaseDensity
from .errors import (
    CoverageError,
    DegenerateVarianceError,
    ParameterError,
    SupportError,
)
from .geometry import log_sphere_surface

__all__ = [
    "GridDensity",
    "default_window",
    "rasterize_lifted",
    "convolution_power",
    "LiftedGrid",
    "lifted_grid",
    "z_prime_exact",
    "log_z_prime_exact",
    "z_prime_asymptotic",
    "log_z_prime_asymptotic",
    "berry_esseen_sup",
    "lifted_moment_check",
]

DEFAULT_SHAPE = (2048, 2048)
_NEG_MASS_TOL = 1e-9
_TRUNC_TOL = 1e-6


@dataclass
class GridDensity:
    """Nonnegative values on a uniform rectangular grid over R x [0, u_hi).

    Lattice nodes are z_i = z_lo + i dz (nz even, window symmetric about 0)
    and u_j = j du, so the coordinate origin sits exactly on the lattice; the
    convolution code relies on that alignment.
    """

    z_lo: float
    z_hi: float
    u_hi: float
    values: np.ndarray  # shape (nz, nu)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ParameterError("grid values must be 2D")
        if self.values.shape[0] % 2:
            raise ParameterError("nz must be even (origin on the lattice)")
        if not math.isclose(self.z_lo, -self.z_hi, rel_tol=1e-12):
            raise ParameterError("momentum window must be symmetric about 0")

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def dz(self) -> float:
        return (self.z_hi - self.z_lo) / self.values.shape[0]

    @property
    def du(self) -> float:
        return self.u_hi / self.values.shape[1]

    @property
    def cell_volume(self) -> float:
        return self.dz * self.du

    @property
    def mass(self) -> float:
        return float(self.values.sum()) * self.cell_volume

    def z_nodes(self) -> np.ndarray:
        return self.z_lo + self.dz * np.arange(self.values.shape[0])

    def u_nodes(self) -> np.ndarray:
        return self.du * np.arange(self.values.shape[1])

    def momentum_marginal(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.du

    def energy_mean(self) -> float:
        w = self.values.sum(axis=0) * self.dz
        return float((w * self.u_nodes()).sum()) * self.du / self.mass

    def radial_moment(self, k: int) -> float:
        z = self.z_nodes()[:, None]
        u = self.u_nodes()[None, :]
        w = self.values * self.cell_volume
        return float(np.sum(w * (z * z + u * u) ** (0.5 * k)))

    def interp_log(self, z, u):
        """Bilinear interpolation of log-values (log of a peaked density is
        nearly quadratic, so interpolating logs is far more accurate).

        Elementwise over broadcast arrays; scalars in, float out.  A cell with
        a zero corner falls back to the log of the linear interpolant (-inf
        where that is zero).  CoverageError if any point is outside the grid.
        """
        z, u = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(u, dtype=float))
        nz, nu = self.values.shape
        fz = ((z - self.z_lo) / self.dz).ravel()
        fu = (u / self.du).ravel()
        outside = ~((0.0 <= fz) & (fz <= nz - 1) & (0.0 <= fu) & (fu <= nu - 1))
        if outside.any():
            k = int(np.argmax(outside))
            raise CoverageError(
                f"query point (z={z.flat[k]}, u={u.flat[k]}) outside the grid window"
            )
        iz = np.minimum(fz.astype(np.int64), nz - 2)
        iu = np.minimum(fu.astype(np.int64), nu - 2)
        tz, tu = fz - iz, fu - iu
        weights = ((1 - tz) * (1 - tu), (1 - tz) * tu, tz * (1 - tu), tz * tu)
        v = self.values
        corners = (v[iz, iu], v[iz, iu + 1], v[iz + 1, iu], v[iz + 1, iu + 1])
        pos = (corners[0] > 0.0) & (corners[1] > 0.0) & (corners[2] > 0.0) & (corners[3] > 0.0)
        out = np.empty(fz.shape)
        w = [x[pos] for x in weights]
        lc = [np.log(c[pos]) for c in corners]
        out[pos] = w[0] * lc[0] + w[1] * lc[1] + w[2] * lc[2] + w[3] * lc[3]
        zero = ~pos
        if zero.any():
            w = [x[zero] for x in weights]
            c = [x[zero] for x in corners]
            lin = w[0] * c[0] + w[1] * c[1] + w[2] * c[2] + w[3] * c[3]
            # math.log, not np.log: the two differ in the last bit on some inputs
            out[zero] = [math.log(x) if x > 0.0 else -math.inf for x in lin.tolist()]
        return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    def to_bytes(self) -> bytes:
        """Binary export: small header (dims, window, cell volume) + values."""
        header = np.array(
            [self.values.shape[0], self.values.shape[1]], dtype=np.int64
        ).tobytes()
        window = np.array(
            [self.z_lo, self.z_hi, self.u_hi, self.cell_volume], dtype=np.float64
        ).tobytes()
        return header + window + np.ascontiguousarray(self.values).tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GridDensity":
        """Inverse of `to_bytes`; ParameterError if the blob is not one."""
        try:
            nz, nu = np.frombuffer(blob[:16], dtype=np.int64)
            z_lo, z_hi, u_hi, _ = np.frombuffer(blob[16:48], dtype=np.float64)
            values = np.frombuffer(blob[48:], dtype=np.float64).reshape(int(nz), int(nu))
        except ValueError as exc:
            raise ParameterError(f"malformed grid blob of {len(blob)} bytes: {exc}") from None
        return cls(z_lo=float(z_lo), z_hi=float(z_hi), u_hi=float(u_hi), values=values.copy())


def default_window(f: BaseDensity, N: int) -> tuple:
    """(z_halfwidth, u_hi) covering the N-fold support to better than 1e-8.

    Momentum: +/- 6 sqrt(eps N), widened to the single-factor tail radius.
    Energy: N E + 12 Sigma sqrt(N), widened to the single-factor squared tail
    radius and capped at the exact maximum N vmax^2 for compactly supported f.
    The energy axis spans [0, u_hi) with u_hi ~ N E, so its cell is about
    N E / nu and grows linearly in N: 0.37 at N = 512 for the uniform box on
    2048 cells.  The sqrt(N) margin only sets the headroom above N E.  A cell
    that scales like sqrt(N) needs the axis centred on N E (ROADMAP.md, "Grid
    accuracy that scales like sqrt(N)").
    """
    vmax = f.tail_radius()
    z_half = max(6.0 * math.sqrt(f.eps * N), 1.05 * vmax)
    u_hi = max(N * f.E + 12.0 * f.sigma * math.sqrt(N), 1.05 * vmax * vmax)
    if f.support_radius is not None:
        # 1% headroom keeps the parabola endpoint clear of the splat boundary
        u_hi = min(u_hi, 1.01 * N * f.support_radius**2)
    return z_half, u_hi


def rasterize_lifted(
    f: BaseDensity,
    window: tuple = None,
    shape: tuple = DEFAULT_SHAPE,
    oversample: int = 8,
) -> GridDensity:
    """Deposit the lifted law of f onto a grid along the parabola u = v^2.

    The momentum axis is cut into `oversample` subintervals per cell; each
    subinterval carries its exact probability mass (CDF differences) and is
    splat bilinearly at (v_mid, v_mid^2).  Mass is conserved up to the window
    truncation, which must stay below 1e-6.
    """
    if f.d != 1:
        raise ParameterError("the grid pipeline is built for d = 1")
    if f.cdf is None:
        raise ParameterError("rasterization needs a CDF for exact cell masses")
    if window is None:
        window = default_window(f, 1)
    z_half, u_hi = window
    nz, nu = shape
    grid = GridDensity(z_lo=-z_half, z_hi=z_half, u_hi=u_hi, values=np.zeros((nz, nu)))
    dz, du = grid.dz, grid.du

    vmax = min(z_half, math.sqrt(u_hi))
    n_sub = min(max(oversample * int(2 * vmax / dz) + 1, 64), 4_000_000)
    edges = np.linspace(-vmax, vmax, n_sub + 1)
    masses = np.diff(f.cdf(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])

    fz = (mids - grid.z_lo) / dz
    fu = (mids * mids) / du
    iz = np.floor(fz).astype(np.int64)
    iu = np.floor(fu).astype(np.int64)
    tz = fz - iz
    tu = fu - iu
    ok = (iz >= 0) & (iz < nz - 1) & (iu >= 0) & (iu < nu - 1)
    vals = grid.values
    np.add.at(vals, (iz[ok], iu[ok]), masses[ok] * (1 - tz[ok]) * (1 - tu[ok]))
    np.add.at(vals, (iz[ok], iu[ok] + 1), masses[ok] * (1 - tz[ok]) * tu[ok])
    np.add.at(vals, (iz[ok] + 1, iu[ok]), masses[ok] * tz[ok] * (1 - tu[ok]))
    np.add.at(vals, (iz[ok] + 1, iu[ok] + 1), masses[ok] * tz[ok] * tu[ok])

    deposited = float(masses[ok].sum())
    truncated = 1.0 - deposited
    if truncated > _TRUNC_TOL:
        raise CoverageError(
            f"window too small: {truncated:.3e} of the lifted mass falls outside"
        )
    vals /= grid.cell_volume
    return grid


def _spectrum_power(pmf_hat: np.ndarray, n: int) -> np.ndarray:
    """n-fold convolution in the spectral domain by repeated squaring (n >= 1).

    pmf_hat is squared in place.  The result starts as a copy of it at the
    lowest set bit of n, or is pmf_hat itself when that is the only set bit,
    and takes the product at every higher set bit, so besides pmf_hat at
    most one buffer of its size is alive.  The copy has the bits of a product
    with a buffer of ones, since 1 x = x.
    """
    out = None
    base = pmf_hat
    k = n
    while k:
        if k & 1:
            if out is None:
                out = base if k == 1 else base.copy()
            else:
                np.multiply(out, base, out=out)
        k >>= 1
        if k:
            np.multiply(base, base, out=base)
    return out


def _lattice_power(pmf: np.ndarray, n: int) -> np.ndarray:
    """n-fold cyclic self-convolution of a 1-D lattice pmf, as a new array.

    The lattice origin sits at index len // 2.  A real FFT of the pmf rolled
    to put the origin at index 0, `_spectrum_power`, and the inverse FFT,
    which overwrites pmf, rolled back.
    """
    half = pmf.shape[0] // 2
    pmf[...] = np.roll(pmf, -half)
    spectrum = _spectrum_power(np.fft.rfft(pmf), n)
    np.fft.irfft(spectrum, n=pmf.shape[0], out=pmf)
    del spectrum
    return np.roll(pmf, half)


def _mass_row_spectra(values: np.ndarray, cell: float) -> tuple:
    """The rows of the pmf values * cell that hold mass, transformed along u.

    Returns their indices once the lattice origin (row nz // 2) is rolled to
    row 0, and their real FFTs.  rfftn transforms the last axis first, each
    row on its own, and a row of zeros transforms to zeros, so the half
    spectrum that is zero except these rows at these indices is bit for bit
    the u-transform of the whole rolled pmf.  At the default shape a lifted
    raster holds mass on 29 to 225 of its 2048 rows.
    """
    nz = values.shape[0]
    rows = np.flatnonzero(values.any(axis=1))
    return (rows - nz // 2) % nz, np.fft.rfft(values[rows] * cell, axis=1)


# Columns of the half spectrum go through the z-transforms and the power one
# block at a time.  A block of about 1 MiB (32 columns at nz = 2048) stays in
# a core's cache through every squaring; the transforms along z are per
# column and the power is elementwise, so the block width leaves every bit
# as it is.
_BLOCK_BYTES = 1 << 20


def _z_power(rows: np.ndarray, row_spectra: np.ndarray, nz: int, n: int) -> np.ndarray:
    """ifft_z(fft_z(S)^n) as a new (nz, ncol) array, where S is zero but for
    row_spectra at rows; `_spectrum_power` runs on each column block."""
    ncol = row_spectra.shape[1]
    spectrum = np.empty((nz, ncol), dtype=complex)
    width = max(1, _BLOCK_BYTES // (16 * nz))
    for c0 in range(0, ncol, width):
        c1 = min(c0 + width, ncol)
        block = np.zeros((nz, c1 - c0), dtype=complex)
        block[rows] = row_spectra[:, c0:c1]
        np.fft.fft(block, axis=0, out=block)
        np.fft.ifft(_spectrum_power(block, n), axis=0, out=spectrum[:, c0:c1])
    return spectrum


def _unrolled_irfft(spectrum: np.ndarray, nu: int) -> np.ndarray:
    """The inverse real FFT along u of each row, with row nz // 2 of the
    lattice origin back in place, written over the front of spectrum's own
    buffer and returned as a C-contiguous (nz, nu) view of it.

    Spectrum row j becomes output row j + nz/2 (mod nz).  The complex
    (nz, ncol) buffer holds nz (2 ncol) floats and 2 ncol > nu, so output
    row i starts at or before the floats of spectrum row i.  Rows go in
    blocks of about _BLOCK_BYTES: spectrum rows [nz/2 + a, nz/2 + b) into a
    temporary, rows [a, b) straight into output rows [nz/2 + a, nz/2 + b),
    then the temporary into output rows [a, b).  The first-half spectrum
    rows from `lo` on share floats with output row nz/2, so they are
    transformed before any write.  Every row gets the irfft it would get
    in one call on the whole spectrum.
    """
    nz, ncol = spectrum.shape
    half = nz // 2
    out = spectrum.view(float).reshape(-1)[: nz * nu].reshape(nz, nu)
    lo = half * nu // (2 * ncol)  # the spectrum row holding output row half's first float
    tail = np.fft.irfft(spectrum[lo:half], n=nu, axis=1)
    step = max(1, _BLOCK_BYTES // (8 * nu))
    for a in range(0, half, step):
        b = min(a + step, half)
        upper = np.fft.irfft(spectrum[half + a : half + b], n=nu, axis=1)
        if a < lo:
            m = min(b, lo)
            np.fft.irfft(spectrum[a:m], n=nu, axis=1, out=out[half + a : half + m])
        out[a:b] = upper
    out[half + lo :] = tail
    return out


def convolution_power(g: GridDensity, N: int) -> GridDensity:
    """The N-fold self-convolution of a grid density.

    The pmf g.values * cell, its origin rolled to index (0, 0), goes through
    a real FFT, the N-th power of its spectrum by repeated squaring and the
    inverse FFT: log2(N) squarings, so rounding does not accumulate linearly
    in N.  The forward transform along u runs only on the rows that hold
    mass, the transforms along z and the power run on column blocks that fit
    in cache, and the inverse along u writes the rolled-back rows over the
    front of the spectrum's own buffer.  The result is bit for bit that of
    `np.fft.rfftn` and `irfftn` on the whole rolled grid.  One build holds
    one grid-sized buffer at a time: the raster until the mass rows are
    transformed, then the half spectrum, whose memory becomes the result.
    Negative FFT ringing is clamped to zero; if the clamped mass exceeds
    1e-9, or noticeable mass reaches the window boundary (wrap-around), the
    window is considered misconfigured and a coverage error is raised.
    """
    if N < 1:
        raise ParameterError("need N >= 1")
    nz, nu = g.values.shape
    if N == 1:
        return GridDensity(g.z_lo, g.z_hi, g.u_hi, g.values.copy())
    z_lo, z_hi, u_hi, cell = g.z_lo, g.z_hi, g.u_hi, g.cell_volume
    rows, row_spectra = _mass_row_spectra(g.values, cell)
    # g is not modified.  LiftedGrid passes its raster as a temporary, which
    # CPython 3.11 hands to this frame, so dropping g frees the raster before
    # the power.
    del g
    spectrum = _z_power(rows, row_spectra, nz, N)
    del row_spectra
    out = _unrolled_irfft(spectrum, nu)
    # Rescale, sum the negative ringing and clamp it one block of rows at a
    # time, while the block is in cache.  A masked sum: ringing makes about
    # half the cells negative, and copying them out would take half a grid.
    neg_mass = 0.0
    step = max(1, _BLOCK_BYTES // (8 * nu))
    for a in range(0, nz, step):
        block = out[a : a + step]
        block /= cell
        neg_mass -= float(np.sum(block, where=block < 0.0))
        np.maximum(block, 0.0, out=block)
    neg_mass *= cell
    if neg_mass > _NEG_MASS_TOL:
        raise CoverageError(
            f"negative convolution mass {neg_mass:.3e}: window or shape misconfigured"
        )

    band_z = max(1, nz // 128)
    band_u = max(1, nu // 128)
    edge_mass = (
        float(out[:band_z].sum())
        + float(out[-band_z:].sum())
        + float(out[:, -band_u:].sum())
    ) * cell
    if edge_mass > _TRUNC_TOL:
        raise CoverageError(f"mass {edge_mass:.3e} reached the window boundary")
    return GridDensity(z_lo, z_hi, u_hi, out)


class LiftedGrid:
    """The N-fold convolution power of the rasterized lifted law of f."""

    def __init__(self, f: BaseDensity, N: int, shape: tuple = DEFAULT_SHAPE, window: tuple = None):
        if N < 1:
            raise ParameterError("need N >= 1")
        self.f = f
        self.N = N
        self.window = window if window is not None else default_window(f, N)
        self.power = convolution_power(rasterize_lifted(f, window=self.window, shape=shape), N)

    def log_density(self, z, u):
        """log s_N(z, u) via log-bilinear interpolation (elementwise)."""
        return self.power.interp_log(z, u)

    def log_z_prime(self, r, z_mom):
        """log Z'_N at (r, z), elementwise over broadcast arrays; scalars in,
        float out.  SupportError if any of the spheres is empty."""
        N = self.N
        r, z_mom = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z_mom, dtype=float))
        u = r * r
        z2 = z_mom * z_mom
        rho2 = u - z2 / N
        if np.any(rho2 <= 0.0):
            k = int(np.argmax(rho2 <= 0.0))
            raise SupportError(f"empty sphere: r^2 = {u.flat[k]} <= z^2/N = {z2.flat[k] / N}")
        log_rho2 = np.log(rho2)
        n = N - 1  # the sphere's ambient dimension once the momentum shell is removed
        log_zn = (
            math.log(2.0)
            + 0.5 * log_rho2
            + 0.5 * math.log(N)
            + self.log_density(z_mom, u)
            - (log_sphere_surface(n) + 0.5 * (n - 1) * log_rho2)
        )
        # gamma^{xN} is constant on the sphere: (2 pi)^{-N/2} exp(-r^2 / 2)
        out = log_zn + 0.5 * N * math.log(2.0 * math.pi) + 0.5 * u
        return float(out) if out.ndim == 0 else out


# Grid builds run on at most two threads.  numpy's FFTs and ufuncs release
# the GIL, so two builds for different N overlap almost fully (1.9x on two
# cores), while splitting one build's FFTs gains little (1.16x).  The cap is
# set by memory: two concurrent builds at the default shape (at most 36 to
# 41 MB of transients each, one grid-sized buffer at a time) stay under the
# peak of the earlier one-at-a-time pipeline.
_GRID_WORKERS = min(2, len(os.sched_getaffinity(0)))


def _map_grid_builds(fn, items) -> list:
    """[fn(x) for x in items] on a pool of _GRID_WORKERS threads, in order.

    For work that builds one grid or lattice per item and keeps only a small
    result (a curve, a partition value, a sup gap), so at most
    _GRID_WORKERS grids are alive at once.  The same code runs at one worker and at two.  An exception
    raised by fn reaches the caller unchanged, as it would from a loop.
    """
    items = list(items)
    if not items:
        return []
    from concurrent.futures.thread import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(_GRID_WORKERS, len(items))) as pool:
        return list(pool.map(fn, items))


def lifted_grid(f: BaseDensity, N: int, shape: tuple = DEFAULT_SHAPE, window: tuple = None) -> LiftedGrid:
    """A new N-fold lifted grid of f; 34 MB at the default shape (its values
    are the front 32 MB of the half-spectrum buffer they were computed in).

    Every grid of the package is built here and held only by its caller, so
    none outlives the call that asked for it.  The one memo of the exact
    pipeline is `conditioned._CURVES`, which keeps curves, never grids.
    """
    return LiftedGrid(f, N, shape=shape, window=window)


def log_z_prime_exact(
    f: BaseDensity, N: int, r: float, z_mom: float = 0.0, shape: tuple = DEFAULT_SHAPE
) -> float:
    return lifted_grid(f, N, shape=shape).log_z_prime(r, z_mom)


def z_prime_exact(
    f: BaseDensity, N: int, r: float, z_mom: float = 0.0, shape: tuple = DEFAULT_SHAPE
) -> float:
    """Grid-exact Z'_N(f; r, z) through the full convolution pipeline."""
    return math.exp(log_z_prime_exact(f, N, r, z_mom, shape=shape))


def log_z_prime_asymptotic(f: BaseDensity, N: int, r: float = None, z_norm: float = 0.0) -> float:
    """Leading-order log Z'_N(f; r, z) for any d (remainder not added).

        Z'_N = sqrt(2d)/(Sigma eps^{d/2})
               * [(dN)/(r^2-|z|^2/N)]^{(d(N-1)-2)/2} * e^{(r^2-dN)/2}
               * exp(-|z|^2/(2 eps N) - (r^2 - N E)^2 / (2 Sigma^2 N)).
    """
    if f.sigma2 <= 0.0:
        raise DegenerateVarianceError("energy fluctuation Sigma is zero (|v|^2 deterministic)")
    d = f.d
    if r is None:
        r = math.sqrt(d * N)
    z2 = z_norm * z_norm
    rho2 = r * r - z2 / N
    if rho2 <= 0.0:
        raise SupportError("empty sphere in asymptotic evaluation")
    val = 0.5 * math.log(2.0 * d) - 0.5 * math.log(f.sigma2) - 0.5 * d * math.log(f.eps)
    val += 0.5 * (d * (N - 1) - 2) * (math.log(d * N) - math.log(rho2))
    val += 0.5 * (r * r - d * N)
    val += -z2 / (2.0 * f.eps * N) - (r * r - N * f.E) ** 2 / (2.0 * f.sigma2 * N)
    return val


def z_prime_asymptotic(f: BaseDensity, N: int, r: float = None, z_norm: float = 0.0) -> float:
    return math.exp(log_z_prime_asymptotic(f, N, r, z_norm))


def berry_esseen_sup(g: BaseDensity, N: int, n_cells: int = 1 << 18) -> float:
    """Sup-norm gap between the rescaled N-fold convolution power and the
    standard Gaussian, for a 1D density standardized to mean 0, variance 1.

    Builds g_N(x) = sqrt(N) g*^N(sqrt(N) x) on a lattice via spectral
    repeated squaring and evaluates the sup over the lattice.
    """
    if g.d != 1:
        raise ParameterError("the Berry-Esseen pipeline is 1D")
    if abs(g.eps - 1.0) > 1e-9:
        raise ParameterError("g must be standardized to unit variance")
    if g.cdf is None:
        raise ParameterError("needs a CDF for exact cell masses")
    if N < 1:
        raise ParameterError("need N >= 1")
    vmax = g.tail_radius()
    half = max(12.0 * math.sqrt(N), 1.05 * vmax)
    if g.support_radius is not None:
        half = min(half, 1.0001 * N * g.support_radius)
        half = max(half, 1.05 * g.support_radius)
    dx = 2.0 * half / n_cells
    x = -half + dx * np.arange(n_cells)
    pmf = np.diff(g.cdf(np.append(x, half) - 0.5 * dx))
    total = float(pmf.sum())
    if 1.0 - total > _TRUNC_TOL:
        raise CoverageError(f"window too small: mass deficit {1.0 - total:.3e}")
    pmf /= total
    g_n = math.sqrt(N) * _lattice_power(pmf, N) / dx
    gauss = np.exp(-0.5 * (x / math.sqrt(N)) ** 2) / math.sqrt(2.0 * math.pi)
    return float(np.max(np.abs(g_n - gauss)))


def lifted_moment_check(f: BaseDensity, k: int, rtol: float = 0.01) -> bool:
    """Check the radial moment of the rasterized lifted law against the value
    implied by f's moments; for even k the analytic target for k = 2 is
    M_2(f) + M_4(f) (lift coordinates are (v, v^2))."""
    if k % 2:
        raise ParameterError("analytic lift moments implemented for even k")
    grid = rasterize_lifted(f)
    got = grid.radial_moment(k)
    if k == 0:
        want = 1.0
    elif k == 2:
        want = f.moment(2) + f.moment(4)
    else:
        # E[(v^2 + v^4)^{k/2}], binomial expansion in f's even moments
        want = sum(
            math.comb(k // 2, j) * f.moment(2 * (k // 2 - j) + 4 * j)
            for j in range(k // 2 + 1)
        )
    if not math.isfinite(got):
        return False
    return abs(got - want) <= rtol * abs(want)
