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

Every base density of the registry is even, so s_N is even in the momentum
z, and every grid is held on its z >= 0 half (`GridDensity`): the raster is
folded, (p(z) + p(-z)) / 2, the transforms along z are DCT-I on the
nz/2 + 1 rows of that half, and the power and the inverse run on those rows
only.  Sums over the full lattice weight the rows by their fold weights.
"""

from __future__ import annotations

import math
import mmap
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
    "z_prime_asymptotic",
    "log_z_prime_asymptotic",
    "berry_esseen_sup",
]

DEFAULT_SHAPE = (2048, 2048)
_NEG_MASS_TOL = 1e-9
_TRUNC_TOL = 1e-6
_OVERSAMPLE = 8  # subintervals of the momentum axis per raster cell


def _fold_weights(n_rows: int) -> np.ndarray:
    """How many nodes of the full momentum lattice each stored row stands
    for: 1 for the z = 0 row and the Nyquist row, 2 for every other row."""
    w = np.full(n_rows, 2.0)
    w[0] = w[-1] = 1.0
    return w


def _zeros(n: int) -> np.ndarray:
    """n zeroed floats on a new private anonymous mapping, unmapped when
    the last array that views it dies.

    Every raster and half spectrum is made here.  Not malloc memory: glibc's
    dynamic mmap threshold rises to a grid's size at the first freed grid,
    after which grids would come from per-thread malloc arenas that keep
    them, and peak RSS would depend on how those arenas happened to fill.
    The kernel zero-fills the pages, and only those written become resident.
    """
    pages = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE)
    # as numpy advises its own arrays of 4 MB and more: filling a spectrum
    # of the default shape took 4,106 page faults without it and 528 with it
    advice = getattr(mmap, "MADV_HUGEPAGE", None)  # Linux only
    if advice is not None:
        try:
            pages.madvise(advice)
        except OSError:  # a kernel without transparent huge pages
            pass
    return np.frombuffer(pages)


@dataclass
class GridDensity:
    """A density on R x [0, u_hi), even in the momentum z, held on z >= 0.

    The full lattice has nz (even) momentum nodes z_lo + i dz with
    z_lo = -z_hi and dz = 2 z_hi / nz, and energy nodes u_j = j du, so the
    coordinate origin sits exactly on the lattice; the convolution code
    relies on that alignment.  values holds rows k = 0 ... nz/2 at
    z_k = k dz: row 0 is z = 0 and row nz/2 the Nyquist row, z = -z_hi,
    which is also z_hi on the periodic lattice.  Each of these two rows is
    one lattice node; every other row stands for the two nodes +-z_k.
    Sums over the full lattice weight the rows by `fold_weights`.
    """

    z_hi: float
    u_hi: float
    values: np.ndarray  # shape (nz // 2 + 1, nu)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ParameterError("grid values must be 2D")
        if self.values.shape[0] < 2:
            raise ParameterError("need the z = 0 row and the Nyquist row")

    @property
    def dz(self) -> float:
        # z_hi / (nz / 2) has the bits of 2 z_hi / nz
        return self.z_hi / (self.values.shape[0] - 1)

    @property
    def du(self) -> float:
        return self.u_hi / self.values.shape[1]

    @property
    def cell_volume(self) -> float:
        return self.dz * self.du

    def fold_weights(self) -> np.ndarray:
        return _fold_weights(self.values.shape[0])

    @property
    def mass(self) -> float:
        return float(self.fold_weights() @ self.values.sum(axis=1)) * self.cell_volume

    def z_nodes(self) -> np.ndarray:
        return self.dz * np.arange(self.values.shape[0])

    def u_nodes(self) -> np.ndarray:
        return self.du * np.arange(self.values.shape[1])

    def momentum_marginal(self) -> np.ndarray:
        """The marginal density of z at `z_nodes`, the z >= 0 half of an
        even function: its integral over R is sum(fold_weights * marginal) dz."""
        return self.values.sum(axis=1) * self.du

    def energy_mean(self) -> float:
        w = (self.fold_weights() @ self.values) * self.dz
        return float((w * self.u_nodes()).sum()) * self.du / self.mass

    def radial_moment(self, k: int) -> float:
        z = self.z_nodes()[:, None]
        u = self.u_nodes()[None, :]
        w = self.values * (self.fold_weights()[:, None] * self.cell_volume)
        return float(np.sum(w * (z * z + u * u) ** (0.5 * k)))

    def interp_log(self, z, u):
        """Bilinear interpolation of log-values at (|z|, u) (log of a peaked
        density is nearly quadratic, so interpolating logs is far more
        accurate).  It reads |z|, so z and -z give the same bits.

        Elementwise over broadcast arrays; scalars in, float out.  A cell with
        a zero corner falls back to the log of the linear interpolant (-inf
        where that is zero).  CoverageError if any point is outside the grid:
        |z| > z_hi, or u outside [0, u_hi - du].
        """
        z, u = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(u, dtype=float))
        nk, nu = self.values.shape
        fz = (np.abs(z) / self.dz).ravel()
        fu = (u / self.du).ravel()
        outside = ~((fz <= nk - 1) & (0.0 <= fu) & (fu <= nu - 1))
        if outside.any():
            k = int(np.argmax(outside))
            raise CoverageError(
                f"query point (z={z.flat[k]}, u={u.flat[k]}) outside the grid window"
            )
        iz = np.minimum(fz.astype(np.int64), nk - 2)
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


def rasterize_lifted(f: BaseDensity, window: tuple = None, shape: tuple = DEFAULT_SHAPE) -> GridDensity:
    """Deposit the lifted law of f onto a grid along the parabola u = v^2,
    folded onto z >= 0.

    The momentum axis is cut into _OVERSAMPLE subintervals per cell; each
    subinterval carries its exact probability mass (CDF differences) and is
    splat bilinearly at (v_mid, v_mid^2) into the full lattice of `shape`:
    straight into the stored rows for z >= 0, and into a buffer of the rows
    for z < 0 that hold mass (14 to 112 of 1024 for the uniform box at
    N = 7 to 511 and the default shape).  The two are then folded,
    (p(z) + p(-z)) / 2, which makes the law exactly even: the deposit is
    even only to rounding, as the subinterval midpoints are.  No
    full-lattice raster is allocated.  Mass is conserved up to the window
    truncation, which must stay below 1e-6.  The stored rows are a new
    mapping (`_zeros`), of which only the pages under the rows that hold
    mass are written.
    """
    if f.d != 1:
        raise ParameterError("the grid pipeline is built for d = 1")
    if f.cdf is None:
        raise ParameterError("rasterization needs a CDF for exact cell masses")
    if window is None:
        window = default_window(f, 1)
    z_half, u_hi = window
    nz, nu = shape
    if nz < 2 or nz % 2:
        raise ParameterError("nz must be even (origin on the lattice)")
    h = nz // 2
    grid = GridDensity(z_hi=z_half, u_hi=u_hi, values=_zeros((h + 1) * nu).reshape(h + 1, nu))
    dz, du = grid.dz, grid.du

    vmax = min(z_half, math.sqrt(u_hi))
    n_sub = min(max(_OVERSAMPLE * int(2 * vmax / dz) + 1, 64), 4_000_000)
    edges = np.linspace(-vmax, vmax, n_sub + 1)
    masses = np.diff(f.cdf(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])

    fz = (mids + z_half) / dz
    fu = (mids * mids) / du
    iz = np.floor(fz).astype(np.int64)
    iu = np.floor(fu).astype(np.int64)
    tz = fz - iz
    tu = fu - iu
    ok = (iz >= 0) & (iz < nz - 1) & (iu >= 0) & (iu < nu - 1)
    deposited = float(masses[ok].sum())
    truncated = 1.0 - deposited
    if truncated > _TRUNC_TOL:
        raise CoverageError(
            f"window too small: {truncated:.3e} of the lifted mass falls outside"
        )

    # full row r is z = (r - h) dz and folds onto row |r - h|.  Rows r >= h
    # take their deposit in place; rows r < h, of which there are at most
    # h, take theirs in a buffer at row h - 1 - r and are then added in.
    # Row h (z = 0) and row 0 (the Nyquist row) are their own mirrors,
    # (p + p) / 2 = p, so only the rows in between are halved.
    keep = ok & (masses > 0.0)
    m, iz, iu, tz, tu = masses[keep], iz[keep], iu[keep], tz[keep], tu[keep]
    lo, hi = int(iz.min()), int(iz.max()) + 2
    vals = grid.values
    below = np.zeros((max(h - lo, 0), nu))

    def splat(rows, cols, w):
        up = rows >= h
        np.add.at(vals, (rows[up] - h, cols[up]), w[up])
        np.add.at(below, (h - 1 - rows[~up], cols[~up]), w[~up])

    splat(iz, iu, m * (1 - tz) * (1 - tu))
    splat(iz, iu + 1, m * (1 - tz) * tu)
    splat(iz + 1, iu, m * tz * (1 - tu))
    splat(iz + 1, iu + 1, m * tz * tu)
    cell = grid.cell_volume
    vals[max(lo, h) - h : max(hi - h, 0)] /= cell
    below /= cell
    vals[1 : 1 + below.shape[0]] += below
    k = np.abs(np.arange(lo, hi) - h)
    vals[max(1, int(k.min())) : min(h - 1, int(k.max())) + 1] *= 0.5
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
    """n-fold cyclic self-convolution of a 1-D lattice pmf, written over pmf.

    The lattice origin sits at index len // 2.  A real FFT of one copy of
    the pmf with its two parts swapped to put the origin at index 0,
    `_spectrum_power`, the inverse FFT into that copy, and the parts swapped
    back into pmf: the bits of `np.roll` on either side, with one copy.
    """
    m = pmf.shape[0]
    half = m // 2
    rolled = np.concatenate((pmf[half:], pmf[:half]))
    spectrum = _spectrum_power(np.fft.rfft(rolled), n)
    np.fft.irfft(spectrum, n=m, out=rolled)
    del spectrum
    pmf[:half] = rolled[m - half :]
    pmf[half:] = rolled[: m - half]
    return pmf


def _mass_row_spectra(values: np.ndarray, cell: float) -> tuple:
    """The rows of the pmf values * cell that hold mass, transformed along u.

    Returns their indices and their real FFTs.  A row of zeros transforms
    to zeros, so the half spectrum that is zero except these rows is bit for
    bit the u-transform of the whole pmf.  At the default shape the folded
    raster of the uniform box holds mass on 15 to 113 of its 1025 rows.
    The rows are scaled and transformed in blocks of about _BLOCK_BYTES,
    each into its rows of one preallocated array, so no scaled copy of the
    raster is made; each row's transform is its own, so the block size
    leaves every bit as it is.
    """
    rows = np.flatnonzero(values.any(axis=1))
    nu = values.shape[1]
    spectra = np.empty((rows.size, nu // 2 + 1), dtype=complex)
    step = max(1, _BLOCK_BYTES // (8 * nu))
    for a in range(0, rows.size, step):
        block = values[rows[a : a + step]]
        block *= cell
        np.fft.rfft(block, axis=1, out=spectra[a : a + step])
    return rows, spectra


# Columns of the half spectrum go through the z-transforms and the power one
# block at a time.  A block of about 1 MiB (63 columns at 1025 rows) stays in
# a core's cache through every squaring; the transforms along z are per
# column and the power is elementwise, so the block width leaves every bit
# as it is.
_BLOCK_BYTES = 1 << 20


def _z_power(rows: np.ndarray, row_spectra: np.ndarray, n_rows: int, n: int) -> np.ndarray:
    """idct_z(dct_z(S)^n) as a new (n_rows, ncol) complex array (`_zeros`),
    where S is zero but for row_spectra at rows.

    S holds the z >= 0 rows of a spectrum that is even in z, row 0 at z = 0
    and row n_rows - 1 at the Nyquist row.  Along z the full FFT of an even
    sequence of length 2 (n_rows - 1) is the DCT-I of its half, with the
    same half at both ends, and the inverse FFT is the inverse DCT-I.  Each
    column block goes through the DCT-I, `_spectrum_power` and the inverse
    DCT-I in place, while it is in cache, and is then copied into the
    spectrum.  The real and imaginary parts are transformed as the float
    columns of the block's real view.
    """
    from scipy.fft import dct, idct

    ncol = row_spectra.shape[1]
    spectrum = _zeros(n_rows * 2 * ncol).view(complex).reshape(n_rows, ncol)
    width = max(1, _BLOCK_BYTES // (16 * n_rows))
    for c0 in range(0, ncol, width):
        c1 = min(c0 + width, ncol)
        block = np.zeros((n_rows, c1 - c0), dtype=complex)
        block[rows] = row_spectra[:, c0:c1]
        block = dct(block.view(float), type=1, axis=0, overwrite_x=True).view(complex)
        block = _spectrum_power(block, n)
        block = idct(block.view(float), type=1, axis=0, overwrite_x=True).view(complex)
        spectrum[:, c0:c1] = block
    return spectrum


def _inverse_rows(spectrum: np.ndarray, nu: int, cell: float) -> tuple:
    """The inverse real FFT along u of each row, divided by cell and clamped
    at zero, written over the front of spectrum's own buffer.

    Returns it as a C-contiguous (n_rows, nu) view of that buffer, and the
    mass of the negative ringing the clamp removed, each row counted by its
    fold weight.  Output row i ends at float (i + 1) nu and spectrum row
    i + 1 starts at float (i + 1) 2 ncol, past it, so a forward sweep over
    blocks of about _BLOCK_BYTES, each inverted into a temporary before it
    is written, overwrites only rows it has already read.  The negative
    ringing is a masked sum per row: about half the cells are negative, and
    copying them out would take half a grid.
    """
    n_rows, ncol = spectrum.shape
    out = spectrum.view(float).reshape(-1)[: n_rows * nu].reshape(n_rows, nu)
    row_neg = np.empty(n_rows)
    step = max(1, _BLOCK_BYTES // (8 * nu))
    for a in range(0, n_rows, step):
        block = np.fft.irfft(spectrum[a : a + step], n=nu, axis=1)
        block /= cell
        np.sum(block, axis=1, where=block < 0.0, out=row_neg[a : a + step])
        np.maximum(block, 0.0, out=out[a : a + step])
    return out, -float(_fold_weights(n_rows) @ row_neg) * cell


def convolution_power(g: GridDensity, N: int) -> GridDensity:
    """The N-fold self-convolution of an even grid density.

    The pmf g.values * cell goes through a real FFT along u, a DCT-I along
    z (the FFT of the even full lattice, on its z >= 0 half), the N-th power
    of its spectrum by repeated squaring and the inverse transforms: log2(N)
    squarings, so rounding does not accumulate linearly in N.  Three
    passes: the forward transform along u of the rows that hold mass, the
    transforms along z and the power on column blocks that fit in cache,
    and one forward sweep over row blocks that inverts along u, rescales
    and clamps over the front of the spectrum's own buffer.  Before the
    clamp the result equals, to rounding, the z >= 0 half of `np.fft.rfftn`
    and `irfftn` on the whole even lattice.  One build holds one
    half-grid-sized mapping at a time (`_zeros`): the raster until the mass
    rows are transformed, then the (nz/2 + 1, nu/2 + 1) complex half
    spectrum, whose memory becomes the result.  Negative FFT ringing is
    clamped to zero; if the clamped mass exceeds 1e-9, or noticeable mass
    reaches the window boundary (wrap-around), the window is considered
    misconfigured and a coverage error is raised.  Both masses count each
    row by its fold weight, so they are the masses of the full lattice.
    """
    if N < 1:
        raise ParameterError("need N >= 1")
    n_rows, nu = g.values.shape
    if N == 1:
        return GridDensity(g.z_hi, g.u_hi, g.values.copy())
    z_hi, u_hi, cell = g.z_hi, g.u_hi, g.cell_volume
    rows, row_spectra = _mass_row_spectra(g.values, cell)
    # g is not modified.  LiftedGrid passes its raster as a temporary, which
    # CPython 3.11 hands to this frame, so dropping g unmaps the raster
    # before the spectrum is mapped.
    del g
    spectrum = _z_power(rows, row_spectra, n_rows, N)
    del row_spectra
    out, neg_mass = _inverse_rows(spectrum, nu, cell)
    if neg_mass > _NEG_MASS_TOL:
        raise CoverageError(
            f"negative convolution mass {neg_mass:.3e}: window or shape misconfigured"
        )

    # the full lattice's bands: its first and last band_z rows, which fold
    # onto the last band_z + 1 stored rows with the end rows once, and its
    # last band_u columns
    h = n_rows - 1
    band_z = max(1, 2 * h // 128)
    band_u = max(1, nu // 128)
    edge_mass = (
        float(_fold_weights(band_z + 1) @ out[h - band_z :].sum(axis=1))
        + float(_fold_weights(n_rows) @ out[:, -band_u:].sum(axis=1))
    ) * cell
    if edge_mass > _TRUNC_TOL:
        raise CoverageError(f"mass {edge_mass:.3e} reached the window boundary")
    return GridDensity(z_hi, u_hi, out)


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


def lifted_grid(f: BaseDensity, N: int, shape: tuple = DEFAULT_SHAPE, window: tuple = None) -> LiftedGrid:
    """A new N-fold lifted grid of f; 17 MB at the default shape: its values,
    the (1025, 2048) rows for z >= 0, are the front of the (1025, 1025)
    complex spectrum mapping they were computed in, which they keep mapped.

    Every grid of the package is built here and held only by its caller, so
    none outlives the call that asked for it.  The exact pipeline's memos,
    `conditioned._CURVES` and `_GAPS`, keep curves and gaps, never grids.
    """
    return LiftedGrid(f, N, shape=shape, window=window)


def log_z_prime_asymptotic(f: BaseDensity, N: int) -> float:
    """Leading-order log Z'_N(f) on the Boltzmann sphere of radius
    r = sqrt(dN), for any d (remainder not added).

        Z'_N = sqrt(2d)/(Sigma eps^{d/2}) * exp(-(dN - N E)^2 / (2 Sigma^2 N)).

    For the Gaussian (E = d, Sigma^2 = 2d, eps = 1) it is exactly 1.
    """
    if f.sigma2 <= 0.0:
        raise DegenerateVarianceError("energy fluctuation Sigma is zero (|v|^2 deterministic)")
    d = f.d
    val = 0.5 * math.log(2.0 * d) - 0.5 * math.log(f.sigma2) - 0.5 * d * math.log(f.eps)
    val += -((d * N - N * f.E) ** 2) / (2.0 * f.sigma2 * N)
    return val


def z_prime_asymptotic(f: BaseDensity, N: int) -> float:
    return math.exp(log_z_prime_asymptotic(f, N))


# Berry-Esseen gaps by (g.key, N, n_cells), so that zprime and berry-esseen
# share their lattices.  A gap is one float, and a process asks for a few
# dozen, so nothing is evicted.  Two pool threads that miss the same key
# both compute it, to the same bits.
_GAPS: dict = {}


def berry_esseen_sup(g: BaseDensity, N: int, n_cells: int = 1 << 18) -> float:
    """Sup-norm gap between the rescaled N-fold convolution power and the
    standard Gaussian, for a 1D density standardized to mean 0, variance 1.

    Builds g_N(x) = sqrt(N) g*^N(sqrt(N) x) on a lattice via spectral
    repeated squaring and evaluates the sup over the lattice.  n_cells must
    be even and at least 2, so that a node sits at the origin: on an odd
    lattice each convolution would shift the result by half a cell.  Each
    gap is computed once per process (`_GAPS`).
    """
    if g.d != 1:
        raise ParameterError("the Berry-Esseen pipeline is 1D")
    if abs(g.eps - 1.0) > 1e-9:
        raise ParameterError("g must be standardized to unit variance")
    if g.cdf is None:
        raise ParameterError("needs a CDF for exact cell masses")
    if N < 1:
        raise ParameterError("need N >= 1")
    if n_cells < 2 or n_cells % 2:
        raise ParameterError(f"n_cells must be even and at least 2, got {n_cells}")
    key = (g.key, N, n_cells)
    gap = _GAPS.get(key)
    if gap is None:
        gap = _GAPS[key] = _lattice_gap(g, N, n_cells)
    return gap


def _lattice_gap(g: BaseDensity, N: int, n_cells: int) -> float:
    """`berry_esseen_sup` computed on a new lattice."""
    vmax = g.tail_radius()
    half = max(12.0 * math.sqrt(N), 1.05 * vmax)
    if g.support_radius is not None:
        half = min(half, 1.0001 * N * g.support_radius)
        half = max(half, 1.05 * g.support_radius)
    dx = 2.0 * half / n_cells
    # few temporaries per lattice: the nodes, which become the Gaussian, and
    # the CDF edges, whose front becomes the pmf, are one buffer each
    x = np.arange(n_cells, dtype=float)
    x *= dx
    x += -half
    edges = np.empty(n_cells + 1)
    np.subtract(x, 0.5 * dx, out=edges[:-1])
    edges[-1] = half - 0.5 * dx
    cdf = g.cdf(edges)
    pmf = np.subtract(cdf[1:], cdf[:-1], out=edges[:-1])
    del cdf
    total = float(pmf.sum())
    if 1.0 - total > _TRUNC_TOL:
        raise CoverageError(f"window too small: mass deficit {1.0 - total:.3e}")
    pmf /= total
    g_n = _lattice_power(pmf, N)
    g_n *= math.sqrt(N)
    g_n /= dx
    gauss = x
    gauss /= math.sqrt(N)
    np.square(gauss, out=gauss)
    gauss *= -0.5
    np.exp(gauss, out=gauss)
    gauss /= math.sqrt(2.0 * math.pi)
    g_n -= gauss
    return float(np.max(np.abs(g_n, out=g_n)))
