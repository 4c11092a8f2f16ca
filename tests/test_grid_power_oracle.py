"""The spectral grid power against the plain full-grid FFT as the reference.

`ref_power` is the straightforward path: scale the whole raster to a pmf,
roll the lattice origin to row 0, `np.fft.rfftn`, raise the spectrum to the
n-th power by repeated squaring from a buffer of ones, `np.fft.irfftn` and
roll back.  `convolution_power` transforms only the rows that hold mass,
runs the z-transforms and the power on column blocks, which put the origin
back, and inverts along u in one forward sweep over row blocks that
rescales and clamps each block and writes it over the front of the
spectrum's own buffer.  Its values must equal the reference divided by the
cell volume and clamped at zero byte for byte, and the negative mass it
reports must equal the reference's to rounding.  Output row i ends
(i + 1)(2 ncol - nu) floats, 1 or 2 a row, before spectrum row i + 1
starts, so the sweep overwrites only rows it has read; the in-place tests
below run it on tall grids with few energy cells.
"""

"""The spectral grid power against two references: a plain DCT-I route on
the folded raster, byte for byte, and the full-grid FFT, to a stated
tolerance.

Every lifted grid is even in the momentum z and is held on its z >= 0 rows
(`GridDensity`).  `fold` turns a full-lattice raster P into those rows,
(P(z) + P(-z)) / 2, and `unfold` turns them back into the even full
lattice.

`ref_dct_power` is the straightforward route on the stored rows: scale them
to a pmf, `np.fft.rfft` along u and `scipy.fft.dct(type=1)` along z on the
whole array, the n-th power by repeated squaring from a buffer of ones, and
the inverses.  `convolution_power` transforms only the rows that hold mass,
runs the z-transforms and the power on column blocks, and inverts along u
in one forward sweep over row blocks that rescales and clamps each block
and writes it over the front of the spectrum's own buffer.  Its values
must equal the reference divided by the cell volume and clamped at zero
byte for byte, and the negative mass it reports must equal the reference's
over the full lattice to rounding.  Output row i ends (i + 1)(2 ncol - nu)
floats, 1 or 2 a row, before spectrum row i + 1 starts, so the sweep
overwrites only rows it has read; the in-place tests below run it on tall
grids with few energy cells.

`ref_power` is the full-grid route: roll the lattice origin to row 0,
`np.fft.rfftn`, the power, `np.fft.irfftn` and roll back.  On the same even
lattice the two routes differ by their rounding (`rounding_floor`); against
the raster before the fold, also by the fold's rounding carried through the
power (`fold_bound`).
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import boltzsphere as bs
from boltzsphere import lifted
from boltzsphere.densities import registry_names
from boltzsphere.lifted import LiftedGrid, default_window, rasterize_lifted

EPS = np.finfo(float).eps


def _ref_spectrum_power(spectrum, n):
    out = np.ones_like(spectrum)
    k = n
    while k:
        if k & 1:
            out = out * spectrum
        k >>= 1
        if k:
            spectrum = spectrum * spectrum
    return out


def fold(full):
    """The z >= 0 rows of the exactly even (P(z) + P(-z)) / 2.

    Row r of the full lattice is z = (r - nz/2) dz, and its mirror is row
    (nz - r) mod nz; the stored rows are z = 0 ... nz/2 dz, the last being
    the Nyquist row 0.
    """
    nz = full.shape[0]
    h = nz // 2
    sym = (full + full[(nz - np.arange(nz)) % nz]) / 2
    assert sym.tobytes() == sym[(nz - np.arange(nz)) % nz].tobytes()
    return np.concatenate([sym[h:], sym[:1]])


def unfold(half):
    """The even full lattice, row r at z = (r - nz/2) dz, from its z >= 0 rows."""
    h = half.shape[0] - 1
    return half[np.abs(np.arange(2 * h) - h)]


def ref_power(values, cell, n):
    half = values.shape[0] // 2
    pmf = np.roll(values * cell, -half, axis=0)
    spectrum = _ref_spectrum_power(np.fft.rfftn(pmf), n)
    return np.roll(np.fft.irfftn(spectrum, s=pmf.shape, axes=(0, 1)), half, axis=0)


def ref_dct_power(half, cell, n):
    spectrum = scipy.fft.dct(np.fft.rfft(half * cell, axis=1), type=1, axis=0)
    spectrum = scipy.fft.idct(_ref_spectrum_power(spectrum, n), type=1, axis=0)
    return np.fft.irfft(spectrum, n=half.shape[1], axis=1)


def ref_clamped(half, cell, n):
    """The DCT-I reference density, clamped at zero, and the negative mass
    the clamp removed from the full lattice."""
    ref = ref_dct_power(half, cell, n)
    full = unfold(ref)
    neg_mass = -float(full[full < 0.0].sum())
    ref /= cell
    return np.maximum(ref, 0.0, out=ref), neg_mass


def rounding_floor(full_pmf, n):
    """How far two FFT routes to the n-th power may differ, in pmf units.

    The result is mean_m S_m^n e^(...) over the M coefficients, so
    A = mean_m |S_m|^n bounds it.  A transform rounds each coefficient by
    about log2(M) eps relative and the n-th power multiplies that by n, so
    two routes differ by about (n + log2 M) eps A.  Over 600 random even
    rasters (n up to 300) and the registry grids the DCT-I and full-grid
    routes differed by at most 0.96 of that; 4 is the margin.
    """
    M = full_pmf.size
    A = float(np.mean(np.abs(np.fft.fftn(full_pmf)) ** n))
    return 4.0 * (n + math.log2(max(M, 2))) * EPS * A


def fold_bound(full, cell, n):
    """The fold's rounding carried through the n-th power, in pmf units.

    With P the raster, Q its fold and E = Q - P, Q^n - P^n is the sum over
    j < n of Q^j * E * P^(n-1-j).  By Young's inequality each term is at
    most ||E||_1 max(||P||_inf, ||Q||_inf), since P and Q are nonnegative
    with mass at most 1, so |Q^n - P^n| <= n ||E||_1 max(||P||_inf, ||Q||_inf).
    """
    even = unfold(fold(full))
    return n * float(np.abs(even - full).sum() * cell) * float(max(full.max(), even.max()) * cell)


def ref_raster(f, window, shape):
    """The full-lattice deposit of the lifted law: every subinterval splat
    bilinearly into a zeroed (nz, nu) grid, then divided by the cell volume."""
    z_half, u_hi = window
    nz, nu = shape
    dz, du = 2.0 * z_half / nz, u_hi / nu
    values = np.zeros(shape)
    vmax = min(z_half, math.sqrt(u_hi))
    n_sub = min(max(lifted._OVERSAMPLE * int(2 * vmax / dz) + 1, 64), 4_000_000)
    edges = np.linspace(-vmax, vmax, n_sub + 1)
    masses = np.diff(f.cdf(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])
    fz = (mids + z_half) / dz
    fu = (mids * mids) / du
    iz = np.floor(fz).astype(np.int64)
    iu = np.floor(fu).astype(np.int64)
    tz, tu = fz - iz, fu - iu
    ok = (iz >= 0) & (iz < nz - 1) & (iu >= 0) & (iu < nu - 1)
    m, iz, iu, tz, tu = masses[ok], iz[ok], iu[ok], tz[ok], tu[ok]
    np.add.at(values, (iz, iu), m * (1 - tz) * (1 - tu))
    np.add.at(values, (iz, iu + 1), m * (1 - tz) * tu)
    np.add.at(values, (iz + 1, iu), m * tz * (1 - tu))
    np.add.at(values, (iz + 1, iu + 1), m * tz * tu)
    values /= dz * du
    return values, float(m.sum())


def new_power(half, cell, n):
    rows, row_spectra = lifted._mass_row_spectra(half, cell)
    spectrum = lifted._z_power(rows, row_spectra, half.shape[0], n)
    return lifted._inverse_rows(spectrum, half.shape[1], cell)


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_matches_reference(got, half, cell, n):
    got_values, got_neg = got
    want_values, want_neg = ref_clamped(half, cell, n)
    assert_same_bytes(got_values, want_values)
    assert got_neg == pytest.approx(want_neg, rel=1e-12, abs=0.0)


def assert_close_to_the_full_fft(got_values, full, cell, n, tol):
    want = np.maximum(ref_power(full, cell, n), 0.0)
    assert np.max(np.abs(unfold(got_values) * cell - want)) <= tol


def _raster(shape, rows, seed=0):
    """Random mass on the given rows, and the cell volume that makes it a pmf."""
    values = np.zeros(shape)
    gen = np.random.default_rng(seed)
    for r in rows:
        values[r] = gen.random(shape[1]) * (gen.random(shape[1]) < 0.7)
    total = values.sum()
    return values, 1.0 / total if total > 0.0 else 1.0


def _check_folded(values, cell, n):
    """The new path on the fold of a full raster: byte for byte the DCT-I
    reference, and the full-grid FFT of the even lattice to its rounding."""
    half = fold(values)
    got = new_power(half, cell, n)
    assert_matches_reference(got, half, cell, n)
    even = unfold(half)
    assert_close_to_the_full_fft(got[0], even, cell, n, rounding_floor(even * cell, n))


@pytest.mark.parametrize("shape, rows", [
    ((64, 40), [0]),
    ((64, 40), [63]),
    ((64, 40), [31, 32]),
    ((64, 40), [0, 31, 32, 63]),
    ((64, 40), [5, 6, 7, 40, 41]),
    ((64, 40), []),
    ((64, 40), range(64)),
    ((2, 8), [0]),
    ((2, 8), [1]),
    ((2, 8), [0, 1]),
    ((2, 1), [0, 1]),
    ((16, 33), [3, 12]),
    ((128, 6), [64, 100]),
])
@pytest.mark.parametrize("n", [2, 3, 7, 64, 255])
@pytest.mark.parametrize("width", [None, 1, 3])
def test_pruned_power_matches_the_full_fft(monkeypatch, shape, rows, n, width):
    if width is not None:  # several column blocks on a small grid
        monkeypatch.setattr(lifted, "_BLOCK_BYTES", 16 * (shape[0] // 2 + 1) * width)
    values, cell = _raster(shape, rows)
    _check_folded(values, cell, n)


def test_zero_raster_gives_zeros():
    out, neg_mass = new_power(np.zeros((5, 10)), 1.0, 5)
    assert_same_bytes(out, ref_clamped(np.zeros((5, 10)), 1.0, 5)[0])
    assert not out.any() and neg_mass == 0.0


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 40),
    nu=st.integers(1, 48),
    row_bits=st.integers(0, 2**80 - 1),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 30),
)
def test_random_sparse_rasters(half, nu, row_bits, n, seed, width):
    nz = 2 * half
    rows = [r for r in range(nz) if row_bits >> r & 1]
    values, cell = _raster((nz, nu), rows, seed)
    saved = lifted._BLOCK_BYTES
    lifted._BLOCK_BYTES = 16 * (half + 1) * width
    try:
        _check_folded(values, cell, n)
    finally:
        lifted._BLOCK_BYTES = saved


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("N", [2, 7, 64])
def test_lifted_grid_matches_the_full_fft(name, N):
    # byte for byte the DCT-I reference on the folded raster; the full-grid
    # FFT of the raster before the fold to the fold's rounding, carried
    # through the power, plus the two routes' own rounding
    f = bs.get_density(name, 1)
    shape = (256, 384)
    window = default_window(f, N)
    raster = rasterize_lifted(f, window=window, shape=shape)
    cell = raster.cell_volume
    got = LiftedGrid(f, N, shape=shape).power
    assert_same_bytes(got.values, ref_clamped(raster.values, cell, N)[0])
    assert (got.z_hi, got.u_hi) == (raster.z_hi, raster.u_hi)
    full, _ = ref_raster(f, window, shape)
    tol = fold_bound(full, cell, N) + rounding_floor(full * cell, N)
    assert_close_to_the_full_fft(got.values, full, cell, N, tol)


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("shape, N", [((256, 384), 7), ((2048, 2048), 255)])
def test_folded_raster_is_exactly_even_and_conserves_mass(name, shape, N):
    # the z >= 0 rows are the exactly even fold of the full-lattice deposit,
    # and their fold-weighted mass is the mass the deposit put on the grid
    f = bs.get_density(name, 1)
    window = default_window(f, N)
    raster = rasterize_lifted(f, window=window, shape=shape)
    full, deposited = ref_raster(f, window, shape)
    assert_same_bytes(raster.values, fold(full))
    assert raster.fold_weights().tolist() == [1.0] + [2.0] * (shape[0] // 2 - 1) + [1.0]
    assert raster.mass == pytest.approx(float(full.sum()) * raster.cell_volume, rel=1e-13)
    assert raster.mass == pytest.approx(deposited, rel=1e-13)


@pytest.mark.parametrize("name", registry_names())
def test_interp_log_is_even_in_z(name):
    f = bs.get_density(name, 1)
    g = LiftedGrid(f, 7, shape=(256, 384)).power
    gen = np.random.default_rng(5)
    z = g.z_hi * gen.random(4000)
    u = g.du * (g.values.shape[1] - 1) * gen.random(4000)
    z = np.concatenate([z, g.z_nodes(), [0.0, g.z_hi]])
    u = np.concatenate([u, np.full(g.values.shape[0] + 2, 7.0)])
    got = g.interp_log(z, u)
    assert np.isfinite(got).sum() > 1000
    assert g.interp_log(-z, u).tobytes() == got.tobytes()
    assert g.interp_log(-0.3, 7.0) == g.interp_log(0.3, 7.0)


@pytest.mark.parametrize("N", [1, 2, 5, 64])
def test_berry_esseen_lattice_matches_the_full_fft(N):
    gen = np.random.default_rng(N)
    pmf = gen.random(1000)
    pmf /= pmf.sum()
    half = pmf.size // 2
    spectrum = _ref_spectrum_power(np.fft.rfftn(np.roll(pmf, -half)), N)
    want = np.roll(np.fft.irfftn(spectrum, s=pmf.shape, axes=(0,)), half)
    assert_same_bytes(lifted._lattice_power(pmf.copy(), N), want)


def test_default_build_holds_at_most_two_grids():
    # the folded raster and the half spectrum are each half a (2048, 2048)
    # grid and the raster is freed before the power, so a build stays
    # under one full grid
    f = bs.get_density("uniform", 1)
    grid_bytes = 2048 * 2048 * 8
    tracemalloc.start()
    try:
        LiftedGrid(f, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * grid_bytes


@pytest.mark.parametrize("shape", [(256, 2), (512, 6), (64, 1), (2048, 3)])
@pytest.mark.parametrize("n", [2, 7, 255])
@pytest.mark.parametrize("block_bytes", [None, 16, 24])
def test_in_place_inverse_over_a_long_overwrite_lag(monkeypatch, shape, n, block_bytes):
    # the forward sweep writes output row i over the floats of spectrum
    # rows from i nu / (2 ncol) on, a lag of i / 2 rows at nu = 1 and 2 and
    # i / 4 at nu = 3 and 6; the default block holds the whole grid, the
    # small ones two or three rows
    nz, nu = shape
    if block_bytes is not None:  # one column per z block, a few rows per irfft block
        monkeypatch.setattr(lifted, "_BLOCK_BYTES", block_bytes * nu)
    values, cell = _raster(shape, [0, 1, nz // 4, nz // 2 - 1, nz // 2, nz - 1])
    half = fold(values)
    rows, row_spectra = lifted._mass_row_spectra(half, cell)
    spectrum = lifted._z_power(rows, row_spectra, half.shape[0], n)
    got = lifted._inverse_rows(spectrum, nu, cell)
    assert np.shares_memory(got[0], spectrum)
    assert got[0].flags.c_contiguous and got[0].flags.writeable
    assert_matches_reference(got, half, cell, n)


def test_lifted_grid_values_are_a_plain_writeable_grid():
    f = bs.get_density("uniform", 1)
    values = LiftedGrid(f, 7, shape=(128, 96)).power.values
    assert values.shape == (65, 96) and values.dtype == np.float64
    assert values.flags.c_contiguous and values.flags.writeable


@pytest.mark.parametrize("block_bytes", [None, 8 * 96 * 5])
def test_negative_mass_check_sees_every_row_block(monkeypatch, block_bytes):
    # the negative ringing is summed block by block and row by row with the
    # fold weights; at a tolerance of half the reference's negative mass
    # over the full lattice the build must fail, at twice it pass.  The
    # ringing is rounding, so the reference is the route with the same
    # rounding, the DCT-I one; the rfftn route rings differently here
    # (0.34 times as much on the DCT-I side)
    if block_bytes is not None:
        monkeypatch.setattr(lifted, "_BLOCK_BYTES", block_bytes)
    f = bs.get_density("uniform", 1)
    shape, N = (128, 96), 7
    raster = rasterize_lifted(f, window=default_window(f, N), shape=shape)
    neg_mass = ref_clamped(raster.values, raster.cell_volume, N)[1]
    assert neg_mass > 0.0
    monkeypatch.setattr(lifted, "_NEG_MASS_TOL", 2.0 * neg_mass)
    LiftedGrid(f, N, shape=shape)
    monkeypatch.setattr(lifted, "_NEG_MASS_TOL", 0.5 * neg_mass)
    with pytest.raises(bs.CoverageError, match="negative convolution mass"):
        LiftedGrid(f, N, shape=shape)


@pytest.mark.parametrize("name", ["mixture", "uniform"])
def test_edge_mass_check_counts_the_full_lattice(monkeypatch, name):
    # at N = 16 in a window set for N = 8, mass reaches the bands of the
    # full lattice: its first and last nz // 128 rows (2 here, which fold
    # onto 3 stored rows) and its last nu // 128 columns; mostly the rows
    # for the mixture, mostly the columns for the box.  The check must fire
    # just below that mass and hold just above it.
    f = bs.get_density(name, 1)
    shape, N = (256, 200), 16
    window = default_window(f, 8)
    raster = rasterize_lifted(f, window=window, shape=shape)
    full = unfold(ref_clamped(raster.values, raster.cell_volume, N)[0])
    band_z, band_u = max(1, shape[0] // 128), max(1, shape[1] // 128)
    edge = float(full[:band_z].sum() + full[-band_z:].sum() + full[:, -band_u:].sum())
    edge *= raster.cell_volume
    assert edge > 1e-6
    monkeypatch.setattr(lifted, "_TRUNC_TOL", edge * (1.0 + 1e-9))
    LiftedGrid(f, N, shape=shape, window=window)
    monkeypatch.setattr(lifted, "_TRUNC_TOL", edge * (1.0 - 1e-9))
    with pytest.raises(bs.CoverageError, match="reached the window boundary"):
        LiftedGrid(f, N, shape=shape, window=window)


@pytest.mark.parametrize("N", [7, 255, 511])
def test_default_build_holds_one_grid_sized_buffer_at_a_time(N):
    # the raster is deposited into the rows that hold mass and folded into
    # half a grid, freed before the power; the inverse reuses the half
    # spectrum's buffer, and no step copies half of it
    f = bs.get_density("uniform", 1)
    grid_bytes = 2048 * 2048 * 8
    tracemalloc.start()
    try:
        LiftedGrid(f, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * grid_bytes
