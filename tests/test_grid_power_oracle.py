"""The spectral grid power against the plain full-grid FFT as the reference.

`ref_power` is the straightforward path: scale the whole raster to a pmf,
roll the lattice origin to row 0, `np.fft.rfftn`, raise the spectrum to the
n-th power by repeated squaring from a buffer of ones, `np.fft.irfftn` and
roll back.  `convolution_power` transforms only the rows that hold mass,
runs the z-transforms and the power on column blocks and writes the inverse,
row halves swapped, over the front of the spectrum's own buffer; it must
reproduce the reference byte for byte.  Output row i lies at or before the
floats of spectrum row i, and the first output rows of the second half
cover spectrum rows below nz/2 that are not yet transformed: a few rows at
the default shape, many on tall grids with few energy cells, which the
in-place tests below exercise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boltzsphere as bs
from boltzsphere import lifted
from boltzsphere.densities import registry_names
from boltzsphere.lifted import LiftedGrid, default_window, rasterize_lifted


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


def ref_power(values, cell, n):
    half = values.shape[0] // 2
    pmf = np.roll(values * cell, -half, axis=0)
    spectrum = _ref_spectrum_power(np.fft.rfftn(pmf), n)
    return np.roll(np.fft.irfftn(spectrum, s=pmf.shape, axes=(0, 1)), half, axis=0)


def new_power(values, cell, n):
    rows, row_spectra = lifted._mass_row_spectra(values, cell)
    spectrum = lifted._z_power(rows, row_spectra, values.shape[0], n)
    return lifted._unrolled_irfft(spectrum, values.shape[1])


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _raster(shape, rows, seed=0):
    """Random mass on the given rows, and the cell volume that makes it a pmf."""
    values = np.zeros(shape)
    gen = np.random.default_rng(seed)
    for r in rows:
        values[r] = gen.random(shape[1]) * (gen.random(shape[1]) < 0.7)
    total = values.sum()
    return values, 1.0 / total if total > 0.0 else 1.0


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
        monkeypatch.setattr(lifted, "_BLOCK_BYTES", 16 * shape[0] * width)
    values, cell = _raster(shape, rows)
    assert_same_bytes(new_power(values, cell, n), ref_power(values, cell, n))


def test_zero_raster_gives_zeros():
    out = new_power(np.zeros((8, 10)), 1.0, 5)
    assert_same_bytes(out, ref_power(np.zeros((8, 10)), 1.0, 5))
    assert not out.any()


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
    lifted._BLOCK_BYTES = 16 * nz * width
    try:
        got = new_power(values, cell, n)
    finally:
        lifted._BLOCK_BYTES = saved
    assert_same_bytes(got, ref_power(values, cell, n))


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("N", [2, 7, 64])
def test_lifted_grid_matches_the_full_fft(name, N):
    f = bs.get_density(name, 1)
    shape = (256, 384)
    window = default_window(f, N)
    raster = rasterize_lifted(f, window=window, shape=shape)
    cell = raster.cell_volume
    want = ref_power(raster.values, cell, N) / cell
    np.maximum(want, 0.0, out=want)
    got = LiftedGrid(f, N, shape=shape).power
    assert_same_bytes(got.values, want)
    assert (got.z_lo, got.z_hi, got.u_hi) == (raster.z_lo, raster.z_hi, raster.u_hi)


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
    # the raster is freed before the power, and the power and the inverse
    # each hold one spectrum and at most one more grid-sized buffer
    f = bs.get_density("uniform", 1)
    grid_bytes = 2048 * 2048 * 8
    tracemalloc.start()
    try:
        LiftedGrid(f, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * grid_bytes


@pytest.mark.parametrize("shape", [(256, 2), (512, 6), (64, 1), (2048, 3)])
@pytest.mark.parametrize("n", [2, 7, 255])
@pytest.mark.parametrize("block_bytes", [None, 16, 24])
def test_in_place_inverse_over_a_long_overwrite_lag(monkeypatch, shape, n, block_bytes):
    # at nu = 1 and 2 the first second-half output row covers the floats of
    # spectrum rows from nz/4 on, at nu = 3 and 6 those from 3 nz/8 on
    nz, nu = shape
    if block_bytes is not None:  # one column per z block, a few rows per irfft block
        monkeypatch.setattr(lifted, "_BLOCK_BYTES", block_bytes * nu)
    values, cell = _raster(shape, [0, 1, nz // 4, nz // 2 - 1, nz // 2, nz - 1])
    rows, row_spectra = lifted._mass_row_spectra(values, cell)
    spectrum = lifted._z_power(rows, row_spectra, nz, n)
    got = lifted._unrolled_irfft(spectrum, nu)
    assert np.shares_memory(got, spectrum)
    assert got.flags.c_contiguous and got.flags.writeable
    assert_same_bytes(got, ref_power(values, cell, n))


def test_lifted_grid_values_are_a_plain_writeable_grid():
    f = bs.get_density("uniform", 1)
    values = LiftedGrid(f, 7, shape=(128, 96)).power.values
    assert values.shape == (128, 96) and values.dtype == np.float64
    assert values.flags.c_contiguous and values.flags.writeable


@pytest.mark.parametrize("block_bytes", [None, 8 * 96 * 5])
def test_negative_mass_check_sees_every_row_block(monkeypatch, block_bytes):
    # the negative ringing is summed block by block; at a tolerance of half
    # the reference's negative mass the build must fail, at twice it pass
    if block_bytes is not None:
        monkeypatch.setattr(lifted, "_BLOCK_BYTES", block_bytes)
    f = bs.get_density("uniform", 1)
    shape, N = (128, 96), 7
    raster = rasterize_lifted(f, window=default_window(f, N), shape=shape)
    cell = raster.cell_volume
    ref = ref_power(raster.values, cell, N)
    neg_mass = -float(ref[ref < 0.0].sum())
    assert neg_mass > 0.0
    monkeypatch.setattr(lifted, "_NEG_MASS_TOL", 2.0 * neg_mass)
    LiftedGrid(f, N, shape=shape)
    monkeypatch.setattr(lifted, "_NEG_MASS_TOL", 0.5 * neg_mass)
    with pytest.raises(bs.CoverageError, match="negative convolution mass"):
        LiftedGrid(f, N, shape=shape)


@pytest.mark.parametrize("N", [7, 255, 511])
def test_default_build_holds_one_grid_sized_buffer_at_a_time(N):
    # the raster is freed before the power, the inverse reuses the
    # spectrum's buffer, and no step copies half a grid
    f = bs.get_density("uniform", 1)
    grid_bytes = 2048 * 2048 * 8
    tracemalloc.start()
    try:
        LiftedGrid(f, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid_bytes
