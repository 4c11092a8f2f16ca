import math

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere.lifted import (
    berry_esseen_sup,
    convolution_power,
    default_window,
    lifted_grid,
    rasterize_lifted,
    z_prime_asymptotic,
)

GAUSS = bs.get_density("gaussian", 1)
UNIF = bs.get_density("uniform", 1)
MIX = bs.get_density("mixture", 1)


def _z_prime(f, N):
    """Grid-exact Z'_N(f; sqrt(N), 0) at the default shape."""
    return math.exp(lifted_grid(f, N).log_z_prime(math.sqrt(N), 0.0))


def lifted_moment_check(f, k, rtol=0.01):
    """The k-th radial moment (k even) of the rasterized lift against
    E[(v^2 + v^4)^{k/2}], expanded in f's even moments: the lift
    coordinates are (v, v^2)."""
    got = rasterize_lifted(f).radial_moment(k)
    want = sum(math.comb(k // 2, j) * f.moment(k + 2 * j) for j in range(k // 2 + 1))
    return abs(got - want) <= rtol * abs(want)


class TestRaster:
    def test_mass_conserved(self):
        for f in (GAUSS, UNIF, MIX):
            grid = rasterize_lifted(f)
            assert grid.mass == pytest.approx(1.0, abs=1e-6)

    def test_momentum_marginal_matches_gaussian(self):
        grid = rasterize_lifted(GAUSS)
        marg = grid.momentum_marginal()
        z = grid.z_nodes()
        gauss = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        # the L1 distance over the full line: each stored row but z = 0 and
        # the Nyquist row stands for +-z
        l1 = float(np.sum(grid.fold_weights() * np.abs(marg - gauss)) * grid.dz)
        assert l1 <= 1e-4

    def test_energy_mean_is_second_moment(self):
        for f in (GAUSS, UNIF):
            grid = rasterize_lifted(f)
            assert grid.energy_mean() == pytest.approx(f.E, abs=1e-4)

    def test_window_too_small_raises(self):
        with pytest.raises(bs.CoverageError):
            rasterize_lifted(GAUSS, window=(2.0, 4.0))

    def test_needs_1d(self):
        with pytest.raises(bs.ParameterError):
            rasterize_lifted(bs.get_density("gaussian", 2))


class TestConvolutionPower:
    def test_identity_at_one(self):
        grid = rasterize_lifted(UNIF)
        out = convolution_power(grid, 1)
        assert np.array_equal(out.values, grid.values)

    def test_mass_preserved_through_powers(self):
        for N in (2, 16, 128):
            grid = rasterize_lifted(GAUSS, window=default_window(GAUSS, N))
            out = convolution_power(grid, N)
            assert out.mass == pytest.approx(1.0, abs=1e-5)

    def test_gaussian_momentum_closure(self):
        # the momentum marginal of the N-fold power of the lifted Gaussian
        # is exactly N(0, N)
        N = 16
        grid = rasterize_lifted(GAUSS, window=default_window(GAUSS, N))
        out = convolution_power(grid, N)
        marg = out.momentum_marginal()
        z = out.z_nodes()
        want = np.exp(-0.5 * z * z / N) / math.sqrt(2.0 * math.pi * N)
        assert float(np.max(np.abs(marg - want))) <= 1e-3

    def test_wrapped_window_raises(self):
        grid = rasterize_lifted(UNIF, window=(6.0, 4.0))
        with pytest.raises(bs.CoverageError):
            convolution_power(grid, 64)


class TestZPrime:
    def test_gaussian_pipeline_oracle_small(self):
        for N in (8, 32):
            assert _z_prime(GAUSS, N) == pytest.approx(1.0, abs=0.02)

    def test_gaussian_off_center(self):
        # Z'_N(gaussian; r, z) = 1 for every in-support (r, z)
        grid = lifted_grid(GAUSS, 16)
        for r, z in ((math.sqrt(14.0), 0.5), (math.sqrt(18.0), -1.0)):
            assert math.exp(grid.log_z_prime(r, z)) == pytest.approx(1.0, abs=0.02)

    def test_empty_sphere_raises(self):
        grid = lifted_grid(GAUSS, 8)
        with pytest.raises(bs.SupportError):
            grid.log_z_prime(0.5, 4.0)

    def test_query_outside_window_raises(self):
        grid = lifted_grid(GAUSS, 8)
        with pytest.raises(bs.CoverageError):
            grid.log_z_prime(100.0, 0.0)

    def test_asymptotic_values(self):
        for d in (1, 2, 3):
            g = bs.get_density("gaussian", d)
            assert z_prime_asymptotic(g, 50) == pytest.approx(1.0, rel=1e-12)
        assert z_prime_asymptotic(UNIF, 128) == pytest.approx(math.sqrt(10.0) / 2.0, rel=1e-12)

    def test_asymptotic_degenerate_variance(self):
        frozen = bs.BaseDensity(
            name="shell", d=1, log_density=GAUSS.log_density, score=GAUSS.score,
            sampler=GAUSS.sampler, moment=GAUSS.moment, E=1.0, sigma2=0.0,
        )
        with pytest.raises(bs.DegenerateVarianceError):
            z_prime_asymptotic(frozen, 16)

    def test_exact_approaches_asymptotic(self):
        rows = []
        for N in (16, 32, 64):
            gap = abs(_z_prime(UNIF, N) - z_prime_asymptotic(UNIF, N))
            rows.append((N, gap, 0.0))
        rep = bs.fit_loglog(rows)
        assert rep.slope <= -0.35


class TestBerryEsseen:
    def test_gaussian_fixed_point(self):
        assert berry_esseen_sup(GAUSS, 4) <= 1e-6

    def test_uniform_single_factor(self):
        # sup attained just inside the support edge:
        # 1/(2 sqrt 3) - gaussian(sqrt 3) = 0.19966
        assert berry_esseen_sup(UNIF, 1) == pytest.approx(0.19966, abs=5e-4)

    def test_uniform_decay_under_calibrated_bound(self):
        vals = {N: berry_esseen_sup(UNIF, N) for N in (2, 4, 16, 64)}
        c = vals[2] * math.sqrt(2.0)
        for N, v in vals.items():
            assert v <= c / math.sqrt(N) * 1.5
        rep = bs.fit_loglog([(N, v, 0.0) for N, v in vals.items()])
        assert rep.slope <= -0.45

    def test_rejects_unstandardized(self):
        with pytest.raises(bs.ParameterError):
            berry_esseen_sup(bs.gaussian_density(1, 4.0), 2)

    @pytest.mark.parametrize("cells", [-2, 0, 1, 1001, (1 << 18) + 1])
    def test_rejects_odd_or_tiny_lattices(self, cells):
        # on an odd lattice no node sits at the origin: at N = 64 1001 cells
        # read 0.174 against 0.0021 at 1000
        with pytest.raises(bs.ParameterError, match="n_cells must be even"):
            berry_esseen_sup(UNIF, 64, n_cells=cells)

    def test_smallest_even_lattice_runs(self):
        assert math.isfinite(berry_esseen_sup(UNIF, 2, n_cells=2))


class TestLiftedMoments:
    def test_mass(self):
        assert lifted_moment_check(GAUSS, 0)
        assert lifted_moment_check(UNIF, 0)

    def test_second_moment_gaussian(self):
        # E[v^2 + v^4] = 1 + 3 = 4
        assert lifted_moment_check(GAUSS, 2)

    def test_second_moment_uniform(self):
        # 1 + 9/5 = 2.8
        assert lifted_moment_check(UNIF, 2)

    def test_raster_moment_value(self):
        grid = rasterize_lifted(UNIF)
        assert grid.radial_moment(2) == pytest.approx(2.8, rel=0.01)

