import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import boltzsphere as bs
from boltzsphere.uniform import (
    UniformMarginal,
    coordinate_marginal,
    l1_chaos_gap,
    marginal_density,
    marginal_moment,
    moment_bound,
    sample_uniform_batch,
)


def marginal(d, N, ell=1):
    return UniformMarginal(bs.SphereSpec.boltzmann(d, N), ell)


class TestMarginalDensity:
    def test_four_particles_is_flat(self):
        # d(N-l-1)-2 = 0: the one-particle law is uniform on (-sqrt3, sqrt3)
        m = marginal(1, 4)
        want = 1.0 / (2.0 * math.sqrt(3.0))
        assert marginal_density(m, np.array([0.0])) == pytest.approx(want, abs=1e-15)
        assert marginal_density(m, np.array([1.7])) == pytest.approx(want, abs=1e-15)

    def test_outside_support_vanishes(self):
        assert marginal_density(marginal(1, 4), np.array([2.0])) == 0.0

    @pytest.mark.parametrize("N", [4, 10, 50])
    def test_normalization_by_quadrature(self, N):
        m = marginal(1, N)
        vmax = math.sqrt(N - 1)
        val, _ = integrate.quad(
            lambda v: marginal_density(m, np.array([v])), -vmax, vmax, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_two_particle_marginal_normalization(self):
        # In Helmert coordinates a = (x+y)/sqrt2, b = (x-y)/sqrt2 the d = 1,
        # N = 6 pair marginal depends only on 6 - 1.5 a^2 - b^2.  With
        # a = rho cos(t)/sqrt1.5, b = rho sin(t) the integral over the plane
        # is (2 pi/sqrt1.5) int_0^sqrt6 h(6 - rho^2) rho drho along any ray t.
        m = marginal(1, 6, ell=2)

        def ray(rho, t):
            a, b = rho * math.cos(t) / math.sqrt(1.5), rho * math.sin(t)
            return np.column_stack([(a + b) / math.sqrt(2.0), (a - b) / math.sqrt(2.0)])

        rho = np.linspace(0.0, math.sqrt(6.0), 41)[:-1]
        on_axis = marginal_density(m, ray(rho, 0.0))
        for t in (0.0, 0.7, 2.0, 4.5):
            assert marginal_density(m, ray(rho, t)) == pytest.approx(on_axis, rel=1e-12)
            val, _ = integrate.quad(
                lambda r: float(marginal_density(m, ray(np.array([r]), t))) * r,
                0.0, math.sqrt(6.0), epsabs=1e-10,
            )
            assert 2.0 * math.pi / math.sqrt(1.5) * val == pytest.approx(1.0, abs=1e-5)

    def test_order_validation(self):
        spec = bs.SphereSpec.boltzmann(1, 4)
        with pytest.raises(bs.ParameterError):
            UniformMarginal(spec, 4)
        with pytest.raises(bs.ParameterError):
            UniformMarginal(spec, 0)
        with pytest.raises(bs.ParameterError):
            UniformMarginal(spec, 3)  # not absolutely continuous for d = 1


class TestSampler:
    def test_constraints(self):
        spec = bs.SphereSpec.boltzmann(2, 12)
        batch = sample_uniform_batch(spec, 500, 3)
        tol = spec.constraint_tolerance()
        parts = batch.reshape(500, 12, 2)
        assert np.max(np.abs(parts.sum(axis=1))) <= tol
        assert np.max(np.abs((batch * batch).sum(axis=1) - 24.0)) <= tol

    def test_single_particle_energy(self):
        spec = bs.SphereSpec.boltzmann(2, 8)
        batch = sample_uniform_batch(spec, 100_000, 4).reshape(-1, 8, 2)
        e1 = np.sum(batch[:, 0, :] ** 2, axis=1)
        stderr = e1.std() / math.sqrt(e1.size)
        assert abs(e1.mean() - 2.0) <= 3.0 * stderr

    def test_flat_marginal_ks(self):
        # N=4, d=1: the one-particle pushforward is uniform on (-sqrt3, sqrt3)
        spec = bs.SphereSpec.boltzmann(1, 4)
        v1 = sample_uniform_batch(spec, 100_000, 5)[:, 0]
        res = stats.kstest(v1, stats.uniform(loc=-math.sqrt(3), scale=2 * math.sqrt(3)).cdf)
        assert res.pvalue > 0.01

    def test_marginal_ks_general_n(self):
        spec = bs.SphereSpec.boltzmann(1, 9)
        v1 = sample_uniform_batch(spec, 50_000, 6)[:, 0]
        m = marginal(1, 9)
        grid = np.linspace(-math.sqrt(8), math.sqrt(8), 4001)
        dens = marginal_density(m, grid[:, None])
        cdf_vals = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
        res = stats.kstest(v1, lambda x: np.interp(x, grid, cdf_vals))
        assert res.pvalue > 0.01

    def test_deterministic_given_seed(self):
        spec = bs.SphereSpec.boltzmann(1, 5)
        a = sample_uniform_batch(spec, 10, 42)
        b = sample_uniform_batch(spec, 10, 42)
        assert np.array_equal(a, b)

    def test_numpy_integer_seed_is_the_int_seed(self):
        spec = bs.SphereSpec.boltzmann(2, 6)
        a = sample_uniform_batch(spec, 3, np.int64(42))
        assert np.array_equal(a, sample_uniform_batch(spec, 3, 42))

    @pytest.mark.parametrize("seed", ["abc", 42.0, None])
    def test_rejects_a_seed_that_is_neither_integer_nor_generator(self, seed):
        with pytest.raises(bs.ParameterError, match="rng_seed"):
            bs.sample_uniform(bs.SphereSpec.boltzmann(2, 6), seed)

    @pytest.mark.parametrize("seed", [True, False, np.True_, np.bool_(False)])
    def test_rejects_a_bool_seed(self, seed):
        # bool subclasses int, but True is not a spelling of seed 1
        spec = bs.SphereSpec.boltzmann(2, 6)
        with pytest.raises(bs.ParameterError, match="rng_seed"):
            bs.sample_uniform(spec, seed)
        with pytest.raises(bs.ParameterError, match="rng_seed"):
            bs.sample_conditioned_batch(bs.ConditionedLaw(bs.get_density("uniform", 2), spec), seed, 2)
        # integer and Generator seeds keep their streams
        assert np.array_equal(bs.sample_uniform(spec, 1), bs.sample_uniform(spec, bs.stream(1, "uniform")))


class TestMoments:
    def test_fourth_moment_flat_case(self):
        # uniform on (-sqrt3, sqrt3): integral v^4 / (2 sqrt3) = 9/5
        assert marginal_moment(marginal(1, 4), 4) == pytest.approx(9.0 / 5.0, rel=1e-9)

    def test_component_mean_vanishes_by_symmetry(self):
        m = marginal(1, 7)
        vmax = math.sqrt(6.0)
        val, _ = integrate.quad(
            lambda v: v * marginal_density(m, np.array([v])), -vmax, vmax, limit=200
        )
        assert abs(val) <= 1e-12

    def test_two_particle_moment_matches_mc(self):
        m = marginal(1, 8, ell=2)
        got = marginal_moment(m, 2)
        batch = sample_uniform_batch(bs.SphereSpec.boltzmann(1, 8), 200_000, 7)
        mc = float(np.mean(np.sum(batch[:, :2] ** 2, axis=1)))
        assert got == pytest.approx(mc, rel=0.01)

    @pytest.mark.parametrize("d, N, ell", [
        (1, 4, 2), (1, 9, 7), (2, 5, 3), (3, 16, 3), (2, 20, 5),
        (1, 4096, 4094), (2, 4096, 64), (3, 4096, 1),
        (1, 6, 1), (2, 9, 1), (3, 5, 1), (1, 8, 2),
    ])
    def test_second_moment_is_ell_d_and_zeroth_is_one(self, d, N, ell):
        # exchangeability: E|V_ell|^2 = ell * d
        m = marginal(d, N, ell)
        assert marginal_moment(m, 0) == 1.0
        assert marginal_moment(m, 2) == pytest.approx(ell * d, rel=1e-13)

    @pytest.mark.parametrize("d, N", [(1, 5), (2, 7), (3, 32), (2, 4096)])
    @pytest.mark.parametrize("k", [1, 3, 5, 0.5, 2.7])
    def test_one_particle_moment_is_the_beta_moment(self, d, N, k):
        # |v1|^2 / M is Beta(d/2, (M-d)/2) with M = d(N-1)
        M = d * (N - 1)
        log_ratio = (math.lgamma(0.5 * (d + k)) + math.lgamma(0.5 * M)
                     - math.lgamma(0.5 * d) - math.lgamma(0.5 * (M + k)))
        want = M ** (0.5 * k) * math.exp(log_ratio)
        # lgamma near M/2 ~ 4e3 carries ~1e-12 absolute error, so rel 1e-10
        assert marginal_moment(marginal(d, N), k) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("N, ell, k, want", [
        (6, 2, 1, 1.313828456770918), (6, 2, 3, 3.3176252829192183),
        (12, 2, 1, 1.2814214333253877), (12, 2, 3, 3.5311991763691712),
        (40, 2, 1, 1.2613212827431997), (40, 2, 3, 3.689971218805248),
        (8, 3, 1, 1.6500395789337614), (8, 3, 3, 5.823582790586675),
        (24, 3, 1, 1.612894473910247), (24, 3, 3, 6.187469106050763),
        (100, 3, 1, 1.599787494357814), (100, 3, 3, 6.335417410630871),
    ])
    def test_line_moments_match_nested_quadrature(self, N, ell, k, want):
        # d = 1, ell in {2, 3}: values of a nested quadrature over the radius
        # of the first ell - 1 Helmert coordinates and the last one
        assert marginal_moment(marginal(1, N, ell), k) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d, N, ell", [(3, 16, 3), (2, 20, 5)])
    def test_block_moments_match_sampler(self, d, N, ell):
        lead = sample_uniform_batch(bs.SphereSpec.boltzmann(d, N), 100_000, 8)[:, : ell * d]
        sq = np.sum(lead * lead, axis=1)
        for k in (1, 3, 4):
            vals = sq ** (0.5 * k)
            stderr = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(marginal_moment(marginal(d, N, ell), k) - vals.mean()) <= 4.0 * stderr

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_uniform_in_n_bound(self, k):
        for N in (4, 8, 16, 64, 256):
            m = marginal(1, N)
            assert marginal_moment(m, k) <= moment_bound(1, k, 1)

    def test_bound_value_examples(self):
        # ell = 1 kills the first product, leaving 2^{k/2} (d+k-2)...d
        assert moment_bound(1, 2, 1) == pytest.approx(2.0)
        assert moment_bound(1, 4, 1) == pytest.approx(12.0)
        assert moment_bound(2, 2, 2) == pytest.approx(2.0 * (2.0 + 2.0))


class TestChaosGap:
    def test_bound_value_n20(self):
        gap, bound = l1_chaos_gap(1, 1, 20)
        assert bound == pytest.approx(2.0 * 5.0 / 15.0)
        assert 0.0 < gap < bound

    def test_gap_decreasing_like_one_over_n(self):
        rows = []
        for N in (10, 20, 50, 100):
            gap, bound = l1_chaos_gap(1, 1, N)
            assert gap <= bound
            rows.append((N, gap, 0.0))
        assert all(a[1] > b[1] for a, b in zip(rows, rows[1:]))
        rep = bs.fit_loglog(rows)
        assert rep.slope <= -0.8

    def test_regime_validation(self):
        with pytest.raises(bs.ParameterError):
            l1_chaos_gap(1, 1, 5)  # d*ell > d(N-2)-3

    def test_radial_gap_tail_is_chi2_sf(self):
        # the radial gap takes the Gaussian tail mass from special.chdtrc,
        # the function stats.chi2.sf evaluates; scipy.stats stays the reference
        x = np.concatenate([[0.0], np.logspace(-12, 0, 200), np.linspace(1.0, 400.0, 4000)])
        for d in (1, 2, 3):
            assert np.array_equal(special.chdtrc(d, x), stats.chi2.sf(x, df=d))

    def test_radial_and_mc_paths_agree(self):
        gap_quad, bound = l1_chaos_gap(2, 1, 24)
        gap_mc, _ = l1_chaos_gap(3, 1, 24, n_mc=300_000)
        assert gap_quad <= bound
        # d=3 bound with the same N
        assert gap_mc <= 2.0 * (3 * 3 + 2) / (3 * 24 - 3 * 3 - 2)


class TestCoordinateMarginal:
    def test_matches_one_particle_marginal_in_1d(self):
        # for d = 1 the coordinate law and the ell=1 marginal coincide
        spec = bs.SphereSpec.boltzmann(1, 12)
        law = coordinate_marginal(spec)
        m = UniformMarginal(spec, 1)
        grid = np.linspace(-2.5, 2.5, 41)
        assert np.allclose(law.pdf(grid), marginal_density(m, grid[:, None]), atol=1e-12)

    def test_cdf_normalized_and_monotone(self):
        law = coordinate_marginal(bs.SphereSpec.boltzmann(3, 20))
        grid = np.linspace(-8.0, 8.0, 201)
        c = law.cdf(grid)
        assert c[0] == pytest.approx(0.0, abs=1e-12)
        assert c[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(c) >= -1e-15)

    def test_ks_against_sampler(self):
        spec = bs.SphereSpec.boltzmann(2, 16)
        coords = sample_uniform_batch(spec, 30_000, 9)[:, 0]
        law = coordinate_marginal(spec)
        res = stats.kstest(coords, lambda x: law.cdf(x))
        assert res.pvalue > 0.01
