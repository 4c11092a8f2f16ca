import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

import boltzsphere as bs
from boltzsphere import conditioned, lifted
from boltzsphere._kernels import _BLOCK
from boltzsphere.conditioned import (
    ConditionedLaw,
    _Chain,
    _marginal_curve,
    conditioned_marginal_density,
    entropy_per_particle,
    sample_conditioned_batch,
    w1_rate_experiment,
)
from boltzsphere.uniform import UniformMarginal, marginal_density

GAUSS = bs.get_density("gaussian", 1)
UNIF = bs.get_density("uniform", 1)


def law(f, d, N):
    return ConditionedLaw(f=f, spec=bs.SphereSpec.boltzmann(d, N))


class TestLawValidation:
    def test_needs_unit_second_moment(self):
        with pytest.raises(bs.ParameterError):
            ConditionedLaw(f=bs.gaussian_density(1, 4.0), spec=bs.SphereSpec.boltzmann(1, 8))

    def test_ergodicity_minimums(self):
        with pytest.raises(bs.ParameterError):
            law(UNIF, 1, 3)
        with pytest.raises(bs.ParameterError):
            law(bs.get_density("gaussian", 2), 2, 2)


class TestSampler:
    def test_states_stay_on_sphere(self):
        lw = law(UNIF, 1, 16)
        states = sample_conditioned_batch(lw, 0, 2000)
        assert np.max(np.abs(states.sum(axis=(1, 2)))) <= 1e-10
        energy = (states**2).sum(axis=(1, 2))
        assert np.max(np.abs(energy - 16.0)) <= 1e-9 * 16.0

    def test_box_support_respected(self):
        lw = law(UNIF, 1, 16)
        states = sample_conditioned_batch(lw, 1, 1000)
        assert np.max(np.abs(states)) <= math.sqrt(3.0) + 1e-12

    def test_gaussian_chain_matches_uniform_marginal(self):
        # for the Gaussian base the acceptance ratio is identically one and
        # the stationary law is the uniform law
        lw = law(GAUSS, 1, 16)
        v1 = sample_conditioned_batch(lw, 2, 20_000)[:, 0, 0]
        m = UniformMarginal(lw.spec, 1)
        grid = np.linspace(-math.sqrt(15.0), math.sqrt(15.0), 4001)
        cdf = integrate.cumulative_trapezoid(marginal_density(m, grid[:, None]), grid, initial=0.0)
        res = stats.kstest(v1, lambda x: np.interp(x, grid, cdf))
        assert res.pvalue > 0.01

    def test_single_particle_energy(self):
        lw = law(UNIF, 1, 16)
        states = sample_conditioned_batch(lw, 3, 30_000)
        e1 = states[:, 0, 0] ** 2
        stderr = e1.std() / math.sqrt(e1.size)
        assert abs(e1.mean() - 1.0) <= 3.0 * stderr

    def test_stream_resumes_where_the_last_chunk_stopped(self):
        # the chain keeps the proposals it drew but did not run, so states
        # served in chunks are the one thinned chain of a batch
        lw = law(bs.get_density("mixture", 2), 2, 8)
        chain = _Chain(lw, 12, None, None)
        chunks = []
        for _ in range(3):
            chunks.append(chain.states(1000))
            assert chain.step % _BLOCK  # stopped inside a block of draws
        streamed = np.concatenate(chunks)
        assert chain.step > 5 * _BLOCK
        assert np.array_equal(streamed, sample_conditioned_batch(lw, 12, 3000))
        assert all(bs.on_sphere(s, lw.spec) for s in streamed)

    def test_chain_runs_only_the_proposals_it_needs(self):
        chain = _Chain(law(bs.get_density("mixture", 3), 3, 32), 13, None, None)
        chain.states(5)
        assert chain.step == chain.burn_in + 5 * chain.thin
        assert 0 < chain.accepted <= chain.step
        chain.states(2)
        assert chain.step == chain.burn_in + 7 * chain.thin

    def test_burn_in_draws_less_than_a_block_it_does_not_use(self, monkeypatch):
        # dsmc's conditioned start: an N = 256 burn-in and one state
        drawn = []
        draw = _Chain._draw_chunk

        def recorded(chain):
            draws = draw(chain)
            drawn.append(len(draws[-1]))
            return draws

        monkeypatch.setattr(_Chain, "_draw_chunk", recorded)
        chain = _Chain(law(bs.get_density("mixture", 3), 3, 256), 13, None, None)
        chain.states(1)
        assert chain.step == 51 * 256
        assert set(drawn) == {_BLOCK}
        assert chain.step <= sum(drawn) < chain.step + _BLOCK

    def test_deterministic(self):
        lw = law(UNIF, 1, 8)
        a = sample_conditioned_batch(lw, 9, 50)
        b = sample_conditioned_batch(lw, 9, 50)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name, d", [("uniform", 1), ("mixture", 1), ("mixture", 3),
                                         ("gaussian", 2)])
    def test_a_renamed_base_samples_the_same_states(self, name, d):
        # the chains read the base's declaration, not its name
        f = bs.get_density(name, d)
        copy = dataclasses.replace(f, name=name + "-copy")
        a = sample_conditioned_batch(law(f, d, 8), 9, 20)
        assert np.array_equal(sample_conditioned_batch(law(copy, d, 8), 9, 20), a)

    def test_numpy_integer_seed_is_the_int_seed(self):
        lw = law(UNIF, 1, 8)
        a = sample_conditioned_batch(lw, np.int64(9), 50)
        assert np.array_equal(a, sample_conditioned_batch(lw, 9, 50))

    @pytest.mark.parametrize("seed", [9.0, "9", None])
    def test_rejects_a_seed_that_is_neither_integer_nor_generator(self, seed):
        with pytest.raises(bs.ParameterError, match="rng_seed"):
            sample_conditioned_batch(law(UNIF, 1, 8), seed, 2)

    def test_negative_state_count_is_a_parameter_error(self):
        with pytest.raises(bs.ParameterError, match="n_states"):
            sample_conditioned_batch(law(UNIF, 1, 8), 9, -1)

    def test_no_constraint_drift_over_a_million_proposals(self):
        lw = law(bs.get_density("mixture", 2), 2, 16)
        states = sample_conditioned_batch(lw, 10, 62_500, burn_in=0, thin=16)
        # 62500 states x thin 16 = 1e6 proposals; residuals must not grow
        last = states[-100:]
        mom = np.abs(last.sum(axis=1)).max()
        en = np.abs((last**2).sum(axis=(1, 2)) - 32.0).max()
        tol = 1e-9 * 32.0
        assert mom <= tol and en <= tol

    def test_mixture_chain_matches_exact_marginal(self):
        mix = bs.get_density("mixture", 1)
        lw = law(mix, 1, 16)
        v1 = sample_conditioned_batch(lw, 11, 20_000)[:, 0, 0]
        grid, dens, _ = _marginal_curve(lw)
        cdf = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
        res = stats.kstest(v1, lambda x: np.interp(x, grid, cdf))
        assert res.pvalue > 0.01


class TestMarginalDensity:
    def test_gaussian_collapses_to_uniform_marginal(self):
        lw = law(GAUSS, 1, 16)
        m = UniformMarginal(lw.spec, 1)
        pts = np.linspace(-3.0, 3.0, 31)[:, None]
        got = conditioned_marginal_density(lw, 1, pts)
        want = marginal_density(m, pts)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_exact_marginal_normalized(self):
        # the curve's quadrature mass is Z'_N; divided by the grid-N value
        # the exact marginal integrates to one
        lw = law(UNIF, 1, 64)
        _, _, log_zn = _marginal_curve(lw)
        mass = math.exp(log_zn - lw.log_zprime(64, lw.spec.r, 0.0))
        assert mass == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("name", ["uniform", "mixture"])
    def test_two_particle_marginal_meets_the_sphere_identities(self, name):
        # sum v_i = 0 and sum v_i^2 = N on every state give, exactly at every
        # N: mass 1, (N-1) E[v1 v2] = -1 and (N-1) Cov(v1^2, v2^2) =
        # -Var(v1^2).  The default lifted grid and an 801^2 trapezoid grid
        # meet them to 1.3e-4 at N = 16; 5e-4 keeps a margin of about 4,
        # while a missing factor N - 1 or a sign moves them by order 1 and
        # an O(1/N) error in the marginal by several percent.
        N, tol = 16, 5e-4
        lw = law(bs.get_density(name, 1), 1, N)
        vmax = min(lw.f.tail_radius(), math.sqrt(N - 1))
        v = np.linspace(-vmax, vmax, 801)
        x, y = np.meshgrid(v, v, indexing="ij")
        pts = np.column_stack([x.ravel(), y.ravel()])
        dens = conditioned_marginal_density(lw, 2, pts).reshape(x.shape)

        def integral(g):
            return float(np.trapezoid(np.trapezoid(dens * g, v, axis=1), v))

        mass = integral(1.0)
        e11, e12 = integral(x * x) / mass, integral(x * y) / mass
        var11 = integral(x**4) / mass - e11 * e11
        cov = integral(x * x * y * y) / mass - e11 * integral(y * y) / mass
        assert mass == pytest.approx(1.0, abs=tol)
        assert (N - 1) * e12 == pytest.approx(-1.0, abs=tol)
        assert (N - 1) * cov / var11 == pytest.approx(-1.0, abs=tol)

    @pytest.mark.parametrize("name", ["uniform", "mixture"])
    @pytest.mark.parametrize("N", [16, 64, 256, 512])
    def test_two_routes_to_log_zprime_agree(self, name, N):
        # log Z'_N from the (N-1)-grid curve's normalization against the
        # N-grid value at a single point
        lw = law(bs.get_density(name, 1), 1, N)
        _, _, log_zn = _marginal_curve(lw)
        assert abs(log_zn - lw.log_zprime(N, lw.spec.r, 0.0)) <= 1e-4

    def test_one_grid_per_n(self, monkeypatch):
        built = []
        init = lifted.LiftedGrid.__init__

        def counting_init(self, f, N, *args, **kwargs):
            built.append(N)
            init(self, f, N, *args, **kwargs)

        monkeypatch.setattr(lifted.LiftedGrid, "__init__", counting_init)
        monkeypatch.setattr(conditioned, "_CURVES", type(conditioned._CURVES)())
        w1_rate_experiment(UNIF, [8, 16])
        # the two builds run on two pool threads, in either order
        assert sorted(built) == [7, 15]
        entropy_per_particle(law(UNIF, 1, 32))
        assert sorted(built) == [7, 15, 31]

    def test_memoised_curve_is_read_only_and_shared(self, monkeypatch):
        monkeypatch.setattr(conditioned, "_CURVES", type(conditioned._CURVES)())
        lw = law(UNIF, 1, 8)
        pts, dens, log_zn = _marginal_curve(lw)
        assert not pts.flags.writeable and not dens.flags.writeable
        with pytest.raises(ValueError):
            dens[0] = 1.0
        again = _marginal_curve(law(UNIF, 1, 8))
        assert again[0] is pts and again[1] is dens and again[2] == log_zn

    def test_curve_memo_is_bounded(self, monkeypatch):
        # Gaussian curves need no grid, so this is cheap
        monkeypatch.setattr(conditioned, "_CURVES", type(conditioned._CURVES)())
        monkeypatch.setattr(conditioned, "_CURVES_SIZE", 2)
        laws = [law(GAUSS, 1, N) for N in (8, 16, 32)]
        curves = conditioned._marginal_curves(laws, 101)
        assert [c[0].size for c in curves] == [101, 101, 101]
        assert len(conditioned._CURVES) == 2
        for lw, curve in zip(laws, curves):
            pts, dens, log_zn = conditioned._compute_curve(lw, 101)
            assert np.array_equal(curve[0], pts) and np.array_equal(curve[1], dens)
            assert curve[2] == log_zn

    def test_support_indicator(self):
        lw = law(UNIF, 1, 8)
        assert conditioned_marginal_density(lw, 1, np.array([5.0])) == 0.0

    def test_order_validation(self):
        lw = law(UNIF, 1, 8)
        with pytest.raises(bs.ParameterError):
            conditioned_marginal_density(lw, 7, np.zeros((1, 7)))


class TestRates:
    def test_w1_positive_and_decreasing(self):
        rep = w1_rate_experiment(UNIF, [8, 16, 32])
        vals = [v for _, v, _ in rep.rows]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_w1_gaussian_base_decreasing(self):
        # for the Gaussian base the marginal is the uniform-law marginal and
        # the distance to the Gaussian itself shrinks like 1/N
        rep = w1_rate_experiment(GAUSS, [8, 16, 32, 64])
        vals = [v for _, v, _ in rep.rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert rep.slope <= -0.8

    def test_w1_observed_rate_is_one_over_n(self):
        # the partition-value ratio evaluates the local CLT at a displacement
        # of order 1/sqrt(N), where the order-1/sqrt(N) odd Edgeworth term
        # contributes only 1/N, so the actual decay is O(1/N) and the
        # classical C/sqrt(N) upper bound is not saturated
        rep = w1_rate_experiment(UNIF, [16, 32, 64, 128])
        assert -1.2 <= rep.slope <= -0.8

    def test_needs_two_points(self):
        with pytest.raises(bs.ParameterError):
            w1_rate_experiment(UNIF, [8])

    def test_w1_cdf_is_scipy_cumulative_trapezoid(self):
        # the marginal's CDF is scipy's cumulative trapezoid written in numpy;
        # scipy stays the reference, and the W1 values agree bit for bit
        Ns = [8, 16, 32]
        rep = w1_rate_experiment(UNIF, Ns)
        curves = conditioned._marginal_curves([law(UNIF, 1, N) for N in Ns], 4001)
        for (N, val, _), (grid, dens, _) in zip(rep.rows, curves):
            cdf = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
            assert val == float(np.trapezoid(np.abs(cdf - UNIF.cdf(grid)), grid))


class TestEntropy:
    def test_gaussian_base_is_zero(self):
        assert entropy_per_particle(law(GAUSS, 1, 32)) == 0.0

    def test_uniform_approaches_limit(self):
        limit = UNIF.relative_entropy_vs_gamma()
        h64 = entropy_per_particle(law(UNIF, 1, 64))
        h128 = entropy_per_particle(law(UNIF, 1, 128))
        assert abs(h128 - limit) < abs(h64 - limit)
        assert abs(h128 - limit) <= 0.01
