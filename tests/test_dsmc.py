import math

import numpy as np
import pytest
from scipy import stats

import boltzsphere as bs
from boltzsphere.dsmc import (
    CollisionKernel,
    ConditionedInitial,
    SimulationState,
    UniformInitial,
    equilibrium_crosscheck,
    run,
    step,
)
from boltzsphere.uniform import sample_uniform_batch


class TestKernel:
    def test_uniform_beta_is_sphere_area(self):
        assert CollisionKernel.uniform(2).beta == pytest.approx(2.0 * math.pi)
        assert CollisionKernel.uniform(3).beta == pytest.approx(4.0 * math.pi)

    def test_d1_rejected(self):
        with pytest.raises(bs.ParameterError):
            CollisionKernel.uniform(1)

    def test_rate_and_mean_free_time(self):
        k = CollisionKernel.uniform(3)
        N = 10
        assert k.rate(N) == pytest.approx(0.5 * 9 * 4.0 * math.pi)
        # one collision per particle per mean free time: rate * mft = N/2
        assert k.rate(N) * k.mean_free_time(N) == pytest.approx(N / 2.0)

    def test_truncated_singular_sampler(self):
        k = CollisionKernel.truncated_singular(3, nu=0.5, cos_max=0.9, beta=7.0)
        gen = np.random.default_rng(0)
        cs = k.costheta_sampler(gen, 20_000)
        assert np.all(cs <= 0.9)
        # density increases toward the truncation point
        lo = np.mean((cs > -1.0) & (cs < -0.05))
        hi = np.mean((cs > -0.05) & (cs < 0.9))
        assert hi > lo


class TestStep:
    def test_pair_conservation_identity(self):
        spec = bs.SphereSpec.boltzmann(3, 6)
        state = SimulationState.from_uniform(spec, 0)
        kernel = CollisionKernel.uniform(3)
        for _ in range(200):
            v = state.configuration.particles()
            p0, e0 = v.sum(axis=0).copy(), float(np.sum(v * v))
            step(state, kernel)
            v = state.configuration.particles()
            assert np.max(np.abs(v.sum(axis=0) - p0)) <= 1e-14 * math.sqrt(e0) + 1e-14
            assert abs(float(np.sum(v * v)) - e0) <= 1e-14 * e0

    def test_identity_collision_when_sigma_is_relative_direction(self):
        spec = bs.SphereSpec.boltzmann(2, 4)
        state = SimulationState.from_uniform(spec, 1)
        v = state.configuration.particles()
        vi, vj = v[0].copy(), v[1].copy()
        sigma = (vi - vj) / np.linalg.norm(vi - vj)
        center = 0.5 * (vi + vj)
        half = 0.5 * np.linalg.norm(vi - vj)
        assert np.allclose(center + half * sigma, vi, atol=1e-14)
        assert np.allclose(center - half * sigma, vj, atol=1e-14)

    def test_deflection_cosines_follow_angular_law(self):
        kernel = CollisionKernel.truncated_singular(3, nu=0.3, cos_max=0.8, beta=4.0)
        state = SimulationState.from_uniform(bs.SphereSpec.boltzmann(3, 6), 14)
        cosines = []
        for _ in range(2000):
            v0 = state.configuration.particles().copy()
            step(state, kernel)
            i, j = np.flatnonzero(np.any(state.configuration.particles() != v0, axis=1))
            rel0 = v0[i] - v0[j]
            rel1 = state.configuration.particles()[i] - state.configuration.particles()[j]
            cosines.append(rel1 @ rel0 / (rel0 @ rel0))
        want = kernel.costheta_sampler(np.random.default_rng(15), 2000)
        assert stats.ks_2samp(cosines, want).pvalue > 0.01

    def test_poisson_clock_rate(self):
        kernel = CollisionKernel.uniform(2)
        N, horizon = 6, 0.4
        counts = []
        for seed in range(1000):
            state = SimulationState.from_uniform(bs.SphereSpec.boltzmann(2, N), seed)
            while True:
                step(state, kernel)
                if state.time > horizon:
                    counts.append(state.collision_count - 1)
                    break
        want = horizon * kernel.rate(N)
        stderr = np.std(counts) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - want) <= 3.0 * stderr


class TestRun:
    def test_uniform_law_is_stationary(self):
        res = run(UniformInitial(d=2, N=32), CollisionKernel.uniform(2),
                  t_end=5.0, n_replicas=32, observables=("m4",), seed=5, n_times=3)
        m4, e4 = res.observables["m4"]
        # observable statistically stationary between first and last grid point
        assert abs(m4[-1] - m4[0]) <= 3.0 * math.hypot(e4[0], e4[-1])

    def test_m2_pinned_by_constraint(self):
        res = run(UniformInitial(d=3, N=16), CollisionKernel.uniform(3),
                  t_end=2.0, n_replicas=4, observables=("m2",), seed=6, n_times=3)
        m2, e2 = res.observables["m2"]
        assert np.allclose(m2, 3.0, atol=1e-12)
        assert np.allclose(e2, 0.0, atol=1e-12)

    def test_exchangeability_under_relabeling(self):
        base = ConditionedInitial(density="mixture", d=2, N=12)

        class Relabeled:
            def __call__(self, gen):
                v = base(gen)
                return v[::-1].copy()

        res_a = run(base, CollisionKernel.uniform(2), t_end=1.0, n_replicas=8,
                    observables=("m4",), seed=7, n_times=2)
        res_b = run(Relabeled(), CollisionKernel.uniform(2), t_end=1.0, n_replicas=8,
                    observables=("m4",), seed=7, n_times=2)
        m4a, e4a = res_a.observables["m4"]
        m4b, e4b = res_b.observables["m4"]
        assert abs(m4a[-1] - m4b[-1]) <= 3.0 * math.hypot(e4a[-1], e4b[-1])

    def test_entropy_observable_decreases_from_chaotic_start(self):
        res = run(ConditionedInitial(density="mixture", d=2, N=64),
                  CollisionKernel.uniform(2), t_end=8.0, n_replicas=24,
                  observables=("m4", "rel_entropy_v1"), seed=8, n_times=3)
        h, herr = res.observables["rel_entropy_v1"]
        # non-increasing up to estimator noise between consecutive grid points
        for a, b, ea, eb in zip(h, h[1:], herr, herr[1:]):
            assert b <= a + 3.0 * math.hypot(ea, eb)

    def test_custom_observable_and_rows(self):
        def coord_mean(v):
            return float(v[:, 0].mean())

        res = run(UniformInitial(d=2, N=8), CollisionKernel.uniform(2),
                  t_end=1.0, n_replicas=3, observables=(coord_mean,), seed=9, n_times=2)
        rows = res.rows()
        assert len(rows) == 2
        assert rows[0][1] == "coord_mean"

    def test_replica_minimum(self):
        with pytest.raises(bs.ParameterError):
            run(UniformInitial(d=2, N=8), CollisionKernel.uniform(2),
                t_end=1.0, n_replicas=1, seed=0)

    def test_nonuniform_angular_law_path(self):
        # the truncated-singular kernel draws deflection cosines; conservation
        # and the pinned second moment must still hold
        kernel = CollisionKernel.truncated_singular(3, nu=0.3, cos_max=0.8, beta=4.0)
        res = run(UniformInitial(d=3, N=12), kernel, t_end=2.0, n_replicas=3,
                  observables=("m2",), seed=13, n_times=3)
        m2, _ = res.observables["m2"]
        assert np.allclose(m2, 3.0, atol=1e-9)

    def test_no_collision_past_the_observation_time(self):
        # at t_end = 1e-6 mft a collision is improbable (~6e-6 per replica),
        # so the observable must not move; a collision crossing the
        # observation time must not be applied before the observation
        kernel = CollisionKernel.truncated_singular(3, nu=0.3, cos_max=0.8, beta=4.0)
        res = run(UniformInitial(d=3, N=12), kernel, t_end=1e-6, n_replicas=3,
                  observables=("m4",), seed=0, n_times=2)
        m4, _ = res.observables["m4"]
        assert m4[1] == m4[0]


class TestEquilibriumCrosscheck:
    def test_uniform_law_samples_pass(self):
        spec = bs.SphereSpec.boltzmann(2, 64)
        coords = sample_uniform_batch(spec, 1000, 10).reshape(1000, 64, 2)[:, :, 0].ravel()
        stat, pval, ok = equilibrium_crosscheck(64, 2, coords)
        assert ok and pval > 0.01

    def test_far_from_equilibrium_fails(self):
        mix = bs.get_density("mixture", 2)
        coords = mix.sample(np.random.default_rng(11), 20_000)[:, 0]
        _, _, ok = equilibrium_crosscheck(64, 2, coords)
        assert not ok

    def test_sample_floor(self):
        with pytest.raises(bs.CapacityError):
            equilibrium_crosscheck(16, 2, np.zeros(100))


class TestSnapshot:
    def test_binary_restart_round_trip(self):
        state = SimulationState.from_uniform(bs.SphereSpec.boltzmann(2, 8), 3)
        kernel = CollisionKernel.uniform(2)
        for _ in range(25):
            step(state, kernel)
        restored = SimulationState.from_bytes(state.to_bytes())
        assert restored.time == state.time
        assert restored.collision_count == state.collision_count
        for _ in range(25):
            step(state, kernel)
            step(restored, kernel)
        assert np.array_equal(restored.configuration.values, state.configuration.values)


class TestConservationDrift:
    def test_drift_over_many_collisions(self):
        from boltzsphere.dsmc import _advance

        kernel = CollisionKernel.uniform(3)
        N = 64
        gen = bs.stream(12, "drift-test")
        v = sample_uniform_batch(bs.SphereSpec.boltzmann(3, N), 1, gen)[0].reshape(N, 3)
        p0, e0 = v.sum(axis=0).copy(), float(np.sum(v * v))
        target = 100_000 / kernel.rate(N)
        _advance(v, 0.0, target, kernel, gen)
        assert np.max(np.abs(v.sum(axis=0) - p0)) / math.sqrt(e0) <= 1e-9
        assert abs(float(np.sum(v * v)) - e0) / e0 <= 1e-9
