import functools
import math
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere import _kernels, _workers, dsmc
from boltzsphere.dsmc import (
    CollisionKernel,
    ConditionedInitial,
    RunResult,
    equilibrium_crosscheck,
    replica_series,
    run,
)
from boltzsphere.uniform import UniformMarginal, marginal_moment, sample_uniform, sample_uniform_batch


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


def uniform_start(d, N):
    """An initial sampler: a uniform-law state per replica."""
    return functools.partial(sample_uniform, bs.SphereSpec.boltzmann(d, N))


def _uniform_state(d, N, seed):
    """(velocities, generator): a uniform-law start and the stream that goes on from it."""
    gen = bs.stream(seed, "dsmc-state")
    return sample_uniform(bs.SphereSpec.boltzmann(d, N), gen), gen


class TestStep:
    """Single collision events through the chunked path's draws and kernel."""

    def test_identity_collision_when_sigma_is_relative_direction(self):
        v, _ = _uniform_state(2, 4, 1)
        v0 = v.copy()
        sigma = (v[0] - v[1]) / np.linalg.norm(v[0] - v[1])
        out = _kernels.default_kernels().dsmc_advance(
            v, 0.0, math.inf, 1.0, np.ones(1), np.array([0]), np.array([1]), sigma[None, :]
        )
        assert out[1:] == (1, 1)
        assert np.allclose(v, v0, rtol=0.0, atol=1e-14)

    def test_poisson_clock_rate(self):
        kernel = CollisionKernel.uniform(2)
        N, horizon = 6, 0.4
        advance = _kernels.default_kernels().dsmc_advance
        counts = []
        for seed in range(1000):
            v, gen = _uniform_state(2, N, seed)
            events = dsmc._draw_events(gen, kernel, _kernels._BLOCK, N)
            _, _, k = advance(v, 0.0, horizon, kernel.rate(N), *events)
            counts.append(k)
        want = horizon * kernel.rate(N)
        stderr = np.std(counts) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - want) <= 3.0 * stderr


class TestRun:
    def test_uniform_law_is_stationary(self):
        res = run(uniform_start(2, 32), CollisionKernel.uniform(2),
                  t_end=5.0, n_replicas=32, observables=("m4",), seed=5, n_times=3)
        m4, e4 = res.observables["m4"]
        # observable statistically stationary between first and last grid point
        assert abs(m4[-1] - m4[0]) <= 3.0 * math.hypot(e4[0], e4[-1])

    def test_m2_pinned_by_constraint(self):
        res = run(uniform_start(3, 16), CollisionKernel.uniform(3),
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

    def test_custom_observable_and_rows(self):
        def coord_mean(v):
            return float(v[:, 0].mean())

        res = run(uniform_start(2, 8), CollisionKernel.uniform(2),
                  t_end=1.0, n_replicas=3, observables=(coord_mean,), seed=9, n_times=2)
        rows = res.rows()
        assert len(rows) == 2
        assert rows[0][1] == "coord_mean"

    def test_replica_minimum(self):
        with pytest.raises(bs.ParameterError):
            run(uniform_start(2, 8), CollisionKernel.uniform(2),
                t_end=1.0, n_replicas=1, seed=0)

    def test_no_observable_is_refused(self):
        with pytest.raises(bs.ParameterError, match="at least one observable"):
            run(uniform_start(2, 8), CollisionKernel.uniform(2),
                t_end=1.0, n_replicas=2, observables=(), seed=0)

    def test_long_run_is_bit_identical_across_splits(self, monkeypatch):
        # 2000 mft at N = 64 is about 64,000 collisions per replica, so each
        # replica runs over several event chunks and many draw blocks; the
        # replicas [k, R) run in a `_beside` worker, as the dsmc subcommand
        # splits them, forked on two usable CPUs and inline on one
        init, kernel = uniform_start(3, 64), CollisionKernel.uniform(3)
        R, obs, seed = 3, ("m2", "m4"), 14
        times = np.linspace(0.0, 2000.0, 5)
        want = run(init, kernel, t_end=2000.0, n_replicas=R, observables=obs, seed=seed,
                   n_times=5).rows()
        for cpus in (1, 2):
            monkeypatch.setattr(_workers, "_usable_cpus", lambda n=cpus: n)
            for k in (0, 1, R):
                with _workers._beside(replica_series, init, kernel, times, range(k, R), obs, seed) as rest:
                    own = replica_series(init, kernel, times, range(k), obs, seed)
                    got = RunResult.over_replicas(times, own, rest())
                assert got.rows() == want

    def test_no_collision_past_the_observation_time(self):
        # at t_end = 1e-6 mft a collision is improbable (~6e-6 per replica),
        # so the observable must not move; a collision crossing the
        # observation time must not be applied before the observation
        kernel = CollisionKernel.uniform(3)
        res = run(uniform_start(3, 12), kernel, t_end=1e-6, n_replicas=3,
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


def _unloadable():
    raise ValueError("cannot be loaded")


class _Unloadable:
    def __reduce__(self):
        return _unloadable, ()


def _unloadable_then_bulk():
    return _Unloadable(), np.ones(1 << 17)  # 1 MiB, more than a pipe holds


class TestBeside:
    """`_beside` runs a function in a forked child, or inline when forking
    cannot pay or is unsafe; os.getpid tells the two paths apart."""

    def test_forks_one_child_on_two_cpus(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        with _workers._beside(os.getpid) as result:
            assert result() != os.getpid()

    def test_runs_inline_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        with _workers._beside(os.getpid) as result:
            assert result() == os.getpid()

    def test_runs_inline_without_fork(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        with _workers._beside(os.getpid) as result:
            assert result() == os.getpid()

    def test_runs_inline_beside_another_thread(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            with _workers._beside(os.getpid) as result:
                assert result() == os.getpid()
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_child_without_a_result_is_a_worker_error(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        with _workers._beside(os._exit, 3) as result:
            with pytest.raises(bs.WorkerError, match="ended with code 3 and no result"):
                result()

    def test_the_result_is_held_once_while_it_loads(self, forked_children):
        # the worker's pickle is loaded as it is read from the pipe; read
        # whole and then loaded, a 1.5 MB array peaked at 3.0 MB traced
        tracemalloc.start()
        try:
            with _workers._beside(np.ones, 1_500_000 // 8) as result:
                value = result()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(forked_children) == 1
        assert value.nbytes == 1_500_000 and np.all(value == 1.0)
        assert peak < 1.5 * value.nbytes

    def test_a_result_that_fails_to_load_raises_the_load_error(self, forked_children):
        # the load fails at the first item with 1 MiB of the pickle unread,
        # so the child, blocked on the full pipe, exits 0 only if the rest
        # is read; the alarm turns a wait on it into a failure, not a hang
        def hung(signum, frame):
            raise AssertionError("result() waited on a child blocked on the pipe")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with _workers._beside(_unloadable_then_bulk) as result:
                with pytest.raises(ValueError, match="cannot be loaded"):
                    result()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forked_children) == 1


def _advance_drawing_in_full(v, t, t_target, kernel, gen):
    """`_advance` written out: each chunk is sized to 1.25 times the events
    the rest of the interval expects plus 64, capped at `_BLOCK`, and
    drawn in full; every pair is shifted and every unit vector normalised."""
    N, d = v.shape
    rate = kernel.rate(N)
    while t < t_target:
        n = int(min(_kernels._BLOCK, 1.25 * (t_target - t) * rate + 64))
        dts = -np.log(gen.random(n))
        i = gen.integers(0, N, size=n)
        j = gen.integers(0, N - 1, size=n)
        j = np.where(j >= i, j + 1, j)
        g = gen.normal(size=(n, d))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        sigmas = g / norms[:, None]
        t, _, _ = _kernels.dsmc_advance(
            v, t, t_target, rate, dts, i.astype(np.int64), j.astype(np.int64), sigmas
        )
    return t


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("events", [[40, 300, 1_000], [50_000, 20]], ids=["short", "long"])
def test_advance_matches_the_full_draw_path(d, events):
    # the replicas' intervals need a few hundred events; the long target
    # runs over a capped chunk and a sized one; the generator state check
    # pins the sizing rule
    kernel = CollisionKernel.uniform(d)
    N = 24
    v0 = sample_uniform_batch(bs.SphereSpec.boltzmann(d, N), 1, 5)[0].reshape(N, d)
    got_v, want_v = v0.copy(), v0.copy()
    got_gen, want_gen = np.random.default_rng(11), np.random.default_rng(11)
    got_t = want_t = 0.0
    target = 0.0
    for n in events:
        target += n / kernel.rate(N)
        got_t = dsmc._advance(got_v, got_t, target, kernel, got_gen)
        want_t = _advance_drawing_in_full(want_v, want_t, target, kernel, want_gen)
        assert got_t == want_t
        assert got_v.tobytes() == want_v.tobytes()
        assert got_gen.bit_generator.state == want_gen.bit_generator.state


def test_no_draw_or_kernel_call_exceeds_one_block(monkeypatch):
    # the walk and the chains draw one kernel block at a time, so no list
    # a kernel builds from its draws outgrows _BLOCK entries
    draws, calls = [], []

    def recorded(fn, sizes, size_of):
        def wrapper(*args):
            out = fn(*args)
            sizes.append(size_of(args, out))
            return out
        return wrapper

    monkeypatch.setattr(dsmc, "_draw_events", recorded(
        dsmc._draw_events, draws, lambda args, out: len(out[0])))
    monkeypatch.setattr(bs.conditioned._Chain, "_draw_chunk", recorded(
        bs.conditioned._Chain._draw_chunk, draws, lambda args, out: len(out[-1])))
    namespace = _kernels.default_kernels()
    for name, first_draw in (("pair_chain", 3), ("triple_chain", 3), ("dsmc_advance", 4)):
        monkeypatch.setattr(namespace, name, recorded(
            getattr(namespace, name), calls, lambda args, out, k=first_draw: len(args[k])))
    # each 620-mean-free-time interval at N = 32 expects about 9,900 events
    run(ConditionedInitial(density="mixture", d=3, N=32), CollisionKernel.uniform(3),
        t_end=1240.0, n_replicas=2, observables=("m2",), seed=4, n_times=3)
    lw = bs.conditioned.ConditionedLaw(
        f=bs.get_density("mixture", 2), spec=bs.SphereSpec.boltzmann(2, 16))
    # inline, so that the batch's second chain is recorded too
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    bs.conditioned.sample_conditioned_batch(lw, 5, 1000)
    assert max(draws) == max(calls) == _kernels._BLOCK
    assert len(calls) >= len(draws) > 10


class AnisotropicStart:
    """A fixed start on the Boltzmann sphere, stretched along the
    first axis: zero momentum and energy dN exactly, whatever the stream."""

    def __init__(self, d, N):
        v = np.random.default_rng(3).normal(size=(N, d)) * np.linspace(2.0, 0.3, d)
        v -= v.mean(axis=0)
        self.v = v * math.sqrt(d * N / np.sum(v * v))

    def __call__(self, gen):
        return self.v.copy()


def q11(v):
    """The (1, 1) entry of Q = sum_i v_i v_i^T - N I."""
    return float(np.sum(v[:, 0] ** 2) - v.shape[0])


def _degree4_generator(d, N):
    """Rows of G for (A, B) with A = sum |v_i|^4 and B = |sum v_i v_i^T|_F^2:
    d(A, B)/dtau = G (A, B, 1), tau in mean free times, for Maxwell molecules
    with a uniform scattering direction."""
    a, b = (d + 1) / (2 * d), (d - 1) / (2 * d)
    dN2 = (d * N) ** 2
    return np.array([
        [a * (N - 2) + 1 / d - (N - 1), -1 / d, a * dN2],
        [b * N, 2 * b - N, d * N ** 3 + b * dN2],
    ]) / (N - 1)


def _predicted_m4(v0, taus):
    """E[mean |v_i|^4 at tau | v0] = (exp(tau G) (A0, B0, 1))[0] / N, from the
    fixed point of G's 2x2 block and that block's eigendecomposition."""
    N, d = v0.shape
    G = _degree4_generator(d, N)
    H, c = G[:, :2], G[:, 2]
    fixed = np.linalg.solve(H, -c)
    S = v0.T @ v0
    x0 = np.array([np.sum(np.sum(v0 * v0, axis=1) ** 2), np.sum(S * S)])
    lam, U = np.linalg.eig(H)
    coef = np.linalg.solve(U, x0 - fixed)
    A = fixed[0] + (U[0] * coef * np.exp(np.outer(taus, lam))).sum(axis=1)
    return np.real(A) / N


class TestMomentOracle:
    """The run's time evolution against the exact finite-N moment ODEs:
    a collision maps the polynomials of each degree to the same degree."""

    d, N = 3, 8

    @pytest.mark.parametrize("N", [8, 32, 256])
    def test_fixed_point_is_the_uniform_m4(self, N):
        G = _degree4_generator(3, N)
        A, _ = np.linalg.solve(G[:, :2], -G[:, 2])
        m4 = marginal_moment(UniformMarginal(bs.SphereSpec.boltzmann(3, N), 1), 4)
        assert A / N == pytest.approx(m4, rel=1e-15)

    @pytest.fixture(scope="class")
    def curves(self):
        start = AnisotropicStart(self.d, self.N)
        res = run(start, CollisionKernel.uniform(self.d), t_end=4.0, n_replicas=400,
                  observables=("m4", q11), seed=20240901, n_times=9)
        return start.v, res

    def test_m4_follows_the_degree4_closed_form(self, curves):
        v0, res = curves
        m4, e4 = res.observables["m4"]
        want = _predicted_m4(v0, res.times)
        assert m4[0] == pytest.approx(want[0], rel=1e-14)
        z = np.abs(m4[1:] - want[1:]) / e4[1:]
        assert np.all(z <= 3.0), z

    def test_q_decays_at_the_degree2_rate(self, curves):
        v0, res = curves
        q, eq = res.observables["q11"]
        want = q11(v0) * np.exp(-self.N * res.times / (2 * (self.N - 1)))
        assert q[0] == pytest.approx(want[0], rel=1e-14)
        z = np.abs(q[1:] - want[1:]) / eq[1:]
        assert np.all(z <= 3.0), z
