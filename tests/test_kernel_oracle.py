"""The loop kernels against element-indexed numpy loops as the reference.

The `ref_*` functions below do each kernel's operations in the same order,
but read and write the numpy arrays one element at a time and run every
proposal they are given.  The kernels, which run on Python floats, must
reproduce them bit for bit; when a chain stops early because `out` is full,
it must match the reference run over exactly the proposals it consumed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boltzsphere as bs
from boltzsphere import _kernels
from boltzsphere.dsmc import CollisionKernel

_PENALTY = _kernels._PENALTY
BLOCK = _kernels._BLOCK


def _ref_logf_particle(name, params, w):
    # per-particle log density of the registry base `name` up to the support
    # penalty; additive constants cancel in Metropolis ratios but are kept
    # for clarity
    if name == "gaussian":
        s2 = params[0]
        q = 0.0
        for a in range(w.shape[0]):
            q += w[a] * w[a]
        return -0.5 * q / s2 - 0.5 * w.shape[0] * math.log(2.0 * math.pi * s2)
    if name == "uniform":
        half = params[0]
        viol = 0.0
        for a in range(w.shape[0]):
            if abs(w[a]) > half:
                viol += 1.0
        return -viol * _PENALTY - w.shape[0] * math.log(2.0 * half)
    m = params[0]
    c1 = params[1]
    qa = (w[0] - m) * (w[0] - m) / c1
    qb = (w[0] + m) * (w[0] + m) / c1
    rest = 0.0
    for a in range(1, w.shape[0]):
        rest += w[a] * w[a]
    norm = -0.5 * (math.log(2.0 * math.pi * c1) + (w.shape[0] - 1) * math.log(2.0 * math.pi))
    la = -0.5 * (qa + rest)
    lb = -0.5 * (qb + rest)
    hi = la if la > lb else lb
    return norm + hi + math.log(0.5 * (math.exp(la - hi) + math.exp(lb - hi)))


def ref_pair_chain(
    v, f, params, ii, jj, sigmas, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain with binary-collision proposals, d >= 2.

    Consumes the pre-drawn arrays in order; emits a state every `thin`
    proposals once `burn_in` proposals have elapsed.  Returns the number
    of emitted states and accepted proposals.
    """
    d = v.shape[1]
    name = f.name
    out_count = out_count0
    accepted = 0
    vi_new = np.empty(d)
    vj_new = np.empty(d)
    for t in range(ii.shape[0]):
        i = ii[t]
        j = jj[t]
        lf_old = _ref_logf_particle(name, params, v[i]) + _ref_logf_particle(name, params, v[j])
        # post-collisional velocities on the pair's collision sphere
        rr = 0.0
        for a in range(d):
            diff = v[i, a] - v[j, a]
            rr += diff * diff
        r = 0.5 * math.sqrt(rr)
        for a in range(d):
            c = 0.5 * (v[i, a] + v[j, a])
            vi_new[a] = c + r * sigmas[t, a]
            vj_new[a] = c - r * sigmas[t, a]
        lf_new = _ref_logf_particle(name, params, vi_new) + _ref_logf_particle(name, params, vj_new)
        if log_us[t] < lf_new - lf_old:
            for a in range(d):
                v[i, a] = vi_new[a]
                v[j, a] = vj_new[a]
            accepted += 1
        step = step0 + t + 1
        if step > burn_in and (step - burn_in) % thin == 0 and out_count < out.shape[0]:
            for q in range(v.shape[0]):
                for a in range(d):
                    out[out_count, q, a] = v[q, a]
            out_count += 1
    return out_count, accepted


def ref_triple_chain(
    v, f, params, ii, jj, kk, angles, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain for d = 1: uniform rotations on the circle of a
    particle triple that conserve its momentum and energy."""
    name = f.name
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    inv_sqrt6 = 1.0 / math.sqrt(6.0)
    out_count = out_count0
    accepted = 0
    w_old = np.empty(1)
    w_new = np.empty(1)
    for t in range(ii.shape[0]):
        i = ii[t]
        j = jj[t]
        k = kk[t]
        s = v[i, 0] + v[j, 0] + v[k, 0]
        e = v[i, 0] * v[i, 0] + v[j, 0] * v[j, 0] + v[k, 0] * v[k, 0]
        c = s / 3.0
        rho2 = e - s * s / 3.0
        if rho2 <= 0.0:
            continue
        rho = math.sqrt(rho2)
        ca = math.cos(angles[t])
        sa = math.sin(angles[t])
        # orthonormal basis of the zero-sum plane in R^3
        n1 = c + rho * (ca * inv_sqrt2 + sa * inv_sqrt6)
        n2 = c + rho * (-ca * inv_sqrt2 + sa * inv_sqrt6)
        n3 = c + rho * (-2.0 * sa * inv_sqrt6)
        lf_old = 0.0
        lf_new = 0.0
        w_old[0] = v[i, 0]
        w_new[0] = n1
        lf_old += _ref_logf_particle(name, params, w_old)
        lf_new += _ref_logf_particle(name, params, w_new)
        w_old[0] = v[j, 0]
        w_new[0] = n2
        lf_old += _ref_logf_particle(name, params, w_old)
        lf_new += _ref_logf_particle(name, params, w_new)
        w_old[0] = v[k, 0]
        w_new[0] = n3
        lf_old += _ref_logf_particle(name, params, w_old)
        lf_new += _ref_logf_particle(name, params, w_new)
        if log_us[t] < lf_new - lf_old:
            v[i, 0] = n1
            v[j, 0] = n2
            v[k, 0] = n3
            accepted += 1
        step = step0 + t + 1
        if step > burn_in and (step - burn_in) % thin == 0 and out_count < out.shape[0]:
            for q in range(v.shape[0]):
                out[out_count, q, 0] = v[q, 0]
            out_count += 1
    return out_count, accepted


def ref_dsmc_advance(v, t0, t_target, rate, dts, ii, jj, sigmas):
    """Event-driven binary collisions until t_target or draws run out.

    Each event: exponential waiting time (pre-drawn, scaled by 1/rate),
    a uniform pair, a scattering direction (the drawn unit vector);
    velocities are replaced by the post-collisional pair, conserving
    momentum and energy exactly.
    Returns (time, events consumed, collisions applied).
    """
    d = v.shape[1]
    t = t0
    for idx in range(dts.shape[0]):
        dt = dts[idx] / rate
        if t + dt > t_target:
            return t_target, idx + 1, idx
        t += dt
        i = ii[idx]
        j = jj[idx]
        rr = 0.0
        for a in range(d):
            diff = v[i, a] - v[j, a]
            rr += diff * diff
        r = 0.5 * math.sqrt(rr)
        sigma = sigmas[idx]
        for a in range(d):
            c = 0.5 * (v[i, a] + v[j, a])
            vi = c + r * sigma[a]
            vj = c - r * sigma[a]
            v[i, a] = vi
            v[j, a] = vj
    return t, dts.shape[0], dts.shape[0]


def _pair_draws(seed, n, N, d):
    rng = np.random.default_rng(seed)
    log_us = np.log(rng.random(n))
    ii, jj = _kernels.draw_pair_indices(rng, n, N)
    return ii, jj, _kernels.draw_unit_vectors(rng, n, d), log_us


def _triple_draws(seed, n, N):
    rng = np.random.default_rng(seed)
    log_us = np.log(rng.random(n))
    ii, jj, kk = _kernels.draw_triple_indices(rng, n, N)
    return ii, jj, kk, rng.random(n) * (2.0 * math.pi), log_us


def _start(d, N, seed):
    return bs.sample_uniform_batch(bs.SphereSpec.boltzmann(d, N), 1, seed)[0].reshape(N, d)


def _chain_matches_reference(kernel, ref, v0, density, draws, step0, burn_in, thin, n_out,
                             out_count0=0):
    """Run `kernel` and, over the proposals it consumed, `ref`; both must
    leave the same v and out and count the same states and acceptances, and
    the kernel must leave the rows of `out` it did not emit as they were."""
    v, v_ref = v0.copy(), v0.copy()
    out, out_ref = np.full((n_out,) + v0.shape, -7.0), np.full((n_out,) + v0.shape, -7.0)
    got = kernel(v, density, density.params, *draws, step0, burn_in, thin, out, out_count0)
    used = got[2]
    want = ref(v_ref, density, density.params, *(a[:used] for a in draws), step0, burn_in,
               thin, out_ref, out_count0)
    assert got[:2] == want
    assert np.array_equal(v, v_ref) and np.array_equal(out, out_ref)
    assert np.all(out[:out_count0] == -7.0) and np.all(out[got[0]:] == -7.0)
    return got


# step0 = 5 starts in burn-in; 1003 resumes a chain past it, 3 proposals
# after its last state ((1003 - 300) % 10 == 3).  No workload runs the pair
# move at d = 4: it checks the generated kernel on a case no one wrote out.
# Thin 1 emits a state at every step past burn-in.
DENSITIES = ["gaussian", "uniform", "mixture"]
STARTS = [(5, ""), (1003, "-resumed")]


@pytest.mark.parametrize("d, density, step0, thin", [
    pytest.param(d, density, step0, thin, id=f"{d}-{density}{suffix}{'-thin1' * (thin == 1)}")
    for thin in (10, 1) for step0, suffix in STARTS[: 2 if thin > 1 else 1]
    for d in (2, 3, 4) for density in DENSITIES
])
def test_pair_chain_matches_reference(d, density, step0, thin):
    N, n = 10, 2 * BLOCK + 123
    draws = _pair_draws(10 * d, n, N, d)
    got = _chain_matches_reference(
        _kernels.pair_chain, ref_pair_chain, _start(d, N, d), bs.get_density(density, d),
        draws, step0=step0, burn_in=300, thin=thin, n_out=n // thin + 3, out_count0=2,
    )
    assert got[2] == n and got[0] > 2 + n // (2 * thin)  # ran every draw, emitted states


@pytest.mark.parametrize("density, step0", [
    pytest.param(density, step0, id=f"{density}{suffix}")
    for step0, suffix in STARTS for density in DENSITIES
])
def test_triple_chain_matches_reference(density, step0):
    N, n = 10, 2 * BLOCK + 123
    got = _chain_matches_reference(
        _kernels.triple_chain, ref_triple_chain, _start(1, N, 1), bs.get_density(density, 1),
        _triple_draws(11, n, N), step0=step0, burn_in=300, thin=N, n_out=n // N + 3,
        out_count0=2,
    )
    assert got[2] == n and got[0] > 2 + n // (2 * N)


@pytest.mark.parametrize("n_out", [10, 2 * BLOCK // 7 + 1], ids=["first-block", "later-block"])
@pytest.mark.parametrize("moves", ["pair", "triple"])
def test_chain_stops_when_out_is_full(moves, n_out):
    N, n, burn_in, thin = 10, 3 * BLOCK, 50, 7
    if moves == "pair":
        kernel, ref, d, draws = _kernels.pair_chain, ref_pair_chain, 3, _pair_draws(12, n, N, 3)
    else:
        kernel, ref, d, draws = _kernels.triple_chain, ref_triple_chain, 1, _triple_draws(13, n, N)
    got = _chain_matches_reference(
        kernel, ref, _start(d, N, 2), bs.get_density("mixture", d), draws,
        step0=0, burn_in=burn_in, thin=thin, n_out=n_out,
    )
    assert got[0] == n_out and got[2] == burn_in + n_out * thin


def test_chain_with_full_out_consumes_nothing():
    N = 10
    v = _start(3, N, 3)
    f = bs.get_density("mixture", 3)
    out = np.zeros((2, N, 3))
    got = _kernels.pair_chain(v.copy(), f, f.params, *_pair_draws(14, 100, N, 3), 0, 0, 1, out, 2)
    assert got == (2, 0, 0)


@pytest.mark.parametrize(
    "stop", ["inside-block", "last-of-block", "first-of-next-block", "past-end", "never"]
)
def test_dsmc_advance_matches_reference(stop):
    N, n, t0 = 16, 2 * BLOCK + 300, 0.5
    rng = np.random.default_rng(15)
    dts = -np.log(rng.random(n))
    ii, jj = _kernels.draw_pair_indices(rng, n, N)
    sigmas = _kernels.draw_unit_vectors(rng, n, 3)
    rate = CollisionKernel.uniform(3).rate(N)
    clock = t0 + np.cumsum(dts / rate)
    # the event whose waiting time crosses t_target; midpoints keep the
    # crossing clear of rounding
    crossing = {"inside-block": 100, "last-of-block": BLOCK - 1, "first-of-next-block": BLOCK}
    if stop in crossing:
        k = crossing[stop]
        t_target, counts = 0.5 * (clock[k - 1] + clock[k]), (k + 1, k)
    else:
        t_target, counts = (clock[-1] + 1.0 if stop == "past-end" else math.inf), (n, n)
    v0 = _start(3, N, 4)
    v, v_ref = v0.copy(), v0.copy()
    got = _kernels.dsmc_advance(v, t0, t_target, rate, dts, ii, jj, sigmas)
    want = ref_dsmc_advance(v_ref, t0, t_target, rate, dts, ii, jj, sigmas)
    assert got == want and got[1:] == counts
    assert np.array_equal(v, v_ref)


@settings(max_examples=60, deadline=None)
@given(
    N=st.sampled_from([2, 3, 5, 64]),
    n=st.sampled_from([0, 1, 2, 3000, 4500]),
    stop=st.sampled_from(["before-first", "inside", "on-a-partial-sum", "past-end"]),
    seed=st.integers(0, 2**32 - 1),
    where=st.floats(0.0, 1.0),
    d=st.sampled_from([2, 3, 4]),
)
def test_dsmc_advance_matches_reference_on_random_cases(N, n, stop, seed, where, d):
    # N = 2 makes every event collide the same pair; each d runs its own
    # generated event loop; a target equal to a partial sum of the clock
    # must not stop there, since the stop is strict
    rng = np.random.default_rng(seed)
    dts = -np.log(rng.random(n))
    ii, jj = _kernels.draw_pair_indices(rng, n, N)
    sigmas = _kernels.draw_unit_vectors(rng, n, d)
    rate, t0 = CollisionKernel.uniform(d).rate(N), 0.25
    ts = np.cumsum(np.concatenate(([t0], dts / rate)))
    k = int(where * n)
    t_target = {
        "before-first": t0 - 1.0,
        "inside": 0.5 * (ts[k] + ts[min(k + 1, n)]),
        "on-a-partial-sum": ts[k],
        "past-end": ts[-1] + 1.0,
    }[stop]
    v0 = rng.normal(size=(N, d))
    v, v_ref = v0.copy(), v0.copy()
    got = _kernels.dsmc_advance(v, t0, t_target, rate, dts, ii, jj, sigmas)
    want = ref_dsmc_advance(v_ref, t0, t_target, rate, dts, ii, jj, sigmas)
    assert got == want
    assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("density", ["gaussian", "uniform", "mixture"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_log_density_matches_reference(d, density):
    f = bs.get_density(density, d)
    logf = _kernels._log_density(f)
    rows = np.random.default_rng(16).uniform(-2.5, 2.5, size=(50, d))
    # rows on each branch boundary: w[0] = 0 puts the mixture's two
    # components level (la == lb), and |x| == half puts a coordinate on the
    # edge of the box, which is inside
    half = math.sqrt(3.0)
    rows[:3, 0] = 0.0
    rows[3:6] = half
    rows[6:9] = -half
    rows[9, 0] = half
    want = [_ref_logf_particle(density, f.params, w) for w in rows]
    assert [logf(w) for w in rows.tolist()] == want
