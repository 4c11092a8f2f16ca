"""Hot inner loops: collision Metropolis chains and the event-driven walk.

Each kernel is one plain Python loop over arrays of pre-drawn randomness, and
callers call the kernels through the `default_kernels()` namespace.  All
randomness is drawn outside the kernels, so a trajectory is fixed by the
stream alone, whatever the worker count.

Density evaluation inside kernels is restricted to the registry families,
identified by an integer code:

    0  isotropic Gaussian, params = (sigma2,)
    1  centered uniform box, params = (half_width,)
    2  symmetric two-component Gaussian mixture, params = (m, 1 - m^2)

The uniform box is handled with a large finite out-of-support penalty
(1e4 per offending particle) so that chains started from the uniform sphere
law descend into the support during burn-in and never leave it afterwards.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

# The loops are never compiled; perfbench/child.py records this flag and the
# namespace's `jitted` in its run metadata.
HAVE_NUMBA = False

CODE_GAUSSIAN = 0
CODE_UNIFORM = 1
CODE_MIXTURE = 2
_PENALTY = 1.0e4


def density_code(density) -> tuple:
    """(code, params) for a registry density; ParameterError otherwise."""
    from .errors import ParameterError

    if density.name == "gaussian":
        return CODE_GAUSSIAN, np.array([density.params[0]], dtype=float)
    if density.name == "uniform":
        return CODE_UNIFORM, np.array([math.sqrt(3.0)], dtype=float)
    if density.name == "mixture":
        m = density.params[0]
        return CODE_MIXTURE, np.array([m, 1.0 - m * m], dtype=float)
    raise ParameterError(f"no kernel code for density {density.name!r}")


def _logf_particle(code, params, w):
    # per-particle log density up to the support penalty; additive
    # constants cancel in Metropolis ratios but are kept for clarity
    if code == 0:
        s2 = params[0]
        q = 0.0
        for a in range(w.shape[0]):
            q += w[a] * w[a]
        return -0.5 * q / s2 - 0.5 * w.shape[0] * math.log(2.0 * math.pi * s2)
    if code == 1:
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


def pair_chain(
    v, code, params, ii, jj, sigmas, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain with binary-collision proposals, d >= 2.

    Consumes the pre-drawn arrays in order; emits a state every `thin`
    proposals once `burn_in` proposals have elapsed.  Returns the number
    of emitted states and accepted proposals.
    """
    d = v.shape[1]
    out_count = out_count0
    accepted = 0
    vi_new = np.empty(d)
    vj_new = np.empty(d)
    for t in range(ii.shape[0]):
        i = ii[t]
        j = jj[t]
        lf_old = _logf_particle(code, params, v[i]) + _logf_particle(code, params, v[j])
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
        lf_new = _logf_particle(code, params, vi_new) + _logf_particle(code, params, vj_new)
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


def triple_chain(
    v, code, params, ii, jj, kk, angles, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain for d = 1: uniform rotations on the circle of a
    particle triple that conserve its momentum and energy."""
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
        lf_old += _logf_particle(code, params, w_old)
        lf_new += _logf_particle(code, params, w_new)
        w_old[0] = v[j, 0]
        w_new[0] = n2
        lf_old += _logf_particle(code, params, w_old)
        lf_new += _logf_particle(code, params, w_new)
        w_old[0] = v[k, 0]
        w_new[0] = n3
        lf_old += _logf_particle(code, params, w_old)
        lf_new += _logf_particle(code, params, w_new)
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


def dsmc_advance(v, t0, t_target, rate, dts, ii, jj, sigmas, cosines=None):
    """Event-driven binary collisions until t_target or draws run out.

    Each event: exponential waiting time (pre-drawn, scaled by 1/rate),
    a uniform pair, a scattering direction; velocities are replaced by
    the post-collisional pair, conserving momentum and energy exactly.
    The scattering direction is the drawn unit vector itself, or, when
    deflection cosines are given, the direction with that cosine to the
    relative velocity whose azimuth the unit vector sets.
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
        if cosines is not None and rr > 0.0:
            sigma = _deflected(v[i] - v[j], sigma, cosines[idx])
        for a in range(d):
            c = 0.5 * (v[i, a] + v[j, a])
            vi = c + r * sigma[a]
            vj = c - r * sigma[a]
            v[i, a] = vi
            v[j, a] = vj
    return t, dts.shape[0], dts.shape[0]


def _deflected(rel, g, cos_theta):
    """c k + sqrt(1 - c^2) w for k = rel / |rel| and w the unit vector g
    projected off k and renormalised."""
    k = rel / np.linalg.norm(rel)
    w = g - (g @ k) * k
    w -= (w @ k) * k  # a second pass keeps w orthogonal to k to rounding
    norm = np.linalg.norm(w)
    if norm < 1e-8:  # g (anti)parallel to k: use the axis least aligned with k
        a = int(np.argmin(np.abs(k)))
        w = -k[a] * k
        w[a] += 1.0
        norm = np.linalg.norm(w)
    return cos_theta * k + math.sqrt(max(1.0 - cos_theta * cos_theta, 0.0)) * (w / norm)


_DEFAULT = SimpleNamespace(
    pair_chain=pair_chain,
    triple_chain=triple_chain,
    dsmc_advance=dsmc_advance,
    jitted=False,  # read by perfbench/child.py
)


def default_kernels() -> SimpleNamespace:
    """The namespace through which every caller calls the loop kernels."""
    return _DEFAULT


def draw_pair_indices(rng: np.random.Generator, n_steps: int, N: int) -> tuple:
    """Uniform distinct (i, j); the shift trick keeps consumption fixed."""
    i = rng.integers(0, N, size=n_steps)
    j = rng.integers(0, N - 1, size=n_steps)
    j = np.where(j >= i, j + 1, j)
    return i.astype(np.int64), j.astype(np.int64)


def draw_triple_indices(rng: np.random.Generator, n_steps: int, N: int) -> tuple:
    i = rng.integers(0, N, size=n_steps)
    j = rng.integers(0, N - 1, size=n_steps)
    j = np.where(j >= i, j + 1, j)
    k = rng.integers(0, N - 2, size=n_steps)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    k = np.where(k >= lo, k + 1, k)
    k = np.where(k >= hi, k + 1, k)
    return i.astype(np.int64), j.astype(np.int64), k.astype(np.int64)


def draw_unit_vectors(rng: np.random.Generator, n_steps: int, d: int) -> np.ndarray:
    g = rng.normal(size=(n_steps, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]
