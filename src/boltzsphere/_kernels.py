"""Hot inner loops: collision Metropolis chains and the event-driven walk.

Each kernel is one plain Python loop over arrays of pre-drawn randomness, and
callers call the kernels through the `default_kernels()` namespace.  All
randomness is drawn outside the kernels, so a trajectory is fixed by the
stream alone, whatever the worker count.

The loops run on Python floats.  Reading a numpy array one element at a time
boxes every value into a new numpy scalar, and arithmetic on numpy scalars
goes through numpy's type dispatch; that, not the arithmetic, was most of
the cost of a step.  So each kernel copies `v` to nested lists at entry
(`v.tolist()`) and writes it back before it returns.  Python floats and
float64 are the same IEEE doubles, and the loops apply the same operations
in the same order (`math.sqrt`, `math.exp` and `math.log` on the same
values), so every result is bit-identical to indexing the arrays directly.
The per-particle log density is built once per kernel call
(`_log_density`), so its normalising constant is computed once, by the same
expression, instead of once per particle.  The pre-drawn arrays are turned
into lists `_BLOCK` entries at a time, not whole: a list of boxed floats
takes several times the memory of the array, so converting a chunk of draws
at once would raise the peak memory, and a kernel that stops early would
convert draws it never uses.

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
_BLOCK = 4096  # draws converted to Python objects at a time


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


def _log_density(code, params, d):
    """Per-particle log density of a registry code up to the support
    penalty, as a function of one row of d floats (any indexable); additive
    constants cancel in Metropolis ratios but are kept for clarity."""
    if code == 0:
        s2 = float(params[0])
        norm = 0.5 * d * math.log(2.0 * math.pi * s2)

        def logf(w):
            q = 0.0
            for x in w:
                q += x * x
            return -0.5 * q / s2 - norm

        return logf
    if code == 1:
        half = float(params[0])
        norm = d * math.log(2.0 * half)

        def logf(w):
            viol = 0.0
            for x in w:
                if abs(x) > half:
                    viol += 1.0
            return -viol * _PENALTY - norm

        return logf
    m = float(params[0])
    c1 = float(params[1])
    norm = -0.5 * (math.log(2.0 * math.pi * c1) + (d - 1) * math.log(2.0 * math.pi))
    rest_axes = range(1, d)

    def logf(w):
        qa = (w[0] - m) * (w[0] - m) / c1
        qb = (w[0] + m) * (w[0] + m) / c1
        rest = 0.0
        for a in rest_axes:
            rest += w[a] * w[a]
        la = -0.5 * (qa + rest)
        lb = -0.5 * (qb + rest)
        hi = la if la > lb else lb
        return norm + hi + math.log(0.5 * (math.exp(la - hi) + math.exp(lb - hi)))

    return logf


def _draws(*arrays):
    """The arrays' entries side by side as Python objects, converted `_BLOCK`
    entries at a time."""
    for b0 in range(0, len(arrays[0]), _BLOCK):
        yield from zip(*(a[b0 : b0 + _BLOCK].tolist() for a in arrays))


def pair_chain(
    v, code, params, ii, jj, sigmas, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain with binary-collision proposals, d >= 2.

    Consumes the pre-drawn arrays in order; emits a state every `thin`
    proposals once `burn_in` proposals have elapsed, and stops as soon as
    `out` is full.  Returns the number of emitted states, the number of
    accepted proposals and the number of proposals consumed.
    """
    n_out = out.shape[0]
    if out_count0 >= n_out:
        return out_count0, 0, 0
    d = v.shape[1]
    axes = range(d)
    logf = _log_density(code, params, d)
    rows = v.tolist()
    vi_new = [0.0] * d
    vj_new = [0.0] * d
    out_count = out_count0
    accepted = 0
    for t, (i, j, sigma, log_u) in enumerate(_draws(ii, jj, sigmas, log_us)):
        vi = rows[i]
        vj = rows[j]
        lf_old = logf(vi) + logf(vj)
        # post-collisional velocities on the pair's collision sphere
        rr = 0.0
        for a in axes:
            diff = vi[a] - vj[a]
            rr += diff * diff
        r = 0.5 * math.sqrt(rr)
        for a in axes:
            c = 0.5 * (vi[a] + vj[a])
            vi_new[a] = c + r * sigma[a]
            vj_new[a] = c - r * sigma[a]
        lf_new = logf(vi_new) + logf(vj_new)
        if log_u < lf_new - lf_old:
            vi[:] = vi_new
            vj[:] = vj_new
            accepted += 1
        step = step0 + t + 1
        if step > burn_in and (step - burn_in) % thin == 0:
            out[out_count] = rows
            out_count += 1
            if out_count == n_out:
                v[...] = rows
                return out_count, accepted, t + 1
    v[...] = rows
    return out_count, accepted, len(log_us)


def triple_chain(
    v, code, params, ii, jj, kk, angles, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain for d = 1: uniform rotations on the circle of a
    particle triple that conserve its momentum and energy.  Stops and
    returns like `pair_chain`."""
    n_out = out.shape[0]
    if out_count0 >= n_out:
        return out_count0, 0, 0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    inv_sqrt6 = 1.0 / math.sqrt(6.0)
    logf = _log_density(code, params, 1)
    x = v[:, 0].tolist()
    out_count = out_count0
    accepted = 0
    for t, (i, j, k, angle, log_u) in enumerate(_draws(ii, jj, kk, angles, log_us)):
        xi = x[i]
        xj = x[j]
        xk = x[k]
        s = xi + xj + xk
        e = xi * xi + xj * xj + xk * xk
        c = s / 3.0
        rho2 = e - s * s / 3.0
        if rho2 <= 0.0:
            continue
        rho = math.sqrt(rho2)
        ca = math.cos(angle)
        sa = math.sin(angle)
        # orthonormal basis of the zero-sum plane in R^3
        n1 = c + rho * (ca * inv_sqrt2 + sa * inv_sqrt6)
        n2 = c + rho * (-ca * inv_sqrt2 + sa * inv_sqrt6)
        n3 = c + rho * (-2.0 * sa * inv_sqrt6)
        lf_old = 0.0
        lf_new = 0.0
        lf_old += logf((xi,))
        lf_new += logf((n1,))
        lf_old += logf((xj,))
        lf_new += logf((n2,))
        lf_old += logf((xk,))
        lf_new += logf((n3,))
        if log_u < lf_new - lf_old:
            x[i] = n1
            x[j] = n2
            x[k] = n3
            accepted += 1
        step = step0 + t + 1
        if step > burn_in and (step - burn_in) % thin == 0:
            out[out_count, :, 0] = x
            out_count += 1
            if out_count == n_out:
                v[:, 0] = x
                return out_count, accepted, t + 1
    v[:, 0] = x
    return out_count, accepted, len(log_us)


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
    axes = range(v.shape[1])
    rows = v.tolist()
    t = t0
    for idx, (dt, i, j, sigma) in enumerate(_draws(dts, ii, jj, sigmas)):
        dt = dt / rate
        if t + dt > t_target:
            v[...] = rows
            return t_target, idx + 1, idx
        t += dt
        vi = rows[i]
        vj = rows[j]
        rr = 0.0
        for a in axes:
            diff = vi[a] - vj[a]
            rr += diff * diff
        r = 0.5 * math.sqrt(rr)
        if cosines is not None and rr > 0.0:
            sigma = _deflected(np.array(vi) - np.array(vj), sigmas[idx], cosines[idx]).tolist()
        for a in axes:
            c = 0.5 * (vi[a] + vj[a])
            vi[a] = c + r * sigma[a]
            vj[a] = c - r * sigma[a]
    v[...] = rows
    return t, len(dts), len(dts)


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
