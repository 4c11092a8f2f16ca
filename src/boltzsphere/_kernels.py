"""Hot inner loops: collision Metropolis chains and the event-driven walk.

Each kernel consumes arrays of pre-drawn randomness, and callers call the
kernels through the `default_kernels()` namespace.  All randomness is drawn
outside the kernels, so a trajectory is fixed by the stream alone, whatever
the worker count.

The two chain kernels are plain Python loops on Python floats.  Reading a
numpy array one element at a time boxes every value into a new numpy
scalar, and arithmetic on numpy scalars goes through numpy's type dispatch;
that, not the arithmetic, was most of the cost of a step.  So each chain
copies `v` to nested lists at entry (`v.tolist()`) and writes it back before
it returns.  Python floats and float64 are the same IEEE doubles, and the
loops apply the same operations in the same order (`math.sqrt`, `math.exp`
and `math.log` on the same values), so every result is bit-identical to
indexing the arrays directly.  The per-particle log density is built once
per kernel call (`_log_density`), so its normalising constant is computed
once, by the same expression, instead of once per particle; each particle's
value of it is computed at entry and replaced only when a move is accepted,
so the old state's density is a lookup.  The pre-drawn arrays are turned
into lists `_BLOCK` entries at a time, not whole: a list of boxed floats
takes several times the memory of the array, so converting a chunk of draws
at once would raise the peak memory, and a kernel that stops early would
convert draws it never uses.

A Metropolis step reads the state its predecessor left, so the chains stay
sequential.  A collision event does not: it reads and writes only its own
pair.  `dsmc_advance` reads the clock off one cumulative sum, then splits
the events it applies into waves (`_waves`): an event's wave is one past the
last wave of an earlier event that shares a particle with it.  The events of
a wave touch disjoint pairs, and every event lands after each earlier event
it depends on, so applying the waves in turn gives the sequential result.
The events are sorted into wave order once, and each wave is one gather of
its particles' velocity rows, one batch of numpy operations on the first
and the second particles' rows, and one scatter back.  The arithmetic per
event is the loop's, elementwise in the same order, so the velocities are
bit-identical.  At N = 256 a wave holds about 35 events (the
1,000,000-event drift check of `dsmc` runs about 29,000 waves).

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
    lf = [logf(row) for row in rows]
    vi_new = [0.0] * d
    vj_new = [0.0] * d
    out_count = out_count0
    accepted = 0
    for t, (i, j, sigma, log_u) in enumerate(_draws(ii, jj, sigmas, log_us)):
        vi = rows[i]
        vj = rows[j]
        lf_old = lf[i] + lf[j]
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
        lfi = logf(vi_new)
        lfj = logf(vj_new)
        if log_u < lfi + lfj - lf_old:
            vi[:] = vi_new
            vj[:] = vj_new
            lf[i] = lfi
            lf[j] = lfj
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
    lf = [logf((xi,)) for xi in x]
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
        l1 = logf((n1,))
        l2 = logf((n2,))
        l3 = logf((n3,))
        if log_u < l1 + l2 + l3 - (lf[i] + lf[j] + lf[k]):
            x[i] = n1
            x[j] = n2
            x[k] = n3
            lf[i] = l1
            lf[j] = l2
            lf[k] = l3
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
    # cumsum adds in order, so ts[k + 1] is the clock after event k exactly
    ts = np.cumsum(np.concatenate(([t0], dts / rate)))
    late = np.flatnonzero(ts[1:] > t_target)
    if late.size:
        k = int(late[0])
        t, used = t_target, k + 1
    else:
        k = used = len(dts)
        t = float(ts[-1])
    if k:
        _collide_in_waves(
            v, ii[:k], jj[:k], sigmas[:k], None if cosines is None else cosines[:k]
        )
    return t, used, k


def _waves(ii, jj, N):
    """Each event's wave: one past the last wave of an earlier event that
    shares a particle with it, so no two events of a wave share one."""
    last = [0] * N
    waves = []
    add = waves.append
    for i, j in zip(ii.tolist(), jj.tolist()):
        w = last[i]
        if last[j] > w:
            w = last[j]
        add(w)
        last[i] = last[j] = w + 1
    return np.array(waves)


def _collide_in_waves(v, ii, jj, sigmas, cosines):
    """Apply the events with the result of applying them in order, one
    batch of numpy operations per wave of `_waves` (see the module notes).

    The events are sorted into wave order once.  A wave of m events is laid
    out as the rows of its m first particles, then those of its m second
    particles, so one row gather and one row scatter serve it.
    """
    wave = _waves(ii, jj, v.shape[0])
    order = np.argsort(wave, kind="stable")
    wave = wave[order]
    sizes = np.bincount(wave)
    starts = np.cumsum(sizes) - sizes
    # wave w holds the sorted events from starts[w] and the rows from twice
    # that; an event's first row is starts[w] plus its sorted position, its
    # second row sizes[w] further on
    slot = starts[wave] + np.arange(len(wave))
    idx = np.empty(2 * len(wave), dtype=np.int64)
    idx[slot] = ii[order]
    idx[slot + sizes[wave]] = jj[order]
    sig = sigmas[order]
    cos = None if cosines is None else cosines[order]
    d = v.shape[1]
    for e0, m in zip(starts.tolist(), sizes.tolist()):
        rows = idx[2 * e0 : 2 * (e0 + m)]
        pq = v[rows]
        p, q = pq[:m], pq[m:]
        diff = p - q
        sq = diff * diff
        rr = sq[:, 0]
        for a in range(1, d):
            rr = rr + sq[:, a]
        r = np.sqrt(rr)
        r *= 0.5
        s = sig[e0 : e0 + m]
        if cos is not None:
            for k in np.flatnonzero(rr > 0.0).tolist():
                s[k] = _deflected(diff[k], s[k], cos[e0 + k])
        rs = s * r[:, None]
        c = p + q
        c *= 0.5
        np.add(c, rs, out=p)
        np.subtract(c, rs, out=q)
        v[rows] = pq


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
    """n_steps normalised Gaussian draws."""
    g = rng.normal(size=(n_steps, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]
