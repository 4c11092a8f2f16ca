"""Hot inner loops: collision Metropolis chains and the event-driven walk.

Each kernel consumes arrays of pre-drawn randomness, and callers call the
kernels through the `default_kernels()` namespace.  All randomness is drawn
outside the kernels, so a trajectory is fixed by the stream alone, whatever
the worker count.

The two chain kernels and the collision walk are Python loops on Python
floats.  Reading a numpy array one element at a time boxes every value into
a new numpy scalar, and arithmetic on numpy scalars goes through numpy's type
dispatch; that, not the arithmetic, was most of the cost of a step.  So each
loop holds the velocities as one list per axis (`v[:, a].tolist()`), loads
and stores single coordinates, and writes each column back before it
returns; the pair chain emits a state as d column writes, and the triple
chain, with d = 1, as one.  Python floats and float64 are the same IEEE
doubles, and the loops apply the same operations in the same order
(`math.sqrt`, `math.exp` and `math.log` on the same values), so every
result is bit-identical to indexing the arrays directly.  Each particle's
log density is computed at entry and replaced only when a move is accepted,
so the old state's density is a lookup.  The pre-drawn arrays are turned
into lists whole.  A list of boxed floats takes several times the memory of
its array, so the callers bound it: the chains (`conditioned._Chain`) and
the collision walk (`dsmc._advance`) draw at most `_BLOCK` proposals or
events for one kernel call.  That also bounds the draws a chain that stops
early leaves unused to less than one block.

What is left of a step's cost is interpreter overhead, so each loop is
generated for its (move, base density, d) and compiled on first use
(`_generated`), the way `dataclasses` builds `__init__`.  A template holds
one move and its bookkeeping: the pair move for d >= 2, unrolled over the d
axes, and the triple rotation for d = 1.  Each base declares its
log-density as source lines (`BaseDensity.kernel_setup` and
`kernel_logf`), inlined for every new particle of a proposal, and the
chains and `_log_density` are both built from those lines, so each base's
arithmetic is written once, in its builder; its constants are computed from
`params` once per call, at entry.  The emission schedule is one counter
compared with the step of the next state, not a modulo per step.  Nothing is
compiled at import or by `default_kernels()`.

The collision walk (`dsmc_advance`) reads its clock off one cumulative sum
of the waiting times and applies the events it reaches in one generated loop
(`dsmc_collide`), keyed by d.  An event loads both particles, then writes
both, with the per-event reference arithmetic in the same order, so the
velocities are bit-identical.

A compact base, the uniform box, is handled with a large finite
out-of-support penalty (`_PENALTY` per coordinate outside the box) so that
chains started off its support descend into it during burn-in and never
leave it afterwards.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError

# No loop is compiled to machine code; perfbench/child.py records this flag and the
# namespace's `jitted` in its run metadata.
HAVE_NUMBA = False

_PENALTY = 1.0e4
_BLOCK = 4096  # the most draws one kernel call is given


# The chain kernels, the per-particle log density and the collision event
# loop are generated source, compiled on first use and kept in _GENERATED by
# (kind, base name, d).  A template holds the move and the bookkeeping.  The
# fields {x}, {y}, {a}, {b}, {g} and {X} take the names x0, x1, ... of the
# d axes with that letter, "@setup" the density's constants, "@move" the
# unrolled pair move, "@collide" the same move on the per-axis lists X0,
# X1, ..., "@axes line" the line once per axis with {a} its number (written
# {{a}}, since the template is formatted first), and "@logf out names" the
# base's lines for the density of the named coordinates, each at the line's
# indentation.
# `emit` is the next step that emits a state: the first after step0 that is
# past burn_in by a multiple of thin.
_PAIR_TEMPLATE = """\
def pair_chain(v, params, ii, jj, sigmas, log_us, step0, burn_in, thin, out, out_count0):
    @setup
    {X} = {columns}
    lf = []
    for {x} in zip({X}):
        @logf li {x}
        lf.append(li)
    n_out = out.shape[0]
    out_count = out_count0
    accepted = 0
    step = step0
    emit = burn_in + max(1, (step0 - burn_in) // thin + 1) * thin
    for i, j, log_u, {g} in zip(ii.tolist(), jj.tolist(), log_us.tolist(), {sigma_columns}):
        {a} = {Xi}
        {b} = {Xj}
        # post-collisional velocities on the pair's collision sphere
        @move
        @logf li {x}
        @logf lj {y}
        if log_u < li + lj - (lf[i] + lf[j]):
            @axes X{{a}}[i] = x{{a}}
            @axes X{{a}}[j] = y{{a}}
            lf[i] = li
            lf[j] = lj
            accepted += 1
        step += 1
        if step == emit:
            @axes out[out_count, :, {{a}}] = X{{a}}
            out_count += 1
            if out_count == n_out:
                break
            emit += thin
    @axes v[:, {{a}}] = X{{a}}
    return out_count, accepted, step - step0
"""

_TRIPLE_TEMPLATE = """\
def triple_chain(v, params, ii, jj, kk, angles, log_us, step0, burn_in, thin, out, out_count0):
    @setup
    inv_sqrt2 = 1.0 / sqrt(2.0)
    inv_sqrt6 = 1.0 / sqrt(6.0)
    x = v[:, 0].tolist()
    lf = []
    for x0 in x:
        @logf l1 x0
        lf.append(l1)
    n_out = out.shape[0]
    out_count = out_count0
    accepted = 0
    step = step0
    emit = burn_in + max(1, (step0 - burn_in) // thin + 1) * thin
    for i, j, k, angle, log_u in zip(
        ii.tolist(), jj.tolist(), kk.tolist(), angles.tolist(), log_us.tolist()
    ):
        xi = x[i]
        xj = x[j]
        xk = x[k]
        s = xi + xj + xk
        e = xi * xi + xj * xj + xk * xk
        c = s / 3.0
        rho2 = e - s * s / 3.0
        step += 1
        if rho2 <= 0.0:
            # the circle is a point: no move, and no state at this step
            if step == emit:
                emit += thin
            continue
        rho = sqrt(rho2)
        ca = cos(angle)
        sa = sin(angle)
        # orthonormal basis of the zero-sum plane in R^3
        n1 = c + rho * (ca * inv_sqrt2 + sa * inv_sqrt6)
        n2 = c + rho * (-ca * inv_sqrt2 + sa * inv_sqrt6)
        n3 = c + rho * (-2.0 * sa * inv_sqrt6)
        @logf l1 n1
        @logf l2 n2
        @logf l3 n3
        if log_u < l1 + l2 + l3 - (lf[i] + lf[j] + lf[k]):
            x[i] = n1
            x[j] = n2
            x[k] = n3
            lf[i] = l1
            lf[j] = l2
            lf[k] = l3
            accepted += 1
        if step == emit:
            out[out_count, :, 0] = x
            out_count += 1
            if out_count == n_out:
                v[:, 0] = x
                return out_count, accepted, step - step0
            emit += thin
    v[:, 0] = x
    return out_count, accepted, step - step0
"""

_COLLIDE_TEMPLATE = """\
def dsmc_collide(v, ii, jj, sigmas):
    {X} = {columns}
    for i, j, {g} in zip(ii.tolist(), jj.tolist(), {sigma_columns}):
        {a} = {Xi}
        {b} = {Xj}
        @collide
    @axes v[:, {{a}}] = X{{a}}
"""

_LOG_DENSITY_TEMPLATE = """\
def log_density(params):
    @setup

    def logf(row):
        {x} = map(float, row)
        @logf lw {x}
        return lw

    return logf
"""


def _pair_move_lines(d, new_i, new_j):
    """Lines that set new_i and new_j, patterns in the axis {a}, to the
    post-collisional velocities of a and b along the unit vector g."""
    lines = [f"d{a} = a{a} - b{a}" for a in range(d)]
    squares = " + ".join(f"d{a} * d{a}" for a in range(d))
    lines.append(f"r = 0.5 * sqrt({squares})")
    for a in range(d):
        lines += [
            f"c = 0.5 * (a{a} + b{a})",
            f"t = r * g{a}",
            f"{new_i.format(a=a)} = c + t",
            f"{new_j.format(a=a)} = c - t",
        ]
    return lines


_TEMPLATES = {
    "pair_chain": _PAIR_TEMPLATE,
    "triple_chain": _TRIPLE_TEMPLATE,
    "log_density": _LOG_DENSITY_TEMPLATE,
    "dsmc_collide": _COLLIDE_TEMPLATE,
}


def _source(kind, f, d):
    def names(pattern):
        return ", ".join(pattern.format(a=a) for a in range(d)) + ","

    fields = {p: names(p + "{a}") for p in "xyabgX"}
    fields["sigma_columns"] = names("sigmas[:, {a}].tolist()")
    fields["columns"] = names("v[:, {a}].tolist()")
    fields["Xi"], fields["Xj"] = names("X{a}[i]"), names("X{a}[j]")
    lines = []
    for line in _TEMPLATES[kind].format(**fields).splitlines():
        body = line.lstrip()
        if body == "@setup":
            block = f.kernel_setup
        elif body == "@move":
            block = _pair_move_lines(d, "x{a}", "y{a}")
        elif body == "@collide":
            block = _pair_move_lines(d, "X{a}[i]", "X{a}[j]")
        elif body.startswith("@axes "):
            block = [body[len("@axes "):].format(a=a) for a in range(d)]
        elif body.startswith("@logf "):
            out, *xs = body[len("@logf "):].replace(",", " ").split()
            block = f.kernel_logf(out, xs)
        else:
            block = [body]
        pad = line[: len(line) - len(body)]
        lines += [pad + b for b in block]
    return "\n".join(lines) + "\n"


_GENERATED = {}  # (kind, base name, d) -> compiled function
_NAMESPACE = {
    "_PENALTY": _PENALTY, "pi": math.pi,
    "sqrt": math.sqrt, "log": math.log, "exp": math.exp, "cos": math.cos, "sin": math.sin,
}


def _generated(kind, f, d):
    """The function `kind` ("pair_chain", "triple_chain", "log_density" or
    "dsmc_collide") for base density f (None for "dsmc_collide") in
    dimension d, compiled on its first request."""
    key = (kind, None if f is None else f.name, d)
    fn = _GENERATED.get(key)
    if fn is None:
        if f is not None and f.kernel_logf is None:
            raise ParameterError(f"density {f.name!r} declares no kernel lines")
        label = f"<{kind} d={d}>" if f is None else f"<{kind} {f.name} d={d}>"
        namespace = dict(_NAMESPACE)
        exec(compile(_source(kind, f, d), label, "exec"), namespace)
        fn = _GENERATED[key] = namespace[kind]
    return fn


def _log_density(f):
    """Per-particle log density of base f up to the support penalty, as a
    function of one row of f.d numbers; the chain kernels inline the same
    lines."""
    return _generated("log_density", f, f.d)(f.params)


def pair_chain(
    v, f, params, ii, jj, sigmas, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain with binary-collision proposals, d >= 2, targeting
    the tensor power of base f; its kernel lines read `params`.

    Consumes the pre-drawn arrays in order; emits a state every `thin`
    proposals once `burn_in` proposals have elapsed, and stops as soon as
    `out` is full.  Returns the number of emitted states, the number of
    accepted proposals and the number of proposals consumed.
    """
    if out_count0 >= out.shape[0]:
        return out_count0, 0, 0
    return _generated("pair_chain", f, v.shape[1])(
        v, params, ii, jj, sigmas, log_us, step0, burn_in, thin, out, out_count0
    )


def triple_chain(
    v, f, params, ii, jj, kk, angles, log_us, step0, burn_in, thin, out, out_count0
):
    """Metropolis chain for d = 1: uniform rotations on the circle of a
    particle triple that conserve its momentum and energy.  Stops and
    returns like `pair_chain`."""
    if out_count0 >= out.shape[0]:
        return out_count0, 0, 0
    return _generated("triple_chain", f, 1)(
        v, params, ii, jj, kk, angles, log_us, step0, burn_in, thin, out, out_count0
    )


def dsmc_advance(v, t0, t_target, rate, dts, ii, jj, sigmas):
    """Event-driven binary collisions until t_target or draws run out.

    Each event: exponential waiting time (pre-drawn, scaled by 1/rate),
    a uniform pair, a scattering direction (the drawn unit vector);
    velocities are replaced by the post-collisional pair, conserving
    momentum and energy exactly.
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
        _generated("dsmc_collide", None, v.shape[1])(v, ii[:k], jj[:k], sigmas[:k])
    return t, used, k


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
    j += j >= i
    return i, j


def draw_triple_indices(rng: np.random.Generator, n_steps: int, N: int) -> tuple:
    i = rng.integers(0, N, size=n_steps)
    j = rng.integers(0, N - 1, size=n_steps)
    j += j >= i
    k = rng.integers(0, N - 2, size=n_steps)
    k += k >= np.minimum(i, j)
    k += k >= np.maximum(i, j)
    return i, j, k


def draw_unit_vectors(rng: np.random.Generator, n_steps: int, d: int) -> np.ndarray:
    """n_steps normalised Gaussian draws, each divided by its
    `np.linalg.norm`.  That norm sums the squares pairwise from 8 terms on;
    below 8 the sum left to right is the same and cheaper."""
    g = rng.normal(size=(n_steps, d))
    if d < 8:
        norms = g[:, 0] * g[:, 0]
        for a in range(1, d):
            norms += g[:, a] * g[:, a]
    else:
        norms = np.add.reduce(g * g, axis=1)
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    g /= norms[:, None]
    return g
