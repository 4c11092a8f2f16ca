"""The batch integration-by-parts integrand against the per-sample one.

`ref_tangent_gradient`, `ref_surface_divergence` and `ref_ipp_residual` are
the per-sample definitions that evaluate one (dN,) row at a time, and `ref_ipp_fields` are the three field pairs of `ipp-check` written
for them.  The batch form takes its row dot products with `np.vecdot`, the
same dot as the reference's `@`, but its traces and contractions with
`einsum` and its exponentials and sines with numpy's ufuncs, so the two
agree to a few ulps of the terms, not bit for bit: the tolerance is 1e-13
absolute plus 1e-13 relative.
"""

import math

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere.cli import _ipp_fields
from boltzsphere.geometry import (
    _JACOBIAN_CHUNK_ENTRIES,
    _ipp_chunk_rows,
    _ipp_integrand,
    ipp_residual,
)
from boltzsphere.uniform import sample_uniform_batch

CASES = ((2, 4), (3, 3), (2, 10))


def ref_tangent_gradient(grad, V, spec):
    g = np.asarray(grad(V), dtype=float).reshape(-1)
    gm = g.reshape(spec.N, spec.d)
    gh = (gm - gm.mean(axis=0)).reshape(-1)
    vv = float(V @ V)
    return gh - (float(V @ g) / vv) * V


def ref_surface_divergence(jacobian, V, spec):
    J = np.asarray(jacobian(V), dtype=float)
    div = float(np.trace(J))
    J4 = J.reshape(spec.N, spec.d, spec.N, spec.d)
    hyper = float(np.einsum("jbib->", J4)) / spec.N
    vv = float(V @ V)
    radial = float((J @ V) @ V) / vv
    return div - hyper - radial


def ref_integrand(pair, samples, spec):
    (f_value, f_grad), (phi_value, phi_jac) = pair
    coef = (spec.d * (spec.N - 1) - 1) / (spec.d * spec.N)
    vals = np.empty(len(samples))
    for k, V in enumerate(samples):
        fv = float(f_value(V))
        phi = np.asarray(phi_value(V), dtype=float).reshape(-1)
        vals[k] = (
            float(ref_tangent_gradient(f_grad, V, spec) @ phi)
            + fv * ref_surface_divergence(phi_jac, V, spec)
            - coef * fv * float(phi @ V)
        )
    return vals


def ref_ipp_residual(pair, samples, spec):
    vals = ref_integrand(pair, samples, spec)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return mean, stderr


def ref_ipp_fields(d, N):
    """The three per-sample (value, grad) and (value, jacobian) pairs."""
    n = d * N

    def e_vec(idx):
        out = np.zeros(n)
        out[idx] = 1.0
        return out

    f1 = (lambda V: V[0], lambda V: e_vec(0))
    phi1 = (lambda V, e=e_vec(min(d, n - 1)): e, lambda V: np.zeros((n, n)))
    scale = 2.0 * d * N
    f2 = (
        lambda V: math.exp(-float(V @ V) / scale),
        lambda V: -2.0 * V / scale * math.exp(-float(V @ V) / scale),
    )
    phi2 = (lambda V: V.copy(), lambda V: np.eye(n))
    f3 = (lambda V: V[0] * V[0], lambda V: 2.0 * V[0] * e_vec(0))

    def phi3_jac(V):
        out = np.zeros((n, n))
        out[1, 1] = math.cos(V[1])
        return out

    phi3 = (lambda V: math.sin(V[1]) * e_vec(1), phi3_jac)
    return [(f1, phi1), (f2, phi2), (f3, phi3)]


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-13 + 1e-13 * np.abs(want))


def _check(d, N, n, seed):
    spec = bs.SphereSpec.boltzmann(d, N)
    batch = sample_uniform_batch(spec, n, seed)
    for (F, Phi, _), pair in zip(_ipp_fields(d, N), ref_ipp_fields(d, N)):
        want = ref_integrand(pair, batch, spec)
        assert _close(_ipp_integrand(F, Phi, batch, spec), want)
        mean, se = ipp_residual(F, Phi, batch, spec)
        ref_mean, ref_se = ref_ipp_residual(pair, batch, spec)
        scale = 1e-13 * (1.0 + float(np.max(np.abs(want))))
        assert abs(mean - ref_mean) <= scale
        assert abs(se - ref_se) <= scale


@pytest.mark.parametrize("d,N", CASES)
def test_field_pairs_match_the_per_sample_reference(d, N):
    _check(d, N, 300, 11)


@pytest.mark.parametrize("d,N", CASES)
def test_single_sample(d, N):
    _check(d, N, 1, 12)


def test_partial_last_chunk():
    rows = _ipp_chunk_rows(20)
    assert rows > 1
    _check(2, 10, rows + 37, 13)


def test_several_chunks():
    rows = _ipp_chunk_rows(20)
    _check(2, 10, 3 * rows + 5, 14)


def test_chunk_bounds_the_jacobian_entries():
    for m in (8, 9, 20, 300, 2000):
        rows = _ipp_chunk_rows(m)
        assert rows >= 1
        assert rows * m * m <= max(_JACOBIAN_CHUNK_ENTRIES, m * m)
