"""The loop kernels: density codes, draws and exact per-event conservation."""

import math

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere import _kernels
from boltzsphere.dsmc import CollisionKernel


def test_logf_codes_match_density():
    rng = np.random.default_rng(6)
    for name, d in (("gaussian", 3), ("mixture", 2), ("uniform", 1)):
        f = bs.get_density(name, d)
        code, params = _kernels.density_code(f)
        pts = rng.uniform(-1.5, 1.5, size=(20, d))
        want = f.log_density(pts)
        logf = _kernels._log_density(code, params, d)
        got = np.array([logf(p) for p in pts])
        assert np.allclose(got, want, atol=1e-12)
        # the kernels pass rows as lists of Python floats
        assert np.array_equal([logf(p) for p in pts.tolist()], got)


def test_uniform_code_penalizes_outside():
    f = bs.get_density("uniform", 1)
    code, params = _kernels.density_code(f)
    logf = _kernels._log_density(code, params, 1)
    inside = logf([0.5])
    outside = logf([2.5])
    assert outside < inside - 1e3


def test_triple_indices_distinct():
    rng = np.random.default_rng(7)
    ii, jj, kk = _kernels.draw_triple_indices(rng, 50_000, 5)
    assert np.all(ii != jj) and np.all(jj != kk) and np.all(ii != kk)
    # uniform over unordered triples: each index appears with equal frequency
    counts = np.bincount(np.concatenate([ii, jj, kk]), minlength=5)
    assert np.max(np.abs(counts / counts.sum() - 0.2)) < 0.01


def test_pair_indices_distinct_and_uniform():
    rng = np.random.default_rng(8)
    ii, jj = _kernels.draw_pair_indices(rng, 50_000, 6)
    assert np.all(ii != jj)
    counts = np.bincount(ii * 6 + jj, minlength=36).reshape(6, 6)
    off = counts[~np.eye(6, dtype=bool)]
    assert off.min() > 0
    assert np.all(np.diag(counts) == 0)


@pytest.mark.parametrize(
    "kernel",
    [CollisionKernel.uniform(3), CollisionKernel.truncated_singular(3, nu=0.3, cos_max=0.8, beta=4.0)],
    ids=["uniform", "truncated"],
)
def test_dsmc_advance_conserves_each_event(kernel):
    N = 6
    v = bs.sample_uniform_batch(bs.SphereSpec.boltzmann(3, N), 1, 0)[0].reshape(N, 3)
    rng = np.random.default_rng(9)
    advance = _kernels.default_kernels().dsmc_advance
    for _ in range(200):
        p0, e0 = v.sum(axis=0).copy(), float(np.sum(v * v))
        ii, jj = _kernels.draw_pair_indices(rng, 1, N)
        sig = _kernels.draw_unit_vectors(rng, 1, 3)
        cos = None if kernel.costheta_sampler is None else kernel.costheta_sampler(rng, 1)
        rel0 = v[ii[0]] - v[jj[0]]
        _, used, applied = advance(v, 0.0, math.inf, kernel.rate(N), np.ones(1), ii, jj, sig, cos)
        assert (used, applied) == (1, 1)
        assert np.max(np.abs(v.sum(axis=0) - p0)) <= 1e-14 * math.sqrt(e0) + 1e-14
        assert abs(float(np.sum(v * v)) - e0) <= 1e-14 * e0
        # the relative velocity turns to sigma; with cosines, at the drawn angle
        sigma = (v[ii[0]] - v[jj[0]]) / np.linalg.norm(rel0)
        if cos is None:
            assert np.allclose(sigma, sig[0], atol=1e-12)
        else:
            assert sigma @ rel0 / np.linalg.norm(rel0) == pytest.approx(cos[0], abs=1e-12)
