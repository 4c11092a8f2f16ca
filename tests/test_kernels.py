"""The loop kernels: the bases' kernel lines, draws and exact per-event conservation."""

import dataclasses
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
        pts = rng.uniform(-1.5, 1.5, size=(20, d))
        want = f.log_density(pts)
        logf = _kernels._log_density(f)
        got = np.array([logf(p) for p in pts])
        assert np.allclose(got, want, atol=1e-12)
        # the kernels pass rows as lists of Python floats
        assert np.array_equal([logf(p) for p in pts.tolist()], got)


def test_uniform_code_penalizes_outside():
    logf = _kernels._log_density(bs.get_density("uniform", 1))
    inside = logf([0.5])
    outside = logf([2.5])
    assert outside < inside - 1e3


def test_a_base_without_kernel_lines_is_a_parameter_error():
    f = dataclasses.replace(bs.get_density("gaussian", 1), name="no-lines", kernel_logf=None)
    with pytest.raises(bs.ParameterError, match="kernel lines"):
        _kernels._log_density(f)


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


class _ZeroRow:
    """Seed `seed`'s normal draws with row 7 zeroed."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)

    def normal(self, size):
        g = self.gen.normal(size=size)
        g[7] = 0.0
        return g


@pytest.mark.parametrize("d", range(1, 10))
def test_unit_vectors_are_the_linalg_norm_quotients(d):
    # bit for bit on the same draws, across numpy's switch to pairwise sums
    # at 8 terms; a zero row stays zero
    g = _ZeroRow(d).normal(size=(5000, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    got = _kernels.draw_unit_vectors(_ZeroRow(d), 5000, d)
    assert np.array_equal(got, g / norms[:, None])
    assert not got[7].any()


@pytest.mark.parametrize("N", [2, 3, 5, 300])
def test_index_draws_match_the_where_form(N):
    rng = np.random.default_rng(10)
    i = rng.integers(0, N, size=20_000)
    j = rng.integers(0, N - 1, size=20_000)
    j = np.where(j >= i, j + 1, j)
    got = _kernels.draw_pair_indices(np.random.default_rng(10), 20_000, N)
    assert all(a.dtype == np.int64 for a in got)
    assert np.array_equal(got[0], i) and np.array_equal(got[1], j)
    assert np.all(got[0] != got[1])
    if N < 3:
        return
    k = rng.integers(0, N - 2, size=20_000)
    k = np.where(k >= np.minimum(i, j), k + 1, k)
    k = np.where(k >= np.maximum(i, j), k + 1, k)
    got = _kernels.draw_triple_indices(np.random.default_rng(10), 20_000, N)
    assert all(a.dtype == np.int64 for a in got)
    assert all(np.array_equal(a, b) for a, b in zip(got, (i, j, k)))
    assert np.all(got[0] != got[1]) and np.all(got[1] != got[2]) and np.all(got[0] != got[2])


def test_dsmc_advance_conserves_each_event():
    kernel = CollisionKernel.uniform(3)
    N = 6
    v = bs.sample_uniform_batch(bs.SphereSpec.boltzmann(3, N), 1, 0)[0].reshape(N, 3)
    rng = np.random.default_rng(9)
    advance = _kernels.default_kernels().dsmc_advance
    for _ in range(200):
        p0, e0 = v.sum(axis=0).copy(), float(np.sum(v * v))
        ii, jj = _kernels.draw_pair_indices(rng, 1, N)
        sig = _kernels.draw_unit_vectors(rng, 1, 3)
        rel0 = v[ii[0]] - v[jj[0]]
        _, used, applied = advance(v, 0.0, math.inf, kernel.rate(N), np.ones(1), ii, jj, sig)
        assert (used, applied) == (1, 1)
        assert np.max(np.abs(v.sum(axis=0) - p0)) <= 1e-14 * math.sqrt(e0) + 1e-14
        assert abs(float(np.sum(v * v)) - e0) <= 1e-14 * e0
        # the relative velocity turns to sigma
        sigma = (v[ii[0]] - v[jj[0]]) / np.linalg.norm(rel0)
        assert np.allclose(sigma, sig[0], atol=1e-12)
