"""The array grid lookups against the scalar ones as the reference.

`ref_interp_log` is the per-point bilinear interpolation of log-values that
`GridDensity.interp_log` evaluated one query at a time on the stored z >= 0
rows at |z|; the array form must reproduce it bit for bit, including the
linear fallback in cells with a zero corner.  `ref_log_z_prime` is the per-point partition value; the array form
takes its logs with `np.log`, which differs from `math.log` in the last bit
on some inputs, so it is compared to a tolerance of a few ulps of its terms.
"""

import math

import numpy as np
import pytest

import boltzsphere as bs
from boltzsphere.geometry import SphereSpec, log_sphere_measure
from boltzsphere.lifted import GridDensity, lifted_grid

UNIF = bs.get_density("uniform", 1)


def ref_interp_log(g, z, u):
    nk, nu = g.values.shape
    fz = abs(z) / g.dz
    fu = u / g.du
    if not (fz <= nk - 1 and 0.0 <= fu <= nu - 1):
        raise bs.CoverageError(f"query point (z={z}, u={u}) outside the grid window")
    iz, iu = int(fz), int(fu)
    iz = min(iz, nk - 2)
    iu = min(iu, nu - 2)
    tz, tu = fz - iz, fu - iu
    corners = g.values[iz : iz + 2, iu : iu + 2]
    if np.all(corners > 0.0):
        lc = np.log(corners)
        return float(
            (1 - tz) * (1 - tu) * lc[0, 0]
            + (1 - tz) * tu * lc[0, 1]
            + tz * (1 - tu) * lc[1, 0]
            + tz * tu * lc[1, 1]
        )
    lin = (
        (1 - tz) * (1 - tu) * corners[0, 0]
        + (1 - tz) * tu * corners[0, 1]
        + tz * (1 - tu) * corners[1, 0]
        + tz * tu * corners[1, 1]
    )
    return math.log(lin) if lin > 0.0 else -math.inf


def ref_log_z_prime(grid, r, z_mom):
    N = grid.N
    u = r * r
    z2 = z_mom * z_mom
    if u - z2 / N <= 0.0:
        raise bs.SupportError("empty sphere")
    spec = SphereSpec(d=1, N=N, r=r, z=np.array([z_mom]))
    log_s = ref_interp_log(grid.power, z_mom, u)
    if log_s == -math.inf:
        return -math.inf
    log_zn = (
        math.log(2.0)
        + 0.5 * math.log(u - z2 / N)
        + 0.5 * math.log(N)
        + log_s
        - log_sphere_measure(spec)
    )
    return log_zn + 0.5 * N * math.log(2.0 * math.pi) + 0.5 * u


def _window_points(g, n, rng):
    nk, nu = g.values.shape
    z = g.dz * (nk - 1) * (2.0 * rng.random(n) - 1.0)
    u = g.du * (nu - 1) * rng.random(n)
    return z, u


def _check_equal(g, z, u):
    got = g.interp_log(z, u)
    want = np.array([ref_interp_log(g, a, b) for a, b in zip(z.tolist(), u.tolist())])
    assert got.shape == z.shape
    assert np.array_equal(got, want)


def test_interp_log_matches_reference_in_window():
    # the lifted power of the uniform box is zero off its compact support,
    # so random points hit the log-bilinear branch, the linear fallback and -inf
    g = lifted_grid(UNIF, 8, shape=(256, 256)).power
    z, u = _window_points(g, 20_000, np.random.default_rng(0))
    _check_equal(g, z, u)
    got = g.interp_log(z, u)
    assert np.isfinite(got).sum() > 1000 and np.isneginf(got).sum() > 1000


def test_interp_log_zero_corner_cells():
    # a checkerboard of zeros: every cell has a zero corner; some linear
    # interpolants are positive (fallback log), some vanish (-inf)
    rng = np.random.default_rng(1)
    vals = rng.random((16, 12)) + 0.5
    vals[::2, ::2] = 0.0
    vals[5, :] = 0.0
    vals[:, 7] = 0.0
    g = GridDensity(z_hi=2.0, u_hi=3.0, values=vals)
    z, u = _window_points(g, 5000, rng)
    # lattice nodes themselves, where a zero corner carries all the weight
    nodes_z = np.repeat(g.z_nodes()[:-1], 11)
    nodes_u = np.tile(g.u_nodes()[:-1], 15)
    z, u = np.concatenate([z, nodes_z]), np.concatenate([u, nodes_u])
    _check_equal(g, z, u)
    got = g.interp_log(z, u)
    assert np.isneginf(got).any() and np.isfinite(got).any()


def test_interp_log_scalar_and_shape():
    g = lifted_grid(UNIF, 8, shape=(256, 256)).power
    val = g.interp_log(0.1, 8.0)
    assert isinstance(val, float) and val == ref_interp_log(g, 0.1, 8.0)
    z, u = _window_points(g, 12, np.random.default_rng(2))
    assert g.interp_log(z.reshape(3, 4), u.reshape(3, 4)).shape == (3, 4)
    assert g.interp_log(z, 8.0).shape == (12,)


@pytest.mark.parametrize("where", [0, 7, -1])
def test_interp_log_any_point_outside_raises(where):
    g = lifted_grid(UNIF, 8, shape=(256, 256)).power
    z, u = _window_points(g, 8, np.random.default_rng(3))
    z[where] = g.z_hi + 1.0
    with pytest.raises(bs.CoverageError):
        g.interp_log(z, u)
    z, u = _window_points(g, 8, np.random.default_rng(3))
    u[where] = np.nan
    with pytest.raises(bs.CoverageError):
        g.interp_log(z, u)


def test_log_z_prime_array_matches_reference():
    grid = lifted_grid(UNIF, 15, shape=(512, 512))
    v = np.linspace(-1.7, 1.7, 301)
    r, z = np.sqrt(16.0 - v * v), -v
    got = grid.log_z_prime(r, z)
    want = np.array([ref_log_z_prime(grid, a, b) for a, b in zip(r.tolist(), z.tolist())])
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    fin = np.isfinite(want)
    assert fin.sum() > 250
    assert np.max(np.abs(got[fin] - want[fin])) <= 1e-12
    assert grid.log_z_prime(4.0, 0.0) == pytest.approx(ref_log_z_prime(grid, 4.0, 0.0), abs=1e-12)
    with pytest.raises(bs.SupportError):
        grid.log_z_prime(np.array([4.0, 0.5]), np.array([0.0, 4.0]))
