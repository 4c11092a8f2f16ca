import math

import numpy as np
import pytest
from scipy import integrate

import boltzsphere as bs
from boltzsphere.densities import gaussian_mixture_density


@pytest.mark.parametrize("name", ["gaussian", "uniform", "mixture"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_registry_normalization(name, d):
    f = bs.get_density(name, d)
    assert f.E == pytest.approx(d, abs=1e-12)
    assert f.eps == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(0)
    pts = f.sample(rng, 200_000)
    assert np.max(np.abs(pts.mean(axis=0))) <= 0.02
    assert float(np.mean(np.sum(pts * pts, axis=1))) == pytest.approx(d, abs=0.05)
    # off-diagonal second moments vanish: isotropic covariance
    if d > 1:
        cov = pts.T @ pts / pts.shape[0]
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 0.03


@pytest.mark.parametrize("name", ["gaussian", "uniform", "mixture"])
def test_density_integrates_to_one_1d(name):
    f = bs.get_density(name, 1)
    r = f.tail_radius()
    val, _ = integrate.quad(lambda v: float(f.pdf(v)[0]), -r, r, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name", ["gaussian", "uniform", "mixture"])
def test_moments_match_quadrature_1d(name):
    f = bs.get_density(name, 1)
    r = f.tail_radius()
    for k in (2, 4, 6):
        want, _ = integrate.quad(lambda v: v**k * float(f.pdf(v)[0]), -r, r, limit=200)
        assert f.moment(k) == pytest.approx(want, rel=1e-7)


def test_sigma2_values():
    assert bs.get_density("gaussian", 1).sigma2 == pytest.approx(2.0)
    assert bs.get_density("gaussian", 3).sigma2 == pytest.approx(6.0)
    assert bs.get_density("uniform", 1).sigma2 == pytest.approx(0.8)
    # mixture: variance of |v|^2 via M4 - E^2 in d = 1
    f = bs.get_density("mixture", 1)
    assert f.sigma2 == pytest.approx(f.moment(4) - 1.0, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_mixture_radial_moments_against_mc(d):
    f = bs.get_density("mixture", d)
    pts = f.sample(np.random.default_rng(1), 400_000)
    r2 = np.sum(pts * pts, axis=1)
    assert f.moment(4) == pytest.approx(float(np.mean(r2**2)), rel=0.02)
    assert f.moment(6) == pytest.approx(float(np.mean(r2**3)), rel=0.05)


@pytest.mark.parametrize("name", ["gaussian", "uniform", "mixture"])
def test_cdf_matches_quadrature(name):
    f = bs.get_density(name, 1)
    for v in (-1.5, -0.3, 0.0, 0.7, 2.0):
        want, _ = integrate.quad(lambda t: float(f.pdf(t)[0]), -f.tail_radius(), v, limit=200)
        assert float(f.cdf(v)) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("name", ["gaussian", "mixture"])
def test_score_matches_log_density_gradient(name):
    f = bs.get_density(name, 2)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(50, 2)) * 0.9
    h = 1e-6
    sc = f.score(pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        fd = (f.log_density(pts + shift) - f.log_density(pts - shift)) / (2 * h)
        assert np.max(np.abs(fd - sc[:, axis])) <= 1e-5


def test_uniform_score_flags_boundary():
    f = bs.get_density("uniform", 1)
    sc = f.score(np.array([[0.2], [math.sqrt(3.0)]]))
    assert sc[0, 0] == 0.0
    assert np.isnan(sc[1, 0])


def test_entropy_limits():
    assert bs.get_density("gaussian", 1).relative_entropy_vs_gamma() == 0.0
    val = bs.get_density("uniform", 1).relative_entropy_vs_gamma()
    want = -math.log(2.0 * math.sqrt(3.0)) + 0.5 * math.log(2.0 * math.pi) + 0.5
    assert val == pytest.approx(want, abs=1e-12)
    assert val == pytest.approx(0.17649, abs=5e-6)
    # scaled gaussian: (1/2)(s2 - 1 - log s2)
    assert bs.gaussian_density(1, 4.0).relative_entropy_vs_gamma() == pytest.approx(
        0.5 * (4.0 - 1.0 - math.log(4.0))
    )


def test_mixture_is_bimodal_along_first_axis():
    f = bs.get_density("mixture", 1)
    p0 = float(f.pdf(0.0)[0])
    pm = float(f.pdf(0.8)[0])
    assert pm > p0


def test_unknown_registry_name():
    with pytest.raises(bs.ParameterError):
        bs.get_density("cauchy", 1)


def test_mixture_separation_validation():
    with pytest.raises(bs.ParameterError):
        gaussian_mixture_density(1, separation=1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_declared_fields_of_the_registry(d):
    # the Gaussian fixed point and a compact support are declared by the
    # builder, and the kernel parameters are the constants the lines read
    f = {name: bs.get_density(name, d) for name in bs.registry_names()}
    assert [n for n, g in f.items() if g.is_gaussian] == ["gaussian"]
    assert [n for n, g in f.items() if g.support_radius is not None] == ["uniform"]
    assert f["gaussian"].params == (1.0,)
    assert f["uniform"].params == (math.sqrt(3.0),)
    assert f["mixture"].params == (0.8, 1.0 - 0.8 * 0.8)
