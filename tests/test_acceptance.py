"""Acceptance suite: one test per criterion.

Criteria 1-7 and 9-11 each run the CLI subcommand that defines them, at its
default config, and pass when it exits 0.  The subcommand is the only
definition of its criterion: its parameters, seed and tolerances live in
`boltzsphere.cli`, and it prints one PASS/FAIL line per check (run with
`pytest tests/test_acceptance.py -v -s` to see them).  Criterion 8 has no
subcommand and is defined here.

Criterion 6 (`w1-rate`) asserts the paper's W1 bound C/sqrt(N), with C
calibrated at the first N, and a fitted slope of at most -0.35.  The exact
marginal actually decays like c_inf/N: the second-order local CLT gives
F^N_1 = f (1 + q/N) + O(N^-2), and the test also checks N W1 against the
constant c_inf that this closed form gives for the uniform box.
"""

import json
import math

import numpy as np
from scipy import integrate, stats

import boltzsphere as bs
from boltzsphere import cli
from boltzsphere.conditioned import ConditionedLaw, sample_conditioned_batch
from boltzsphere.geometry import SphereSpec
from boltzsphere.uniform import UniformMarginal, coordinate_marginal, marginal_density

SEED = 20240901
GAUSS = bs.get_density("gaussian", 1)


def _report(num, label, ok, detail=""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label} {detail}".rstrip())
    return ok


def _cli(tmp_path, *argv):
    """Exit code of one subcommand at its default config, writing into tmp_path."""
    return cli.main([*argv, "--out", str(tmp_path)])


def test_criterion_01_helmert_suite(tmp_path):
    assert _cli(tmp_path, "geometry-selftest") == cli.EXIT_OK


def test_criterion_02_uniform_marginal_normalization(tmp_path):
    assert _cli(tmp_path, "uniform-marginal") == cli.EXIT_OK


def test_criterion_03_l1_chaos_bound(tmp_path):
    assert _cli(tmp_path, "l1-gap") == cli.EXIT_OK


def test_criterion_04_partition_pipeline_oracle(tmp_path):
    assert _cli(tmp_path, "zprime", "--density", "gaussian") == cli.EXIT_OK
    assert _cli(tmp_path, "zprime", "--density", "uniform") == cli.EXIT_OK


def test_criterion_05_local_clt_rate(tmp_path):
    assert _cli(tmp_path, "berry-esseen") == cli.EXIT_OK


def _box_w1_constant() -> float:
    """c_inf = lim N W1(F^N_1, f) for the uniform box on [-sqrt 3, sqrt 3].

    The exact marginal is f(v) s_{N-1}(-v, N - v^2) / s_N(0, N), s_n the
    density of the lifted sum (sum v_i, sum v_i^2), whose covariance is
    diag(1, 4/5).  To order 1/N it is f (1 + q/N) with
        q = 1 - v^2/2 - (5/8)(1 - v^2)^2 - (6/7)(1 - v^2):
    the prefactor N/(N-1), the Gaussian exponent at the displacement
    (-v, 1 - v^2), and the linear part of the first Edgeworth polynomial
    with third cumulants E v^4 - 1 = 4/5 and E (v^2 - 1)^3 = 16/35.
    """
    a = math.sqrt(3.0)
    v = np.polynomial.Polynomial([0.0, 1.0])
    w = 1.0 - v**2
    q = 1.0 - v**2 / 2.0 - (5.0 / 8.0) * w**2 - (6.0 / 7.0) * w
    gap_cdf = (q / (2.0 * a)).integ(lbnd=-a)  # CDF of f q; vanishes at both ends
    assert abs(gap_cdf(a)) <= 1e-12
    kinks = [r.real for r in gap_cdf.roots() if abs(r.imag) < 1e-12 and abs(r.real) < a]
    return integrate.quad(lambda x: abs(gap_cdf(x)), -a, a, points=kinks)[0]


def test_criterion_06_w1_chaos_rate(tmp_path):
    assert _cli(tmp_path, "w1-rate") == cli.EXIT_OK
    with open(tmp_path / "w1-rate.json", encoding="utf-8") as fh:
        rows = json.load(fh)["fit"]["rows"]
    c_inf = _box_w1_constant()
    worst = max(abs(r["N"] * r["value"] / c_inf - 1.0) for r in rows if r["N"] >= 32)
    detail = f"(c_inf {c_inf:.5f}, worst |N W1 / c_inf - 1| {worst:.3f})"
    assert _report(6, "one-particle W1 constant", worst <= 0.05, detail)


def test_criterion_07_entropic_chaos_rate(tmp_path):
    assert _cli(tmp_path, "entropy-rate") == cli.EXIT_OK


def test_criterion_08_sampler_correctness():
    # d = 1 triple moves against the quadrature marginal CDF
    spec1 = SphereSpec.boltzmann(1, 16)
    law1 = ConditionedLaw(f=GAUSS, spec=spec1)
    v1 = sample_conditioned_batch(law1, SEED, 100_000)[:, 0, 0]
    m = UniformMarginal(spec1, 1)
    grid = np.linspace(-math.sqrt(15.0), math.sqrt(15.0), 6001)
    cdf = integrate.cumulative_trapezoid(marginal_density(m, grid[:, None]), grid, initial=0.0)
    p1 = stats.kstest(v1, lambda x: np.interp(x, grid, cdf)).pvalue

    # d = 2 pair moves against the coordinate law
    spec2 = SphereSpec.boltzmann(2, 16)
    law2 = ConditionedLaw(f=bs.get_density("gaussian", 2), spec=spec2)
    c2 = sample_conditioned_batch(law2, SEED + 1, 100_000)[:, 0, 0]
    p2 = stats.kstest(c2, lambda x: coordinate_marginal(spec2).cdf(x)).pvalue

    # discretized single-triple state space: stationary eigenvector of the
    # Metropolis matrix must match the product weights
    f = bs.get_density("mixture", 1)
    theta = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    pts = math.sqrt(3.0) * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)
    logw = f.log_density(pts.reshape(-1, 1)).reshape(360, 3).sum(axis=1)
    wgt = np.exp(logw - logw.max())
    P = np.minimum(1.0, wgt[None, :] / wgt[:, None]) / 360.0
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    evals, evecs = np.linalg.eig(P.T)
    pi_vec = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
    pi_vec /= pi_vec.sum()
    eig_err = float(np.max(np.abs(pi_vec - wgt / wgt.sum())))

    ok = p1 > 0.01 and p2 > 0.01 and eig_err <= 1e-8
    assert _report(
        8, "collision-move sampler correctness", ok,
        f"(KS p: d1 {p1:.3f}, d2 {p2:.3f}; eigenvector err {eig_err:.1e})",
    )


def test_criterion_09_dsmc_invariants_and_equilibrium(tmp_path):
    assert _cli(tmp_path, "dsmc") == cli.EXIT_OK


def test_criterion_10_integration_by_parts(tmp_path):
    assert _cli(tmp_path, "ipp-check") == cli.EXIT_OK


def test_criterion_11_metric_suite(tmp_path):
    assert _cli(tmp_path, "metrics-selftest") == cli.EXIT_OK
