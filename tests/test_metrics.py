import itertools
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma, gammaln

import boltzsphere as bs
from boltzsphere.metrics import (
    EmpiricalMeasure,
    Estimate,
    _cost_matrix,
    _knn_distances_1d,
    _transport_lp,
    interpolation_check,
    relative_entropy_vs_gaussian,
    relative_fisher,
    w1,
    w2,
)


def em(pts, weights=None):
    return EmpiricalMeasure(np.asarray(pts, dtype=float), weights)


class TestTransportBasics:
    def test_identical_measures(self):
        a = em(np.random.default_rng(0).normal(size=(30, 2)))
        assert w1(a, a) == 0.0
        assert w2(a, a) == 0.0

    def test_point_masses(self):
        assert w1(em([0.0]), em([3.0])) == pytest.approx(3.0)
        assert w2(em([[0.0, 0.0]]), em([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_two_point_example_brute_force(self):
        # couplings of {0,1} with {0.5,1.5}: identity costs 0.5+0.5, swap 1.5+0.5
        a, b = em([0.0, 1.0]), em([0.5, 1.5])
        costs = []
        for perm in itertools.permutations(range(2)):
            costs.append(0.5 * sum(abs([0.0, 1.0][i] - [0.5, 1.5][perm[i]]) for i in range(2)))
        assert w1(a, b) == pytest.approx(min(costs))
        assert min(costs) == pytest.approx(0.5)

    def test_weighted_quantile_coupling(self):
        a = em([0.0, 1.0], weights=[0.75, 0.25])
        b = em([0.0, 1.0], weights=[0.25, 0.75])
        # move 0.5 of mass across distance 1
        assert w1(a, b) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(bs.ParameterError):
            w1(em([[0.0, 0.0]]), em([0.0]))

    def test_capacity_limit(self):
        big = em(np.zeros((2100, 2)))
        bigger = em(np.zeros((2100, 2)))
        with pytest.raises(bs.CapacityError):
            w1(big, bigger)


class TestDualAlgorithmOracle:
    def test_quantile_vs_lp_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = em(rng.normal(size=100))
            b = em(rng.normal(0.5, 1.7, size=100))
            lp1 = _transport_lp(_cost_matrix(a, b, 1), a.weights, b.weights)
            assert abs(w1(a, b) - lp1) <= 1e-10
            lp2 = math.sqrt(_transport_lp(_cost_matrix(a, b, 2), a.weights, b.weights))
            assert abs(w2(a, b) - lp2) <= 1e-10

    def test_assignment_vs_lp_2d(self):
        rng = np.random.default_rng(13)
        a = em(rng.normal(size=(40, 2)))
        b = em(rng.normal(0.3, 1.2, size=(40, 2)))
        lp = _transport_lp(_cost_matrix(a, b, 1), a.weights, b.weights)
        assert w1(a, b) == pytest.approx(lp, abs=1e-9)


class TestQuantileCoupling:
    @pytest.mark.parametrize("n", [12_345, 1_000_000])
    def test_last_segment_is_kept_at_equal_sizes(self, n):
        # the cumulative sum of n weights 1/n ends above 1 + 1e-15 here, and
        # the last point, moved, carries the whole cost
        assert np.cumsum(np.full(n, 1.0 / n))[-1] > 1.0 + 1e-15
        a = np.arange(n, dtype=float)
        b = a.copy()
        b[-1] = 100.0 * n
        gap = b[-1] - a[-1]
        assert w1(em(a), em(b)) == pytest.approx(gap / n, rel=1e-9)
        assert w2(em(a), em(b)) == pytest.approx(gap / math.sqrt(n), rel=1e-9)

    def test_last_segment_is_kept_when_merging(self):
        # b lists each point twice: the same measure on 2n points, whose
        # cumulative sum also ends above 1 + 1e-15
        n = 12_345
        assert np.cumsum(np.full(2 * n, 0.5 / n))[-1] > 1.0 + 1e-15
        a = np.arange(n, dtype=float)
        b = a.copy()
        b[-1] = 100.0 * n
        gap = b[-1] - a[-1]
        assert w1(em(a), em(np.repeat(b, 2))) == pytest.approx(gap / n, rel=1e-7)

    @pytest.mark.parametrize("n", [12_345, 1_000_000])
    def test_uniform_measures_of_different_sizes_are_exact(self, n):
        # breakpoints k/n and j/2n kept as integers: a cumulative sum of 2n
        # weights 1/2n is off by up to about n eps, which the one moved point
        # turned into a relative error of 5e-10 (n = 12,345) and 1.2e-6 (10^6)
        a = np.arange(n, dtype=float)
        b = a.copy()
        b[-1] = 1e7
        gap = b[-1] - a[-1]
        twice = em(np.concatenate([b, b]))
        assert abs(w1(em(a), twice) - gap / n) <= 1e-12 * (gap / n)
        assert abs(w2(em(a), twice) - gap / math.sqrt(n)) <= 1e-12 * (gap / math.sqrt(n))


class TestMetricAxioms:
    def test_symmetry_triangle_and_jensen(self):
        rng = np.random.default_rng(14)
        for dim in (1, 2, 3):
            a = em(rng.normal(size=(35, dim)))
            b = em(rng.normal(0.4, 1.1, size=(35, dim)))
            c = em(rng.normal(-0.2, 0.9, size=(35, dim)))
            for dist in (w1, w2):
                assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-9)
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
            assert w1(a, b) <= w2(a, b) + 1e-12


class TestEntropyEstimator:
    def test_gaussian_null(self):
        g = bs.get_density("gaussian", 1)
        s = em(g.sample(np.random.default_rng(0), 50_000))
        est = relative_entropy_vs_gaussian(s)
        assert abs(est.value) <= 3.0 * est.stderr

    def test_scaled_gaussian_closed_form(self):
        g4 = bs.gaussian_density(1, 4.0)
        s = em(g4.sample(np.random.default_rng(0), 100_000))
        est = relative_entropy_vs_gaussian(s)
        assert est.value == pytest.approx(0.80685, abs=3.0 * est.stderr)

    def test_uniform_closed_form(self):
        u = bs.get_density("uniform", 1)
        s = em(u.sample(np.random.default_rng(0), 100_000))
        est = relative_entropy_vs_gaussian(s)
        assert est.value == pytest.approx(0.17649, abs=3.0 * est.stderr)

    def test_duplicates_jittered(self):
        pts = np.concatenate([np.zeros(50), np.random.default_rng(1).normal(size=500)])
        with pytest.warns(UserWarning, match="jittered"):
            est = relative_entropy_vs_gaussian(em(pts))
        assert est.jittered

    def test_consistency_rate_on_gaussian_family(self):
        # mean absolute error shrinks like n^{-0.3} or faster
        g = bs.gaussian_density(1, 4.0)
        target = g.relative_entropy_vs_gamma()
        rows = []
        for n in (1000, 10_000, 100_000):
            errs = []
            for seed in range(5):
                s = em(g.sample(np.random.default_rng(seed), n))
                errs.append(abs(relative_entropy_vs_gaussian(s).value - target))
            rows.append((n, float(np.mean(errs))))
        rep = bs.fit_loglog(rows)
        assert rep.slope <= -0.3

    def test_weighted_samples_rejected(self):
        w = np.array([0.5, 0.25, 0.25])
        with pytest.raises(bs.ParameterError):
            relative_entropy_vs_gaussian(em([0.0, 1.0, 2.0], weights=w))


def ref_knn_eps(pts, k):
    """k-th nearest-neighbour distances by a k-d tree query (self excluded)."""
    return cKDTree(pts).query(pts, k=k + 1)[0][:, k]


def ref_relative_entropy_vs_gaussian(pts, k_nn=4, n_folds=10):
    """The k-d tree estimator in every dimension, with the same jitter and
    jackknife as `relative_entropy_vs_gaussian`."""
    pts = np.array(pts, dtype=float)
    n, d = pts.shape
    jittered = False
    order = np.lexsort(pts.T)
    dup = np.nonzero(np.all(np.diff(pts[order], axis=0) == 0.0, axis=1))[0]
    if dup.size:
        jittered = True
        pts[order[dup + 1]] += np.random.default_rng(0).uniform(-1e-12, 1e-12, size=(dup.size, d))

    def h_rel(block):
        m = block.shape[0]
        eps = ref_knn_eps(block, k_nn)
        log_ball = 0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0)
        h = digamma(m) - digamma(k_nn) + log_ball + d * np.mean(np.log(np.maximum(eps, 1e-300)))
        return (
            -float(h)
            + 0.5 * d * math.log(2.0 * math.pi)
            + 0.5 * float(np.mean(np.sum(block * block, axis=1)))
        )

    full = h_rel(pts)
    loo = np.empty(n_folds)
    for i, fold in enumerate(np.array_split(np.arange(n), n_folds)):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        loo[i] = h_rel(pts[mask])
    m = float(n_folds)
    stderr = math.sqrt((m - 1.0) / m * float(np.sum((loo - loo.mean()) ** 2)))
    return Estimate(value=full, stderr=stderr, jittered=jittered)


def _samples_1d(kind, n=20_000):
    rng = np.random.default_rng(31)
    if kind == "gaussian":
        return rng.normal(0.0, 2.0, size=(n, 1))
    if kind == "uniform":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(n, 1))
    # exact duplicates jittered by 1e-12, as the estimator does
    pts = np.concatenate([np.zeros(50), rng.normal(size=500)])[:, None]
    pts[1:50] += rng.uniform(-1e-12, 1e-12, size=(49, 1))
    return pts


class TestKnnOracle:
    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "jittered"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_sorted_window_equals_tree(self, kind, k):
        pts = _samples_1d(kind)
        assert np.array_equal(_knn_distances_1d(pts[:, 0], k), ref_knn_eps(pts, k))

    def test_every_jackknife_fold(self):
        pts = _samples_1d("gaussian")
        n = pts.shape[0]
        for fold in np.array_split(np.arange(n), 10):
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            block = pts[mask]
            assert np.array_equal(_knn_distances_1d(block[:, 0], 4), ref_knn_eps(block, 4))

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_estimate_is_bit_identical_to_tree_reference(self, kind):
        pts = _samples_1d(kind)
        assert relative_entropy_vs_gaussian(em(pts)) == ref_relative_entropy_vs_gaussian(pts)

    def test_duplicates_estimate_is_bit_identical_to_tree_reference(self):
        pts = np.concatenate([np.zeros(50), np.random.default_rng(1).normal(size=500)])[:, None]
        with pytest.warns(UserWarning, match="jittered"):
            est = relative_entropy_vs_gaussian(em(pts))
        assert est == ref_relative_entropy_vs_gaussian(pts)

    def _count_sorts(self, monkeypatch):
        calls = {"argsort": 0, "lexsort": 0}
        for name in calls:
            def counted(*args, _sort=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _sort(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        return calls

    def test_one_sort_per_sample(self, monkeypatch):
        # the sort that finds duplicates also sorts every jackknife fold
        pts = _samples_1d("gaussian")
        want = ref_relative_entropy_vs_gaussian(pts)
        calls = self._count_sorts(monkeypatch)
        assert relative_entropy_vs_gaussian(em(pts)) == want
        assert calls == {"argsort": 1, "lexsort": 0}

    def test_ties_take_the_lexsort_path(self, monkeypatch):
        # ties are jittered as the lexsort order finds them, then re-sorted
        pts = np.concatenate([np.zeros(50), np.random.default_rng(1).normal(size=500)])[:, None]
        want = ref_relative_entropy_vs_gaussian(pts)
        calls = self._count_sorts(monkeypatch)
        with pytest.warns(UserWarning, match="jittered"):
            assert relative_entropy_vs_gaussian(em(pts)) == want
        assert calls == {"argsort": 2, "lexsort": 1}

    def test_two_dimensions_keep_the_tree(self):
        pts = np.random.default_rng(32).normal(size=(5000, 2))
        assert relative_entropy_vs_gaussian(em(pts)) == ref_relative_entropy_vs_gaussian(pts)


class TestFisherEstimator:
    def test_gaussian_null(self):
        g = bs.get_density("gaussian", 2)
        s = em(g.sample(np.random.default_rng(2), 20_000))
        est = relative_fisher(g, s)
        assert abs(est.value) <= 3.0 * est.stderr + 1e-12

    def test_scaled_gaussian(self):
        g4 = bs.gaussian_density(1, 4.0)
        s = em(g4.sample(np.random.default_rng(3), 100_000))
        est = relative_fisher(g4, s)
        assert est.value == pytest.approx(2.25, abs=3.0 * est.stderr)

    def test_additivity_across_coordinates(self):
        g4 = bs.gaussian_density(2, 4.0)
        s = em(g4.sample(np.random.default_rng(4), 100_000))
        est = relative_fisher(g4, s)
        assert est.value == pytest.approx(4.5, abs=3.0 * est.stderr)

    def test_boundary_points_excluded(self):
        u = bs.get_density("uniform", 1)
        pts = np.array([[0.0], [0.5], [math.sqrt(3.0)]])
        est = relative_fisher(u, em(pts))
        assert est.excluded == 1
        assert est.value == pytest.approx(0.125)  # mean of |0+0|^2 and |0+0.5|^2

    def test_unpacks_as_pair(self):
        g = bs.get_density("gaussian", 1)
        s = em(g.sample(np.random.default_rng(5), 1000))
        value, stderr = relative_fisher(g, s)
        assert value >= 0.0 and stderr >= 0.0


class TestInterpolation:
    def test_equal_measures_pass(self):
        a = em(np.random.default_rng(6).normal(size=(50, 1)))
        res = interpolation_check(a, a, 4)
        assert res.passed and res.w2 == 0.0

    def test_point_mass_hand_value(self):
        res = interpolation_check(em([0.0]), em([1.0]), 4)
        assert res.passed
        assert res.w2 == pytest.approx(1.0)
        assert res.bound == pytest.approx(2.0**1.5)

    def test_hundred_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = em(rng.normal(rng.normal(), abs(rng.normal()) + 0.2, size=(200, 1)))
            b = em(rng.normal(rng.normal(), abs(rng.normal()) + 0.2, size=(200, 1)))
            assert interpolation_check(a, b, 4).passed

    def test_order_validation(self):
        with pytest.raises(bs.ParameterError):
            interpolation_check(em([0.0]), em([1.0]), 1)


class TestEmpiricalMeasure:
    def test_weight_validation(self):
        with pytest.raises(bs.ParameterError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([0.9, 0.2]))
        with pytest.raises(bs.ParameterError):
            EmpiricalMeasure(np.array([[np.inf]]))

    def test_moment(self):
        m = em([[3.0, 4.0]])
        assert m.moment(2) == pytest.approx(25.0)

    def test_uniform_is_computed_once_per_measure(self, monkeypatch):
        calls = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **k: calls.append(a) or allclose(*a, **k))
        even, skewed = em([[0.0], [1.0]]), em([[0.0], [1.0]], np.array([0.25, 0.75]))
        assert [even.uniform, even.uniform, skewed.uniform, skewed.uniform] == [True, True, False, False]
        assert len(calls) == 2
