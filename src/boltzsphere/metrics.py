"""Distances and information functionals used to quantify chaos.

Transport distances are exact: sorted-quantile coupling in dimension one,
assignment (uniform weights, equal sizes) or a transportation LP solved by
HiGHS otherwise.  Entropy against the Gaussian uses a k-nearest-neighbor
differential entropy estimate with jackknife error bars; relative Fisher
information is a plug-in Monte Carlo average of |score(v) + v|^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import digamma, gammaln

from .densities import BaseDensity
from .errors import CapacityError, ParameterError

__all__ = [
    "EmpiricalMeasure",
    "Estimate",
    "InterpolationResult",
    "w1",
    "w2",
    "relative_entropy_vs_gaussian",
    "relative_fisher",
    "interpolation_check",
]

MAX_TRANSPORT_PAIRS = 4_000_000


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud in R^D with normalized weights."""

    points: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if not np.all(np.isfinite(pts)):
            raise ParameterError("points must be finite")
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],) or np.any(w < 0):
                raise ParameterError("weights must be nonnegative, one per point")
            total = float(w.sum())
            if abs(total - 1.0) > 1e-12:
                raise ParameterError(f"weights must sum to 1 (got {total!r})")
            w = w / total
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, rtol=0.0, atol=1e-12 / self.n))

    def moment(self, k: int) -> float:
        return float(self.weights @ np.linalg.norm(self.points, axis=1) ** k)


@dataclass(frozen=True)
class Estimate:
    """Value with a standard error; unpacks as (value, stderr)."""

    value: float
    stderr: float
    excluded: int = 0
    jittered: bool = False

    def __iter__(self):
        return iter((self.value, self.stderr))


def _quantile_cost_1d(a: EmpiricalMeasure, b: EmpiricalMeasure, p: int) -> float:
    # exact coupling of sorted quantile functions
    ia = np.argsort(a.points[:, 0], kind="stable")
    ib = np.argsort(b.points[:, 0], kind="stable")
    xa, xb = a.points[ia, 0], b.points[ib, 0]
    if a.uniform and b.uniform:
        # the breakpoints k/n and j/m in integer units of 1/lcm(n, m): each
        # segment is then one exact count, rounded once when divided
        unit = math.lcm(xa.size, xb.size)
        ca = np.arange(1, xa.size + 1, dtype=np.int64) * (unit // xa.size)
        cb = np.arange(1, xb.size + 1, dtype=np.int64) * (unit // xb.size)
        # their sorted union as one sort and a mask of repeats; np.union1d
        # gives the same array, but took 2.2 s against 0.06 s at 10^6 and
        # 2 10^6 points (numpy 2.4, 2-core VM)
        qs = np.sort(np.concatenate((ca, cb)))
        qs = qs[np.concatenate(([True], qs[1:] != qs[:-1]))]
        seg = np.diff(qs, prepend=0) / unit
        diffs = np.abs(xa[np.searchsorted(ca, qs)] - xb[np.searchsorted(cb, qs)])
        return float(np.sum(seg * diffs**p))
    ca = np.cumsum(a.weights[ia])
    cb = np.cumsum(b.weights[ib])
    qs = np.union1d(ca, cb)
    # a cumulative sum can end a little above 1; cutting below the
    # smaller end would drop the last segment
    qs = qs[qs <= max(1.0 + 1e-15, min(ca[-1], cb[-1]))]
    seg = np.diff(np.concatenate(([0.0], qs)))
    pa = np.searchsorted(ca, qs - 1e-15, side="left")
    pb = np.searchsorted(cb, qs - 1e-15, side="left")
    pa = np.clip(pa, 0, xa.size - 1)
    pb = np.clip(pb, 0, xb.size - 1)
    diffs = np.abs(xa[pa] - xb[pb])
    return float(np.sum(seg * diffs**p))


def _cost_matrix(a: EmpiricalMeasure, b: EmpiricalMeasure, p: int) -> np.ndarray:
    from scipy.spatial.distance import cdist

    # cdist keeps exact zeros for coincident points, unlike the expanded
    # |x|^2 + |y|^2 - 2 x.y form
    metric = "sqeuclidean" if p == 2 else "euclidean"
    return cdist(a.points, b.points, metric=metric)


def _transport_lp(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> float:
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n, m = cost.shape
    rows_a = np.repeat(np.arange(n), m)
    rows_b = n + np.tile(np.arange(m), n)
    cols = np.arange(n * m)
    data = np.ones(n * m)
    A_eq = coo_matrix(
        (np.concatenate([data, data]), (np.concatenate([rows_a, rows_b]), np.concatenate([cols, cols]))),
        shape=(n + m, n * m),
    )
    res = linprog(
        cost.reshape(-1),
        A_eq=A_eq.tocsr(),
        b_eq=np.concatenate([wa, wb]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise CapacityError(f"transportation LP failed: {res.message}")
    return float(res.fun)


def _min_cost(a: EmpiricalMeasure, b: EmpiricalMeasure, p: int) -> float:
    if a.dim != b.dim:
        raise ParameterError("measures live in different dimensions")
    if a.dim == 1:
        return _quantile_cost_1d(a, b, p)
    if a.n * b.n > MAX_TRANSPORT_PAIRS:
        raise CapacityError(
            f"{a.n} x {b.n} pairs exceeds the exact-transport limit {MAX_TRANSPORT_PAIRS}"
        )
    cost = _cost_matrix(a, b, p)
    if a.n == b.n and a.uniform and b.uniform:
        from scipy.optimize import linear_sum_assignment

        ri, ci = linear_sum_assignment(cost)
        return float(cost[ri, ci].mean())
    return _transport_lp(cost, a.weights, b.weights)


def w1(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact 1-transport distance with Euclidean ground cost."""
    return _min_cost(a, b, p=1)


def w2(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact 2-transport distance (square root of the minimal squared cost)."""
    return math.sqrt(max(_min_cost(a, b, p=2), 0.0))


def _knn_distances_1d(x: np.ndarray, k: int, order: Optional[np.ndarray] = None) -> np.ndarray:
    """Distance from each point of x to its k-th nearest other point.

    On a line a point and its k nearest neighbours fill a window of k + 1
    consecutive sorted points, so the distance is the smallest, over the
    k + 1 windows that hold the point, of the larger gap to the window's two
    ends (infinite past the ends of the data).  Each gap is one subtraction,
    and a k-d tree's distance sqrt((x_i - x_j)^2) rounds back to
    |x_i - x_j|, so the result is bit-identical to a tree query.

    `order`, if given, is a permutation that sorts x.  Tied values have equal
    distances, so any sorting permutation gives the same result.
    """
    n = x.size
    if order is None:
        order = np.argsort(x)
    padded = np.empty(n + 2 * k)
    padded[:k] = -np.inf
    padded[k + n :] = np.inf
    # mode="clip" lets take write into `out` directly; "raise" would buffer
    mid = np.take(x, order, out=padded[k : k + n], mode="clip")
    best = np.full(n, np.inf)
    left = np.empty(n)
    right = np.empty(n)
    for a in range(k + 1):
        # the window of a neighbours on the left and k - a on the right
        np.subtract(mid, padded[k - a : k - a + n], out=left)
        np.subtract(padded[2 * k - a : 2 * k - a + n], mid, out=right)
        np.minimum(best, np.maximum(left, right, out=left), out=best)
    right[order] = best  # `right` is free after the last window
    return right


def _knn_entropy(points: np.ndarray, k: int, order: Optional[np.ndarray] = None) -> float:
    """k-NN differential entropy of the rows of `points`; `order`, for
    d = 1 only, sorts the first column (see `_knn_distances_1d`)."""
    n, d = points.shape
    if d == 1:
        eps = _knn_distances_1d(points[:, 0], k, order)
    else:
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(points).query(points, k=k + 1, workers=-1)
        eps = dist[:, k]
    log_ball = 0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1.0)
    return float(
        digamma(n) - digamma(k) + log_ball + d * np.mean(np.log(np.maximum(eps, 1e-300)))
    )


def relative_entropy_vs_gaussian(
    samples: EmpiricalMeasure, k_nn: int = 4, n_folds: int = 10, rng: Optional[np.random.Generator] = None
) -> Estimate:
    """H(mu | gamma) from samples of mu.

    Uses H(mu|gamma) = -h(mu) + (d/2) log(2 pi) + mean|x|^2 / 2 with h the
    k-nearest-neighbor differential entropy; the standard error comes from a
    delete-one-fold jackknife over `n_folds` folds.  Exact duplicate points
    are jittered by 1e-12 (flagged in the result).

    In d = 1 the sample is sorted once: that order finds the duplicates, and
    restricted to each fold it sorts the fold's points too.
    """
    if k_nn < 1:
        raise ParameterError("k_nn must be >= 1")
    if not samples.uniform:
        raise ParameterError("entropy estimation expects unweighted samples")
    pts = np.array(samples.points, dtype=float)
    n, d = pts.shape
    if n <= max(k_nn + 1, n_folds):
        raise ParameterError("not enough samples")

    jittered = False
    order = np.argsort(pts[:, 0]) if d == 1 else None
    if order is None or np.any(np.diff(pts[order, 0]) == 0.0):
        lex = np.lexsort(pts.T)
        dup = np.nonzero(np.all(np.diff(pts[lex], axis=0) == 0.0, axis=1))[0]
        if dup.size:
            jittered = True
            gen = rng if rng is not None else np.random.default_rng(0)
            pts[lex[dup + 1]] += gen.uniform(-1e-12, 1e-12, size=(dup.size, d))
            warnings.warn(f"jittered {dup.size} duplicate points by 1e-12", stacklevel=2)
            if order is not None:
                order = np.argsort(pts[:, 0])

    def h_rel(block: np.ndarray, block_order: Optional[np.ndarray]) -> float:
        return (
            -_knn_entropy(block, k_nn, block_order)
            + 0.5 * d * math.log(2.0 * math.pi)
            + 0.5 * float(np.mean(np.sum(block * block, axis=1)))
        )

    full = h_rel(pts, order)
    folds = np.array_split(np.arange(n), n_folds)
    loo = np.empty(n_folds)
    for i, fold in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        fold_order = None
        if order is not None:
            # the kept points in sorted order, renumbered to their rows of
            # pts[mask]: a fold is one contiguous run of rows
            fold_order = order[mask[order]]
            fold_order[fold_order > fold[-1]] -= fold.size
        loo[i] = h_rel(pts[mask], fold_order)
    m = float(n_folds)
    stderr = math.sqrt((m - 1.0) / m * float(np.sum((loo - loo.mean()) ** 2)))
    return Estimate(value=full, stderr=stderr, jittered=jittered)


def relative_fisher(density: BaseDensity, samples: EmpiricalMeasure) -> Estimate:
    """Plug-in estimate of I(mu | gamma) = E |score(v) + v|^2.

    Points where the score is undefined (support boundary) are excluded and
    counted in the result.
    """
    pts = density.points(samples.points)
    if not samples.uniform:
        raise ParameterError("Fisher estimation expects unweighted samples")
    sc = np.asarray(density.score(pts), dtype=float)
    vals = np.sum((sc + pts) ** 2, axis=1)
    good = np.isfinite(vals)
    excluded = int(np.size(vals) - np.count_nonzero(good))
    vals = vals[good]
    if vals.size == 0:
        raise ParameterError("score undefined at every sample point")
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return Estimate(value=value, stderr=stderr, excluded=excluded)


@dataclass(frozen=True)
class InterpolationResult:
    """Both sides of the W2 <= 2^{3/2} M_k^{1/(2(k-1))} W1^{(k-2)/(2(k-1))} check."""

    passed: bool
    w2: float
    bound: float
    w1: float
    m_k: float

    def __bool__(self):
        return self.passed


def interpolation_check(a: EmpiricalMeasure, b: EmpiricalMeasure, k: int) -> InterpolationResult:
    """Moment-interpolation inequality between W2 and W1 on samples."""
    if k < 2:
        raise ParameterError("need k >= 2")
    mk = a.moment(k) + b.moment(k)
    d1 = w1(a, b)
    d2 = w2(a, b)
    expo_m = 1.0 / (2.0 * (k - 1.0))
    expo_w = (k - 2.0) / (2.0 * (k - 1.0))
    bound = 2.0**1.5 * mk**expo_m * d1**expo_w
    return InterpolationResult(
        passed=bool(d2 <= bound + 1e-12),
        w2=d2,
        bound=bound,
        w1=d1,
        m_k=mk,
    )
