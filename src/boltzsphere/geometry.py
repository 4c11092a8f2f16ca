"""Exact geometry of the momentum- and energy-constrained sphere.

The state space of the N-particle collision process is

    S^N(r, z) = { V = (v_1 .. v_N) in R^{dN} : sum |v_i|^2 = r^2, sum v_i = z },

a sphere of dimension d(N-1)-1 inside a hyperplane.  The collision case is
r = sqrt(dN), z = 0.  This module provides the surface measure, the
orthogonal change of variables that separates the total-momentum coordinate,
projections onto the manifold, tangential gradient/divergence on batches of
points, and a Monte Carlo check of the integration-by-parts identity under
the uniform law.

All surface-measure arithmetic is done in log space: the factor
(dN)^{d(N-1)/2} overflows doubles near N ~ 150.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateProjectionError, ParameterError

__all__ = [
    "SphereSpec",
    "ScalarField",
    "VectorField",
    "log_sphere_surface",
    "sphere_measure",
    "log_sphere_measure",
    "helmert_forward",
    "helmert_inverse",
    "helmert_matrix",
    "on_sphere",
    "project_to_sphere",
    "tangent_gradient",
    "surface_divergence",
    "tangent_basis",
    "ipp_residual",
    "ipp_pointwise",
]


@dataclass(frozen=True)
class SphereSpec:
    """Parameters (d, N, r, z) of the constrained sphere S^N(r, z)."""

    d: int
    N: int
    r: float
    z: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"spatial dimension must be >= 1, got {self.d}")
        if self.N < 2:
            raise ParameterError(f"particle count must be >= 2, got {self.N}")
        if self.r < 0:
            raise ParameterError(f"radius parameter must be >= 0, got {self.r}")
        z = np.asarray(self.z, dtype=float).reshape(-1)
        if z.size != self.d:
            raise ParameterError(f"momentum vector has size {z.size}, expected d={self.d}")
        object.__setattr__(self, "z", z)

    @classmethod
    def boltzmann(cls, d: int, N: int) -> "SphereSpec":
        """The collision normalization: r = sqrt(dN), z = 0."""
        return cls(d=d, N=N, r=math.sqrt(d * N), z=np.zeros(d))

    @property
    def dim_ambient(self) -> int:
        return self.d * self.N

    @property
    def dim_sphere(self) -> int:
        return self.d * (self.N - 1) - 1

    @property
    def is_boltzmann(self) -> bool:
        return (
            abs(self.r * self.r - self.d * self.N) <= 1e-9 * self.d * self.N
            and float(np.dot(self.z, self.z)) <= 1e-18
        )

    @property
    def squared_radius_in_plane(self) -> float:
        """r^2 - |z|^2/N, the squared radius once the momentum shell is removed."""
        return self.r * self.r - float(np.dot(self.z, self.z)) / self.N

    def constraint_tolerance(self) -> float:
        return 1e-9 * self.d * self.N


@dataclass(frozen=True)
class ScalarField:
    """Scalar field on R^{dN} given by batch value and gradient callbacks.

    Both take an (n, dN) array of points, one per row: value(V) returns the
    (n,) values and grad(V) the (n, dN) gradients.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VectorField:
    """Vector field on R^{dN} given by batch value and Jacobian callbacks.

    Both take an (n, dN) array of points: value(V) returns (n, dN) and
    jacobian(V) returns (n, dN, dN), where jacobian(V)[k, c, a] =
    d Phi_c / d V_a at row k, both indices flat over (particle, axis).  A
    Jacobian that does not depend on V may be returned as a broadcast view.
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


def log_sphere_surface(n: int) -> float:
    """log |S^{n-1}| = log(2 pi^{n/2} / Gamma(n/2)) for the unit sphere in R^n."""
    if n < 1:
        raise ParameterError(f"sphere ambient dimension must be >= 1, got {n}")
    return float(math.log(2.0) + 0.5 * n * math.log(math.pi) - gammaln(0.5 * n))


def log_sphere_measure(spec: SphereSpec) -> float:
    """log |S^N(r, z)|; -inf when the sphere is empty."""
    rho2 = spec.squared_radius_in_plane
    if rho2 <= 0.0:
        return -math.inf
    n = spec.d * (spec.N - 1)
    return log_sphere_surface(n) + 0.5 * (n - 1) * math.log(rho2)


def sphere_measure(spec: SphereSpec) -> float:
    """Surface measure |S^N(r,z)| = |S^{d(N-1)-1}| (r^2 - |z|^2/N)_+^{(d(N-1)-1)/2}."""
    return math.exp(log_sphere_measure(spec))


def _split(values: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1, d)


def helmert_forward(V: np.ndarray, d: int) -> np.ndarray:
    """Orthogonal change of variables separating the total momentum.

    u_N = N^{-1/2} sum v_i and, for 1 <= k <= N-1,
    u_k = (k(k+1))^{-1/2} (v_1 + ... + v_k - k v_{k+1}),
    applied componentwise to the particles v_i, the rows of d entries of V.
    The map is an isometry with unit Jacobian.
    """
    v = _split(V, d)
    N = v.shape[0]
    u = np.empty_like(v)
    cs = np.cumsum(v, axis=0)
    k = np.arange(1, N, dtype=float)[:, None]
    u[:-1] = (cs[:-1] - k * v[1:]) / np.sqrt(k * (k + 1.0))
    u[-1] = cs[-1] / math.sqrt(N)
    return u.reshape(-1)


def helmert_inverse(U: np.ndarray, d: int, N: int = None) -> np.ndarray:
    """Inverse of `helmert_forward` (the transpose of the orthogonal map)."""
    u = _split(U, d)
    if N is not None and u.shape[0] != N:
        raise ParameterError(f"array holds {u.shape[0]} blocks, expected N={N}")
    N = u.shape[0]
    k = np.arange(1, N, dtype=float)[:, None]
    w = u[:-1] / np.sqrt(k * (k + 1.0))
    # suffix sums S_j = sum_{k >= j} u_k / sqrt(k(k+1)), j = 1..N-1
    suffix = np.zeros_like(u)
    suffix[:-1] = np.cumsum(w[::-1], axis=0)[::-1]
    v = suffix + u[-1] / math.sqrt(N)
    j = np.arange(2, N + 1, dtype=float)[:, None]
    v[1:] -= np.sqrt((j - 1.0) / j) * u[: N - 1]
    return v.reshape(-1)


def helmert_matrix(N: int) -> np.ndarray:
    """The N x N matrix of the d=1 change of variables, assembled as D_N A_N."""
    if N < 2:
        raise ParameterError("need N >= 2")
    A = np.zeros((N, N))
    for k in range(1, N):
        A[k - 1, :k] = 1.0
        A[k - 1, k] = -k
    A[N - 1, :] = 1.0
    diag = np.array([1.0 / math.sqrt(k * (k + 1)) for k in range(1, N)] + [1.0 / math.sqrt(N)])
    return diag[:, None] * A


def on_sphere(V: np.ndarray, spec: SphereSpec) -> bool:
    """Whether V, as N rows of d or one row of dN, has momentum z and
    squared norm r^2, each to `spec.constraint_tolerance()`."""
    v = np.asarray(V, dtype=float).reshape(-1)
    if v.size != spec.dim_ambient:
        raise ParameterError(f"array holds {v.size} entries, expected dN={spec.dim_ambient}")
    tol = spec.constraint_tolerance()
    momentum = float(np.linalg.norm(v.reshape(spec.N, spec.d).sum(axis=0) - spec.z))
    energy = abs(float(v @ v) - spec.r * spec.r)
    return momentum <= tol and energy <= tol


def project_to_sphere(W: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """Project W in R^{dN} onto S^N_B: remove the per-component mean, rescale.

    Returns the (dN,) row.  Only defined for the centered case z = 0.
    Idempotent; raises DegenerateProjectionError when the hyperplane part of
    W vanishes.
    """
    w = np.asarray(W, dtype=float).reshape(-1)
    if w.size != spec.dim_ambient:
        raise ParameterError(f"array holds {w.size} entries, expected dN={spec.dim_ambient}")
    return project_rows(w[None, :], spec)[0]


def project_rows(W: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """Projection of an (n, dN) batch onto S^N_B, row by row.

    Only defined for the centered case z = 0.  A row whose hyperplane part
    is below 1e-13 max(1, |row|) raises DegenerateProjectionError: rescaling
    it would only blow up rounding.
    """
    if float(np.dot(spec.z, spec.z)) > 0.0:
        raise ParameterError("projection is defined for the centered sphere (z = 0)")
    W = np.asarray(W, dtype=float)
    w = W.reshape(W.shape[0], spec.N, spec.d)
    centered = (w - w.mean(axis=1, keepdims=True)).reshape(W.shape[0], spec.dim_ambient)
    norms = np.sqrt(np.vecdot(centered, centered))
    floor = 1e-13 * np.maximum(1.0, np.sqrt(np.vecdot(W, W)))
    if np.any(norms <= floor):
        raise DegenerateProjectionError(
            "hyperplane projection vanished (all particles equal per component)"
        )
    return centered * (spec.r / norms)[:, None]


def _hyperplane_projection(g: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """Remove from each row of an (n, dN) batch its per-component mean."""
    gm = g.reshape(g.shape[0], spec.N, spec.d)
    return (gm - gm.mean(axis=1, keepdims=True)).reshape(g.shape[0], spec.dim_ambient)


def _points(V: np.ndarray, spec: SphereSpec) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != spec.dim_ambient:
        raise ParameterError(f"points must be an (n, {spec.dim_ambient}) array, got {V.shape}")
    return V


def tangent_gradient(F: ScalarField, V: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """Tangential gradient on the sphere at each row of an (n, dN) batch.

    grad_S F = grad F - (1/N) sum_a (sum_i dF/dv_{i,a}) e^N_a - (V.grad F) V/|V|^2,
    orthogonal to V and to every direction e^N_a = (e_a, ..., e_a).
    Returns (n, dN).
    """
    V = _points(V, spec)
    g = np.asarray(F.grad(V), dtype=float)
    if g.shape != V.shape:
        raise ParameterError(f"gradient must be {V.shape}, got {g.shape}")
    gh = _hyperplane_projection(g, spec)
    return gh - (np.vecdot(V, g) / np.vecdot(V, V))[:, None] * V


def surface_divergence(Phi: VectorField, V: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """Divergence on the sphere of an ambient vector field, per row of V.

    Div_S Phi = Div Phi - (1/N) sum_{j,i,b} dPhi_{j,b}/dv_{i,b}
                - sum_{j,b} (V . grad Phi_{j,b}) v_{j,b} / |V|^2.
    Returns (n,).
    """
    V = _points(V, spec)
    n, m = V.shape
    J = np.asarray(Phi.jacobian(V), dtype=float)
    if J.shape != (n, m, m):
        raise ParameterError(f"jacobian must be {(n, m, m)}, got {J.shape}")
    div = np.trace(J, axis1=1, axis2=2)
    hyper = np.einsum("kjbib->k", J.reshape(n, spec.N, spec.d, spec.N, spec.d)) / spec.N
    radial = np.einsum("kca,ka,kc->k", J, V, V) / np.vecdot(V, V)
    return div - hyper - radial


def tangent_basis(V: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """Orthonormal bases of the tangent spaces at the rows of an (n, dN)
    batch, shape (n, dim_sphere, dN)."""
    V = _points(V, spec)
    n, m = V.shape
    normals = np.zeros((n, spec.d + 1, m))
    normals[:, 0] = V / np.sqrt(np.vecdot(V, V))[:, None]
    for a in range(spec.d):
        normals[:, 1 + a, a::spec.d] = 1.0 / math.sqrt(spec.N)
    # complete to an orthonormal frame, drop the normal directions
    frame = np.concatenate([normals, np.broadcast_to(np.eye(m), (n, m, m))], axis=1)
    q, _ = np.linalg.qr(frame.transpose(0, 2, 1))
    return q.transpose(0, 2, 1)[:, spec.d + 1 : spec.d + 1 + spec.dim_sphere]


# Rows per chunk of `ipp_residual` are chosen so that one chunk's Jacobians
# hold at most this many entries (2 MiB of float64).
_JACOBIAN_CHUNK_ENTRIES = 1 << 18


def _ipp_chunk_rows(dim_ambient: int) -> int:
    """Rows of one `ipp_residual` chunk in ambient dimension dN."""
    return max(1, _JACOBIAN_CHUNK_ENTRIES // (dim_ambient * dim_ambient))


def _ipp_terms(F: ScalarField, Phi: VectorField, V: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """The three terms grad_S F . Phi, F Div_S Phi and
    -((d(N-1)-1)/(dN)) F (Phi . V) at each row of V, as an (n, 3) array,
    evaluated in chunks of `_ipp_chunk_rows(dN)` rows."""
    coef = (spec.d * (spec.N - 1) - 1) / (spec.d * spec.N)
    rows = _ipp_chunk_rows(spec.dim_ambient)
    out = np.empty((V.shape[0], 3))
    for lo in range(0, V.shape[0], rows):
        chunk = V[lo : lo + rows]
        fv = np.asarray(F.value(chunk), dtype=float)
        phi = np.asarray(Phi.value(chunk), dtype=float)
        if fv.shape != (chunk.shape[0],) or phi.shape != chunk.shape:
            raise ParameterError(
                f"field values must be {(chunk.shape[0],)} and {chunk.shape}, "
                f"got {fv.shape} and {phi.shape}"
            )
        out[lo : lo + rows, 0] = np.vecdot(tangent_gradient(F, chunk, spec), phi)
        out[lo : lo + rows, 1] = fv * surface_divergence(Phi, chunk, spec)
        out[lo : lo + rows, 2] = -(coef * fv * np.vecdot(phi, chunk))
    return out


def _ipp_integrand(F: ScalarField, Phi: VectorField, V: np.ndarray, spec: SphereSpec) -> np.ndarray:
    """grad_S F . Phi + F Div_S Phi - ((d(N-1)-1)/(dN)) F (Phi . V) at each
    row of V: the row sums of `_ipp_terms`."""
    terms = _ipp_terms(F, Phi, V, spec)
    return terms[:, 0] + terms[:, 1] + terms[:, 2]


def _residual_rows(samples: np.ndarray, spec: SphereSpec) -> np.ndarray:
    V = _points(samples, spec)
    if V.shape[0] == 0:
        raise ParameterError("need at least one sample")
    return V


def _mean_stderr(vals: np.ndarray) -> tuple:
    n = vals.size
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def ipp_residual(F: ScalarField, Phi: VectorField, samples: np.ndarray, spec: SphereSpec) -> tuple:
    """Monte Carlo residual of the integration-by-parts identity.

    Estimates the mean of
        grad_S F . Phi + F Div_S Phi - ((d(N-1)-1)/(dN)) F (Phi . V)
    over uniform-law samples, the rows of an (n, dN) array such as
    `sample_uniform_batch` returns; the identity asserts the mean is zero.
    Returns (mean, standard error).
    """
    return _mean_stderr(_ipp_integrand(F, Phi, _residual_rows(samples, spec), spec))


def ipp_pointwise(F: ScalarField, Phi: VectorField, samples: np.ndarray, spec: SphereSpec) -> tuple:
    """`ipp_residual`'s (mean, standard error), then max |integrand| and the
    max of |grad_S F . Phi| + |F Div_S Phi| + |c F (Phi . V)| over the rows,
    c = (d(N-1)-1)/(dN), all from one evaluation of the terms.

    For a field pair whose integrand vanishes at every point, the third value
    is rounding error of the terms, a few units in the last place of the
    fourth, and the mean and standard error are rounding noise.
    """
    terms = _ipp_terms(F, Phi, _residual_rows(samples, spec), spec)
    integrand = terms[:, 0] + terms[:, 1] + terms[:, 2]
    size = np.abs(terms).sum(axis=1)
    return (*_mean_stderr(integrand), float(np.max(np.abs(integrand))), float(np.max(size)))
