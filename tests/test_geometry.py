import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boltzsphere as bs
from boltzsphere.geometry import (
    ScalarField,
    VectorField,
    ipp_pointwise,
    ipp_residual,
    log_sphere_measure,
    project_rows,
    surface_divergence,
    tangent_basis,
    tangent_gradient,
)
from boltzsphere.uniform import sample_uniform, sample_uniform_batch


def boltzmann(d, N):
    return bs.SphereSpec.boltzmann(d, N)


class TestSphereMeasure:
    def test_zero_dim_sphere(self):
        spec = bs.SphereSpec(d=1, N=2, r=math.sqrt(2), z=np.zeros(1))
        assert bs.sphere_measure(spec) == pytest.approx(2.0, abs=1e-14)

    def test_empty_sphere_clamps_to_zero(self):
        spec = bs.SphereSpec(d=1, N=2, r=1.0, z=np.array([2.0]))
        assert bs.sphere_measure(spec) == 0.0

    def test_circle_oracle(self):
        # d=2, N=2: a circle of radius sqrt(r^2 - |z|^2/N) = 2, circumference 4 pi
        spec = bs.SphereSpec(d=2, N=2, r=2.0, z=np.zeros(2))
        assert bs.sphere_measure(spec) == pytest.approx(4.0 * math.pi, rel=1e-13)

    def test_invalid_specs(self):
        with pytest.raises(bs.ParameterError):
            bs.SphereSpec(d=1, N=1, r=1.0, z=np.zeros(1))
        with pytest.raises(bs.ParameterError):
            bs.SphereSpec(d=0, N=3, r=1.0, z=np.zeros(0))
        with pytest.raises(bs.ParameterError):
            bs.SphereSpec(d=1, N=3, r=-1.0, z=np.zeros(1))

    def test_log_measure_large_n_finite(self):
        # (dN)^{d(N-1)/2} overflows doubles near N ~ 150; log-space must not
        spec = boltzmann(3, 500)
        assert math.isfinite(log_sphere_measure(spec))


class TestHelmert:
    def test_two_particles(self):
        u = bs.helmert_forward(np.array([1.0, -1.0]), d=1)
        assert np.allclose(u, [math.sqrt(2), 0.0], atol=1e-15)
        assert np.allclose(bs.helmert_inverse(u, d=1), [1.0, -1.0], atol=1e-15)

    def test_zero_maps_to_zero(self):
        assert np.all(bs.helmert_forward(np.zeros(12), d=3) == 0.0)
        assert np.all(bs.helmert_inverse(np.zeros(12), d=3) == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 24), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_isometry_and_roundtrip(self, N, d, seed):
        V = np.random.default_rng(seed).normal(size=d * N)
        U = bs.helmert_forward(V, d=d)
        assert abs(U @ U - V @ V) <= 1e-12 * max(1.0, V @ V)
        assert np.max(np.abs(bs.helmert_inverse(U, d=d) - V)) <= 1e-12

    def test_sphere_point_transforms_to_constraint_system(self):
        # on the collision sphere the last block vanishes and the remaining
        # blocks carry the full squared radius
        spec = boltzmann(3, 9)
        cfg = sample_uniform(spec, 7)
        U = bs.helmert_forward(cfg)
        tail = U[-spec.d :]
        assert np.max(np.abs(tail)) <= 1e-12
        head = U[: -spec.d]
        assert head @ head == pytest.approx(spec.d * spec.N, rel=1e-12)

    def test_determinant_one_up_to_64(self):
        for N in range(2, 65):
            assert abs(np.linalg.det(bs.helmert_matrix(N)) - 1.0) <= 1e-10

    def test_matrix_matches_componentwise_map(self):
        N = 6
        rng = np.random.default_rng(3)
        v = rng.normal(size=N)
        assert np.allclose(bs.helmert_matrix(N) @ v, bs.helmert_forward(v, d=1), atol=1e-14)


class TestProjection:
    def test_hand_example(self):
        cfg = bs.project_to_sphere(np.array([2.0, 0.0]), boltzmann(1, 2))
        assert np.allclose(cfg.values, [1.0, -1.0], atol=1e-15)

    def test_idempotent(self):
        spec = boltzmann(2, 5)
        rng = np.random.default_rng(0)
        cfg = bs.project_to_sphere(rng.normal(size=10), spec)
        again = bs.project_to_sphere(cfg.values, spec)
        assert np.max(np.abs(cfg.values - again.values)) <= 1e-13
        assert cfg.on_sphere

    def test_constraints_within_tolerance(self):
        spec = boltzmann(3, 40)
        rng = np.random.default_rng(1)
        for _ in range(20):
            cfg = bs.project_to_sphere(rng.normal(size=120), spec)
            tol = spec.constraint_tolerance()
            assert cfg.momentum_residual() <= tol
            assert cfg.energy_residual() <= tol

    def test_degenerate_input_raises(self):
        spec = boltzmann(2, 4)
        constant = np.tile([1.3, -0.2], 4)
        with pytest.raises(bs.DegenerateProjectionError):
            bs.project_to_sphere(constant, spec)

    def test_nearly_constant_row_raises_one_at_a_time_and_in_batch(self):
        # a centred part at rounding level must not be blown up to radius r
        spec = boltzmann(2, 4)
        row = np.tile([1.3, -0.2], 4)
        row[3] += 1e-15
        with pytest.raises(bs.DegenerateProjectionError):
            bs.project_to_sphere(row, spec)
        batch = np.vstack([np.random.default_rng(4).normal(size=8), row])
        with pytest.raises(bs.DegenerateProjectionError):
            project_rows(batch, spec)

    def test_zero_rows_give_an_empty_batch(self):
        spec = boltzmann(2, 4)
        assert project_rows(np.empty((0, 8)), spec).shape == (0, 8)
        empty = sample_uniform_batch(spec, 0, 3)
        assert empty.shape == (0, 8)
        Phi = VectorField(value=lambda V: np.zeros(V.shape), jacobian=lambda V: np.zeros((len(V), 8, 8)))
        with pytest.raises(bs.ParameterError, match="need at least one sample"):
            ipp_residual(_coordinate_field(8), Phi, empty, spec)

    def test_single_projection_is_the_batch_row(self):
        spec = boltzmann(3, 7)
        W = np.random.default_rng(6).normal(size=(40, 21))
        batch = project_rows(W, spec)
        for w, row in zip(W, batch):
            assert np.array_equal(bs.project_to_sphere(w, spec).values, row)


def _geodesic(V, T, h):
    """Points at arc length +-h from the row V along the unit tangents T."""
    R = math.sqrt(V.size)
    return (
        math.cos(h / R) * V + R * math.sin(h / R) * T,
        math.cos(h / R) * V - R * math.sin(h / R) * T,
    )


def _coordinate_field(m):
    e0 = np.eye(m)[0]
    return ScalarField(value=lambda V: V[:, 0], grad=lambda V: np.broadcast_to(e0, V.shape))


class TestTangentCalculus:
    def setup_method(self):
        self.spec = boltzmann(2, 3)
        self.V = np.vstack([sample_uniform(self.spec, s).values for s in (5, 6, 7, 8)])

    def test_constant_field_has_zero_gradient(self):
        F = ScalarField(value=lambda V: np.full(len(V), 3.0), grad=lambda V: np.zeros(V.shape))
        assert np.all(tangent_gradient(F, self.V, self.spec) == 0.0)

    def test_squared_norm_is_radial(self):
        F = ScalarField(value=lambda V: np.vecdot(V, V), grad=lambda V: 2.0 * V)
        g = tangent_gradient(F, self.V, self.spec)
        assert np.max(np.abs(g)) <= 1e-12

    def test_coordinate_field_against_finite_differences(self):
        F = _coordinate_field(6)
        g = tangent_gradient(F, self.V, self.spec)
        h = 1e-4 * math.sqrt(self.spec.d * self.spec.N)
        for V, gk, basis in zip(self.V, g, tangent_basis(self.V, self.spec)):
            plus, minus = _geodesic(V, basis, h)
            fd = (F.value(plus) - F.value(minus)) / (2.0 * h)
            for fd_t, T in zip(fd, basis):
                assert fd_t == pytest.approx(float(gk @ T), abs=1e-5 * max(1.0, abs(fd_t)))

    def test_gradient_orthogonality(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 6))
        F = ScalarField(value=lambda V: np.einsum("ki,ij,kj->k", V, A, V), grad=lambda V: V @ (A + A.T))
        g = tangent_gradient(F, self.V, self.spec)
        assert np.max(np.abs(np.vecdot(g, self.V))) <= 1e-10
        sums = g.reshape(-1, self.spec.N, self.spec.d).sum(axis=1)
        assert np.max(np.abs(sums)) <= 1e-10

    def test_divergence_of_constant_field(self):
        Phi = VectorField(value=lambda V: np.ones(V.shape), jacobian=lambda V: np.zeros((len(V), 6, 6)))
        assert surface_divergence(Phi, self.V, self.spec) == pytest.approx(np.zeros(4), abs=1e-12)

    def test_divergence_of_identity_field(self):
        # the position field is normal to the sphere; its surface divergence
        # equals the sphere dimension dN - d - 1
        Phi = VectorField(
            value=lambda V: V.copy(), jacobian=lambda V: np.broadcast_to(np.eye(6), (len(V), 6, 6))
        )
        want = self.spec.d * self.spec.N - self.spec.d - 1
        assert surface_divergence(Phi, self.V, self.spec) == pytest.approx(np.full(4, want), rel=1e-12)

    def test_divergence_against_finite_differences(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 6)) / 3.0

        def phi(V):
            return np.tanh(V @ A.T)

        def jac(V):
            return (1.0 - np.tanh(V @ A.T)[:, :, None] ** 2) * A

        Phi = VectorField(value=phi, jacobian=jac)
        h = 1e-5 * math.sqrt(self.spec.d * self.spec.N)
        div = surface_divergence(Phi, self.V, self.spec)
        for V, div_k, basis in zip(self.V, div, tangent_basis(self.V, self.spec)):
            plus, minus = _geodesic(V, basis, h)
            fd = float(np.sum(basis * (phi(plus) - phi(minus)))) / (2.0 * h)
            assert div_k == pytest.approx(fd, abs=1e-6)

    def test_tangent_basis_is_orthonormal_and_tangent(self):
        for V, basis in zip(self.V, tangent_basis(self.V, self.spec)):
            assert basis.shape == (self.spec.dim_sphere, 6)
            assert np.max(np.abs(basis @ basis.T - np.eye(self.spec.dim_sphere))) <= 1e-12
            assert np.max(np.abs(basis @ V)) <= 1e-12
            assert np.max(np.abs(basis.reshape(-1, self.spec.N, self.spec.d).sum(axis=1))) <= 1e-12

    def test_callback_shapes_are_checked(self):
        F = ScalarField(value=lambda V: V[:, 0], grad=lambda V: np.zeros(6))
        with pytest.raises(bs.ParameterError):
            tangent_gradient(F, self.V, self.spec)
        Phi = VectorField(value=lambda V: V, jacobian=lambda V: np.eye(6))
        with pytest.raises(bs.ParameterError):
            surface_divergence(Phi, self.V, self.spec)


class TestIppResidual:
    def test_trivial_pair_is_exact_zero(self):
        spec = boltzmann(2, 4)
        samples = np.vstack([sample_uniform(spec, s).values for s in range(4)])
        F = ScalarField(value=lambda V: np.ones(len(V)), grad=lambda V: np.zeros(V.shape))
        Phi = VectorField(value=lambda V: np.zeros(V.shape), jacobian=lambda V: np.zeros((len(V), 8, 8)))
        mean, se = ipp_residual(F, Phi, samples, spec)
        assert mean == 0.0 and se == 0.0

    def test_coordinate_pair_within_three_stderr(self):
        spec = boltzmann(2, 4)
        samples = sample_uniform_batch(spec, 8000, 21)
        e21 = np.zeros(8)
        e21[2] = 1.0
        F = _coordinate_field(8)
        Phi = VectorField(
            value=lambda V: np.broadcast_to(e21, V.shape),
            jacobian=lambda V: np.broadcast_to(np.zeros((8, 8)), (len(V), 8, 8)),
        )
        mean, se = ipp_residual(F, Phi, samples, spec)
        assert abs(mean) <= 3.0 * se

    def test_empty_sample_set_raises(self):
        spec = boltzmann(2, 2)
        F = ScalarField(value=lambda V: np.ones(len(V)), grad=lambda V: np.zeros(V.shape))
        Phi = VectorField(value=lambda V: np.zeros(V.shape), jacobian=lambda V: np.zeros((len(V), 4, 4)))
        with pytest.raises(bs.ParameterError):
            ipp_residual(F, Phi, [], spec)
        with pytest.raises(bs.ParameterError):
            ipp_residual(F, Phi, np.empty((0, 4)), spec)
        with pytest.raises(bs.ParameterError):
            ipp_pointwise(F, Phi, np.empty((0, 4)), spec)

    def test_pointwise_shares_the_residual_and_bounds_a_cancelling_pair(self):
        # F = exp(-|V|^2 / 2dN), Phi = V: the integrand is zero at every point
        spec = boltzmann(2, 4)
        samples = sample_uniform_batch(spec, 500, 5)
        F = ScalarField(
            value=lambda V: np.exp(-np.vecdot(V, V) / 16.0),
            grad=lambda V: -V / 8.0 * np.exp(-np.vecdot(V, V) / 16.0)[:, None],
        )
        Phi = VectorField(value=lambda V: V.copy(), jacobian=lambda V: np.broadcast_to(np.eye(8), (len(V), 8, 8)))
        mean, se, worst, size = ipp_pointwise(F, Phi, samples, spec)
        assert (mean, se) == ipp_residual(F, Phi, samples, spec)
        # each term is O(1): F <= 1, |Phi . V| = dN = 8
        assert 1.0 < size < 16.0
        assert worst <= 64 * np.finfo(float).eps * size
