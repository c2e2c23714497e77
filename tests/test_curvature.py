import numpy as np
import pytest

from hypflow.curvature import curvature, energy_increment, gauss_bonnet_residual, jacobian
from hypflow.meshes import genus2, grid_torus, octahedron, perturbed_metric, unit_metric
from hypflow.surface import (
    AdmissibilityError,
    advance_conformal,
    angle_defect,
    apply_conformal,
    clone_state,
    delaunay_weights,
    face_angles,
)

from reference import dense_jacobian, make_delaunay


def extended_curvature(surf, m):
    """Angle defect with constant-extended angles; defined for any lengths."""
    return angle_defect(surf, face_angles(surf, m, strict=False))


def fd_jacobian(surf, m, h=1e-6):
    """Finite-difference dK/du with the triangulation held fixed."""
    n = surf.vertex_count
    J = np.zeros((n, n))
    for j in range(n):
        u = np.zeros(n)
        u[j] = h
        s2, m2 = clone_state(surf, m)
        apply_conformal(s2, m2, u)
        K_plus = curvature(s2, m2)
        u[j] = -h
        s2, m2 = clone_state(surf, m)
        apply_conformal(s2, m2, u)
        K_minus = curvature(s2, m2)
        J[:, j] = (K_plus - K_minus) / (2.0 * h)
    return J


class TestCurvature:
    def test_unit_torus_curvature_constant(self, torus_unit):
        surf, m = torus_unit
        K = curvature(surf, m)
        # every vertex has the same link, so K is constant, and positive area
        # forces total curvature above 2*pi*chi = 0
        assert np.ptp(K) < 1e-14
        assert K.sum() > 0

    def test_extended_matches_strict_on_admissible(self, genus2_perturbed):
        surf, m = genus2_perturbed
        assert np.allclose(curvature(surf, m), extended_curvature(surf, m))

    def test_strict_raises_on_degenerate(self, torus_unit):
        surf, m = torus_unit
        u = np.zeros(surf.vertex_count)
        u[0], u[1] = 2.5, -2.5
        apply_conformal(surf, m, u)
        with pytest.raises(AdmissibilityError):
            curvature(surf, m)
        K = extended_curvature(surf, m)
        assert np.all(np.isfinite(K))

    def test_gauss_bonnet_on_random_states(self, rng):
        for builder in (octahedron, lambda: grid_torus(4, 4), genus2):
            surf = builder()
            m = perturbed_metric(surf, rng, spread=0.2)
            assert abs(gauss_bonnet_residual(surf, m)) < 1e-12
            u = rng.uniform(-0.2, 0.2, surf.vertex_count)
            apply_conformal(surf, m, u)
            assert abs(gauss_bonnet_residual(surf, m)) < 1e-12


class TestJacobian:
    def test_matches_finite_differences(self, rng):
        for builder in (octahedron, lambda: grid_torus(3, 3), genus2):
            surf = builder()
            m = perturbed_metric(surf, rng, spread=0.15)
            make_delaunay(surf, m)
            J = jacobian(surf, m, face_angles(surf, m))
            J_fd = fd_jacobian(surf, m)
            scale = np.maximum(1.0, np.abs(J_fd))
            assert np.max(np.abs(dense_jacobian(J) - J_fd) / scale) < 1e-8

    def test_symmetric_positive_definite_on_delaunay(self, genus2_perturbed):
        surf, m = genus2_perturbed
        make_delaunay(surf, m)
        J = jacobian(surf, m, face_angles(surf, m))
        L = dense_jacobian(J)
        assert np.allclose(L, L.T)
        np.linalg.cholesky(L)  # raises if not positive definite
        assert np.all(J.B >= 0)
        assert np.all(J.A > 0)

    def test_decomposition_identities(self, genus2_perturbed):
        surf, m = genus2_perturbed
        make_delaunay(surf, m)
        J = jacobian(surf, m, face_angles(surf, m))
        i_idx, j_idx = surf.ends
        larr = m.length
        A = np.zeros(surf.vertex_count)
        np.add.at(A, i_idx, J.B * (np.cosh(larr) - 1.0))
        np.add.at(A, j_idx, J.B * (np.cosh(larr) - 1.0))
        assert np.max(np.abs(A - J.A)) < 1e-12
        diag_expected = J.A.copy()
        np.add.at(diag_expected, i_idx, J.B)
        np.add.at(diag_expected, j_idx, J.B)
        assert np.max(np.abs(J.D - diag_expected)) < 1e-12

    def test_products_survive_flips_of_the_surface(self):
        # a Jacobian outlives the state it was assembled at (the flows
        # freeze it); flips rewrite the surface's edge arrays in place, and
        # must leave its products as they were
        surf = genus2(3, 3)
        m = perturbed_metric(surf, np.random.default_rng(1), spread=0.28)
        make_delaunay(surf, m)
        J = jacobian(surf, m, face_angles(surf, m))
        L = dense_jacobian(J)
        f = np.random.default_rng(2).standard_normal(surf.vertex_count)
        before = J.apply(f)
        events, _, _ = advance_conformal(surf, m, np.random.default_rng(3).uniform(-0.3, 0.3, surf.vertex_count))
        assert len(events) >= 1
        assert np.array_equal(J.apply(f), before)
        assert np.array_equal(dense_jacobian(J), L) and np.array_equal(L, L.T)

    def test_edge_weight_sign_matches_delaunay_weight(self, rng):
        surf = octahedron()
        for _ in range(50):
            m = perturbed_metric(surf, rng, spread=0.3)
            w = delaunay_weights(surf, m)
            B = jacobian(surf, m, face_angles(surf, m)).B
            mask = np.abs(B) > 1e-9
            assert np.all(np.sign(w[mask]) == np.sign(B[mask]))


class TestEnergy:
    def test_zero_for_equal_states(self, rng):
        n = 10
        F = rng.standard_normal(n)
        u = rng.standard_normal(n)
        assert energy_increment(F, F, u, u, np.zeros(n), 1.0) == 0.0

    def test_gradient_consistency(self, torus_unit, rng):
        # along a short straight segment the trapezoidal increment matches
        # the finite-difference of the energy computed by fine subdivision
        surf, m = torus_unit
        n = surf.vertex_count
        target = np.full(n, -0.3)
        u0 = rng.uniform(-0.05, 0.05, n)
        u1 = u0 + rng.uniform(-0.02, 0.02, n)

        def K_at(u):
            s2, m2 = clone_state(surf, m)
            apply_conformal(s2, m2, u)
            return curvature(s2, m2)

        coarse = energy_increment(K_at(u0), K_at(u1), u0, u1, target, 1.0)
        fine = 0.0
        steps = 64
        prev_u, prev_K = u0, K_at(u0)
        for s in range(1, steps + 1):
            cur_u = u0 + (u1 - u0) * s / steps
            cur_K = K_at(cur_u)
            fine += energy_increment(prev_K, cur_K, prev_u, cur_u, target, 1.0)
            prev_u, prev_K = cur_u, cur_K
        assert coarse == pytest.approx(fine, abs=1e-6)
