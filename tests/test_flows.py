import contextlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypflow import flows, meshes, surface
from hypflow.curvature import curvature, gauss_bonnet_residual, jacobian
from hypflow.flows import (
    FlowConfig,
    NewtonError,
    RegimeError,
    newton_solve,
    regime_check,
    run_flow,
)
from hypflow.meshes import genus2, grid_torus, perturbed_metric, tetrahedron, unit_metric
from hypflow.surface import (
    TOL_DELAUNAY,
    AdmissibilityError,
    FlipError,
    SurfaceError,
    advance_conformal,
    angle_defect,
    apply_conformal,
    clone_state,
    delaunay_weights,
    face_angles,
)

from reference import ENVELOPE_SLACK, decay_slope, dense_jacobian, edges_of, make_delaunay, max_principle


@pytest.fixture
def advances(monkeypatch):
    """The u and flip events of each ``flows.advance_conformal`` call that
    returns, in call order: the solvers' curvature-map evaluations."""
    calls, advance = [], flows.advance_conformal

    def recorded(s, mm, u):
        out = advance(s, mm, u)
        calls.append((np.array(u, dtype=float), out[0]))
        return out

    monkeypatch.setattr(flows, "advance_conformal", recorded)
    return calls


class TestConfig:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            FlowConfig(kind="ricci")

    def test_entry_check_broadcasts_target(self, genus2_unit):
        surf, _ = genus2_unit
        assert np.array_equal(flows._entry_check(surf, 1.0, -1.0, 1e-10), np.full(15, -1.0))
        target = -np.arange(15.0)
        t = flows._entry_check(surf, 1.0, target, 1e-10)
        assert np.array_equal(t, target) and not np.shares_memory(t, target)
        with pytest.raises(ValueError):
            flows._entry_check(surf, 1.0, target[:5], 1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
    def test_tol_checked_by_both_solvers(self, genus2_unit, tol):
        surf, m = genus2_unit
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            newton_solve(surf, m, 1.0, -1.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            run_flow(surf, m, FlowConfig(kind="yamabe", alpha=1.0, target=-1.0, tol_converge=tol))

    @pytest.mark.parametrize("target", [np.zeros(3), np.full((15, 1), -1.0)])
    def test_target_shape_checked_by_both_solvers(self, genus2_unit, target):
        # one normalisation for both: a wrong-length or column target is
        # named, not left to fail in NumPy broadcasting
        surf, m = genus2_unit
        with pytest.raises(ValueError, match=r"target has shape .*, expected \(15,\)"):
            newton_solve(surf, m, 1.0, target)
        with pytest.raises(ValueError, match=r"target has shape .*, expected \(15,\)"):
            run_flow(surf, m, FlowConfig(kind="yamabe", alpha=1.0, target=target))


class TestRegime:
    def test_positive_alpha(self):
        ok, _ = regime_check(1.0, np.full(5, -1.0), -2)
        assert ok
        assert not regime_check(1.0, np.full(5, -1.0), 0)[0]
        assert not regime_check(1.0, np.full(5, 1.0), -2)[0]

    def test_negative_alpha(self):
        assert regime_check(-1.0, np.full(5, 1.0), -2)[0]
        assert not regime_check(-1.0, np.full(5, -1.0), -2)[0]

    def test_alpha_zero_needs_total_above_euler_bound(self):
        # total curvature always exceeds 2*pi*chi by the positive total area,
        # so a prescription below that bound is unattainable
        assert regime_check(0.0, np.zeros(15), -2)[0]
        assert not regime_check(0.0, np.full(15, -1.0), -2)[0]
        assert not regime_check(0.0, np.full(5, 7.0), -2)[0]

    @pytest.mark.parametrize(
        "alpha, target",
        [(np.nan, -0.5), (np.inf, -0.5), (-np.inf, 0.5), (1.0, np.nan), (0.0, np.inf), (0.0, -np.inf)],
    )
    def test_non_finite_is_outside_every_regime(self, alpha, target):
        # a NaN alpha fails both sign tests and would fall through to the
        # alpha = 0 regime
        ok, reason = regime_check(alpha, np.full(15, target), -2)
        assert not ok and reason == "alpha and target must be finite"

    @pytest.mark.parametrize("solver", ["yamabe", "calabi", "newton"])
    @pytest.mark.parametrize(
        "mesh, size, alpha, target, match",
        [
            ("genus2", (), 1.0, 1.0, "nonpositive"),
            ("genus2", (), -1.0, -1.0, "strictly positive"),
            # Gauss-Bonnet: sum(target) = 0 is not > 2*pi*chi = 0 on a torus
            ("grid_torus", (4, 4), 0.0, 0.0, "sum"),
            # no metric on a torus has negative curvature everywhere
            ("grid_torus", (3, 3), 0.0, -1.0, "sum"),
            ("genus2", (), np.nan, -0.5, "finite"),
            ("genus2", (), np.inf, -0.5, "finite"),
            ("genus2", (), 1.0, np.nan, "finite"),
        ],
    )
    def test_refused_before_any_step(self, solver, mesh, size, alpha, target, match, monkeypatch):
        surf = getattr(meshes, mesh)(*size)
        m = perturbed_metric(surf, np.random.default_rng(1), spread=0.28)
        s0, m0 = clone_state(surf, m)

        def refuse_step(*args, **kwargs):
            raise AssertionError("a solver stepped outside the regime")

        for name in ("advance_conformal", "jacobian"):
            monkeypatch.setattr(flows, name, refuse_step)
        with pytest.raises(RegimeError, match=match):
            if solver == "newton":
                newton_solve(surf, m, alpha, target)
            else:
                run_flow(surf, m, FlowConfig(kind=solver, alpha=alpha, target=target))
        assert np.array_equal(surf.FE, s0.FE) and np.array_equal(m.length, m0.length)


def first_rhs(surf, m, cfg, advances):
    """The right-hand side at the start of a flow from u = 0, read off its
    first prediction u + DT_INIT k1, the map after the entry."""
    run_flow(surf, m, cfg)
    return advances[1][0] / flows.DT_INIT


class TestRhs:
    def test_yamabe_rhs_is_target_minus_curvature(self, genus2_unit, advances):
        surf, m = genus2_unit
        n = surf.vertex_count
        target = np.full(n, -0.5)
        rhs = first_rhs(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=target, max_steps=1), advances)
        s2, m2 = clone_state(genus2(), unit_metric(genus2()))
        K = curvature(s2, m2)
        assert np.allclose(rhs, target - K)

    def test_calabi_rhs_finite(self, genus2_unit, advances):
        surf, m = genus2_unit
        n = surf.vertex_count
        cfg = FlowConfig(kind="calabi", alpha=0.0, target=np.zeros(n), max_steps=1)
        rhs = first_rhs(surf, m, cfg, advances)
        assert np.all(np.isfinite(rhs))

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -1.5])
    def test_calabi_rhs_is_alpha_laplacian(self, genus2_perturbed, rng, alpha):
        # the alpha-Laplacian of f = F_alpha - target, -(L f) / w^alpha, against
        # the dense L; alpha = 0 is the negated matrix action
        surf, m = genus2_perturbed
        u = rng.uniform(-0.1, 0.1, surf.vertex_count)
        apply_conformal(surf, m, u)
        make_delaunay(surf, m)
        angles = face_angles(surf, m)
        K = angle_defect(surf, angles)
        target = rng.uniform(-1.0, 1.0, surf.vertex_count)
        cfg = FlowConfig(kind="calabi", alpha=alpha, target=target)
        rhs, F_a = flows._rhs(surf, m, cfg, target, u, K, angles)
        assert np.array_equal(F_a, K / np.exp(alpha * u))
        expected = -(dense_jacobian(jacobian(surf, m, angles)) @ (F_a - target)) / np.exp(alpha * u)
        assert np.allclose(rhs, expected, rtol=1e-13, atol=1e-13)


class TestFlows:
    def test_yamabe_converges_on_torus(self, torus_unit):
        # chi = 0, so the total curvature (= total area > 0) forces a small
        # positive constant target rather than zero
        surf, m = torus_unit
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=0.1))
        assert run.converged
        assert run.records[-1].sup_err <= 1e-10
        # endpoint state carries the prescribed curvature
        assert np.max(np.abs(curvature(surf, m) - 0.1)) < 1e-9
        assert decay_slope(run) < 0

    def test_calabi_converges_on_torus(self, torus_unit):
        surf, m = torus_unit
        run = run_flow(surf, m, FlowConfig(kind="calabi", alpha=0.0, target=0.1))
        assert run.converged
        assert np.max(np.abs(curvature(surf, m) - 0.1)) < 1e-9

    def test_calabi_step_size_does_not_rest_on_symmetry(self):
        # on the unit grid_torus(3,3) the modes that limit alpha-Calabi's
        # step size start at zero and stay zero while the state is bitwise
        # symmetric; the same metric perturbed at rounding level excites
        # them, and the step size must be the same in both runs
        largest = []
        for spread in (0.0, 1e-14):
            surf = grid_torus(3, 3)
            m = perturbed_metric(surf, np.random.default_rng(0), spread=spread)
            run = run_flow(surf, m, FlowConfig(kind="calabi", alpha=0.0, target=0.1, max_steps=100))
            assert run.status == "max_steps"
            largest.append(max(r.dt for r in run.records[1:]))
        assert abs(largest[0] / largest[1] - 1.0) <= 0.1

    def test_calabi_maps_on_grid_torus(self):
        # stiff: Dormand-Prince alone took 39294 maps, its hybrid with
        # Runge-Kutta-Chebyshev 6087, the NDF about 1300
        surf = grid_torus(10, 10)
        m = perturbed_metric(surf, np.random.default_rng(1), spread=0.28)
        run = run_flow(surf, m, FlowConfig(kind="calabi", alpha=0.0, target=0.1, max_steps=20000))
        assert run.converged and run.rhs_evals <= 12000
        assert np.max(np.abs(curvature(surf, m) - 0.1)) < 1e-9

    def test_yamabe_maps_on_fine_genus2(self):
        # Dormand-Prince alone took 8875 maps; Runge-Kutta-Chebyshev at SSV's
        # damping 2/13 did not converge within 3000 steps here, its stiff
        # modes decaying by a factor of about 0.95 a step; the NDF take
        # about 700
        surf = genus2(10, 10)
        m = perturbed_metric(surf, np.random.default_rng(1), spread=0.28)
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=1.0, target=-1.0, tol_converge=1e-8))
        assert run.converged and run.rhs_evals <= 8875

    def test_energy_monotone_along_descent(self, genus2_unit):
        surf, m = genus2_unit
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=1.0, target=-1.0))
        assert run.converged
        energies = [r.energy for r in run.records]
        assert max(np.diff(energies)) <= 1e-12

    def test_max_steps_reported(self, genus2_unit):
        surf, m = genus2_unit
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=0.0, max_steps=2))
        assert run.status == "max_steps"
        assert run.steps == 2

    def test_flow_records_flips_and_continuity(self, genus2_perturbed):
        surf, m = genus2_perturbed
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=0.0))
        assert run.converged
        assert sum(r.flips for r in run.records) >= 1
        assert run.max_flip_jump <= 1e-9


    def test_entry_flips_counted(self, genus2_perturbed):
        surf, m = genus2_perturbed
        entry = make_delaunay(*clone_state(surf, m))
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=0.0, max_steps=1))
        assert len(entry) >= 1
        assert run.records[0].flips == len(entry)
        assert run.entry_flips == len(entry)

    def test_counters_match_the_evaluations(self, genus2_perturbed, advances):
        # rhs_evals counts the curvature maps, the entry among them, and the
        # records' maps share them out: the entry's one, then each step's
        # and its rejected trials', at least two a step; entry_flips the
        # entry's flips, the ones make_delaunay makes; path_flips those of
        # the other maps; flip_rounds the rounds of all
        surf, m = genus2_perturbed
        entry = make_delaunay(*clone_state(surf, m))
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=0.0))
        maps = [events for _, events in advances]
        assert run.converged
        assert run.rhs_evals == len(maps) == sum(r.maps for r in run.records)
        assert run.records[0].maps == 1
        assert all(r.maps >= 2 for r in run.records[1:])
        assert {r.method for r in run.records} <= {f"ndf{k}" for k in range(1, flows.NDF_MAX_ORDER + 1)}
        assert run.entry_flips == len(maps[0]) == len(entry) >= 1
        assert run.path_flips == sum(map(len, maps[1:])) >= 1
        assert run.flip_rounds == sum(len({ev.round for ev in events}) for events in maps)

    @pytest.mark.parametrize("kind", ["yamabe", "calabi"])
    def test_one_angle_pass_before_first_step(self, genus2_unit, kind, monkeypatch):
        # the unit metric is Delaunay, so the entry's advance makes one
        # whole-mesh pass of the angle kernel, and its angles give the first
        # right-hand side, with no pass of its own
        surf, m = genus2_unit
        cfg = FlowConfig(kind=kind, alpha=1.0, target=-1.0, max_steps=1)
        expected = run_flow(*clone_state(surf, m), cfg)
        passes, before_step = [], []
        kernel, snapshot = surface.angles_from_length_array, flows.clone_state

        def counted(L):
            passes.extend([1] if L.shape[:-1] == surf.face_array.shape[:1] else [])
            return kernel(L)

        def first_snapshot(*args):
            before_step.append(len(passes))
            return snapshot(*args)

        monkeypatch.setattr(surface, "angles_from_length_array", counted)
        monkeypatch.setattr(flows, "clone_state", first_snapshot)
        run = run_flow(surf, m, cfg)
        assert before_step[0] == 1
        assert run.records == expected.records and np.array_equal(run.final_u, expected.final_u)


def calabi_refused_after_flips():
    """alpha-Calabi on genus2(3,3), seed 8: in the first step a corrector
    iterate meets a wall whose flip is refused, after earlier maps of the
    step have flipped edges."""
    surf = genus2(3, 3)
    m = perturbed_metric(surf, np.random.default_rng(8), spread=0.28)
    return surf, m, FlowConfig(kind="calabi", alpha=1.0, target=-1.0)


def polynomial_differences(p, h, k):
    """D[0..k]: p at t = 0 and its backward differences of orders 1 to k on
    the grid t = 0, -h, -2h, ..."""
    values = p(-h * np.arange(k + 1))[::-1]
    return np.array([np.diff(values, j)[-1] for j in range(k + 1)])


class TestDifferentiationFormulas:
    def test_coefficients_follow_their_definitions(self):
        # Shampine and Reichelt (1997), Table 1: kappa per order; gamma_k =
        # sum_{j <= k} 1/j, alpha_k = (1 - kappa_k) gamma_k and the error
        # constant kappa_k gamma_k + 1/(k + 1)
        assert flows.NDF_MAX_ORDER == 5
        assert np.array_equal(flows.NDF_KAPPA, [0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
        for k in range(1, 6):
            gamma = sum(1 / j for j in range(1, k + 1))
            kappa = flows.NDF_KAPPA[k]
            assert flows.NDF_GAMMA[k] == pytest.approx(gamma, rel=1e-15)
            assert flows.NDF_ALPHA[k] == pytest.approx((1 - kappa) * gamma, rel=1e-15)
            assert flows.NDF_ERROR[k] == pytest.approx(kappa * gamma + 1 / (k + 1), rel=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_order_and_error_constant(self, k):
        # one step of the order-k formula from exact past values, with the
        # exact derivative at the new point: exact on polynomials of degree
        # k, and on degree k + 1 its error is (kappa gamma + 1/(k + 1)) h^(k+1)
        # y^(k+1) over alpha_k, d = y1 - y0 being h^(k+1) y^(k+1) there
        h = 0.1
        rng = np.random.default_rng(k)
        for degree in (k, k + 1):
            p = np.polynomial.Polynomial(rng.standard_normal(degree + 1))
            D = polynomial_differences(p, h, k)
            y0 = D.sum()
            psi = flows.NDF_GAMMA[1:k + 1] @ D[1:] / flows.NDF_ALPHA[k]
            y1 = y0 + h / flows.NDF_ALPHA[k] * p.deriv()(h) - psi
            if degree == k:
                assert y1 == pytest.approx(p(h), abs=1e-12)
            else:
                d = p(h) - y0
                assert d == pytest.approx(h ** (k + 1) * p.deriv(k + 1)(0.0), rel=1e-9)
                assert y1 - p(h) == pytest.approx(flows.NDF_ERROR[k] / flows.NDF_ALPHA[k] * d, rel=1e-6)

    @pytest.mark.parametrize("k, factor", [(1, 0.5), (3, 2.0), (5, 0.2), (5, 3.7)])
    def test_rescale_keeps_the_interpolating_polynomial(self, k, factor):
        h = 0.05
        p = np.polynomial.Polynomial(np.random.default_rng(k).standard_normal(k + 1))
        D = np.zeros((flows.NDF_MAX_ORDER + 3, 2))
        D[:k + 1, 0] = polynomial_differences(p, h, k)
        flows._rescale(D, k, factor)
        assert np.allclose(D[:k + 1, 0], polynomial_differences(p, factor * h, k), rtol=0, atol=1e-12)
        assert not D[:, 1].any()


class TestCorrector:
    @pytest.mark.parametrize("kind, alpha, target", [("yamabe", 1.0, -1.0), ("yamabe", 0.0, 0.2),
                                                     ("calabi", 1.0, -1.0), ("calabi", 0.0, 0.2)])
    def test_linear_solve_matches_dense_solve(self, genus2_perturbed, rng, monkeypatch, kind, alpha, target):
        # (I - c J_F) dy = r with J_F the flow's Jacobian frozen at u:
        # Yamabe -diag(w^-alpha) (L - alpha diag(target w^alpha)), Calabi
        # -diag(w^-alpha) L diag(w^-alpha) L
        surf, m = genus2_perturbed
        u = rng.uniform(-0.1, 0.1, surf.vertex_count)
        apply_conformal(surf, m, u)
        make_delaunay(surf, m)
        angles = face_angles(surf, m)
        cfg = FlowConfig(kind=kind, alpha=alpha, target=target)
        t = np.full(surf.vertex_count, target)
        corrector = flows._Corrector(surf, m, cfg, t, angles)
        L = dense_jacobian(jacobian(surf, m, angles))
        w = np.exp(alpha * u)
        if kind == "yamabe":
            JF = -(L - np.diag(alpha * t * w)) / w[:, None]
        else:
            JF = -(L / w[:, None]) @ (L / w[:, None])
        r = rng.standard_normal(surf.vertex_count)
        for c in (0.003, 0.4):
            system = np.eye(surf.vertex_count) - c * JF
            dense = np.linalg.solve(system, r)
            with monkeypatch.context() as patch:
                patch.setattr(flows, "CORRECTOR_RTOL", 0.0)
                assert np.abs(corrector.solve(c, r) - dense).max() <= 1e-10 * np.abs(dense).max()
            # at CORRECTOR_RTOL the residual of the scaled system stops at
            # that fraction of its right-hand side
            scale = w / c if kind == "yamabe" else w
            residual = scale * (system @ corrector.solve(c, r) - r)
            assert np.abs(residual).max() <= flows.CORRECTOR_RTOL * np.abs(scale * r).max()

    def test_records_read_the_map_at_the_accepted_u(self, genus2_perturbed, advances):
        # each record's M = F_alpha - target is the map's at the accepted u,
        # which is the last map of its step; the state is left at the last
        surf, m = genus2_perturbed
        s0, m0 = clone_state(surf, m)
        cfg = FlowConfig(kind="yamabe", alpha=1.0, target=-1.0)
        run = run_flow(surf, m, cfg)
        assert run.converged
        ends = np.cumsum([r.maps for r in run.records]) - 1
        for r, end in zip(run.records, ends):
            u = advances[end][0]
            M = angle_defect(s0, advance_conformal(s0, m0, u)[2]) / np.exp(u) + 1.0
            # the surgery reaches u by another path here: equal up to rounding
            assert (r.min_M, r.max_M, r.sup_err) == pytest.approx((M.min(), M.max(), np.abs(M).max()), rel=0, abs=1e-13)
        assert ends[-1] == len(advances) - 1
        assert np.array_equal(advances[-1][0], run.final_u)
        assert np.array_equal(m.current_u, run.final_u)

    def test_first_step_predicts_and_corrects(self, genus2_perturbed, advances, monkeypatch):
        # order 1 from the entry: the prediction u + DT_INIT k1, then one
        # simplified Newton correction through the frozen Jacobian; the
        # corrected iterate is accepted, at two maps, and is the solution
        surf, m = genus2_perturbed
        monkeypatch.setattr(flows, "DT_INIT", 1e-5)
        cfg = FlowConfig(kind="yamabe", alpha=1.0, target=-1.0, max_steps=1)
        s0, m0 = clone_state(surf, m)
        run = run_flow(surf, m, cfg)
        assert run.steps == 1 and run.rejected == 0 and run.records[1].maps == 2
        u0 = advances[0][0]
        K, angles, _ = flows._CurvatureMap(s0, m0)(u0)
        k1 = -1.0 - K / np.exp(u0)
        y0 = u0 + 1e-5 * k1
        assert np.array_equal(advances[1][0], y0)
        corrector = flows._Corrector(s0, m0, cfg, np.full(surf.vertex_count, -1.0), angles)
        K0, _, _ = flows._CurvatureMap(s0, m0)(y0)
        c = 1e-5 / flows.NDF_ALPHA[1]
        r = c * (-1.0 - K0 / np.exp(y0)) - 1e-5 * k1 / flows.NDF_ALPHA[1]
        assert np.array_equal(advances[2][0], y0 + corrector.solve(c, r))
        assert np.array_equal(run.final_u, advances[2][0])

    def test_raised_corrector_map_rejects_the_trial(self, genus2_perturbed, advances, monkeypatch):
        # the first step's second map, a corrector iterate, raises: the trial
        # is rejected, the state restored to the entry's, and the next
        # trial predicts with half the step size
        surf, m = genus2_perturbed
        entry = clone_state(surf, m)
        make_delaunay(*entry)
        advance, restore, restored = flows.advance_conformal, flows._restore, []

        def refuse_second(s, mm, u):
            if len(advances) == 2:
                advances.append((np.array(u), None))
                raise FlipError("refused for the test")
            return advance(s, mm, u)

        def checked_restore(s, mm, saved):
            restore(s, mm, saved)
            restored.append(edges_of(s) == edges_of(entry[0]) and np.array_equal(mm.length, entry[1].length))

        monkeypatch.setattr(flows, "advance_conformal", refuse_second)
        monkeypatch.setattr(flows, "_restore", checked_restore)
        monkeypatch.setattr(flows, "DT_INIT", 1e-5)
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=1.0, target=-1.0, max_steps=1))
        assert run.status == "max_steps" and run.steps == 1 and run.rejected == 1
        assert restored == [True]
        # advances: the entry, the prediction, the refused iterate, then the
        # next trial's prediction, halfway to the first
        u0, y0 = advances[0][0], advances[1][0]
        assert np.allclose(advances[3][0], u0 + 0.5 * (y0 - u0), rtol=0, atol=1e-15)
        # maps that returned: the refused trial's prediction and the next
        # trial's two
        assert run.records[1].maps == 3 and run.rhs_evals == 4


class TestRejectedTrials:
    def test_refused_trial_restores_accepted_state(self, monkeypatch):
        surf, m, cfg = calabi_refused_after_flips()
        # the accepted state before the first step: Delaunay at u = 0
        s0, m0 = clone_state(surf, m)
        make_delaunay(s0, m0)
        restore = flows._restore
        moved = []

        def checked_restore(s, mm, saved):
            moved.append(edges_of(s) != edges_of(s0))
            restore(s, mm, saved)
            assert s is surf and mm is m
            assert np.array_equal(m.current_u, m0.current_u)
            assert edges_of(surf) == edges_of(s0) and np.array_equal(surf.FE, s0.FE)
            assert np.array_equal(m.length, m0.length)

        monkeypatch.setattr(flows, "_restore", checked_restore)
        cfg.max_steps = 1
        run = run_flow(surf, m, cfg)
        assert run.status == "max_steps" and run.steps == 1
        # some refused trial had flipped edges before it was refused, and the
        # step then succeeded from the restored state
        assert any(moved)
        assert np.array_equal(m.current_u, run.final_u)
        assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY

    def test_newton_line_search_restores_state(self, genus2_perturbed, monkeypatch):
        # the full step of the first line search is refused inside its
        # surgery, after a flip round is committed; the advance puts the
        # state back, and the half step starts from the iterate
        surf, m = genus2_perturbed
        expected = newton_solve(*clone_state(surf, m), 1.0, -1.0)
        advance, commit = flows.advance_conformal, surface._commit
        calls, committed = [], []

        def refused_after_commit(*args):
            committed.append(commit(*args))
            raise AdmissibilityError("refused for the test")

        def refuse_first_trial(s, mm, u):
            calls.append(clone_state(s, mm))
            if len(calls) != 2:
                return advance(s, mm, u)
            with monkeypatch.context() as patch:
                patch.setattr(surface, "_commit", refused_after_commit)
                return advance(s, mm, u)

        monkeypatch.setattr(flows, "advance_conformal", refuse_first_trial)
        res = newton_solve(surf, m, 1.0, -1.0)
        assert committed and committed[0]
        # the half step finds the state that the full step found, flips undone
        (s1, m1), (s2, m2) = calls[1:3]
        assert np.array_equal(m2.current_u, m1.current_u)
        for a, b in ((s2.FE, s1.FE), (s2.edge_corners, s1.edge_corners), (m2.lam, m1.lam), (m2.length, m1.length)):
            assert np.array_equal(a, b)
        assert res.converged
        assert np.max(np.abs(res.state.u - expected.state.u)) <= 1e-12

    def test_dt_underflow_names_error_estimate(self, monkeypatch):
        surf = tetrahedron()
        m = perturbed_metric(surf, np.random.default_rng(0), spread=0.2)
        for name in ("DT_INIT", "DT_MIN", "DT_MAX"):
            monkeypatch.setattr(flows, name, 0.1)
        monkeypatch.setattr(flows, "STEP_ATOL", 1e-300)
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=4.0))
        assert run.status == "failed" and run.steps == 0
        assert run.reason.startswith("dt underflow below 0.1 at t=0.0")
        assert re.search(r"last rejection: local error .* > STEP_ATOL", run.reason)

    @pytest.mark.parametrize(
        "constants, reason",
        [
            ({"DT_INIT": 0.1, "DT_MIN": 0.1, "DT_MAX": 0.1, "STEP_ATOL": 1e-300}, "dt underflow"),
            ({"U_ABORT": 1e-6}, "|u| exceeded"),
        ],
    )
    def test_failed_run_leaves_state_at_final_u(self, monkeypatch, constants, reason):
        # the failure ends the run inside a step, whose trials moved the state
        # on; it is put back at the last accepted u, which the dump then holds
        surf = tetrahedron()
        m = perturbed_metric(surf, np.random.default_rng(0), spread=0.2)
        m0 = m.copy()
        for name, value in constants.items():
            monkeypatch.setattr(flows, name, value)
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=4.0))
        assert run.status == "failed" and run.reason.startswith(reason)
        assert np.array_equal(m.current_u, run.final_u)
        assert np.array_equal(m.length, m0.length) and not run.final_u.any()


class TestMonitor:
    def test_sign_and_envelope(self, genus2_unit, monkeypatch):
        surf, m = genus2_unit
        prep = newton_solve(surf, m, 1.0, -0.5)
        s2, m2 = clone_state(genus2(), unit_metric(genus2()))
        advance_conformal(s2, m2, prep.state.u)
        monkeypatch.setattr(flows, "STEP_ATOL", 1e-12)
        run = run_flow(s2, m2, FlowConfig(kind="yamabe", alpha=1.0, target=-1.0))
        assert run.converged
        sign, preserved, ratio = max_principle(run.records, 1.0, -1.0)
        assert sign == "nonnegative" and preserved
        assert ratio <= 1.0 + ENVELOPE_SLACK


class TestNewton:
    def test_matches_prescription(self, genus2_unit):
        surf, m = genus2_unit
        res = newton_solve(surf, m, 1.0, -1.0)
        assert res.converged
        # metric is left at the solution state: R_1 = K/w = -1
        K = curvature(surf, m)
        R = K / np.exp(res.state.u)
        assert np.max(np.abs(R + 1.0)) < 1e-9

    def test_quadratic_tail(self, genus2_unit):
        surf, m = genus2_unit
        res = newton_solve(surf, m, -1.0, 1.0)
        assert res.converged and res.iterations <= 10
        # residuals contract fast once in the basin
        assert res.residuals[-1] < 1e-10

    def test_force_flag_does_not_break_feasible_solve(self, torus_unit):
        surf, m = torus_unit
        res = newton_solve(surf, m, 0.0, 0.1, force=True)
        assert res.converged

    def test_state_left_at_returned_u(self, genus2_perturbed):
        surf, m = genus2_perturbed
        res = newton_solve(surf, m, 1.0, -1.0)
        assert res.converged
        assert np.array_equal(m.current_u, res.state.u)

    def test_seeded_start(self, genus2_unit, rng):
        surf, m = genus2_unit
        u0 = rng.uniform(-0.1, 0.1, surf.vertex_count)
        res = newton_solve(surf, m, 1.0, -1.0, u0=u0)
        assert res.converged

    @pytest.mark.parametrize(
        "fixture, alpha, target",
        [("genus2_perturbed", 1.0, -1.0), ("torus_unit", 0.0, 0.1)],
    )
    def test_linear_solve_matches_dense_solve(self, fixture, alpha, target, request, rng):
        surf, m = request.getfixturevalue(fixture)
        u = rng.uniform(-0.1, 0.1, surf.vertex_count)
        apply_conformal(surf, m, u)
        make_delaunay(surf, m)
        J = jacobian(surf, m, face_angles(surf, m))
        shift = alpha * target * np.exp(alpha * u)
        g = curvature(surf, m) - target * np.exp(alpha * u)
        delta, iters = flows._newton_step(J, shift, -g, 0.0)
        dense = np.linalg.solve(dense_jacobian(J) - np.diag(shift), -g)
        assert iters >= 1
        assert np.linalg.norm(delta - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_linear_solve_stops_at_requested_residual(self, genus2_perturbed, rng):
        surf, m = genus2_perturbed
        u = rng.uniform(-0.1, 0.1, surf.vertex_count)
        apply_conformal(surf, m, u)
        make_delaunay(surf, m)
        J = jacobian(surf, m, face_angles(surf, m))
        shift = -np.exp(u)  # alpha = 1, target = -1
        rhs = -(curvature(surf, m) + np.exp(u))
        stop = 1e-3 * np.abs(rhs).max()
        assert stop > flows.PCG_RTOL * np.abs(rhs).max()
        x, iters = flows._newton_step(J, shift, rhs, stop)
        _, exact_iters = flows._newton_step(J, shift, rhs, 0.0)
        assert np.abs(J.apply(x) - shift * x - rhs).max() <= stop
        assert 1 <= iters < exact_iters

    @given(st.sampled_from(["genus2", "grid_torus"]), st.integers(3, 6), st.integers(0, 2**32 - 1),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_stencil_product_matches_dense(self, mesh, size, seed, moved):
        # random fixtures of several sizes, flipped Delaunay on entry and, if
        # ``moved``, across walls on the way to a random u: vertex degrees are
        # irregular there, and each half-edge's other end must still be right
        surf = getattr(meshes, mesh)(size, size + 1)
        rng = np.random.default_rng(seed)
        m = perturbed_metric(surf, rng, spread=0.28)
        try:
            make_delaunay(surf, m)
        except FlipError:
            assume(False)  # a structural refusal on entry (ROADMAP item 3)
        if moved:  # an obstruction leaves the state Delaunay short of u
            with contextlib.suppress(SurfaceError, OverflowError):
                advance_conformal(surf, m, rng.uniform(-0.3, 0.3, surf.vertex_count))
        n = surf.vertex_count
        J = jacobian(surf, m, face_angles(surf, m))
        L = dense_jacobian(J)
        f = rng.standard_normal(n)
        assert np.allclose(J.apply(f), L @ f, rtol=1e-13, atol=1e-13)
        # the shift of newton_solve, alpha * target * w^alpha <= 0 in the regime
        shift = -rng.uniform(0.0, 1.0, n)
        H = L - np.diag(shift)
        assert np.allclose(J.apply(f, J.D - shift), H @ f, rtol=1e-13, atol=1e-13)
        rhs = rng.standard_normal(n)
        stop = 1e-4 * np.abs(rhs).max()
        x, iters = flows._newton_step(J, shift, rhs, stop)
        assert iters >= 1
        assert np.abs(H @ x - rhs).max() <= stop + 1e-12 * np.abs(rhs).max()

    @pytest.mark.parametrize("u0", [None, "current"])
    def test_one_angle_pass_before_first_jacobian(self, genus2_unit, u0, monkeypatch):
        # the unit metric is Delaunay, so the entry's flip rounds make one
        # whole-mesh pass of the angle kernel; with u0=None its angles give
        # the first residual, while a u0 takes a pass of its own
        surf, m = genus2_unit
        expected = newton_solve(*clone_state(surf, m), 1.0, -1.0)
        passes, before_jacobian = [], []
        kernel, jac = surface.angles_from_length_array, flows.jacobian

        def counted(L):
            passes.extend([1] if L.shape[:-1] == surf.face_array.shape[:1] else [])
            return kernel(L)

        def first_jacobian(*args, **kwargs):
            before_jacobian.append(len(passes))
            return jac(*args, **kwargs)

        monkeypatch.setattr(surface, "angles_from_length_array", counted)
        monkeypatch.setattr(flows, "jacobian", first_jacobian)
        res = newton_solve(surf, m, 1.0, -1.0, u0=None if u0 is None else m.current_u.copy())
        assert before_jacobian[0] == (1 if u0 is None else 2)
        assert res.iterations == expected.iterations
        assert np.array_equal(res.state.u, expected.state.u)

    @pytest.mark.parametrize(
        "mesh, size, spread, seed, alpha, target",
        [pytest.param("grid_torus", (20, 20), 0.28, seed, 0.0, 0.1, id=f"newton-surgery-{seed}")
         for seed in (1, 2, 3)]
        + [pytest.param("grid_torus", (50, 50), 0.02, seed, 0.0, 0.1, id=f"newton-dense-{seed}")
           for seed in (1, 2, 3)]
        + [pytest.param("genus2", (6, 6), 0.28, 1, 1.0, -1.0, id="genus2")],
    )
    def test_inexact_steps_keep_exact_iteration_count(
        self, mesh, size, spread, seed, alpha, target, monkeypatch
    ):
        # the benchmark's Newton inputs (pass 0 of a seed) and the paper's
        # genus-2 fixture: stopping each step's CG at min(FORCING_MAX,
        # |g|_inf) * |g|_inf, floored at TOL_FRACTION * tol, changes neither
        # the Newton iteration count nor the solution beyond rounding
        surf = getattr(meshes, mesh)(*size)
        m = perturbed_metric(surf, np.random.default_rng([seed, 0]), spread=spread)
        inexact = newton_solve(*clone_state(surf, m), alpha, target)
        assert min(inexact.linsolve_stop) >= flows.TOL_FRACTION * 1e-10  # the default tol
        monkeypatch.setattr(flows, "FORCING_MAX", 0.0)
        monkeypatch.setattr(flows, "TOL_FRACTION", 0.0)
        exact = newton_solve(surf, m, alpha, target)
        assert inexact.converged and exact.converged
        assert inexact.iterations == exact.iterations
        assert np.max(np.abs(inexact.state.u - exact.state.u)) <= 1e-9
        assert sum(inexact.linsolve_iters) < sum(exact.linsolve_iters)
        assert all(a > b for a, b in zip(inexact.linsolve_stop, exact.linsolve_stop))
        assert len(inexact.step_lengths) == inexact.iterations
        assert all(0.0 < lam <= 1.0 for lam in inexact.step_lengths)

    def test_no_dense_matrix_formed(self, genus2_perturbed, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve path formed or factored a dense matrix")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        surf, m = genus2_perturbed
        res = newton_solve(surf, m, 1.0, -1.0)
        assert res.converged
        assert len(res.linsolve_iters) == res.iterations
        assert all(k >= 1 for k in res.linsolve_iters)

    def test_uncertified_system_refused(self):
        # alpha * target > 0 moves the diagonal below the off-diagonal sums
        surf = genus2(3, 3)
        m = perturbed_metric(surf, np.random.default_rng(1), spread=0.28)
        with pytest.raises(NewtonError, match="not certified positive definite"):
            newton_solve(surf, m, 1.0, 5.0, force=True)

    def test_linear_solve_iteration_cap(self, genus2_perturbed, monkeypatch):
        monkeypatch.setattr(flows, "PCG_MAX_ITER_PER_VERTEX", 0)
        surf, m = genus2_perturbed
        with pytest.raises(NewtonError, match="conjugate gradients stopped .* at residual"):
            newton_solve(surf, m, 1.0, -1.0)

    def test_failures_on_two_hundred_genus2_inputs(self):
        # a refused flip on entry raises at once instead of trying the next
        # candidate; that never rescued an input, so the same seeds fail in
        # the same ways: a multi-edge refusal on entry, or the line search
        # stalling at a structural refusal
        failed = {}
        for seed in range(200):
            surf = genus2(3, 3)
            m = perturbed_metric(surf, np.random.default_rng(seed), spread=0.28)
            try:
                assert newton_solve(surf, m, 1.0, -1.0).converged
            except (FlipError, NewtonError) as exc:
                failed[seed] = type(exc)
        assert failed == {**dict.fromkeys((59, 92, 139, 141, 145, 148), FlipError),
                          **dict.fromkeys((35, 72, 98), NewtonError)}

    def test_newton_counts_flips_per_iteration(self):
        # the pass-0 input of seed 1 of bench/run.py's newton-surgery workload
        surf = grid_torus(20, 20)
        m = perturbed_metric(surf, np.random.default_rng([1, 0]), spread=0.28)
        entry = make_delaunay(*clone_state(surf, m))
        res = newton_solve(surf, m, 0.0, 0.1)
        assert res.converged and len(res.flips) == res.iterations + 1
        assert res.entry_flips == len(entry) >= 1
        assert sum(res.flips) == res.entry_flips + res.path_flips and res.path_flips >= 20
        assert res.path_flips >= res.flip_rounds >= 1

    def test_ten_thousand_vertices_with_surgery(self):
        # spread 0.28 on a 100 x 100 torus: hundreds of flips on entry and
        # on the way
        surf = grid_torus(100, 100)
        m = perturbed_metric(surf, np.random.default_rng(0), spread=0.28)
        res = newton_solve(surf, m, 0.0, 0.1)
        assert res.converged and res.residuals[-1] <= 1e-10 and res.path_flips >= 100
        assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY
        assert res.max_flip_jump <= 1e-8

    def test_ten_thousand_vertices(self, rng):
        surf = grid_torus(100, 100)
        m = perturbed_metric(surf, rng, spread=0.02)
        res = newton_solve(surf, m, 0.0, 0.1)
        assert res.converged and res.residuals[-1] <= 1e-10
        assert abs(gauss_bonnet_residual(surf, m)) <= 1e-9
        assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY
