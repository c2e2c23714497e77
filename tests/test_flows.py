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
    first stage point u + (DT_INIT / 5) k1, the map after the entry."""
    run_flow(surf, m, cfg)
    return advances[1][0] / (0.2 * flows.DT_INIT)


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
        # stability-bound: Dormand-Prince alone took 39294 maps
        surf = grid_torus(10, 10)
        m = perturbed_metric(surf, np.random.default_rng(1), spread=0.28)
        run = run_flow(surf, m, FlowConfig(kind="calabi", alpha=0.0, target=0.1, max_steps=20000))
        assert run.converged and run.rhs_evals <= 12000
        assert np.max(np.abs(curvature(surf, m) - 0.1)) < 1e-9

    def test_yamabe_maps_on_fine_genus2(self):
        # Dormand-Prince alone took 8875 maps; Runge-Kutta-Chebyshev at SSV's
        # damping 2/13 did not converge within 3000 steps here, its stiff
        # modes decaying by a factor of about 0.95 a step
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
        # and its rejected trials', six a Dormand-Prince trial; entry_flips
        # the entry's flips, the ones make_delaunay makes; path_flips those
        # of the other maps; flip_rounds the rounds of all
        surf, m = genus2_perturbed
        entry = make_delaunay(*clone_state(surf, m))
        run = run_flow(surf, m, FlowConfig(kind="yamabe", alpha=0.0, target=0.0))
        maps = [events for _, events in advances]
        assert run.converged
        assert run.rhs_evals == len(maps) == sum(r.maps for r in run.records)
        assert run.records[0].maps == 1
        assert all(r.maps >= 6 for r in run.records[1:] if r.method == "dp5")
        assert {r.method for r in run.records[1:]} == {"dp5", "rkc"}
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


def calabi_seed17():
    """alpha-Calabi on genus2(3,3), seed 17: the first trial step meets a
    wall whose flip is refused."""
    surf = genus2(3, 3)
    m = perturbed_metric(surf, np.random.default_rng(17), spread=0.28)
    return surf, m, FlowConfig(kind="calabi", alpha=1.0, target=-1.0)


class TestFirstSameAsLast:
    def test_six_curvature_maps_per_accepted_step(self, genus2_perturbed, monkeypatch, advances):
        # the right-hand side at an accepted u, the step's seventh stage, is
        # the next step's first
        surf, m = genus2_perturbed
        cfg = FlowConfig(kind="yamabe", alpha=1.0, target=-1.0, max_steps=3)
        # at DT_INIT = 0.01 the first trial's local error passes STEP_ATOL
        monkeypatch.setattr(flows, "DT_INIT", 0.005)
        run = run_flow(surf, m, cfg)
        assert run.status == "max_steps" and run.steps == 3 and run.rejected == 0
        # the entry, then six maps per step, the last at the step's solution
        assert len(advances) == 1 + 3 * 6
        s, mm = clone_state(surf, m)

        def k(v):
            return -1.0 - angle_defect(s, advance_conformal(s, mm, v)[2]) / np.exp(cfg.alpha * v)

        # a record's dt is the step size the next step tries
        for step, dt in enumerate([0.005] + [r.dt for r in run.records[1:3]]):
            u = advances[6 * step][0]
            # the first stage is k at u, from the previous step, not a re-evaluation
            ks = [k(u)]
            for i in range(1, 7):
                y = u + dt * (flows.DP5_A[i, :i] @ np.array(ks))
                assert np.array_equal(advances[6 * step + i][0], y), (step, i)
                ks.append(k(y))
        assert np.array_equal(advances[18][0], run.final_u)

    def test_chebyshev_step_stages_and_cost(self, genus2_perturbed, advances):
        # the first Runge-Kutta-Chebyshev step after another: its stages
        # follow the unrolled recurrence from the previous step's last map,
        # and its s stages cost s maps
        surf, m = genus2_perturbed
        cfg = FlowConfig(kind="yamabe", alpha=1.0, target=-1.0)
        run = run_flow(surf, m, cfg)
        methods = [r.method for r in run.records]
        step = next(i for i in range(2, len(methods)) if methods[i - 1] == methods[i] == "rkc")
        s = run.records[step].maps
        rkc = flows._rkc(s, flows.RKC_DAMPING)
        assert s >= 3 and rkc.A.shape == (s + 1, s)
        # the step's maps are advances[start:start + s]; it starts at the
        # previous step's solution, the map before them, and makes none there
        start = sum(r.maps for r in run.records[:step])
        u, dt = advances[start - 1][0], run.records[step - 1].dt
        assert not np.array_equal(advances[start][0], u)
        s2, mm = clone_state(surf, m)

        def k(v):
            return -1.0 - angle_defect(s2, advance_conformal(s2, mm, v)[2]) / np.exp(cfg.alpha * v)

        ks = [k(u)]
        for i in range(1, s + 1):
            y = u + dt * (rkc.A[i, :i] @ np.array(ks))
            assert np.array_equal(advances[start + i - 1][0], y), i
            ks.append(k(y))


class TestChebyshevTableau:
    @staticmethod
    def recurrence(s, damping, z):
        """R_j(z), the stages of SSV's three-term recurrence on y' = z y
        from y = 1, with the Chebyshev values from numpy.polynomial."""
        w0 = 1.0 + damping / s**2
        T = [np.polynomial.Chebyshev.basis(j) for j in range(s + 1)]
        t, d1, d2 = ([p.deriv(n)(w0) if n else p(w0) for p in T] for n in (0, 1, 2))
        w1 = d1[s] / d2[s]
        b = [d2[2] / d1[2] ** 2] * 2 + [d2[j] / d1[j] ** 2 for j in range(2, s + 1)]
        Y = [np.ones_like(z), 1 + b[1] * w1 * z]
        for j in range(2, s + 1):
            mu, nu = 2 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2]
            mut = 2 * b[j] * w1 / b[j - 1]
            gam = -(1 - b[j - 1] * t[j - 1]) * mut
            Y.append((1 - mu - nu) + mu * Y[-1] + nu * Y[-2] + mut * z * Y[-1] + gam * z)
        return Y, (1 + w0) / w1

    @pytest.mark.parametrize("s", [2, 3, 7, 20])
    def test_tableau_unrolls_the_recurrence(self, s):
        rkc = flows._rkc(s, flows.RKC_DAMPING)
        z = -np.linspace(0.0, rkc.beta, 401)
        Y, beta = self.recurrence(s, flows.RKC_DAMPING, z)
        assert rkc.beta == pytest.approx(beta, rel=1e-12)
        stages = [np.ones_like(z)]
        for j in range(1, s + 1):
            stages.append(1 + z * (rkc.A[j, :j] @ np.array(stages)))
        assert np.allclose(stages, Y, rtol=0, atol=1e-12)
        # second order: sum of weights 1, of weights times nodes 1/2
        c = rkc.A[:s].sum(axis=1)
        assert rkc.A[s].sum() == pytest.approx(1.0, abs=1e-14)
        assert rkc.A[s] @ c == pytest.approx(0.5, abs=1e-14)
        # SSV's error estimate 0.8 (y_n - y_{n+1}) + 0.4 h (F_n + F_{n+1})
        assert np.allclose(z * (rkc.E @ np.array(stages)), 0.8 * (1 - Y[s]) + 0.4 * z * (1 + Y[s]), atol=1e-12)

    @pytest.mark.parametrize("s", [3, 5, 10, 40])
    def test_stable_and_damped_on_its_interval(self, s):
        # |R_s| <= 1 on [-beta, 0]; damping 4 holds it below 0.7 beyond the
        # first tenth of the interval, where SSV's 2/13 leaves it near 0.95
        z = -np.linspace(0.0, flows._rkc(s, flows.RKC_DAMPING).beta, 4001)
        for damping, deep in ((flows.RKC_DAMPING, 0.7), (2 / 13, 0.9)):
            R = self.recurrence(s, damping, z)[0][s]
            assert np.max(np.abs(R)) <= 1 + 1e-12
            assert (np.max(np.abs(R[z < 0.1 * z[-1]])) <= deep) == (damping == flows.RKC_DAMPING)


class TestRejectedTrials:
    def test_refused_trial_restores_accepted_state(self, monkeypatch):
        surf, m, cfg = calabi_seed17()
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
        stop = 1e-3 * np.linalg.norm(rhs)
        assert stop > flows.PCG_RTOL * np.linalg.norm(rhs)
        x, iters = flows._newton_step(J, shift, rhs, stop)
        _, exact_iters = flows._newton_step(J, shift, rhs, 0.0)
        assert np.linalg.norm(J.apply(x) - shift * x - rhs) <= stop
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
        stop = 1e-4 * np.linalg.norm(rhs)
        x, iters = flows._newton_step(J, shift, rhs, stop)
        assert iters >= 1
        assert np.linalg.norm(H @ x - rhs) <= stop + 1e-12 * np.linalg.norm(rhs)

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
