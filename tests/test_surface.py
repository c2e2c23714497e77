import math

import numpy as np
import pytest

from hypflow import surface
from hypflow.curvature import curvature
from hypflow.flows import newton_solve
from hypflow.meshes import genus2, grid_torus, octahedron, perturbed_metric, tetrahedron, unit_metric
from hypflow.surface import (
    AdmissibilityError,
    FlipError,
    MarkedSurface,
    PHMetric,
    TOL_DELAUNAY,
    SurfaceError,
    apply_conformal,
    clone_state,
    delaunay_weights,
    euler_characteristic,
    face_angles,
    face_corner_lengths,
    flip_edge,
    make_delaunay,
    validate,
    validate_combinatorics,
)
from hypflow.triangle import admissible_mask

from reference import (
    TriLengths,
    advance_by_bisection,
    extended_angles,
    flip_diagonal_from_j,
    scaled_length,
)


class TestCombinatorics:
    @pytest.mark.parametrize(
        "builder, chi, counts",
        [
            (tetrahedron, 2, (4, 6, 4)),
            (octahedron, 2, (6, 12, 8)),
            (lambda: grid_torus(3, 3), 0, (9, 27, 18)),
            (genus2, -2, (15, 51, 34)),
        ],
    )
    def test_fixture_counts(self, builder, chi, counts):
        surf = builder()
        assert euler_characteristic(surf) == chi
        assert (surf.vertex_count, len(surf.edges), len(surf.faces)) == counts

    def test_boundary_edge_detected(self):
        errs = validate_combinatorics(3, [(0, 1, 2)])
        assert any("boundary edge" in e for e in errs)

    def test_orientation_mismatch_detected(self):
        # second face traverses (0, 1) in the same direction as the first
        errs = validate_combinatorics(4, [(0, 1, 2), (0, 1, 3)])
        assert any("repeated" in e for e in errs)

    def test_repeated_vertex_detected(self):
        errs = validate_combinatorics(3, [(0, 0, 1)])
        assert any("repeats" in e for e in errs)

    def test_out_of_range_detected(self):
        errs = validate_combinatorics(2, [(0, 1, 5)])
        assert any("out of range" in e for e in errs)

    def test_bad_surface_rejected_at_construction(self):
        with pytest.raises(SurfaceError):
            MarkedSurface(3, [(0, 1, 2)])

    def test_grid_torus_requires_three(self):
        with pytest.raises(ValueError):
            grid_torus(2, 3)

    def test_edge_opposite_corner_table(self):
        surf = tetrahedron()
        for fi, (a, b, c) in enumerate(surf.faces):
            # FE[f, 0] is the edge opposite corner 0, i.e. edge {b, c}
            assert surf.edges[surf.FE[fi, 0]] == tuple(sorted((b, c)))
            assert surf.edges[surf.FE[fi, 1]] == tuple(sorted((a, c)))
            assert surf.edges[surf.FE[fi, 2]] == tuple(sorted((a, b)))


class TestMetric:
    def test_missing_length_rejected(self):
        surf = tetrahedron()
        with pytest.raises(SurfaceError):
            PHMetric(surf, {surf.edges[0]: 1.0})

    def test_nonpositive_length_rejected(self):
        surf = tetrahedron()
        lengths = {e: 1.0 for e in surf.edges}
        lengths[surf.edges[0]] = -2.0
        with pytest.raises(SurfaceError):
            PHMetric(surf, lengths)

    def test_validate_reports_inadmissible_face(self):
        surf = tetrahedron()
        lengths = {e: 1.0 for e in surf.edges}
        lengths[surf.edges[0]] = 10.0
        m = PHMetric(surf, lengths)
        report = validate(surf, m)
        assert not report.ok
        assert report.min_slack < 0.0
        assert any("inadmissible" in e for e in report.errors)

    def test_validate_ok(self, genus2_unit):
        surf, m = genus2_unit
        report = validate(surf, m)
        assert report.ok and report.chi == -2 and report.min_slack > 0

    def test_clone_state_is_independent(self, octa_unit):
        surf, m = octa_unit
        s2, m2 = clone_state(surf, m)
        flip_edge(s2, m2, (0, 1))
        assert (0, 1) in surf.edge_index
        assert (0, 1) not in s2.edge_index
        assert not np.array_equal(m.length, m2.length)


class TestConformal:
    def test_matches_scalar_kernel(self, torus_unit, rng):
        surf, m = torus_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        base = dict(zip(surf.edges, m.length))
        apply_conformal(surf, m, u)
        for (i, j), d in base.items():
            assert m.length[surf.edge_index[(i, j)]] == pytest.approx(
                scaled_length(d, u[i], u[j]), abs=1e-14
            )
        assert np.array_equal(m.current_u, u)

    def test_composition_of_scalings(self, torus_unit, rng):
        # applying u then u' equals applying u' directly
        surf, m = torus_unit
        u1 = rng.uniform(-0.2, 0.2, surf.vertex_count)
        u2 = rng.uniform(-0.2, 0.2, surf.vertex_count)
        apply_conformal(surf, m, u1)
        apply_conformal(surf, m, u2)
        surf2, m2 = clone_state(grid_torus(3, 3), unit_metric(grid_torus(3, 3)))
        apply_conformal(surf2, m2, u2)
        for e in surf.edges:
            assert m.length[surf.edge_index[e]] == pytest.approx(m2.length[surf2.edge_index[e]], abs=1e-14)

    def test_shape_checked(self, torus_unit):
        surf, m = torus_unit
        with pytest.raises(ValueError):
            apply_conformal(surf, m, np.zeros(4))

    def test_overflow_guard(self, torus_unit):
        surf, m = torus_unit
        with pytest.raises(OverflowError):
            apply_conformal(surf, m, np.full(surf.vertex_count, 200.0))

    def test_strict_angles_raise_on_inadmissible(self, torus_unit, rng):
        surf, m = torus_unit
        u = np.zeros(surf.vertex_count)
        # opposite pushes on the adjacent pair (0, 1): the edge between them
        # keeps its length while the other edges of shared faces diverge
        u[0], u[1] = 2.5, -2.5
        apply_conformal(surf, m, u)
        with pytest.raises(AdmissibilityError):
            face_angles(surf, m, strict=True)
        # constant extension still produces a full table of angles in [0, pi]
        ang = face_angles(surf, m, strict=False)
        assert np.all((ang >= 0) & (ang <= math.pi))

    def test_extension_matches_scalar_reference(self, torus_unit):
        # the inadmissible state of test_strict_angles_raise_on_inadmissible
        surf, m = torus_unit
        u = np.zeros(surf.vertex_count)
        u[0], u[1] = 2.5, -2.5
        apply_conformal(surf, m, u)
        L = face_corner_lengths(surf, m)
        ang = face_angles(surf, m, strict=False)
        bad = np.flatnonzero(~admissible_mask(L))
        assert bad.size
        for fi in bad:
            # corners (0, 1, 2) are (i, j, k); L[f, c] is opposite corner c
            ref = extended_angles(TriLengths(l_ij=L[fi, 2], l_ik=L[fi, 1], l_jk=L[fi, 0]))
            assert tuple(ang[fi]) == ref


class TestDelaunay:
    def test_unit_fixtures_are_delaunay(self):
        for builder in (tetrahedron, octahedron, lambda: grid_torus(3, 3), genus2):
            surf = builder()
            m = unit_metric(surf)
            assert delaunay_weights(surf, m).min() > 0

    def test_weight_matches_angle_sum(self, octa_unit):
        surf, m = octa_unit
        ang = face_angles(surf, m)
        idx = surf.edge_index[(0, 1)]
        w = delaunay_weights(surf, m)[idx]
        (f1, c1), (f2, c2) = surf.edge_faces[idx]
        expected = (
            ang[f1].sum() - 2 * ang[f1, c1] + ang[f2].sum() - 2 * ang[f2, c2]
        )
        assert w == pytest.approx(expected, abs=1e-14)

    def test_make_delaunay_idempotent_on_delaunay_state(self, genus2_unit):
        surf, m = genus2_unit
        assert make_delaunay(surf, m) == []

    def test_make_delaunay_terminates_and_clears_negatives(self, genus2_perturbed):
        surf, m = genus2_perturbed
        events = make_delaunay(surf, m)
        assert len(events) >= 1
        assert delaunay_weights(surf, m).min() >= -1e-12
        for ev in events:
            assert ev.pre_weight < 0

    @pytest.mark.parametrize("builder", [lambda: grid_torus(5, 5), lambda: genus2(3, 3)])
    def test_make_delaunay_quad_updates_match_whole_mesh(self, builder, monkeypatch):
        # after every flip, the angles and weights make_delaunay keeps equal a
        # whole-mesh pass on the flipped state
        remeasure = surface._remeasure_flip
        checked = []

        def checked_remeasure(surf, m, angles, w, idx):
            remeasure(surf, m, angles, w, idx)
            assert np.max(np.abs(angles - face_angles(surf, m))) <= 1e-15
            assert np.max(np.abs(w - delaunay_weights(surf, m))) <= 1e-15
            checked.append(idx)

        monkeypatch.setattr(surface, "_remeasure_flip", checked_remeasure)
        flips = 0
        for seed in range(10):
            surf = builder()
            m = perturbed_metric(surf, np.random.default_rng(seed), spread=0.28)
            flips += len(make_delaunay(surf, m))
            assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY
        assert len(checked) == flips >= 15

    def test_make_delaunay_refuses_unflippable(self):
        # every flip of a tetrahedron edge would make a multi-edge
        surf = tetrahedron()
        m = PHMetric(surf, {e: 1.9 if e == (0, 1) else 1.0 for e in surf.edges})
        assert delaunay_weights(surf, m)[surf.edge_index[(0, 1)]] < -TOL_DELAUNAY
        with pytest.raises(FlipError):
            make_delaunay(surf, m)


class TestFlip:
    def test_diagonal_agrees_from_both_sides(self, octa_unit, rng):
        surf, m = octa_unit
        apply_conformal(surf, m, rng.uniform(-0.15, 0.15, surf.vertex_count))
        # flip_edge measures the new diagonal from the end 0; the reference
        # measures it from the end 1
        d_from_j = flip_diagonal_from_j(surf, m, (0, 1))
        flip_edge(surf, m, (0, 1))
        d = m.length[surf.edge_index[(2, 3)]]
        assert d > 0
        assert abs(d - d_from_j) <= 1e-8 * max(1.0, d)

    def test_flip_and_flip_back_restores_metric(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        before = dict(zip(surf.edges, m.length))
        ev = flip_edge(surf, m, (0, 1))
        assert ev.old_edge == (0, 1) and ev.new_edge == (2, 3)
        assert (0, 1) not in surf.edge_index and (2, 3) in surf.edge_index
        ev2 = flip_edge(surf, m, (2, 3))
        assert ev2.new_edge == (0, 1)
        for e, l in before.items():
            assert m.length[surf.edge_index[e]] == pytest.approx(l, abs=1e-12)

    def test_flip_is_curvature_isometry(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        K0 = curvature(surf, m)
        flip_edge(surf, m, (0, 1))
        K1 = curvature(surf, m)
        assert np.max(np.abs(K1 - K0)) < 1e-12

    def test_flip_sets_invariant_of_new_diagonal_only(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        lam = m.lam.copy()
        flip_edge(surf, m, (0, 1))
        slot = surf.edge_index[(2, 3)]
        changed = np.flatnonzero(m.lam != lam)
        assert changed.tolist() == [slot]
        assert m.lam[slot] == pytest.approx(
            math.log(math.sinh(0.5 * m.length[slot])) - u[2] - u[3], abs=1e-14
        )
        # scaling onward from the flipped state still matches the scalar kernel
        u2 = u + 0.05
        base = dict(zip(surf.edges, m.length))
        apply_conformal(surf, m, u2)
        for (i, j), d in base.items():
            assert m.length[surf.edge_index[(i, j)]] == pytest.approx(
                scaled_length(d, 0.05, 0.05), abs=1e-14
            )

    def test_flip_refused_when_diagonal_exists(self, genus2_unit):
        surf, m = genus2_unit
        # tetrahedron-like neighborhoods: find an edge whose quad diagonal
        # is already an edge of the surface
        surf_t = tetrahedron()
        m_t = unit_metric(surf_t)
        with pytest.raises(FlipError):
            flip_edge(surf_t, m_t, (0, 1))

    def test_flip_unknown_edge(self, octa_unit):
        surf, m = octa_unit
        with pytest.raises(FlipError):
            flip_edge(surf, m, (0, 5))  # antipodal pair, not an edge

    def test_advance_is_path_independent(self, genus2_unit, rng):
        # reaching the same u through different intermediate stops must give
        # the same lengths even when Delaunay walls are crossed
        from hypflow.surface import advance_conformal

        surf, m = genus2_unit
        u_mid = rng.uniform(-0.3, 0.3, surf.vertex_count)
        u_end = rng.uniform(-0.3, 0.3, surf.vertex_count)

        s1, m1 = clone_state(surf, m)
        ev_direct, _, _ = advance_conformal(s1, m1, u_end)
        assert len(ev_direct) >= 1  # the segment does cross a wall

        s2, m2 = clone_state(surf, m)
        advance_conformal(s2, m2, u_mid)
        advance_conformal(s2, m2, u_end)

        def canon(faces):
            out = []
            for f in faces:
                k = f.index(min(f))
                out.append(f[k:] + f[:k])
            return sorted(out)

        assert sorted(s1.edges) == sorted(s2.edges)
        assert canon(s1.faces) == canon(s2.faces)
        for e in s1.edges:
            assert m1.length[s1.edge_index[e]] == pytest.approx(m2.length[s2.edge_index[e]], abs=1e-10)

    def test_advance_flip_jump_is_rounding_level(self, genus2_unit, rng):
        from hypflow.surface import advance_conformal

        surf, m = genus2_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        events, jump, _ = advance_conformal(surf, m, u)
        assert jump <= 1e-10
        assert all(ev.k_jump <= 1e-10 for ev in events)

    def test_advance_ends_exactly_at_u(self, genus2_unit, rng):
        # a chain of stops, some crossing walls: each leg ends at its u bitwise
        surf, m = genus2_unit
        for _ in range(6):
            u = rng.uniform(-0.3, 0.3, surf.vertex_count)
            surface.advance_conformal(surf, m, u)
            assert np.array_equal(m.current_u, u)

    def test_refused_wall_flip_leaves_state_delaunay_on_segment(self):
        # the unit tetrahedron has no flippable edge, so the first wall stops
        # the move; the state stays Delaunay at a point of the segment
        surf = tetrahedron()
        m = unit_metric(surf)
        u = np.array([0.8, 0.8, -0.8, -0.8])
        with pytest.raises(FlipError):
            surface.advance_conformal(surf, m, u)
        s = m.current_u[0] / u[0]
        assert 0.0 < s < 1.0
        assert np.allclose(m.current_u, s * u, rtol=0.0, atol=1e-15)
        assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY

    def test_one_angle_pass_per_advance_and_none_per_flip(self, octa_unit, rng, monkeypatch):
        surf, m = octa_unit
        calls = {"face_angles": 0, "apply_conformal": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(surface, name, counted(name, getattr(surface, name)))
        events, _, _ = surface.advance_conformal(surf, m, rng.uniform(-0.01, 0.01, surf.vertex_count))
        assert events == []
        assert calls == {"face_angles": 1, "apply_conformal": 1}
        flip_edge(surf, m, (0, 1))
        assert calls == {"face_angles": 1, "apply_conformal": 1}

    def test_inadmissible_quad_face_refused_unmodified(self, octa_unit):
        surf, m = octa_unit
        (fa, _), _ = surf.edge_faces[surf.edge_index[(0, 1)]]
        other = next(q for q in surf.FE[fa] if surf.edges[q] != (0, 1))
        m.length[other] = 10.0
        faces, lengths, FE = list(surf.faces), m.length.copy(), surf.FE.copy()
        with pytest.raises(AdmissibilityError):
            flip_edge(surf, m, (0, 1))
        assert surf.faces == faces and np.array_equal(m.length, lengths)
        assert np.array_equal(surf.FE, FE) and (0, 1) in surf.edge_index

    def test_state_unchanged_after_refused_flip(self):
        surf = tetrahedron()
        m = unit_metric(surf)
        faces = list(surf.faces)
        lengths = m.length.copy()
        with pytest.raises(FlipError):
            flip_edge(surf, m, (0, 1))
        assert surf.faces == faces and np.array_equal(m.length, lengths)


def _outcome(advance, surf, m, u):
    """Flip sequence (None if the advance raised), error type and final state
    of ``advance`` on a clone of the state."""
    s, mm = clone_state(surf, m)
    try:
        out = advance(s, mm, u)
    except SurfaceError as exc:
        return None, type(exc), s, mm
    events = out[0] if isinstance(out, tuple) else out
    return [(ev.old_edge, ev.new_edge) for ev in events], None, s, mm


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestWallSearch:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("builder", [lambda: grid_torus(5, 5), lambda: genus2(3, 3)],
                             ids=["torus5x5", "genus2_3x3"])
    def test_matches_bisection_reference(self, builder, seed):
        surf = builder()
        rng = np.random.default_rng(seed)
        m = perturbed_metric(surf, rng, spread=0.28)
        make_delaunay(surf, m)
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        flips, err, s1, m1 = _outcome(surface.advance_conformal, surf, m, u)
        ref_flips, ref_err, s2, m2 = _outcome(advance_by_bisection, surf, m, u)
        assert (flips, err) == (ref_flips, ref_err)
        assert s1.faces == s2.faces and s1.edges == s2.edges
        assert np.max(np.abs(m1.length - m2.length)) <= 1e-12
        assert np.max(np.abs(m1.current_u - m2.current_u)) <= 1e-14

    def test_passes_per_wall_on_newton_surgery_inputs(self, monkeypatch):
        # the inputs of pass 0 of bench/run.py's newton-surgery workload,
        # seeds 1-3; plain bisection makes 51 passes per wall
        calls = {"apply_conformal": 0, "make_delaunay": 0}
        for name in calls:
            monkeypatch.setattr(surface, name, _counted(calls, name, getattr(surface, name)))
        for seed in (1, 2, 3):
            surf = grid_torus(20, 20)
            m = perturbed_metric(surf, np.random.default_rng([seed, 0]), spread=0.28)
            assert newton_solve(surf, m, 0.0, 0.1).converged
        # make_delaunay is called through surface only at a wall
        walls = calls["make_delaunay"]
        assert walls >= 60
        assert calls["apply_conformal"] <= 8 * walls

    def test_far_end_without_weights_bisects_then_flips(self, genus2_unit, rng, monkeypatch):
        # twice the segment of test_advance_is_path_independent: its end is
        # outside the admissible cone, its walls come first, and a flip there
        # is refused
        surf, m = genus2_unit
        u = 2.0 * rng.uniform(-0.3, 0.3, surf.vertex_count)
        s, mm = clone_state(surf, m)
        apply_conformal(s, mm, u)
        with pytest.raises(AdmissibilityError):
            face_angles(s, mm)
        visited = []
        monkeypatch.setattr(surface, "apply_conformal",
                            lambda s_, m_, x: (visited.append(np.copy(x)), apply_conformal(s_, m_, x)))
        flips, err, s1, m1 = _outcome(surface.advance_conformal, surf, m, u)
        assert err is FlipError
        assert any(np.array_equal(x, 0.5 * u) for x in visited)  # a bisection step
        assert set(s1.edges) != set(surf.edges)  # walls were flipped first
        t = m1.current_u[0] / u[0]
        assert 0.0 < t < 1.0
        assert np.allclose(m1.current_u, t * u, rtol=0.0, atol=1e-15)
        assert delaunay_weights(s1, m1, face_angles(s1, m1)).min() >= -TOL_DELAUNAY
        monkeypatch.undo()
        _, ref_err, s2, m2 = _outcome(advance_by_bisection, surf, m, u)
        assert ref_err is FlipError and s1.faces == s2.faces
        assert np.max(np.abs(m1.length - m2.length)) <= 1e-12

    @staticmethod
    def crossings_at_end(surf, m, u):
        """A clone of the state, and the edges past their walls at u with the
        first s at which each is, along the segment from u = 0 without flips."""
        s, mm = clone_state(surf, m)
        apply_conformal(s, mm, u)
        late = np.flatnonzero(delaunay_weights(s, mm) < -TOL_DELAUNAY)

        def crossing(e):
            lo, hi = 0.0, 1.0
            while hi - lo >= 1e-15:
                mid = 0.5 * (lo + hi)
                apply_conformal(s, mm, mid * u)
                if delaunay_weights(s, mm)[e] < -TOL_DELAUNAY:
                    hi = mid
                else:
                    lo = mid
            return hi

        return (s, mm), {int(e): crossing(e) for e in late}

    def test_earlier_of_two_crossings_flips_first(self, genus2_unit, rng, monkeypatch):
        surf, m = genus2_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        _, crossings = self.crossings_at_end(surf, m, u)
        assert len(crossings) >= 2  # several edges cross inside the first bracket
        first = surf.edges[min(crossings, key=crossings.get)]
        brackets = []
        real = surface._bracket_wall

        def recorded(*args):
            lo, hi = real(*args)
            at = args[2]
            brackets.append((clone_state(*args[:2]), at(lo), at(hi), hi - lo))
            return lo, hi

        monkeypatch.setattr(surface, "_bracket_wall", recorded)
        events, _, _ = surface.advance_conformal(surf, m, u)
        assert events[0].old_edge == first
        assert len(brackets) >= 2
        for (s_, m_), u_lo, u_hi, width in brackets:
            assert width < 1e-15
            apply_conformal(s_, m_, u_lo)
            assert delaunay_weights(s_, m_, face_angles(s_, m_)).min() >= -TOL_DELAUNAY
            apply_conformal(s_, m_, u_hi)
            assert delaunay_weights(s_, m_).min() < -TOL_DELAUNAY

    def test_whole_mesh_check_finds_a_crossing_the_candidates_miss(self, genus2_unit, rng):
        # far-end weights that hide the first crossing edge: the candidate
        # search closes in on a later wall, and the whole-mesh probe at its
        # near end must send the search back to the first one
        surf, m = genus2_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        (s, mm), crossings = self.crossings_at_end(surf, m, u)
        first = min(crossings, key=crossings.get)
        zero = np.zeros(surf.vertex_count)

        def at(t):
            return (1.0 - t) * zero + t * u

        apply_conformal(s, mm, at(0.0))
        w_lo = delaunay_weights(s, mm)
        apply_conformal(s, mm, at(1.0))
        w_hi = delaunay_weights(s, mm)
        w_hi[first] = 1.0
        lo, hi = surface._bracket_wall(s, mm, at, w_lo, w_hi)
        assert hi - lo < 1e-15 and abs(hi - crossings[first]) < 1e-14
        apply_conformal(s, mm, at(lo))
        assert delaunay_weights(s, mm).min() >= -TOL_DELAUNAY
        apply_conformal(s, mm, at(hi))
        assert delaunay_weights(s, mm)[first] < -TOL_DELAUNAY


FLIP_FIXTURES = [octahedron, lambda: grid_torus(5, 5), lambda: genus2(3, 3)]


def random_flips(surf, m, rng, attempts=60):
    """Flip randomly chosen edges, skipping refused flips; yields after each flip."""
    for _ in range(attempts):
        e = surf.edges[rng.integers(len(surf.edges))]
        try:
            flip_edge(surf, m, e)
        except FlipError:
            continue
        yield


class TestInPlaceFlip:
    @pytest.mark.parametrize("builder", FLIP_FIXTURES)
    def test_flips_agree_with_rebuilt_surface(self, builder):
        surf = builder()
        rng = np.random.default_rng(5)
        m = perturbed_metric(surf, rng, spread=0.1)
        flips = 0
        for _ in random_flips(surf, m, rng):
            flips += 1
            ref = MarkedSurface(surf.vertex_count, surf.faces)
            assert sorted(surf.edges) == ref.edges
            assert surf.edge_index == {e: idx for idx, e in enumerate(surf.edges)}
            assert list(zip(*surf.edge_endpoints())) == surf.edges
            assert np.array_equal(surf.face_array, ref.face_array)
            assert [surf.edges[i] for i in surf.FE.ravel()] == [ref.edges[i] for i in ref.FE.ravel()]
            for e in ref.edges:
                pairs = sorted(map(tuple, surf.edge_faces[surf.edge_index[e]].tolist()))
                assert pairs == sorted(map(tuple, ref.edge_faces[ref.edge_index[e]].tolist()))
            m_ref = PHMetric(ref, {e: m.length[surf.edge_index[e]] for e in ref.edges})
            assert np.array_equal(face_corner_lengths(ref, m_ref), face_corner_lengths(surf, m))
        assert flips >= 15

    @pytest.mark.parametrize("builder", FLIP_FIXTURES)
    def test_flip_diagnostics_match_whole_mesh(self, builder):
        surf = builder()
        rng = np.random.default_rng(7)
        m = perturbed_metric(surf, rng, spread=0.1)
        flips = 0
        for _ in range(60):
            e = surf.edges[rng.integers(len(surf.edges))]
            weight = delaunay_weights(surf, m)[surf.edge_index[e]]
            K0 = curvature(surf, m)
            try:
                ev = flip_edge(surf, m, e)
            except FlipError:
                continue
            flips += 1
            assert abs(ev.pre_weight - weight) <= 1e-12
            assert abs(ev.k_jump - np.max(np.abs(curvature(surf, m) - K0))) <= 1e-12
        assert flips >= 15

    @pytest.mark.parametrize("builder", FLIP_FIXTURES)
    def test_clone_after_flips_is_bitwise_equal(self, builder):
        surf = builder()
        rng = np.random.default_rng(6)
        m = perturbed_metric(surf, rng, spread=0.1)
        for _ in random_flips(surf, m, rng):
            pass
        s2, m2 = clone_state(surf, m)
        assert np.array_equal(curvature(s2, m2), curvature(surf, m))
        assert np.array_equal(delaunay_weights(s2, m2), delaunay_weights(surf, m))
