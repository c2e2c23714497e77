import math

import numpy as np
import pytest

from hypflow import flows, surface
from hypflow.curvature import curvature
from hypflow.flows import newton_solve
from hypflow.meshes import genus2, grid_torus, octahedron, perturbed_metric, tetrahedron, unit_metric
from hypflow.surface import (
    MAX_LENGTH,
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
from hypflow.triangle import admissible_mask, angles_from_length_array

from reference import (
    TriLengths,
    advance_by_bisection,
    algebraic_delaunay_test,
    combinatorics_by_faces,
    delaunay_by_least_weight,
    extended_angles,
    flip_diagonal_from_j,
    flip_by_lists,
    four_minus_two_weights,
    perturbed_lengths_by_dict,
    quad_weight_by_lists,
    scaled_length,
    wall_by_cosine_law,
)


# the reference's message for a repeated directed edge ends "or non-manifold edge"
ERROR_KINDS = ("does not have 3", "repeats a vertex", "out of range", "repeated", "boundary edge", "non-manifold edge (")


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

    @pytest.mark.parametrize(
        "vertex_count, builder, vertex",
        [
            # a torus with two vertices in no face would read chi = 2
            (11, lambda: grid_torus(3, 3).faces, 9),
            (5, lambda: tetrahedron().faces, 4),
            # two tetrahedra pinched together at vertex 3
            (7, lambda: np.concatenate((tetrahedron().face_array, tetrahedron().face_array + 3)), 3),
        ],
    )
    def test_vertex_link_must_be_one_cycle(self, vertex_count, builder, vertex):
        errs = validate_combinatorics(vertex_count, builder())
        assert len(errs) == 1 and errs[0].startswith(f"vertex {vertex} has ")
        with pytest.raises(SurfaceError, match="link cycles"):
            MarkedSurface(vertex_count, builder())

    def test_one_component_required(self):
        # a genus-2 surface beside a disjoint torus reads chi = -2 in total,
        # inside alpha > 0's regime, though the torus component is not
        g, t = genus2(3, 3), grid_torus(3, 3)
        faces = np.concatenate((g.face_array, t.face_array + g.vertex_count))
        n = g.vertex_count + t.vertex_count
        assert validate_combinatorics(n, faces) == [
            "surface has 2 connected components, not 1 (faces [0, 34] in different ones)"
        ]
        with pytest.raises(SurfaceError, match="2 connected components"):
            MarkedSurface(n, faces)

    @pytest.mark.parametrize("builder", [lambda: genus2(3, 3), lambda: grid_torus(4, 4)])
    @pytest.mark.parametrize("kind", ["drop", "reverse", "duplicate", "out of range", "repeat"])
    def test_matches_per_face_reference_on_corrupted_faces(self, builder, kind):
        surf = builder()
        n = surf.vertex_count
        rng = np.random.default_rng(11)
        for _ in range(15):
            faces = surf.face_array.tolist()
            fi = int(rng.integers(len(faces)))
            if kind == "drop":
                del faces[fi]
            elif kind == "reverse":
                faces[fi].reverse()
            elif kind == "duplicate":
                faces.insert(int(rng.integers(len(faces) + 1)), list(faces[fi]))
            elif kind == "out of range":
                faces[fi][rng.integers(3)] = int(rng.choice([-1 - rng.integers(3), n + rng.integers(3)]))
            else:
                c = rng.integers(3)
                faces[fi][c] = faces[fi][(c + 1) % 3]
            errs, ref = validate_combinatorics(n, faces), combinatorics_by_faces(n, faces)
            kinds = {k for k in ERROR_KINDS for e in ref if k in e}
            assert kinds and kinds == {k for k in ERROR_KINDS for e in errs if k in e}

    @pytest.mark.parametrize("faces", [[], [(0, 1, 2, 3)], [(0, 1, 2), (1, 2)], [("a", 1, 2)]])
    def test_non_triples_rejected(self, faces):
        errs = validate_combinatorics(4, faces)
        assert len(errs) == 1 and "not vertex triples" in errs[0]

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
        # lengths are one per edge slot: too few or too many is a wrong shape
        surf = tetrahedron()
        for length in (np.ones(5), np.ones(7), np.ones((6, 1))):
            with pytest.raises(SurfaceError, match="edge slots"):
                PHMetric(surf, length)

    def test_nonpositive_length_rejected(self):
        surf = tetrahedron()
        lengths = np.ones(6)
        lengths[0] = -2.0
        with pytest.raises(SurfaceError):
            PHMetric(surf, lengths)

    @pytest.mark.parametrize("length", [400.0, 2000.0, np.inf, np.nan])
    def test_length_beyond_every_solve_rejected(self, length):
        # a length above MAX_LENGTH has lam > MAX_SCALED_X at u = 0, where
        # every solve starts; it is refused before lam is computed, so no
        # overflow warning is raised
        surf = genus2()
        with pytest.raises(SurfaceError, match=r"edge \(0, 1\) has length"):
            PHMetric(surf, np.full(surf.ends.shape[1], length))

    def test_longest_length_admitted(self):
        surf = genus2()
        m = PHMetric(surf, np.full(surf.ends.shape[1], MAX_LENGTH))
        apply_conformal(surf, m, m.current_u)
        assert np.all(np.isfinite(m.lam)) and np.all(np.isfinite(m.length))

    def test_validate_reports_inadmissible_face(self):
        surf = tetrahedron()
        lengths = np.ones(6)
        lengths[0] = 10.0
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
        flip_edge(s2, m2, s2.edge_index[(0, 1)])
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

    def test_cosine_law_finite_up_to_overflow_guard(self):
        x = np.full(3, 0.5 * surface.MAX_SCALED_X)
        L = surface._scaled_lengths(np.zeros(3), x, x)
        assert np.all(np.isfinite(angles_from_length_array(L[None, :])))
        with pytest.raises(OverflowError):
            surface._scaled_lengths(np.zeros(3), x, x + 1e-9)

    def test_far_advance_ends_typed_without_overflow(self, genus2_unit):
        # lengths long enough to overflow the cosine law are refused as out
        # of range, so the wall search meets a typed error and no NaN angles
        surf, m = genus2_unit
        make_delaunay(surf, m)
        u = 1000.0 * np.random.default_rng(20260823).uniform(-0.3, 0.3, surf.vertex_count)
        with pytest.raises(FlipError):
            surface.advance_conformal(surf, m, u)
        angles = face_angles(surf, m)
        assert np.all(np.isfinite(angles))
        assert delaunay_weights(surf, m, angles).min() >= -TOL_DELAUNAY

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

    def test_angle_defect_matches_unbuffered_add(self, genus2_perturbed):
        surf, m = genus2_perturbed
        angles = face_angles(surf, m)
        total = np.zeros(surf.vertex_count)
        np.add.at(total, surf.face_array.ravel(), angles.ravel())
        assert np.array_equal(surface.angle_defect(surf, angles), 2.0 * math.pi - total)

    @pytest.mark.parametrize("builder", [lambda: grid_torus(20, 20), lambda: genus2(6, 6)])
    def test_weights_match_four_minus_two(self, builder):
        for seed in range(5):
            surf = builder()
            m = perturbed_metric(surf, np.random.default_rng(seed), spread=0.28)
            angles = face_angles(surf, m)
            w = delaunay_weights(surf, m, angles)
            assert np.max(np.abs(w - four_minus_two_weights(angles, surf.edge_faces))) <= 2e-15

    @pytest.mark.parametrize("builder", [lambda: grid_torus(8, 8), lambda: genus2(4, 4)])
    def test_algebraic_test_has_the_sign_of_the_weights(self, builder):
        # on every edge whose faces are admissible, P has the sign of the
        # angle weight and the wall search's quad measure is the weight; an
        # inadmissible face leaves its edges without a quad measure
        negatives = inadmissible = 0
        for seed in range(4):
            surf = builder()
            rng = np.random.default_rng(seed)
            m = perturbed_metric(surf, rng, spread=0.3)
            u = rng.uniform(-0.5, 0.5, surf.vertex_count)
            apply_conformal(surf, m, u)
            ok = admissible_mask(face_corner_lengths(surf, m))[surf.edge_faces[..., 0]].all(axis=1)
            w = delaunay_weights(surf, m, face_angles(surf, m, strict=False))
            P = algebraic_delaunay_test(surf, m)
            assert np.array_equal(np.sign(P[ok]), np.sign(w[ok]))
            for e in range(len(w)):
                v = surface._quad_weight(surf, m, e, u.tolist(), u.tolist())(1.0)
                assert (v[0] > -math.inf) == ok[e]
                if ok[e]:
                    assert abs(v[0] - TOL_DELAUNAY - w[e]) <= 1e-13
            negatives += int((w[ok] < 0.0).sum())
            inadmissible += int((~ok).sum())
        assert negatives >= 20 and inadmissible >= 1

    @pytest.mark.parametrize("builder", [lambda: grid_torus(8, 8), lambda: genus2(4, 4)])
    def test_first_roots_of_the_test_and_the_weight_agree(self, builder):
        # along segments from a Delaunay state, for each edge past its wall at
        # the end: P and the angle weight first vanish at the same s, the wall
        # search brackets the weight's crossing of -TOL_DELAUNAY (to 40 digits;
        # the float angle weight's own crossing can be 1e-14 off where the
        # weight is flat), and the quad measure's derivative matches finite
        # differences
        roots = 0
        for seed in range(3):
            surf = builder()
            rng = np.random.default_rng(seed)
            m = perturbed_metric(surf, rng, spread=0.28)
            make_delaunay(surf, m)
            u = rng.uniform(-0.3, 0.3, surf.vertex_count)
            s, mm = clone_state(surf, m)

            def measure(t):
                apply_conformal(s, mm, t * u)
                return delaunay_weights(s, mm, face_angles(s, mm, strict=False)), algebraic_delaunay_test(s, mm)

            def first_root(past):
                lo, hi = 0.0, 1.0
                while hi - lo >= 1e-15:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if past(mid) else (mid, hi)
                return hi

            w_end, _ = measure(1.0)
            for e in np.flatnonzero(w_end < -TOL_DELAUNAY):
                at_zero = first_root(lambda t: measure(t)[0][e] < 0.0)
                assert abs(first_root(lambda t: measure(t)[1][e] < 0.0) - at_zero) <= 1e-14
                weight = surface._quad_weight(surf, m, e, m.current_u.tolist(), u.tolist())
                hi, _, lo = surface._first_wall(weight, 0.0, 0.0, False, False)
                assert hi - lo < 1e-15
                assert abs(hi - wall_by_cosine_law(surf, m, e, m.current_u, u, hi)) <= 1e-14
                h = 1e-6
                g, dg = weight(0.5 * hi)
                fd = (weight(0.5 * hi + h)[0] - weight(0.5 * hi - h)[0]) / (2.0 * h)
                assert abs(dg - fd) <= 1e-7 * max(1.0, abs(dg))
                roots += 1
        assert roots >= 5

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

    @pytest.mark.parametrize("builder", [lambda: grid_torus(10, 10), lambda: genus2(6, 6)])
    def test_make_delaunay_matches_least_weight_loop(self, builder):
        # the advance on a zero-length segment makes the static loop's flips:
        # the same edges in the same order, and the same faces bitwise
        flips = 0
        for seed in range(10):
            surf = builder()
            m = perturbed_metric(surf, np.random.default_rng(seed), spread=0.28)
            s, mm = clone_state(surf, m)
            expected = delaunay_by_least_weight(s, mm)
            events = make_delaunay(surf, m)
            assert [(ev.old_edge, ev.new_edge) for ev in events] == [(ev.old_edge, ev.new_edge) for ev in expected]
            assert surf.face_array.tobytes() == s.face_array.tobytes()
            assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY
            flips += len(events)
        assert flips >= 40

    @pytest.mark.parametrize("builder", [lambda: grid_torus(10, 10), lambda: genus2(6, 6)])
    def test_make_delaunay_flips_the_least_weight_first(self, builder, monkeypatch):
        # on inputs where no flip is refused, each flip is of the edge of least
        # weight: replayed on the input, every event's pre_weight is the
        # whole-mesh minimum before that flip
        refused = []

        def counted_flip(surf, m, e, flip=surface.flip_edge):
            try:
                return flip(surf, m, e)
            except FlipError:
                refused.append(e)
                raise

        monkeypatch.setattr(surface, "flip_edge", counted_flip)
        replayed = 0
        for seed in range(10):
            surf = builder()
            m = perturbed_metric(surf, np.random.default_rng(seed), spread=0.28)
            s, mm = clone_state(surf, m)
            refused.clear()
            try:
                events = make_delaunay(s, mm)
            except FlipError:
                continue
            if refused:
                continue
            for ev in events:
                w = delaunay_weights(surf, m)
                slot = surf.edge_index[ev.old_edge]
                assert abs(ev.pre_weight - w.min()) <= 1e-12
                flip_edge(surf, m, slot)
                replayed += 1
            assert np.array_equal(surf.face_array, s.face_array)
        assert replayed >= 40

    def test_make_delaunay_refuses_unflippable(self):
        # every flip of a tetrahedron edge would make a multi-edge
        surf = tetrahedron()
        m = PHMetric(surf, [1.9 if e == (0, 1) else 1.0 for e in surf.edges])
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
        flip_edge(surf, m, surf.edge_index[(0, 1)])
        d = m.length[surf.edge_index[(2, 3)]]
        assert d > 0
        assert abs(d - d_from_j) <= 1e-8 * max(1.0, d)

    def test_flip_and_flip_back_restores_metric(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        before = dict(zip(surf.edges, m.length))
        ev = flip_edge(surf, m, surf.edge_index[(0, 1)])
        assert ev.old_edge == (0, 1) and ev.new_edge == (2, 3)
        assert (0, 1) not in surf.edge_index and (2, 3) in surf.edge_index
        ev2 = flip_edge(surf, m, surf.edge_index[(2, 3)])
        assert ev2.new_edge == (0, 1)
        for e, l in before.items():
            assert m.length[surf.edge_index[e]] == pytest.approx(l, abs=1e-12)

    def test_flip_is_curvature_isometry(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        K0 = curvature(surf, m)
        flip_edge(surf, m, surf.edge_index[(0, 1)])
        K1 = curvature(surf, m)
        assert np.max(np.abs(K1 - K0)) < 1e-12

    def test_flip_sets_invariant_of_new_diagonal_only(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        lam = m.lam.copy()
        flip_edge(surf, m, surf.edge_index[(0, 1)])
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
            flip_edge(surf_t, m_t, surf_t.edge_index[(0, 1)])

    def test_flip_unknown_edge(self, octa_unit):
        surf, m = octa_unit
        for slot in (surf.ends.shape[1], -1):
            with pytest.raises(FlipError, match="no edge slot"):
                flip_edge(surf, m, slot)

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
        flip_edge(surf, m, surf.edge_index[(0, 1)])
        assert calls == {"face_angles": 1, "apply_conformal": 1}

    def test_inadmissible_quad_face_refused_unmodified(self, octa_unit):
        surf, m = octa_unit
        (fa, _), _ = surf.edge_faces[surf.edge_index[(0, 1)]]
        other = next(q for q in surf.FE[fa] if surf.edges[q] != (0, 1))
        m.length[other] = 10.0
        faces, lengths, FE = list(surf.faces), m.length.copy(), surf.FE.copy()
        with pytest.raises(AdmissibilityError):
            flip_edge(surf, m, surf.edge_index[(0, 1)])
        assert surf.faces == faces and np.array_equal(m.length, lengths)
        assert np.array_equal(surf.FE, FE) and (0, 1) in surf.edge_index

    def test_state_unchanged_after_refused_flip(self):
        surf = tetrahedron()
        m = unit_metric(surf)
        faces = list(surf.faces)
        lengths = m.length.copy()
        with pytest.raises(FlipError):
            flip_edge(surf, m, surf.edge_index[(0, 1)])
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

    @pytest.mark.parametrize("size, seed, scale, crossed_again", [
        # ends that leave dozens of faces inadmissible: some of their edges
        # have walls on the way that their extended weights at u do not
        # show, and the candidates include them
        (6, [3, 3], 1.2, False), (6, [11, 3], 1.2, False),
        # an edge dips below its wall and back, unseen, while a wall of its
        # quad is crossed (the advance succeeds), or while the advance
        # fails: the segment is crossed again in two parts
        (10, [101, 11], 0.4, True), (8, [14, 7], 0.5, True),
    ], ids=["cone-3", "cone-11", "dip-flip", "dip-failure"])
    def test_matches_bisection_reference_on_long_moves(self, size, seed, scale, crossed_again,
                                                       monkeypatch):
        surf = grid_torus(size, size)
        rng = np.random.default_rng(seed)
        m = perturbed_metric(surf, rng, spread=0.28)
        make_delaunay(surf, m)
        u = rng.uniform(-scale, scale, surf.vertex_count)
        restores = []
        monkeypatch.setattr(surface, "_restore", lambda *args, restore=surface._restore: (
            restores.append(1), restore(*args)))
        flips, err, s1, m1 = _outcome(surface.advance_conformal, surf, m, u)
        assert bool(restores) == crossed_again
        ref_flips, ref_err, s2, m2 = _outcome(advance_by_bisection, surf, m, u)
        assert (flips, err) == (ref_flips, ref_err)
        assert s1.faces == s2.faces and s1.edges == s2.edges
        assert np.max(np.abs(m1.length - m2.length)) <= 1e-12
        assert np.max(np.abs(m1.current_u - m2.current_u)) <= 1e-14

    def test_whole_mesh_passes_per_advance_on_newton_surgery_inputs(self, monkeypatch):
        # the inputs of pass 0 of bench/run.py's newton-surgery workload,
        # seeds 1-3: an advance measures the whole mesh at u alone, at most
        # twice, however many walls it crosses
        passes, points, per_advance = {"face_angles": 0}, [], []
        monkeypatch.setattr(surface, "face_angles", _counted(passes, "face_angles", face_angles))
        monkeypatch.setattr(surface, "apply_conformal",
                            lambda s, mm, x: (points.append(np.copy(x)), apply_conformal(s, mm, x)))
        walls = 0

        def checked(s, mm, u, advance=surface.advance_conformal):
            nonlocal walls
            passes["face_angles"] = 0
            points.clear()
            out = advance(s, mm, u)
            walls += len(out[0])
            per_advance.append(passes["face_angles"])
            assert len(points) <= 2 and all(np.array_equal(x, u) for x in points)
            return out

        monkeypatch.setattr(flows, "advance_conformal", checked)
        for seed in (1, 2, 3):
            surf = grid_torus(20, 20)
            m = perturbed_metric(surf, np.random.default_rng([seed, 0]), spread=0.28)
            assert newton_solve(surf, m, 0.0, 0.1).converged
        assert walls >= 60
        assert max(per_advance) <= 2

    def test_newton_matches_bisection_reference_on_newton_surgery_input(self, monkeypatch):
        # the pass-0 input of seed 1 of bench/run.py's newton-surgery workload,
        # solved with each advance as it is and by plain bisection
        def solve(advance):
            flips = []

            def counted(s, mm, u):
                out = advance(s, mm, u)
                flips.append(len(out[0]))
                return out

            monkeypatch.setattr(flows, "advance_conformal", counted)
            surf = grid_torus(20, 20)
            m = perturbed_metric(surf, np.random.default_rng([1, 0]), spread=0.28)
            res = newton_solve(surf, m, 0.0, 0.1)
            assert res.converged
            return res.state.u, sum(flips)

        def by_bisection(s, mm, u):
            events = advance_by_bisection(s, mm, u)
            return events, max((ev.k_jump for ev in events), default=0.0), face_angles(s, mm)

        u, flips = solve(surface.advance_conformal)
        u_ref, flips_ref = solve(by_bisection)
        assert flips == flips_ref >= 20
        assert np.max(np.abs(u - u_ref)) <= 1e-12

    def test_far_end_without_weights_bisects_then_flips(self, genus2_unit, rng):
        # twice the segment of test_advance_is_path_independent: its end is
        # outside the admissible cone, its walls come first, and a flip there
        # is refused
        surf, m = genus2_unit
        u = 2.0 * rng.uniform(-0.3, 0.3, surf.vertex_count)
        s, mm = clone_state(surf, m)
        apply_conformal(s, mm, u)
        with pytest.raises(AdmissibilityError):
            face_angles(s, mm)
        flips, err, s1, m1 = _outcome(surface.advance_conformal, surf, m, u)
        assert err is FlipError
        assert set(s1.edges) != set(surf.edges)  # walls were flipped first
        t = m1.current_u[0] / u[0]
        assert 0.0 < t < 1.0
        assert np.allclose(m1.current_u, t * u, rtol=0.0, atol=1e-15)
        assert delaunay_weights(s1, m1, face_angles(s1, m1)).min() >= -TOL_DELAUNAY
        _, ref_err, s2, m2 = _outcome(advance_by_bisection, surf, m, u)
        assert ref_err is FlipError and s1.faces == s2.faces
        assert np.max(np.abs(m1.length - m2.length)) <= 1e-12

    @staticmethod
    def crossings_at_end(surf, m, u):
        """The edges past their walls at u with the first s at which each is,
        along the segment from u = 0 without flips."""
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

        return {int(e): crossing(e) for e in late}

    @staticmethod
    def checked_walls(surf, m, u, monkeypatch):
        """The flip events of ``advance_conformal`` from u = 0 to u on a clone
        of the state, after a whole-mesh check at each wall and at u: in s
        order, the state before the flip Delaunay everywhere 1e-14 before the
        wall, the flipped edge past its wall 1e-14 after it, and the final
        state Delaunay."""
        s, mm = clone_state(surf, m)
        walls = []

        def recorded(s_, m_, e, flip=surface.flip_edge):
            walls.append((clone_state(s_, m_), int(e), float(m_.current_u @ u / (u @ u))))
            return flip(s_, m_, e)

        monkeypatch.setattr(surface, "flip_edge", recorded)
        events, _, _ = surface.advance_conformal(s, mm, u)
        monkeypatch.undo()
        assert len(walls) == len(events)
        assert [t for *_, t in walls] == sorted(t for *_, t in walls)
        for (s_, m_), e, t in walls:
            apply_conformal(s_, m_, (t - 1e-14) * u)
            assert delaunay_weights(s_, m_, face_angles(s_, m_)).min() >= -TOL_DELAUNAY
            apply_conformal(s_, m_, (t + 1e-14) * u)
            assert delaunay_weights(s_, m_)[e] < -TOL_DELAUNAY
        assert delaunay_weights(s, mm).min() >= -TOL_DELAUNAY
        return events

    def test_earlier_of_two_crossings_flips_first(self, genus2_unit, rng, monkeypatch):
        surf, m = genus2_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        crossings = self.crossings_at_end(surf, m, u)
        assert len(crossings) >= 2  # several edges are past their walls at u
        first = surf.edges[min(crossings, key=crossings.get)]
        events = self.checked_walls(surf, m, u, monkeypatch)
        assert events[0].old_edge == first
        assert len(events) >= 2

    def test_whole_mesh_check_finds_a_crossing_the_candidates_miss(self, monkeypatch):
        # the segment of test_matches_bisection_reference[torus5x5-2]: an edge
        # that is not past its wall at u in the starting triangulation, and so
        # not a candidate, gets a wall after a flip changes its faces; the
        # whole-mesh check at every wall finds no crossing missed
        surf = grid_torus(5, 5)
        rng = np.random.default_rng(2)
        m = perturbed_metric(surf, rng, spread=0.28)
        make_delaunay(surf, m)
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        s, mm = clone_state(surf, m)
        apply_conformal(s, mm, u)
        candidates = {surf.edges[e] for e in np.flatnonzero(delaunay_weights(s, mm) < -TOL_DELAUNAY)}
        events = self.checked_walls(surf, m, u, monkeypatch)
        assert any(ev.old_edge not in candidates for ev in events)


FLIP_FIXTURES = [octahedron, lambda: grid_torus(5, 5), lambda: genus2(3, 3)]


def random_flips(surf, m, rng, attempts=60):
    """Flip randomly chosen edges, skipping refused flips; yields after each flip."""
    for _ in range(attempts):
        try:
            flip_edge(surf, m, rng.integers(surf.ends.shape[1]))
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
            edges, index = surf.edges, surf.edge_index
            ref = MarkedSurface(surf.vertex_count, surf.faces)
            ref_edges, ref_index = ref.edges, ref.edge_index
            assert sorted(edges) == ref_edges
            assert np.array_equal(surf.face_array, ref.face_array)
            assert [edges[i] for i in surf.FE.ravel()] == [ref_edges[i] for i in ref.FE.ravel()]
            for e in ref_edges:
                pairs = sorted(map(tuple, surf.edge_faces[index[e]].tolist()))
                assert pairs == sorted(map(tuple, ref.edge_faces[ref_index[e]].tolist()))
            m_ref = PHMetric(ref, [m.length[index[e]] for e in ref_edges])
            assert np.array_equal(face_corner_lengths(ref, m_ref), face_corner_lengths(surf, m))
        assert flips >= 15

    @pytest.mark.parametrize("builder", FLIP_FIXTURES)
    def test_perturbed_metric_after_flips_matches_dict_reference(self, builder):
        surf = builder()
        rng = np.random.default_rng(8)
        m = perturbed_metric(surf, rng, spread=0.1)
        for _ in random_flips(surf, m, rng):
            pass
        edges = surf.edges
        assert edges != sorted(edges)  # slot order is no longer vertex-pair order
        ref = perturbed_lengths_by_dict(surf, np.random.default_rng(9), spread=0.28)
        m = perturbed_metric(surf, np.random.default_rng(9), spread=0.28)
        assert np.array_equal(m.length, [ref[e] for e in edges])

    @pytest.mark.parametrize("builder", FLIP_FIXTURES)
    def test_flip_diagnostics_match_whole_mesh(self, builder):
        surf = builder()
        rng = np.random.default_rng(7)
        m = perturbed_metric(surf, rng, spread=0.1)
        flips = 0
        for _ in range(60):
            e = rng.integers(surf.ends.shape[1])
            weight = delaunay_weights(surf, m)[e]
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


def _same(a, b) -> bool:
    """Equal floats bit for bit up to the sign of zero, NaN matching NaN."""
    return all(x == y or (x != x and y != y) for x, y in zip(a, b))


SURGERY_FIXTURES = [pytest.param(builder, seed, id=f"{name}-{seed}")
                    for name, builder in (("genus2", lambda: genus2(3, 4)), ("torus", lambda: grid_torus(6, 7)))
                    for seed in (1, 2, 3)]


class TestScalarSurgeryReads:
    # the wall search's quad measure and the flip read their quad with
    # ndarray.item; they must compute what the fancy-index reads computed,
    # bit for bit, or the flows' step counts could move
    @pytest.mark.parametrize("builder, seed", SURGERY_FIXTURES)
    def test_quad_weights_bitwise(self, builder, seed):
        surf = builder()
        rng = np.random.default_rng(seed)
        m = perturbed_metric(surf, rng, spread=0.28)
        make_delaunay(surf, m)  # flips leave irregular vertex degrees
        u_from = rng.uniform(-0.2, 0.2, surf.vertex_count).tolist()
        u = rng.uniform(-0.6, 0.6, surf.vertex_count).tolist()
        outside = 0
        for e in range(surf.ends.shape[1]):
            lib, ref = surface._quad_weight(surf, m, e, u_from, u), quad_weight_by_lists(surf, m, e, u_from, u)
            for s in [0.0, 1.0, *rng.uniform(0.0, 1.0, 4).tolist()]:
                assert _same(lib(s), ref(s))
                outside += lib(s)[0] == -math.inf
        assert outside >= 1  # inadmissible points are compared too

    @pytest.mark.parametrize("builder, seed", SURGERY_FIXTURES)
    def test_flips_bitwise(self, builder, seed):
        surf = builder()
        rng = np.random.default_rng(seed)
        m = perturbed_metric(surf, rng, spread=0.28)
        apply_conformal(surf, m, rng.uniform(-0.2, 0.2, surf.vertex_count))
        ref_surf, ref_m = clone_state(surf, m)
        flipped = refused = 0
        for e in rng.integers(0, surf.ends.shape[1], 80).tolist():
            try:
                event = flip_edge(surf, m, e)
            except SurfaceError as exc:
                with pytest.raises(type(exc)):
                    flip_by_lists(ref_surf, ref_m, e)
                refused += 1
            else:
                ref = flip_by_lists(ref_surf, ref_m, e)
                assert (event.old_edge, event.new_edge) == (ref.old_edge, ref.new_edge)
                assert _same((event.pre_weight, event.k_jump), (ref.pre_weight, ref.k_jump))
                assert _same((m.length[e], m.lam[e]), (ref_m.length[e], ref_m.lam[e]))
                flipped += 1
            for name in ("face_array", "FE", "ends", "edge_faces"):
                assert np.array_equal(getattr(surf, name), getattr(ref_surf, name))
            assert np.array_equal(m.length, ref_m.length) and np.array_equal(m.lam, ref_m.lam)
        assert flipped >= 30 and refused >= 1
