import math

import numpy as np
import pytest

from hypflow import flows, surface
from hypflow.curvature import curvature
from hypflow.flows import newton_solve
from hypflow.meshes import genus2, grid_torus, octahedron, perturbed_metric, tetrahedron, unit_metric
from hypflow.surface import (
    MAX_LENGTH,
    MIN_LENGTH,
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
    _sort_half_edges,
    validate,
)
from hypflow.triangle import admissible_mask, angles_from_length_array

from reference import (
    TriLengths,
    advance_by_bisection,
    algebraic_delaunay_test,
    combinatorics_by_faces,
    delaunay_by_least_weight,
    edge_faces,
    edge_index_of,
    edges_of,
    extended_angles,
    faces_of,
    flip_diagonal_from_j,
    flip_by_lists,
    four_minus_two_weights,
    make_delaunay,
    perturbed_lengths_by_dict,
    scaled_length,
    surface_arrays_at_once,
    tri_angles,
)


# the reference's message for a repeated directed edge ends "or non-manifold edge"
ERROR_KINDS = ("does not have 3", "repeats a vertex", "out of range", "repeated", "boundary edge", "non-manifold edge (")


CORRUPTIONS = ("drop", "reverse", "duplicate", "out of range", "repeat")


def _corrupted(surf, kind: str, rng) -> list:
    """The faces of ``surf`` as lists, one of them corrupted by ``kind``."""
    faces = surf.face_array.tolist()
    n = surf.vertex_count
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
    return faces


# (vertex count, faces) of the refusal tests below, and of corrupted fixtures
MALFORMED_FACES = [
    lambda: (3, [(0, 1, 2)]),
    lambda: (4, [(0, 1, 2), (0, 1, 3)]),
    lambda: (3, [(0, 0, 1)]),
    lambda: (2, [(0, 1, 5)]),
    lambda: (4, []),
    lambda: (4, [(0, 1, 2, 3)]),
    lambda: (4, [(0, 1, 2), (1, 2)]),
    lambda: (4, [("a", 1, 2)]),
    lambda: (11, faces_of(grid_torus(3, 3))),
    lambda: (5, faces_of(tetrahedron())),
    lambda: (7, np.concatenate((tetrahedron().face_array, tetrahedron().face_array + 3))),
    lambda: (24, np.concatenate((genus2(3, 3).face_array, grid_torus(3, 3).face_array + 15))),
    lambda: (100, [(0, 1, 2)] * 40),
] + [
    lambda builder=builder, kind=kind, seed=seed: (
        (surf := builder()).vertex_count, _corrupted(surf, kind, np.random.default_rng(seed)))
    for builder in (lambda: genus2(3, 3), lambda: grid_torus(4, 4))
    for kind in CORRUPTIONS
    for seed in (11, 12)
]


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
        assert (surf.vertex_count, len(edges_of(surf)), len(faces_of(surf))) == counts

    def test_boundary_edge_detected(self):
        errs = _sort_half_edges(3, [(0, 1, 2)])[3]
        assert any("boundary edge" in e for e in errs)

    def test_orientation_mismatch_detected(self):
        # second face traverses (0, 1) in the same direction as the first
        errs = _sort_half_edges(4, [(0, 1, 2), (0, 1, 3)])[3]
        assert any("repeated" in e for e in errs)

    def test_repeated_vertex_detected(self):
        errs = _sort_half_edges(3, [(0, 0, 1)])[3]
        assert any("repeats" in e for e in errs)

    def test_out_of_range_detected(self):
        errs = _sort_half_edges(2, [(0, 1, 5)])[3]
        assert any("out of range" in e for e in errs)

    @pytest.mark.parametrize(
        "vertex_count, builder, vertex",
        [
            # a torus with two vertices in no face would read chi = 2
            (11, lambda: faces_of(grid_torus(3, 3)), 9),
            (5, lambda: faces_of(tetrahedron()), 4),
            # two tetrahedra pinched together at vertex 3
            (7, lambda: np.concatenate((tetrahedron().face_array, tetrahedron().face_array + 3)), 3),
        ],
    )
    def test_vertex_link_must_be_one_cycle(self, vertex_count, builder, vertex):
        errs = _sort_half_edges(vertex_count, builder())[3]
        assert len(errs) == 1 and errs[0].startswith(f"vertex {vertex} has ")
        with pytest.raises(SurfaceError, match="link cycles"):
            MarkedSurface(vertex_count, builder())

    def test_one_component_required(self):
        # a genus-2 surface beside a disjoint torus reads chi = -2 in total,
        # inside alpha > 0's regime, though the torus component is not
        g, t = genus2(3, 3), grid_torus(3, 3)
        faces = np.concatenate((g.face_array, t.face_array + g.vertex_count))
        n = g.vertex_count + t.vertex_count
        assert _sort_half_edges(n, faces)[3] == [
            "surface has 2 connected components, not 1 (faces [0, 34] in different ones)"
        ]
        with pytest.raises(SurfaceError, match="2 connected components"):
            MarkedSurface(n, faces)

    @pytest.mark.parametrize("builder", [lambda: genus2(3, 3), lambda: grid_torus(4, 4)])
    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_matches_per_face_reference_on_corrupted_faces(self, builder, kind):
        surf = builder()
        n = surf.vertex_count
        rng = np.random.default_rng(11)
        for _ in range(15):
            faces = _corrupted(surf, kind, rng)
            errs, ref = _sort_half_edges(n, faces)[3], combinatorics_by_faces(n, faces)
            kinds = {k for k in ERROR_KINDS for e in ref if k in e}
            assert kinds and kinds == {k for k in ERROR_KINDS for e in errs if k in e}

    @pytest.mark.parametrize("faces", [[], [(0, 1, 2, 3)], [(0, 1, 2), (1, 2)], [("a", 1, 2)]])
    def test_non_triples_rejected(self, faces):
        errs = _sort_half_edges(4, faces)[3]
        assert len(errs) == 1 and "not vertex triples" in errs[0]

    @pytest.mark.parametrize("builder", [
        tetrahedron, octahedron, lambda: grid_torus(3, 3), lambda: grid_torus(20, 20),
        lambda: grid_torus(100, 100), lambda: genus2(3, 3), lambda: genus2(6, 6),
    ])
    def test_arrays_bitwise_those_of_the_sort_at_once(self, builder):
        # the sort frees each whole-mesh temporary after its last read; the
        # surface must not change by one bit, nor its dtypes and shapes
        surf = builder()
        faces = surf.face_array.copy()
        built = MarkedSurface(surf.vertex_count, faces)
        ref = surface_arrays_at_once(surf.vertex_count, faces)
        for name, array in ref.items():
            got = getattr(built, name)
            assert got.dtype == array.dtype and got.shape == array.shape and np.array_equal(got, array), name

    @pytest.mark.parametrize("case", MALFORMED_FACES)
    def test_errors_those_of_the_sort_at_once(self, case):
        vertex_count, faces = case()
        assert _sort_half_edges(vertex_count, faces)[3] == surface_arrays_at_once(vertex_count, faces)["errors"]

    def test_bad_surface_rejected_at_construction(self):
        with pytest.raises(SurfaceError):
            MarkedSurface(3, [(0, 1, 2)])

    def test_grid_torus_requires_three(self):
        with pytest.raises(ValueError):
            grid_torus(2, 3)

    def test_edge_opposite_corner_table(self):
        surf = tetrahedron()
        for fi, (a, b, c) in enumerate(faces_of(surf)):
            # FE[f, 0] is the edge opposite corner 0, i.e. edge {b, c}
            assert edges_of(surf)[surf.FE[fi, 0]] == tuple(sorted((b, c)))
            assert edges_of(surf)[surf.FE[fi, 1]] == tuple(sorted((a, c)))
            assert edges_of(surf)[surf.FE[fi, 2]] == tuple(sorted((a, b)))


class TestMetric:
    def test_missing_length_rejected(self):
        # lengths are one per edge slot: too few or too many is a wrong shape
        surf = tetrahedron()
        for length in (np.ones(5), np.ones(7), np.ones((6, 1))):
            with pytest.raises(SurfaceError, match="edge slots"):
                PHMetric(surf, length)

    @pytest.mark.parametrize("length", [400.0, 2000.0, np.inf, np.nan, 1e-80, 5e-324, 0.0, -2.0])
    def test_length_beyond_every_solve_rejected(self, length):
        # a length above MAX_LENGTH or below MIN_LENGTH has |lam| >
        # MAX_SCALED_X at u = 0, where every solve starts; it is refused
        # before lam is computed, so no overflow warning is raised, and no
        # log(0) at 5e-324, whose sinh(l/2) is 0
        surf = genus2()
        with pytest.raises(SurfaceError, match=r"edge \(0, 1\) has length"):
            PHMetric(surf, np.full(surf.ends.shape[1], length))

    @pytest.mark.parametrize("length", [MIN_LENGTH, MAX_LENGTH])
    def test_lengths_at_either_end_admitted(self, length):
        # their lam is -MAX_SCALED_X and MAX_SCALED_X, the ends of the range
        surf = genus2()
        m = PHMetric(surf, np.full(surf.ends.shape[1], length))
        assert np.all(np.abs(m.lam) == surface.MAX_SCALED_X)
        apply_conformal(surf, m, m.current_u)
        assert np.allclose(m.length, length, rtol=1e-15, atol=0.0) and not make_delaunay(surf, m)

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
        flip_edge(s2, m2, edge_index_of(s2)[(0, 1)])
        assert (0, 1) in edge_index_of(surf)
        assert (0, 1) not in edge_index_of(s2)
        assert not np.array_equal(m.length, m2.length)


class TestConformal:
    def test_matches_scalar_kernel(self, torus_unit, rng):
        surf, m = torus_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        base = dict(zip(edges_of(surf), m.length))
        apply_conformal(surf, m, u)
        for (i, j), d in base.items():
            assert m.length[edge_index_of(surf)[(i, j)]] == pytest.approx(
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
        for e in edges_of(surf):
            assert m.length[edge_index_of(surf)[e]] == pytest.approx(m2.length[edge_index_of(surf2)[e]], abs=1e-14)

    def test_shape_checked(self, torus_unit):
        surf, m = torus_unit
        with pytest.raises(ValueError):
            apply_conformal(surf, m, np.zeros(4))

    def test_overflow_guard(self, torus_unit):
        # at both ends: lam + u_i + u_j above MAX_SCALED_X or below its negative
        surf, m = torus_unit
        for u in (200.0, -200.0):
            with pytest.raises(OverflowError):
                apply_conformal(surf, m, np.full(surf.vertex_count, u))
        assert np.array_equal(m.length, np.ones(m.length.size)) and not m.current_u.any()

    def test_cosine_law_finite_up_to_overflow_guard(self, torus_unit):
        # with lam = 0 and u = +-MAX_SCALED_X / 2 every lam + u_i + u_j is at the guard
        surf, m = torus_unit
        m.lam[:] = 0.0
        for x in (0.5 * surface.MAX_SCALED_X, -0.5 * surface.MAX_SCALED_X):
            apply_conformal(surf, m, np.full(surf.vertex_count, x))
            assert np.all(np.isfinite(angles_from_length_array(face_corner_lengths(surf, m))))
            with pytest.raises(OverflowError):
                apply_conformal(surf, m, np.full(surf.vertex_count, x + np.sign(x) * 1e-9))

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
        assert surface._weights(angles, surf.edge_corners).min() >= -TOL_DELAUNAY

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
        idx = edge_index_of(surf)[(0, 1)]
        w = delaunay_weights(surf, m)[idx]
        (f1, c1), (f2, c2) = edge_faces(surf)[idx]
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
            w = surface._weights(angles, surf.edge_corners)
            assert np.max(np.abs(w - four_minus_two_weights(angles, edge_faces(surf)))) <= 2e-15

    @pytest.mark.parametrize("builder", [lambda: grid_torus(8, 8), lambda: genus2(4, 4)])
    def test_algebraic_test_has_the_sign_of_the_weights(self, builder):
        # on every edge whose faces are admissible, P has the sign of the
        # angle weight; the surgery's P, summed in logarithms of sinh(l/2),
        # has the reference's sign on every edge, those of inadmissible
        # faces among them
        negatives = inadmissible = 0
        for seed in range(4):
            surf = builder()
            rng = np.random.default_rng(seed)
            m = perturbed_metric(surf, rng, spread=0.3)
            u = rng.uniform(-0.5, 0.5, surf.vertex_count)
            apply_conformal(surf, m, u)
            ok = admissible_mask(face_corner_lengths(surf, m))[surf.edge_corners // 3].all(axis=1)
            w = surface._weights(face_angles(surf, m, strict=False), surf.edge_corners)
            P = algebraic_delaunay_test(surf, m)
            assert np.array_equal(np.sign(P[ok]), np.sign(w[ok]))
            x = m.lam + u[surf.ends[0]] + u[surf.ends[1]]
            assert np.array_equal(surface._algebraic_negative(surf, x, np.arange(w.size)), P < 0.0)
            negatives += int((w[ok] < 0.0).sum())
            inadmissible += int((~ok).sum())
        assert negatives >= 20 and inadmissible >= 1

    @pytest.mark.parametrize("builder", [lambda: grid_torus(8, 8), lambda: genus2(4, 4)])
    def test_first_roots_of_the_test_and_the_weight_agree(self, builder):
        # along segments from a Delaunay state, for each edge past its wall at
        # the end, P and the angle weight first vanish at the same s
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
                w = surface._weights(face_angles(s, mm, strict=False), s.edge_corners)
                return w, algebraic_delaunay_test(s, mm)

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
                slot = edge_index_of(surf)[ev.old_edge]
                assert abs(ev.pre_weight - w.min()) <= 1e-12
                flip_edge(surf, m, slot)
                replayed += 1
            assert np.array_equal(surf.face_array, s.face_array)
        assert replayed >= 40

    def test_make_delaunay_refuses_unflippable(self):
        # every flip of a tetrahedron edge would make a multi-edge
        surf = tetrahedron()
        m = PHMetric(surf, [1.9 if e == (0, 1) else 1.0 for e in edges_of(surf)])
        assert delaunay_weights(surf, m)[edge_index_of(surf)[(0, 1)]] < -TOL_DELAUNAY
        with pytest.raises(FlipError):
            make_delaunay(surf, m)


class TestFlip:
    def test_diagonal_agrees_from_both_sides(self, octa_unit, rng):
        surf, m = octa_unit
        apply_conformal(surf, m, rng.uniform(-0.15, 0.15, surf.vertex_count))
        # flip_edge measures the new diagonal from the end 0; the reference
        # measures it from the end 1
        d_from_j = flip_diagonal_from_j(surf, m, (0, 1))
        flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        d = m.length[edge_index_of(surf)[(2, 3)]]
        assert d > 0
        assert abs(d - d_from_j) <= 1e-8 * max(1.0, d)

    def test_flip_and_flip_back_restores_metric(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        before = dict(zip(edges_of(surf), m.length))
        ev = flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        assert ev.old_edge == (0, 1) and ev.new_edge == (2, 3)
        assert (0, 1) not in edge_index_of(surf) and (2, 3) in edge_index_of(surf)
        ev2 = flip_edge(surf, m, edge_index_of(surf)[(2, 3)])
        assert ev2.new_edge == (0, 1)
        for e, l in before.items():
            assert m.length[edge_index_of(surf)[e]] == pytest.approx(l, abs=1e-12)

    def test_flip_is_curvature_isometry(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        K0 = curvature(surf, m)
        flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        K1 = curvature(surf, m)
        assert np.max(np.abs(K1 - K0)) < 1e-12

    def test_flip_sets_invariant_of_new_diagonal_only(self, octa_unit, rng):
        surf, m = octa_unit
        u = rng.uniform(-0.15, 0.15, surf.vertex_count)
        apply_conformal(surf, m, u)
        lam = m.lam.copy()
        flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        slot = edge_index_of(surf)[(2, 3)]
        changed = np.flatnonzero(m.lam != lam)
        assert changed.tolist() == [slot]
        assert m.lam[slot] == pytest.approx(
            math.log(math.sinh(0.5 * m.length[slot])) - u[2] - u[3], abs=1e-14
        )
        # scaling onward from the flipped state still matches the scalar kernel
        u2 = u + 0.05
        base = dict(zip(edges_of(surf), m.length))
        apply_conformal(surf, m, u2)
        for (i, j), d in base.items():
            assert m.length[edge_index_of(surf)[(i, j)]] == pytest.approx(
                scaled_length(d, 0.05, 0.05), abs=1e-14
            )

    def test_flip_refused_when_diagonal_exists(self, genus2_unit):
        surf, m = genus2_unit
        # tetrahedron-like neighborhoods: find an edge whose quad diagonal
        # is already an edge of the surface
        surf_t = tetrahedron()
        m_t = unit_metric(surf_t)
        with pytest.raises(FlipError):
            flip_edge(surf_t, m_t, edge_index_of(surf_t)[(0, 1)])

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

        assert sorted(edges_of(s1)) == sorted(edges_of(s2))
        assert canon(faces_of(s1)) == canon(faces_of(s2))
        for e in edges_of(s1):
            assert m1.length[edge_index_of(s1)[e]] == pytest.approx(m2.length[edge_index_of(s2)[e]], abs=1e-10)

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

    def test_refused_flip_leaves_the_given_state(self):
        # the unit tetrahedron has no flippable edge, so the first flip round
        # at u is refused; the advance puts back the state it was given
        surf = tetrahedron()
        m = unit_metric(surf)
        s0, m0 = clone_state(surf, m)
        with pytest.raises(FlipError):
            surface.advance_conformal(surf, m, np.array([0.8, 0.8, -0.8, -0.8]))
        _assert_same_state(surf, m, s0, m0)
        assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY

    def test_one_angle_pass_per_advance_and_none_per_flip(self, octa_unit, rng, monkeypatch):
        # whole-mesh passes of the angle kernel, whatever calls it
        surf, m = octa_unit
        passes = []
        kernel = surface.angles_from_length_array
        monkeypatch.setattr(surface, "angles_from_length_array",
                            lambda L: (passes.append(L.shape[:-1] == surf.face_array.shape[:1]), kernel(L))[1])
        events, _, _ = surface.advance_conformal(surf, m, rng.uniform(-0.01, 0.01, surf.vertex_count))
        assert events == []
        assert passes == [True]
        flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        assert passes.count(True) == 1

    def test_inadmissible_quad_face_refused_unmodified(self, octa_unit):
        surf, m = octa_unit
        fa = surf.edge_corners[edge_index_of(surf)[(0, 1)], 0] // 3
        other = next(q for q in surf.FE[fa] if edges_of(surf)[q] != (0, 1))
        m.length[other] = 10.0
        faces, lengths, FE = faces_of(surf), m.length.copy(), surf.FE.copy()
        with pytest.raises(AdmissibilityError):
            flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        assert faces_of(surf) == faces and np.array_equal(m.length, lengths)
        assert np.array_equal(surf.FE, FE) and (0, 1) in edge_index_of(surf)

    def test_state_unchanged_after_refused_flip(self):
        surf = tetrahedron()
        m = unit_metric(surf)
        faces = faces_of(surf)
        lengths = m.length.copy()
        with pytest.raises(FlipError):
            flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        assert faces_of(surf) == faces and np.array_equal(m.length, lengths)


def _assert_same_state(surf, m, s0, m0):
    """The state (surf, m) is (s0, m0) bit for bit."""
    for name in ("face_array", "ends", "edge_corners", "FE"):
        assert np.array_equal(getattr(surf, name), getattr(s0, name)), name
    for name in ("length", "lam", "current_u"):
        assert np.array_equal(getattr(m, name), getattr(m0, name)), name


def _triangles(surf) -> list:
    """The oriented faces, each rotated to start at its least vertex, in
    sorted order: the triangulation whatever its slots and face indices."""
    return sorted(tuple(f[f.index(min(f)):] + f[:f.index(min(f))]) for f in surf.face_array.tolist())


def _same_as_bisection(surf, m, u):
    """Advance clones of the state to u by ``advance_conformal`` and by the
    bisection reference: the same error type; after a success the same
    oriented triangles, lengths by vertex pair within 1e-12, curvatures
    within 1e-12 and the end exactly at u; after an error the state as it
    was given.  Returns the flip events (None after an error) and the
    error type."""
    s1, m1 = clone_state(surf, m)
    s2, m2 = clone_state(surf, m)
    try:
        events = surface.advance_conformal(s1, m1, u)[0]
        err = None
    except SurfaceError as exc:
        events, err = None, type(exc)
    try:
        advance_by_bisection(s2, m2, u)
        ref_err = None
    except SurfaceError as exc:
        ref_err = type(exc)
    assert err is ref_err
    if err is None:
        assert _triangles(s1) == _triangles(s2)
        by_pair = dict(zip(edges_of(s2), m2.length.tolist()))
        assert max(abs(l - by_pair[e]) for e, l in zip(edges_of(s1), m1.length.tolist())) <= 1e-12
        assert np.max(np.abs(curvature(s1, m1) - curvature(s2, m2))) <= 1e-12
        assert np.array_equal(m1.current_u, u)
    else:
        _assert_same_state(s1, m1, surf, m)
    return events, err


class TestSurgery:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("builder", [lambda: grid_torus(5, 5), lambda: genus2(3, 3)],
                             ids=["torus5x5", "genus2_3x3"])
    def test_matches_bisection_reference(self, builder, seed):
        surf = builder()
        rng = np.random.default_rng(seed)
        m = perturbed_metric(surf, rng, spread=0.28)
        make_delaunay(surf, m)
        _same_as_bisection(surf, m, rng.uniform(-0.3, 0.3, surf.vertex_count))

    @pytest.mark.parametrize("size, seed, scale", [
        # ends that leave dozens of faces inadmissible, whose edges the
        # algebraic test decides
        (6, [3, 3], 1.2), (6, [11, 3], 1.2),
        # ends whose segments the kinetic wall search crossed in two parts,
        # after an edge dipped below its wall and back: once ending in a
        # success, once in a refused flip
        (10, [101, 11], 0.4), (8, [14, 7], 0.5),
    ], ids=["cone-3", "cone-11", "dip-flip", "dip-failure"])
    def test_matches_bisection_reference_on_long_moves(self, size, seed, scale):
        surf = grid_torus(size, size)
        rng = np.random.default_rng(seed)
        m = perturbed_metric(surf, rng, spread=0.28)
        make_delaunay(surf, m)
        u = rng.uniform(-scale, scale, surf.vertex_count)
        if scale > 1.0:
            s, mm = clone_state(surf, m)
            apply_conformal(s, mm, u)
            assert (~admissible_mask(face_corner_lengths(s, mm))).sum() >= 12
        _same_as_bisection(surf, m, u)

    def test_one_whole_mesh_pass_per_advance_on_newton_surgery_inputs(self, monkeypatch):
        # the inputs of pass 0 of bench/run.py's newton-surgery workload,
        # seeds 1-3: an advance measures the whole mesh once, at u, however
        # many walls it crosses; its rounds measure only a flip's quad: its
        # two new faces for the state, its old and new faces for the jump,
        # and, if isometric, its old faces for the diagonal
        rows, walls = [], 0
        kernel = surface.angles_from_length_array
        monkeypatch.setattr(surface, "angles_from_length_array", lambda L: (rows.append(L.shape[:-1]), kernel(L))[1])

        def checked(s, mm, u, advance=surface.advance_conformal):
            nonlocal walls
            rows.clear()
            out = advance(s, mm, u)
            F = s.face_array.shape[0]
            walls += len(out[0])
            assert rows.count((F,)) == 1
            assert sum(int(np.prod(r)) for r in rows) <= F + 8 * len(out[0])
            return out

        monkeypatch.setattr(flows, "advance_conformal", checked)
        for seed in (1, 2, 3):
            surf = grid_torus(20, 20)
            m = perturbed_metric(surf, np.random.default_rng([seed, 0]), spread=0.28)
            assert newton_solve(surf, m, 0.0, 0.1).converged
        assert walls >= 60

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

    def test_far_end_outside_the_admissible_cone(self, genus2_unit, rng):
        # twice the segment of test_advance_is_path_independent: its end is
        # outside the admissible cone, and a flip there is refused
        surf, m = genus2_unit
        u = 2.0 * rng.uniform(-0.3, 0.3, surf.vertex_count)
        s, mm = clone_state(surf, m)
        apply_conformal(s, mm, u)
        with pytest.raises(AdmissibilityError):
            face_angles(s, mm)
        assert _same_as_bisection(surf, m, u)[1] is FlipError

    def test_rounds_flip_face_disjoint_sets_least_weight_first(self, genus2_unit, rng, monkeypatch):
        # the segment of test_advance_is_path_independent: several edges are
        # past their walls at u, the least of them flips in the first
        # round, and each round writes disjoint faces
        surf, m = genus2_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        s, mm = clone_state(surf, m)
        apply_conformal(s, mm, u)
        w = delaunay_weights(s, mm)
        assert (w < -TOL_DELAUNAY).sum() >= 2
        written = []
        commit = surface._commit
        monkeypatch.setattr(surface, "_commit",
                            lambda *args: (written.append(args[3][[0, 2]].ravel()), commit(*args))[1])
        events, _, _ = surface.advance_conformal(surf, m, u)
        assert events[0].round == 0 and events[0].old_edge == edges_of(s)[int(np.argmin(w))]
        assert events[0].pre_weight == w.min()
        assert len(written) == events[-1].round + 1
        assert max(faces.size for faces in written) >= 4  # a round of two flips or more
        assert all(np.unique(faces).size == faces.size for faces in written)
        assert delaunay_weights(surf, m).min() >= -TOL_DELAUNAY

    def test_later_round_flips_an_edge_the_first_pass_did_not_name(self):
        # the segment of test_matches_bisection_reference[torus5x5-2]: an edge
        # that is not past its wall at u in the starting triangulation gets
        # past it once a flip changes its faces, and a later round flips it
        surf = grid_torus(5, 5)
        rng = np.random.default_rng(2)
        m = perturbed_metric(surf, rng, spread=0.28)
        make_delaunay(surf, m)
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        s, mm = clone_state(surf, m)
        apply_conformal(s, mm, u)
        candidates = {edges_of(s)[e] for e in np.flatnonzero(delaunay_weights(s, mm) < -TOL_DELAUNAY)}
        events, _ = _same_as_bisection(surf, m, u)
        assert any(ev.round > 0 and ev.old_edge not in candidates for ev in events)

    def test_wrong_ptolemy_diagonal_shows_as_a_jump(self, genus2_unit, rng, monkeypatch):
        # criterion 9 reads each Ptolemy flip's jump at a wall of its quad: a
        # diagonal whose lam is off by 1e-6 is caught there at its bound
        surf, m = genus2_unit
        u = rng.uniform(-0.3, 0.3, surf.vertex_count)
        events, jump, _ = surface.advance_conformal(*clone_state(surf, m), u)
        assert len(events) >= 2 and jump <= 1e-12
        ptolemy = surface._ptolemy_lam
        monkeypatch.setattr(surface, "_ptolemy_lam", lambda lam: ptolemy(lam) + 1e-6)
        events, jump, _ = surface.advance_conformal(surf, m, u)
        assert len(events) >= 2 and all(ev.k_jump > 1e-8 for ev in events)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closed_form_walls_on_newton_surgery_inputs(self, seed, monkeypatch):
        # the pass-0 inputs of bench/run.py's newton-surgery workload: each
        # Ptolemy flip's jump is measured where both old faces are
        # admissible and the old edge's weight, by the scalar cosine law,
        # is zero
        walls = []
        find = surface._ptolemy_walls
        monkeypatch.setattr(surface, "_ptolemy_walls", lambda *args: (walls.append(find(*args)), walls[-1])[1])
        surf = grid_torus(20, 20)
        m = perturbed_metric(surf, np.random.default_rng([seed, 0]), spread=0.28)
        assert newton_solve(surf, m, 0.0, 0.1).converged
        worst, count = 0.0, 0
        for ij, ik, jk, il, jl, _ in np.concatenate(walls, axis=1).T.tolist():
            a, b = TriLengths(ij, ik, jk), TriLengths(ij, il, jl)
            assert a.admissible and b.admissible
            (ai, aj, ak), (bi, bj, bl) = tri_angles(a), tri_angles(b)
            worst = max(worst, abs(ai + aj - ak + bi + bj - bl))
            count += 1
        assert count >= 20 and worst <= 1e-12


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
            edges, index = edges_of(surf), edge_index_of(surf)
            ref = MarkedSurface(surf.vertex_count, faces_of(surf))
            ref_edges, ref_index = edges_of(ref), edge_index_of(ref)
            assert sorted(edges) == ref_edges
            assert np.array_equal(surf.face_array, ref.face_array)
            assert [edges[i] for i in surf.FE.ravel()] == [ref_edges[i] for i in ref.FE.ravel()]
            for e in ref_edges:
                pairs = sorted(surf.edge_corners[index[e]].tolist())
                assert pairs == sorted(ref.edge_corners[ref_index[e]].tolist())
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
        edges = edges_of(surf)
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
    # the flip reads its quad with ndarray.item; it must compute what the
    # fancy-index reads computed, bit for bit
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
            for name in ("face_array", "FE", "ends", "edge_corners"):
                assert np.array_equal(getattr(surf, name), getattr(ref_surf, name))
            assert np.array_equal(m.length, ref_m.length) and np.array_equal(m.lam, ref_m.lam)
        assert flipped >= 30 and refused >= 1


def _weights_by_pairs(angles, pairs):
    """Delaunay weights from each edge's (face, corner) ``pairs`` (E, 2, 2),
    as ``surface._weights`` computed them before the state kept flat corner
    indices."""
    q = np.empty_like(angles)
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.add(angles[:, a], angles[:, b], out=q[:, c])
    q = (q - angles).ravel()[3 * pairs[..., 0] + pairs[..., 1]]
    return q[:, 0] + q[:, 1]


class TestEdgeCorners:
    @staticmethod
    def check(surf):
        """``edge_corners`` against the corners recomputed from the faces and
        ends alone, and ``_weights`` on it against the (face, corner) form."""
        F, n = surf.face_array, surf.vertex_count
        # the corner 3 f + c faces the vertex pair of face f's other two corners
        a, b = F[:, [1, 2, 0]].ravel(), F[:, [2, 0, 1]].ravel()
        facing = np.minimum(a, b) * n + np.maximum(a, b)
        slot = surf.ends[0] * n + surf.ends[1]
        # each slot sorted by key holds the two corners that face its pair
        order = np.argsort(facing, kind="stable").reshape(-1, 2)
        expected = np.empty_like(order)
        expected[np.argsort(slot)] = order
        assert np.array_equal(np.sort(surf.edge_corners, axis=1), expected)
        assert np.array_equal(surf.FE.ravel()[surf.edge_corners], np.repeat(np.arange(slot.size)[:, None], 2, axis=1))
        angles = np.random.default_rng(0).uniform(0.0, math.pi, F.shape)
        pairs = np.stack(np.divmod(expected, 3), axis=-1)
        assert np.array_equal(surface._weights(angles, surf.edge_corners), _weights_by_pairs(angles, pairs))

    @pytest.mark.parametrize("builder", [lambda: grid_torus(20, 20), lambda: genus2(3, 3)])
    def test_flat_indices_after_every_flip_round(self, builder, monkeypatch):
        surf = builder()
        rng = np.random.default_rng(5)
        m = perturbed_metric(surf, rng, spread=0.28)
        commit, rounds = surface._commit, []

        def checked(s, *args):
            events = commit(s, *args)
            self.check(s)
            rounds.append(len(events))
            return events

        monkeypatch.setattr(surface, "_commit", checked)
        self.check(surf)
        make_delaunay(surf, m)
        entry = len(rounds)
        # Ptolemy rounds: seeded advances, each from the Delaunay state at u = 0
        for _ in range(10):
            surface.advance_conformal(*clone_state(surf, m), rng.uniform(-0.2, 0.2, surf.vertex_count))
        assert entry >= 1 and len(rounds) - entry >= 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_factor_not_finite_refused_unchanged(self, genus2_perturbed, rng, bad):
        surf, m = genus2_perturbed
        make_delaunay(surf, m)
        s0, m0 = clone_state(surf, m)
        u = rng.uniform(-0.2, 0.2, surf.vertex_count)
        u[3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            surface.advance_conformal(surf, m, u)
        _assert_same_state(surf, m, s0, m0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scaled_length_out_of_range_refused_unchanged(self, torus_unit, sign):
        # equilateral faces stay Delaunay under a constant u, so no flip
        # comes first; lam + 2 u passes +-MAX_SCALED_X on every edge
        surf, m = torus_unit
        s0, m0 = clone_state(surf, m)
        u = np.full(surf.vertex_count, sign * 0.5 * (surface.MAX_SCALED_X + 1.0 - m.lam[0]))
        with pytest.raises(OverflowError):
            surface.advance_conformal(surf, m, u)
        _assert_same_state(surf, m, s0, m0)
