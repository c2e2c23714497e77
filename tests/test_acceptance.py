"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria jointly exercise the derivative kernel against finite
differences, the Jacobian assembly, flip/Delaunay duality, uniformization by
flow and by Newton's method, rigidity, energy monotonicity and closedness,
the discrete maximum principle, continuity across surgery and the
Gauss-Bonnet identity.
"""

import json
import math

import numpy as np
import pytest

from hypflow import cli, flows
from hypflow.curvature import (
    ConformalState,
    curvature,
    energy_increment,
    gauss_bonnet_residual,
    jacobian,
)
from hypflow.flows import FlowConfig, StepRecord, newton_solve, run_flow
from hypflow.meshes import genus2, grid_torus, octahedron, perturbed_metric, unit_metric
from hypflow.surface import (
    advance_conformal,
    apply_conformal,
    clone_state,
    delaunay_weights,
    face_angles,
    flip_edge,
)
from hypflow.triangle import angle_derivatives, angles_from_length_array

from fd import fd_dangle, fd_darea, random_admissible_lengths, rel_err
from reference import (
    ENVELOPE_SLACK,
    decay_slope,
    dense_jacobian,
    edge_index_of,
    edges_of,
    flip_diagonal_from_j,
    half_angle_residual,
    make_delaunay,
    max_principle,
)

# gauss-bonnet residuals collected at states encountered across the suite;
# criterion 10 asserts over all of them
GB_RESIDUALS = []


def gb(surf, m):
    r = abs(gauss_bonnet_residual(surf, m))
    GB_RESIDUALS.append(r)
    return r


@pytest.fixture
def announce(capsys):
    def _p(line):
        with capsys.disabled():
            print("\n" + line)

    return _p


@pytest.fixture(scope="module")
def runs():
    """Flow and Newton runs shared by criteria 4, 5, 7 and 9."""
    out = {}

    surf0 = genus2()
    m_pert = perturbed_metric(surf0, np.random.default_rng(1), spread=0.28)

    for kind in ("yamabe", "calabi"):
        s, m = clone_state(surf0, m_pert)
        cfg = FlowConfig(kind=kind, alpha=0.0, target=0.0, tol_converge=1e-9, max_steps=20000)
        out[f"{kind}_a0"] = (run_flow(s, m, cfg), s, m)

    for alpha, target in ((1.0, -1.0), (-1.0, 1.0)):
        s, m = clone_state(surf0, m_pert)
        cfg = FlowConfig(
            kind="yamabe", alpha=alpha, target=target, tol_converge=1e-10, max_steps=20000
        )
        out[f"yamabe_a{alpha:+g}"] = (run_flow(s, m, cfg), s, m)
        s, m = clone_state(surf0, m_pert)
        out[f"newton_a{alpha:+g}"] = (newton_solve(s, m, alpha, target), s, m)

    out["initial"] = (None, *clone_state(surf0, m_pert))
    return out


def test_criterion_1_derivative_calculus(announce):
    # the library kernel on 1000 triangles in one call; corners (i, j, k) are
    # (0, 1, 2) and W[f, c] is the derivative across the edge opposite c
    rng = np.random.default_rng(101)
    tris = [random_admissible_lengths(rng) for _ in range(1000)]
    L = np.array([l.row() for l in tris])
    angles = angles_from_length_array(L)
    W = angle_derivatives(L, angles)
    S, T = W * np.cosh(L), W * (np.cosh(L) - 1.0)
    diag = S - S.sum(axis=1, keepdims=True)  # d a_c/d u_c
    darea = T.sum(axis=1, keepdims=True) - T  # d Area/d u_c
    worst_d, worst_h = 0.0, 0.0
    for f, l in enumerate(tris):
        worst_d = max(
            worst_d,
            rel_err(fd_dangle(l, "i", "j"), W[f, 2]),
            rel_err(fd_dangle(l, "i", "i"), diag[f, 0]),
            rel_err(fd_darea(l, "i"), darea[f, 0]),
            rel_err(fd_darea(l, "j"), darea[f, 1]),
            rel_err(fd_darea(l, "k"), darea[f, 2]),
        )
        worst_h = max(worst_h, half_angle_residual(l, angles[f]))
    ok = worst_d <= 1e-6 and worst_h <= 1e-10
    announce(
        f"ACCEPTANCE 1 derivative calculus: {'PASS' if ok else 'FAIL'} "
        f"(max FD rel err {worst_d:.2e} <= 1e-6, half-angle residual {worst_h:.2e} <= 1e-10)"
    )
    assert worst_d <= 1e-6
    assert worst_h <= 1e-10


def test_criterion_2_jacobian(announce):
    rng = np.random.default_rng(202)
    builders = [octahedron, lambda: grid_torus(3, 3), lambda: grid_torus(4, 5), genus2,
                lambda: grid_torus(5, 5)]
    worst_fd, worst_sym, worst_dec = 0.0, 0.0, 0.0
    h = 1e-5
    for trial in range(50):
        surf = builders[trial % len(builders)]()
        m = perturbed_metric(surf, rng, spread=0.2)
        make_delaunay(surf, m)
        gb(surf, m)
        J = jacobian(surf, m, face_angles(surf, m))
        L = dense_jacobian(J)
        worst_sym = max(worst_sym, float(np.max(np.abs(L - L.T))))
        np.linalg.cholesky(L)  # positive definiteness on Delaunay states

        n = surf.vertex_count
        for j in range(n):
            u = np.zeros(n)
            u[j] = h
            s2, m2 = clone_state(surf, m)
            apply_conformal(s2, m2, u)
            K_p = curvature(s2, m2)
            u[j] = -h
            s2, m2 = clone_state(surf, m)
            apply_conformal(s2, m2, u)
            K_m = curvature(s2, m2)
            col = (K_p - K_m) / (2 * h)
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(col - L[:, j]) / np.maximum(1.0, np.abs(col)))),
            )

        i_idx, j_idx = surf.ends
        larr = m.length
        A = np.zeros(n)
        np.add.at(A, i_idx, J.B * (np.cosh(larr) - 1.0))
        np.add.at(A, j_idx, J.B * (np.cosh(larr) - 1.0))
        diag = A.copy()
        np.add.at(diag, i_idx, J.B)
        np.add.at(diag, j_idx, J.B)
        worst_dec = max(
            worst_dec,
            float(np.max(np.abs(A - J.A))),
            float(np.max(np.abs(J.D - diag))),
        )
    ok = worst_fd <= 1e-6 and worst_sym <= 1e-12 and worst_dec <= 1e-9
    announce(
        f"ACCEPTANCE 2 jacobian: {'PASS' if ok else 'FAIL'} "
        f"(FD rel err {worst_fd:.2e} <= 1e-6, asymmetry {worst_sym:.2e}, "
        f"decomposition residual {worst_dec:.2e} <= 1e-9, Cholesky ok on 50 states)"
    )
    assert worst_fd <= 1e-6
    assert worst_dec <= 1e-9


def test_criterion_3_flip_duality(announce):
    rng = np.random.default_rng(303)
    worst_diag, worst_restore, worst_K = 0.0, 0.0, 0.0
    sign_ok = True
    flips_done = 0
    while flips_done < 1000:
        surf = octahedron()
        m = perturbed_metric(surf, rng, spread=0.3)
        w = delaunay_weights(surf, m)
        B = jacobian(surf, m, face_angles(surf, m)).B
        mask = np.abs(B) > 1e-9
        if not np.all(np.sign(w[mask]) == np.sign(B[mask])):
            sign_ok = False

        # flips are geometric (hence involutive) only when the quad hinge is
        # convex: the two angle sums at the diagonal endpoints stay below pi
        ang = face_angles(surf, m)
        idx = edge_index_of(surf)[(0, 1)]
        (f1, c1), (f2, c2) = (divmod(at, 3) for at in surf.edge_corners[idx].tolist())
        sums = [
            ang[f1, (c1 + 1) % 3] + ang[f2, (c2 + 2) % 3],
            ang[f1, (c1 + 2) % 3] + ang[f2, (c2 + 1) % 3],
        ]
        if max(sums) >= math.pi - 1e-3:
            continue

        gb(surf, m)
        before = dict(zip(edges_of(surf), m.length))
        K0 = curvature(surf, m)
        # flip_edge measures the new diagonal from the end 0, the reference
        # from the end 1
        from_j = flip_diagonal_from_j(surf, m, (0, 1))
        flip_edge(surf, m, edge_index_of(surf)[(0, 1)])
        worst_diag = max(worst_diag, abs(m.length[edge_index_of(surf)[(2, 3)]] - from_j))
        K1 = curvature(surf, m)
        flip_edge(surf, m, edge_index_of(surf)[(2, 3)])
        K2 = curvature(surf, m)
        worst_K = max(
            worst_K,
            float(np.max(np.abs(K1 - K0))),
            float(np.max(np.abs(K2 - K0))),
        )
        worst_restore = max(
            worst_restore, max(abs(m.length[edge_index_of(surf)[e]] - l) for e, l in before.items())
        )
        flips_done += 1
    ok = sign_ok and worst_diag <= 1e-10 and worst_restore <= 1e-9 and worst_K <= 1e-9
    announce(
        f"ACCEPTANCE 3 flip duality: {'PASS' if ok else 'FAIL'} "
        f"(sign agreement {sign_ok}, two-sided diagonal {worst_diag:.2e} <= 1e-10, "
        f"flip+flip-back restore {worst_restore:.2e} <= 1e-9, K invariance {worst_K:.2e} <= 1e-9)"
    )
    assert sign_ok
    assert worst_diag <= 1e-10
    assert worst_restore <= 1e-9
    assert worst_K <= 1e-9


def test_criterion_4_classical_uniformization(announce, runs):
    details = []
    ok = True
    for kind in ("yamabe", "calabi"):
        run, s, m = runs[f"{kind}_a0"]
        gb(s, m)
        sup_K = float(np.max(np.abs(curvature(s, m))))
        slope = decay_slope(run)
        good = run.converged and sup_K <= 1e-8 and slope < 0
        ok = ok and good
        details.append(f"{kind}: sup|K| {sup_K:.2e} <= 1e-8, decay slope {slope:.2f} < 0")
    announce(
        f"ACCEPTANCE 4 classical uniformization (alpha=0): "
        f"{'PASS' if ok else 'FAIL'} ({'; '.join(details)})"
    )
    assert ok


def test_criterion_5_parameterized_uniformization(announce, runs):
    details = []
    ok = True
    for alpha, target in ((1.0, -1.0), (-1.0, 1.0)):
        run, s, m = runs[f"yamabe_a{alpha:+g}"]
        gb(s, m)
        K = curvature(s, m)
        sup_R = float(np.max(np.abs(K / np.exp(alpha * run.final_u) - target)))
        res, s_n, m_n = runs[f"newton_a{alpha:+g}"]
        gb(s_n, m_n)
        gap = float(np.max(np.abs(run.final_u - res.state.u)))
        good = run.converged and sup_R <= 1e-8 and res.converged and gap <= 1e-6
        ok = ok and good
        details.append(
            f"alpha={alpha:+g}: sup|R-target| {sup_R:.2e} <= 1e-8, newton gap {gap:.2e} <= 1e-6"
        )
    announce(
        f"ACCEPTANCE 5 parameterized uniformization: "
        f"{'PASS' if ok else 'FAIL'} ({'; '.join(details)})"
    )
    assert ok


def test_criterion_6_rigidity(announce):
    surf0 = genus2()
    m0 = unit_metric(surf0)
    solutions = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s, m = clone_state(surf0, m0)
        res = newton_solve(s, m, 1.0, -1.0, u0=rng.uniform(-0.1, 0.1, surf0.vertex_count))
        assert res.converged
        gb(s, m)
        solutions.append(res.state.u)
    worst = max(
        float(np.max(np.abs(a - b)))
        for i, a in enumerate(solutions)
        for b in solutions[i + 1 :]
    )
    ok = worst <= 1e-8
    announce(
        f"ACCEPTANCE 6 rigidity: {'PASS' if ok else 'FAIL'} "
        f"(max pairwise gap over 5 seeded starts {worst:.2e} <= 1e-8)"
    )
    assert ok


def _loop_integral(surf, m, nodes, target, alpha, per_leg=64):
    """Composite-Simpson line integral of sum_i (K_i - target_i w_i^alpha) du_i
    around a closed polygonal loop of conformal factors."""

    def integrand(u, du):
        s2, m2 = clone_state(surf, m)
        apply_conformal(s2, m2, u)
        assert delaunay_weights(s2, m2).min() > 0  # field is smooth on the loop
        K = curvature(s2, m2)
        g = K - target * np.exp(alpha * u)
        return float(np.dot(g, du))

    total = 0.0
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        du = b - a
        vals = [integrand(a + t * du, du) for t in np.linspace(0.0, 1.0, 2 * per_leg + 1)]
        h = 1.0 / (2 * per_leg)
        total += h / 3.0 * (
            vals[0]
            + vals[-1]
            + 4.0 * sum(vals[1:-1:2])
            + 2.0 * sum(vals[2:-2:2])
        )
    return total


def test_criterion_7_energy(announce, runs):
    # (a) monotone accumulated energy on all converged descent-regime runs
    worst_inc = -math.inf
    for key in ("yamabe_a0", "calabi_a0", "yamabe_a+1", "yamabe_a-1"):
        run = runs[key][0]
        energies = [r.energy for r in run.records]
        worst_inc = max(worst_inc, float(np.max(np.diff(energies))))
    mono_ok = worst_inc <= 1e-12

    # (b) closed-loop line integrals vanish: the field is a gradient
    surf = grid_torus(3, 3)
    m = unit_metric(surf)
    rng = np.random.default_rng(707)
    worst_loop = 0.0
    for alpha, tgt in ((0.0, 0.0), (1.0, -1.0)):
        target = np.full(surf.vertex_count, tgt)
        for _ in range(3):
            nodes = [rng.uniform(-0.05, 0.05, surf.vertex_count) for _ in range(4)]
            worst_loop = max(worst_loop, abs(_loop_integral(surf, m, nodes, target, alpha)))
    loop_ok = worst_loop <= 1e-8
    ok = mono_ok and loop_ok
    announce(
        f"ACCEPTANCE 7 energy: {'PASS' if ok else 'FAIL'} "
        f"(max energy increment {worst_inc:.2e} <= 1e-12, "
        f"max closed-loop integral {worst_loop:.2e} <= 1e-8)"
    )
    assert mono_ok
    assert loop_ok


def test_criterion_8_maximum_principle(announce, monkeypatch, tmp_path):
    surf0 = genus2()
    m0 = unit_metric(surf0)
    s, m = clone_state(surf0, m0)
    prep = newton_solve(s, m, 1.0, -0.5)
    assert prep.converged  # initial error M = F_1 - (-1) = +0.5 at every vertex

    s, m = clone_state(surf0, m0)
    advance_conformal(s, m, prep.state.u)  # the unit metric is Delaunay at u = 0
    # a tighter floor, the relative term STEP_RTOL kept as shipped: the
    # principle is checked on the step control that users run
    monkeypatch.setattr(flows, "STEP_ATOL", 1e-12)
    run = run_flow(*clone_state(s, m), FlowConfig(kind="yamabe", alpha=1.0, target=-1.0, max_steps=40000))
    # `hypflow flow` on that state, whose command line alone names the
    # problem; the run explains itself: its log alone gives the check
    monkeypatch.setattr(cli, "_load_for_solver", lambda args: (s, m, np.full(s.vertex_count, args.target_const)))
    log = tmp_path / "run.jsonl"
    code = cli.main(["flow", str(tmp_path / "start.phm"), "--alpha", "1", "--target-const", "-1",
                     "--max-steps", "40000", "--log", str(log)])
    *lines, last = [json.loads(line) for line in log.read_text().splitlines()]
    records = [StepRecord(**r) for r in lines]
    gb(s, m)
    target = last["target"]
    sign, preserved, ratio = max_principle(records, last["alpha"], target[0])
    min_M = min(r.min_M for r in records)
    applies = ratio is not None  # the envelope holds for alpha > 0, target < 0 and M(0) > 0
    # max_principle reads an alpha-Yamabe run to a constant target
    posed = last["kind"] == "yamabe" and min(target) == max(target)
    converged = code == cli.EXIT_OK and last["status"] == "converged"
    ok = posed and converged and preserved and min_M >= -1e-9 and applies and ratio <= 1.0 + ENVELOPE_SLACK
    announce(
        f"ACCEPTANCE 8 maximum principle: {'PASS' if ok else 'FAIL'} "
        f"(min M {min_M:.2e} >= -1e-9, envelope ratio {ratio if applies else math.nan:.3f} <= 1.10)"
    )
    assert ok
    # and the log is the run's, step for step
    assert records == run.records
    assert (sign, preserved, ratio) == max_principle(run.records, 1.0, -1.0)


def test_criterion_9_surgery_continuity(announce, runs):
    worst = 0.0
    flips = 0
    for key in ("yamabe_a0", "calabi_a0", "yamabe_a+1", "yamabe_a-1"):
        run = runs[key][0]
        worst = max(worst, run.max_flip_jump)
        flips += sum(r.flips for r in run.records)
    for key in ("newton_a+1", "newton_a-1"):
        worst = max(worst, runs[key][0].max_flip_jump)
    ok = flips >= 1 and worst <= 1e-8
    announce(
        f"ACCEPTANCE 9 surgery continuity: {'PASS' if ok else 'FAIL'} "
        f"(max sup-norm K jump {worst:.2e} <= 1e-8 across {flips} logged flips)"
    )
    assert flips >= 1
    assert worst <= 1e-8


def test_criterion_10_gauss_bonnet(announce, runs):
    run, s, m = runs["initial"][0], runs["initial"][1], runs["initial"][2]
    gb(s, m)
    rng = np.random.default_rng(1010)
    for builder in (octahedron, lambda: grid_torus(4, 4), genus2):
        surf = builder()
        met = perturbed_metric(surf, rng, spread=0.25)
        gb(surf, met)
    worst = max(GB_RESIDUALS)
    ok = worst <= 1e-9
    announce(
        f"ACCEPTANCE 10 gauss-bonnet: {'PASS' if ok else 'FAIL'} "
        f"(max residual {worst:.2e} <= 1e-9 over {len(GB_RESIDUALS)} states)"
    )
    assert ok
