import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypflow.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REGIME,
    EXIT_RUNTIME,
    ParseError,
    main,
    parse_phm,
    parse_vertex_values,
    write_phm,
)
from hypflow import cli, flows, meshes
from hypflow.curvature import curvature
from hypflow.meshes import genus2, grid_torus, perturbed_metric, tetrahedron, unit_metric
from hypflow.surface import TOL_DELAUNAY, MarkedSurface, PHMetric, apply_conformal, delaunay_weights, validate

from reference import (
    edge_index_of,
    edges_of,
    faces_of,
    genus2_faces_by_loop,
    grid_torus_faces_by_loop,
    parse_phm_by_lines,
    perturbed_lengths_by_dict,
    write_phm_by_lines,
)


@pytest.fixture
def torus_file(tmp_path):
    surf = grid_torus(3, 3)
    path = tmp_path / "torus.phm"
    write_phm(str(path), surf, unit_metric(surf))
    return str(path)


@pytest.fixture
def genus2_file(tmp_path):
    surf = genus2()
    path = tmp_path / "genus2.phm"
    write_phm(str(path), surf, unit_metric(surf))
    return str(path)


class TestFormat:
    def test_roundtrip_preserves_state(self, tmp_path):
        surf = genus2()
        m = unit_metric(surf)
        m.length[0] = 1.2345678901234567
        path = str(tmp_path / "g.phm")
        write_phm(path, surf, m)
        surf2, m2 = parse_phm(path)
        assert faces_of(surf2) == faces_of(surf)
        assert surf2.vertex_count == surf.vertex_count
        for e in edges_of(surf):
            assert m2.length[edge_index_of(surf2)[e]] == m.length[edge_index_of(surf)[e]]  # exact through %.17g

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.phm"
        p.write_text("v 3\n")
        with pytest.raises(ParseError):
            parse_phm(str(p))

    def test_duplicate_edge_record(self, tmp_path):
        p = tmp_path / "bad.phm"
        p.write_text("phm 1\nv 3\nf 0 1 2\ne 0 1 1.0\ne 1 0 2.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_phm(str(p))

    def test_missing_edge_record(self, tmp_path, torus_file):
        lines = open(torus_file).read().splitlines()
        p = tmp_path / "missing.phm"
        p.write_text("\n".join(l for l in lines if not l.startswith("e 0 1 ")) + "\n")
        with pytest.raises(ParseError, match="missing 'e' record"):
            parse_phm(str(p))

    @pytest.mark.parametrize(
        "records, match",
        [
            ("v 4\nf 0 1 2\nf 0 x 3\n", r":4: could not convert 'x' to int64"),
            ("v 4\nf 0 1 2\ne 0 1 1.0\ne 0 2 one\n", r":5: could not convert 'one' to float64"),
            # a huge token in the length column reads as a float, refused on its line
            ("v 4\nf 0 1 2\ne 0 1 99999999999999999999\ne 0 2 1.0\ne 0 1 1.0\n",
             r":4: edge length 1e\+20 exceeds MAX_LENGTH"),
            ("v 4\nf 0 1 2\ne 0 1 351\ne 0 2 1.0\ne 0 1 1.0\n", r":6: duplicate edge record \(0, 1\)"),
            ("v 3\nf 0 1 2\ne 0 1 -1.0\n", r":4: edge length must be positive"),
            ("v 3\nf 0 1 2\nf 0 2 1\ne 0 1 1\ne 0 2 1\ne 1 2 1\ne 1 3 1\n", r"'e' record for nonexistent edge \(1, 3\)"),
            ("f 0 1 2\nf 0 2 1\n", r"missing 'v' record"),
            ("v x\n", r":2: could not convert 'x' to int64"),
            ("v 3\nf 0 1 2\n  v 4  # again\n", r":4: duplicate 'v' record"),
            # NumPy 1.24's loadtxt reads '1.0' as an int, with a DeprecationWarning
            ("v 4\nf 0 1.0 2\n", r":3: could not convert '1\.0' to int64"),
            ("v 4\nf 0 99999999999999999999 2\n", r":3: could not convert '99999999999999999999' to int64"),
            # int('1_0') is 10, but loadtxt's grammar has no '_'
            ("v 1_0\n", r":2: could not convert '1_0' to int64"),
            ("v 4\nf 0 1_0 2\n", r":3: could not convert '1_0' to int64"),
            ("v 4\nf 0 1 2\ne 0 1 1.0\ne 0 2 1_0\n", r":5: could not convert '1_0' to float64"),
            # a line that is no record comes first, then a missing 'v', then a token
            ("v 4\nf 0 x 2\ne 0 1\n", r":4: unrecognized record 'e 0 1'"),
            ("f 0 x 2\n", r"missing 'v' record"),
            ("v 4\nf 0 1 2\nfx 1 2 3\n", r":4: unrecognized record 'fx 1 2 3'"),
            ("v 4\nf 0 1 2\ne 0 1\nfx 1 2 3\n", r":4: unrecognized record 'e 0 1'"),
        ],
    )
    def test_bad_records_named(self, tmp_path, records, match):
        p = tmp_path / "bad.phm"
        p.write_text("phm 1\n" + records)
        with pytest.raises(ParseError, match=match):
            parse_phm(str(p))

    @pytest.mark.parametrize("fault, match", [
        ("e", r":50002: could not convert '1_0' to float64"),
        # a line that is no record goes first, even after a refused token
        ("e and count", r":50002: unrecognized record 'e 9998 9999'"),
        ("f", r":20002: unrecognized record 'fx 9999 0 9900'"),
    ])
    def test_refusal_in_a_large_file_is_bisected(self, tmp_path, monkeypatch, fault, match):
        # grid_torus(100, 100) in 50 002 lines: the refused line is found by
        # bisecting its kind's lines, in a few dozen loadtxt calls
        surf = grid_torus(100, 100)
        path = tmp_path / "big.phm"
        write_phm(str(path), surf, unit_metric(surf))
        lines = path.read_text().splitlines()
        if fault == "f":
            lines[20001] = "fx" + lines[20001][1:]
        else:
            lines[50001] = lines[50001].rsplit(" ", 1)[0] + ("" if fault == "e and count" else " 1_0")
            if fault == "e and count":
                lines[30000] = lines[30000].rsplit(" ", 1)[0] + " 1_0"
        path.write_text("\n".join(lines) + "\n")
        calls = []
        loadtxt = cli._loadtxt
        monkeypatch.setattr(cli, "_loadtxt", lambda rows, dtype: (calls.append(len(rows)), loadtxt(rows, dtype))[1])
        with pytest.raises(ParseError, match=match):
            parse_phm(str(path))
        assert len(calls) <= 40 and sum(calls) <= 4 * len(lines)

    def test_vertex_count_beyond_the_corners_refused_before_any_array(self, tmp_path):
        # every vertex of a closed surface is on a face corner, so a count
        # above 3 F is refused before an array of that length is made
        surf = tetrahedron()
        p = tmp_path / "big.phm"
        write_phm(str(p), surf, unit_metric(surf))
        p.write_text(p.read_text().replace("v 4\n", f"v {10**12}\n"))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"{10**12} vertices for 12 face corners"):
                parse_phm(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_unknown_record_rejected(self, tmp_path):
        p = tmp_path / "bad.phm"
        p.write_text("phm 1\nv 3\nq 1 2 3\n")
        with pytest.raises(ParseError, match="unrecognized"):
            parse_phm(str(p))

    def test_line_indented_by_non_ascii_blank_read(self, tmp_path, genus2_file):
        # a line that starts with '\u00a0' is classified by str.split(), and
        # loadtxt reads it as str.split() does
        text = open(genus2_file).read()
        assert text.count("\ne ") > 1
        p = tmp_path / "g.phm"
        p.write_text(text.replace("\ne ", "\n\u00a0e ", 1))
        surf, m = parse_phm(genus2_file)
        surf2, m2 = parse_phm(str(p))
        assert np.array_equal(surf2.face_array, surf.face_array)
        assert np.array_equal(m2.length, m.length)

    def test_comments_and_blank_lines_ignored(self, tmp_path, torus_file):
        text = open(torus_file).read()
        p = tmp_path / "c.phm"
        p.write_text("phm 1  # header comment\n# full comment\n\n" + "\n".join(text.splitlines()[1:]))
        parse_phm(str(p))

    def test_vertex_values_file(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# targets\nt 0 -1.5\nt 3 2.0\n")
        v = parse_vertex_values(str(p), 5, default=0.5)
        assert np.array_equal(v, [-1.5, 0.5, 0.5, 2.0, 0.5])
        p.write_text("t 9 1.0\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_vertex_values(str(p), 5)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("t 0 1.0\nt 1\n", r":2: expected 't <i> <value>'"),
            ("t 0 1.0\n\tq 1 2\n", r":2: expected 't <i> <value>'"),
            ("t 0 1.0\nt 1.0 2\n", r":2: could not convert '1\.0' to int64"),
            ("t 0 1.0\nt 1_0 2\n", r":2: could not convert '1_0' to int64"),
            ("t 0 1.0\nt 1 1_0\n", r":2: could not convert '1_0' to float64"),
            ("t 0 1.0\nt -1 2\n", r":2: vertex -1 out of range"),
            # beyond int64, the vertex column refuses it
            ("t 0 1.0\nt 99999999999999999999 2\n", r":2: could not convert '99999999999999999999' to int64"),
            ("t -99999999999999999999 2\n", r":1: could not convert '-99999999999999999999' to int64"),
            ("# c\nt 0 1.0\nt 2 nan\n", r":3: value nan is not finite"),
        ],
    )
    def test_bad_vertex_values_named(self, tmp_path, text, match):
        p = tmp_path / "t.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=match):
            parse_vertex_values(str(p), 5)

    def test_later_vertex_value_overrides(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("t 1 1.0\n  t\t1 2.0 # again\nt 0 3.0\n\n")
        assert np.array_equal(parse_vertex_values(str(p), 3), [3.0, 2.0, 0.0])
        p.write_text("# nothing\n")
        assert np.array_equal(parse_vertex_values(str(p), 2, default=0.5), [0.5, 0.5])


@st.composite
def phm_files(draw):
    """A well-formed .phm text of a small fixture: v on any line, f and e
    records interleaved, edges in any order with either end first, tabs and
    spaces between tokens and before them, comments and blank lines."""
    surf = draw(st.sampled_from([(genus2, ()), (grid_torus, (3, 3)), (grid_torus, (4, 3))]))
    surf = surf[0](*surf[1])
    m = perturbed_metric(surf, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), spread=0.28)
    blank = st.text(" \t", max_size=3)
    comment = st.sampled_from(["", "#", " # f 0 1 2", "\t#e 0 1 -1"])

    def record(tokens):
        gaps = draw(st.lists(st.text(" \t", min_size=1, max_size=3), min_size=len(tokens) - 1,
                             max_size=len(tokens) - 1))
        return draw(blank) + "".join(t + g for t, g in zip(tokens, gaps)) + tokens[-1] + draw(blank) + draw(comment)

    number = st.sampled_from(["%.17g", "%r", "%.17e"])
    faces = [record(["f", *map(str, f)]) for f in surf.face_array.tolist()]
    edges = []
    for k in draw(st.permutations(range(m.length.size))):
        i, j = surf.ends[:, k].tolist()
        i, j = (j, i) if draw(st.booleans()) else (i, j)
        edges.append(record(["e", str(i), str(j), draw(number) % float(m.length[k])]))
    body = [(faces if kind else edges).pop() for kind in draw(st.permutations([1] * len(faces) + [0] * len(edges)))]
    body.insert(draw(st.integers(0, len(body))), record(["v", str(surf.vertex_count)]))
    for _ in range(draw(st.integers(0, 5))):
        body.insert(draw(st.integers(0, len(body))), draw(blank) + draw(comment))
    return "\n".join([draw(st.sampled_from(["phm 1", "phm 1  # header", " phm 1\t"])), *body]) + draw(st.sampled_from(["", "\n"]))


@given(phm_files())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_matches_line_wise_reference(tmp_path, text):
    path = str(tmp_path / "random.phm")
    with open(path, "w") as fh:
        fh.write(text)
    surf, m = parse_phm(path)
    n, faces, lengths = parse_phm_by_lines(path)
    assert surf.vertex_count == n
    assert surf.face_array.tolist() == [list(f) for f in faces]
    assert m.length.tolist() == [lengths[e] for e in zip(*surf.ends.tolist())]


# pass 0 of the benchmark's workloads, built as bench/run.py builds them
BENCH_INPUTS = [
    ("genus2", (6, 6), 0.28),  # flow-genus2
    ("grid_torus", (20, 20), 0.28),  # newton-surgery
    ("grid_torus", (50, 50), 0.02),  # newton-dense
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mesh, size, spread", BENCH_INPUTS)
def test_bench_inputs_match_line_wise_reference(tmp_path, seed, mesh, size, spread):
    surf = getattr(meshes, mesh)(*size)
    write_phm(str(tmp_path / "new.phm"), surf, perturbed_metric(surf, np.random.default_rng([seed, 0]), spread))
    surf, m = parse_phm(str(tmp_path / "new.phm"))
    assert validate(surf, m).ok

    if mesh == "genus2":
        n, faces = genus2_faces_by_loop(*size)
    else:
        n, faces = size[0] * size[1], grid_torus_faces_by_loop(*size)
    ref = MarkedSurface(n, faces)
    lengths = perturbed_lengths_by_dict(ref, np.random.default_rng([seed, 0]), spread)
    write_phm_by_lines(str(tmp_path / "ref.phm"), ref, PHMetric(ref, [lengths[e] for e in edges_of(ref)]))
    n, faces, lengths = parse_phm_by_lines(str(tmp_path / "ref.phm"))
    ref = MarkedSurface(n, faces)
    m_ref = PHMetric(ref, [lengths[e] for e in edges_of(ref)])

    assert (tmp_path / "new.phm").read_bytes() == (tmp_path / "ref.phm").read_bytes()
    for name in ("face_array", "ends", "edge_corners", "FE"):
        assert np.array_equal(getattr(surf, name), getattr(ref, name)), name
    assert np.array_equal(m.length, m_ref.length) and np.array_equal(m.lam, m_ref.lam)


class TestCommands:
    def test_validate_ok(self, capsys, genus2_file):
        assert main(["validate", genus2_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chi = -2" in out and "valid" in out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        p = tmp_path / "bad.phm"
        p.write_text("phm 1\nv 3\nf 0 1 2\n")
        assert main(["validate", str(p)]) == EXIT_INVALID

    def test_validate_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.phm"]) == EXIT_INVALID

    @pytest.mark.parametrize("length, refusal", [
        (400.0, "exceeds MAX_LENGTH = 351.386"),
        (2000.0, "exceeds MAX_LENGTH = 351.386"),
        (1e-80, "is below MIN_LENGTH = 1.99295e-76"),
        (5e-324, "is below MIN_LENGTH = 1.99295e-76"),
    ])
    def test_length_beyond_every_solve_refused(self, tmp_path, capsys, length, refusal):
        # such a file once validated with exit 0, and newton then failed with
        # "conformal factor out of representable range" (at 2000 after an
        # overflow warning); at 5e-324 even validate failed, on log(sinh(0)).
        # It is refused at its first edge record
        surf = genus2()
        path = tmp_path / "long.phm"
        path.write_text("\n".join(["phm 1", f"v {surf.vertex_count}"]
                                  + [f"f {a} {b} {c}" for a, b, c in faces_of(surf)]
                                  + [f"e {i} {j} {length}" for i, j in edges_of(surf)]) + "\n")
        line = 3 + len(faces_of(surf))
        with pytest.raises(ParseError, match=rf":{line}: edge length {length} {refusal}"):
            parse_phm(str(path))
        for command in (["validate"], ["newton", "--alpha", "1", "--target-const", "-1"]):
            assert main([command[0], str(path), *command[1:]]) == EXIT_INVALID
            assert f":{line}: edge length" in capsys.readouterr().out

    def test_report_factors_beyond_every_length_refused(self, tmp_path, capsys):
        # lam + u_i + u_j < -MAX_SCALED_X at every edge: this once printed
        # K = -pi at every vertex and exited 0
        surf = genus2()
        path, uf = tmp_path / "g.phm", tmp_path / "u.txt"
        write_phm(str(path), surf, perturbed_metric(surf, np.random.default_rng(1), spread=0.28))
        uf.write_text("".join(f"t {i} -100\n" for i in range(surf.vertex_count)))
        assert main(["report", str(path), "--u", str(uf)]) == EXIT_RUNTIME
        assert capsys.readouterr().out == "failure: conformal factor out of representable range\n"

    def test_report(self, capsys, genus2_file):
        assert main(["report", genus2_file, "--alpha", "1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gauss_bonnet_residual" in out
        assert "delaunay yes" in out
        # 15 per-vertex lines
        assert sum(1 for l in out.splitlines() if l and l[0].isdigit()) == 15

    def test_report_names_non_delaunay_edges(self, tmp_path, capsys):
        surf = genus2()
        m = perturbed_metric(surf, np.random.default_rng(1), spread=0.28)
        path = str(tmp_path / "g.phm")
        write_phm(path, surf, m)
        assert main(["report", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "delaunay no" in out
        w = delaunay_weights(surf, m)
        edges = edges_of(surf)
        expected = [str(edges[idx]) for idx in np.flatnonzero(w < -TOL_DELAUNAY)]
        named = [l.split(" weight ")[0][len("non_delaunay_edge "):]
                 for l in out.splitlines() if l.startswith("non_delaunay_edge ")]
        assert named == expected and named

    def test_report_with_factors(self, tmp_path, capsys, genus2_file):
        uf = tmp_path / "u.txt"
        uf.write_text("t 0 0.05\n")
        assert main(["report", genus2_file, "--u", str(uf)]) == EXIT_OK

    def test_report_alpha_column(self, tmp_path, capsys, genus2_file):
        # R_alpha = K e^(-alpha u) at the factors; alpha = 0 recovers K
        uf = tmp_path / "u.txt"
        u = np.random.default_rng(3).uniform(-0.1, 0.1, 15)
        uf.write_text("".join(f"t {i} {x!r}\n" for i, x in enumerate(u.tolist())))
        surf, m = parse_phm(genus2_file)
        apply_conformal(surf, m, u)
        K = curvature(surf, m)
        for alpha in (2.0, 0.0):
            assert main(["report", genus2_file, "--alpha", str(alpha), "--u", str(uf)]) == EXIT_OK
            rows = np.array([l.split() for l in capsys.readouterr().out.splitlines() if l[0].isdigit()], dtype=float)
            assert np.array_equal(rows[:, 0], np.arange(15)) and np.array_equal(rows[:, 1], K)
            assert np.allclose(rows[:, 2], K * np.exp(-alpha * u), rtol=1e-14, atol=0.0)
            assert alpha or np.array_equal(rows[:, 2], K)

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_report_refuses_non_finite_alpha(self, capsys, genus2_file, alpha):
        # refused as a --tol is: a NaN alpha would print a NaN R column and exit 0
        assert main(["report", genus2_file, "--alpha", alpha]) == EXIT_INVALID
        assert capsys.readouterr().out == f"invalid: alpha must be finite, got {alpha}\n"

    def test_flow_converges(self, tmp_path, capsys, genus2_file):
        log = tmp_path / "steps.jsonl"
        rc = main([
            "flow", genus2_file, "--flow", "yamabe", "--alpha", "1.0",
            "--target-const", "-1.0", "--log", str(log),
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "status converged" in out
        lines = [json.loads(l) for l in open(log)]
        assert lines[-1]["status"] == "converged"
        assert len(lines[-1]["u"]) == 15
        assert all("sup_err" in l for l in lines[:-1])
        # the terminal record carries the run's counters
        run = flows.run_flow(*parse_phm(genus2_file), flows.FlowConfig(kind="yamabe", alpha=1.0, target=-1.0))
        final = lines[-1]
        assert {key: final[key] for key in cli.FLOW_COUNTERS} == {key: getattr(run, key) for key in cli.FLOW_COUNTERS}
        # each record's maps, rejected trials' among them, sum to the run's;
        # an NDF step's corrector takes at least two, and the run climbs
        # through every order
        assert sum(l["maps"] for l in lines[:-1]) == final["rhs_evals"]
        assert lines[0]["maps"] == 1
        assert all(l["maps"] >= 2 for l in lines[1:-1])
        assert {l["method"] for l in lines[1:-1]} == {f"ndf{k}" for k in range(1, 6)}

    def test_calabi_on_torus_converges_within_default_max_steps(self, tmp_path, capsys):
        # CI's torus fixture: under Dormand-Prince alone the run needed 6009
        # steps, beyond the default --max-steps of 5000
        surf = grid_torus(4, 4)
        path = str(tmp_path / "torus4.phm")
        write_phm(path, surf, perturbed_metric(surf, np.random.default_rng(1), spread=0.28))
        rc = main(["flow", path, "--flow", "calabi", "--alpha", "0", "--target-const", "0.1"])
        assert rc == EXIT_OK
        assert "status converged" in capsys.readouterr().out

    def test_flow_not_converged_exit(self, capsys, genus2_file):
        rc = main([
            "flow", genus2_file, "--alpha", "1.0", "--target-const", "-1.0",
            "--max-steps", "2",
        ])
        assert rc == EXIT_INVALID

    @pytest.mark.parametrize("command", ["flow", "newton"])
    @pytest.mark.parametrize(
        "options, code, message",
        [
            (["--alpha", "1", "--target-const", "1"], EXIT_REGIME,
             "refused: alpha > 0 requires chi < 0 and a nonpositive target"),
            (["--alpha", "nan", "--target-const", "-0.5"], EXIT_REGIME,
             "refused: alpha and target must be finite"),
            (["--alpha", "inf", "--target-const", "-0.5"], EXIT_REGIME,
             "refused: alpha and target must be finite"),
            (["--alpha", "1", "--target-const=-inf"], EXIT_REGIME,
             "refused: alpha and target must be finite"),
            (["--alpha", "1", "--target-const", "-1", "--tol", "0"], EXIT_INVALID,
             "invalid: tol must be positive and finite, got 0.0"),
            (["--alpha", "1", "--target-const", "-1", "--tol", "nan"], EXIT_INVALID,
             "invalid: tol must be positive and finite, got nan"),
        ],
    )
    def test_refused_before_any_step(self, tmp_path, capsys, genus2_file, command, options, code, message):
        log = tmp_path / "run.jsonl"
        assert main([command, genus2_file, *options, "--log", str(log)]) == code
        assert capsys.readouterr().out.splitlines() == [message]
        assert not log.exists()
        assert not (tmp_path / "genus2.phm.failed.phm").exists()

    def test_newton_converges(self, capsys, genus2_file):
        rc = main([
            "newton", genus2_file, "--alpha", "1.0", "--target-const", "-1.0",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "status converged" in out
        assert sum(1 for l in out.splitlines() if l.startswith("u ")) == 15

    def test_newton_log_records_linsolve_iters(self, tmp_path, capsys, genus2_file):
        log = tmp_path / "newton.jsonl"
        rc = main([
            "newton", genus2_file, "--alpha", "1.0", "--target-const", "-1.0",
            "--log", str(log),
        ])
        assert rc == EXIT_OK
        lines = [json.loads(l) for l in open(log)]
        records, final = lines[:-1], lines[-1]
        assert final["status"] == "converged"
        # the terminal record names the problem solved
        assert final["alpha"] == 1.0 and final["target"] == [-1.0] * 15
        assert [r["iteration"] for r in records] == list(range(final["iterations"] + 1))
        assert records[0]["linsolve_iters"] is None
        assert all(isinstance(r["linsolve_iters"], int) and r["linsolve_iters"] >= 1
                   for r in records[1:])
        # the step's CG stop and accepted line-search length, null at the start
        assert records[0]["linsolve_stop"] is None and records[0]["step_length"] is None
        assert all(r["linsolve_stop"] > 0 and 0 < r["step_length"] <= 1 for r in records[1:])
        assert all(isinstance(r["flips"], int) and r["flips"] >= 0 for r in records)

    def test_newton_log_counts_flips(self, tmp_path, capsys):
        # a perturbed torus crosses walls on entry and on the way, and the
        # log's flips add up to the solve's
        surf = grid_torus(8, 8)
        m = perturbed_metric(surf, np.random.default_rng(3), spread=0.28)
        path, log = str(tmp_path / "t.phm"), tmp_path / "newton.jsonl"
        write_phm(path, surf, m)
        expected = flows.newton_solve(*parse_phm(path), 0.0, 0.1)
        assert main(["newton", path, "--target-const", "0.1", "--log", str(log)]) == EXIT_OK
        records = [json.loads(l) for l in open(log)][:-1]
        assert [r["flips"] for r in records] == expected.flips
        assert sum(expected.flips) == expected.entry_flips + expected.path_flips
        assert expected.entry_flips >= 1 and expected.path_flips >= 1

    def test_newton_non_finite_residual_is_a_failure(self, tmp_path, capsys, genus2_file):
        # --force lets a NaN alpha past the refusal; its residual is NaN, which
        # no comparison with tol can end as converged or max_iter
        log = tmp_path / "newton.jsonl"
        rc = main(["newton", genus2_file, "--alpha", "nan", "--target-const", "-0.5", "--force",
                   "--log", str(log)])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().out.splitlines() == ["failure: residual nan is not finite at the initial u"]
        assert not log.exists()

    def test_newton_regime_refusal(self, capsys, genus2_file):
        rc = main([
            "newton", genus2_file, "--alpha", "1.0", "--target-const", "1.0",
        ])
        assert rc == EXIT_REGIME
        assert "refused" in capsys.readouterr().out

    def test_newton_infeasible_torus_refused(self, tmp_path, capsys):
        surf = grid_torus(4, 4)
        path = str(tmp_path / "torus4.phm")
        write_phm(path, surf, unit_metric(surf))
        rc = main(["newton", path, "--alpha", "0", "--target-const", "0"])
        assert rc == EXIT_REGIME
        assert "refused" in capsys.readouterr().out

    def test_newton_seeded_matches_default(self, capsys, genus2_file):
        assert main(["newton", genus2_file, "--alpha", "1.0",
                     "--target-const", "-1.0", "--seed", "3"]) == EXIT_OK
        out1 = capsys.readouterr().out
        assert main(["newton", genus2_file, "--alpha", "1.0",
                     "--target-const", "-1.0"]) == EXIT_OK
        out2 = capsys.readouterr().out

        def u_of(out):
            return np.array([float(l.split()[2]) for l in out.splitlines() if l.startswith("u ")])

        assert np.max(np.abs(u_of(out1) - u_of(out2))) < 1e-8

    @pytest.mark.parametrize("command, option", [("newton", "--target"), ("report", "--u")])
    @pytest.mark.parametrize("line", ["t 0 abc", "t x 1.0", "t 0 nan", "t 0 -inf", "t 0 1e400"])
    def test_bad_vertex_value_is_invalid_at_its_line(self, tmp_path, capsys, genus2_file, command, option, line):
        values = tmp_path / "values.txt"
        values.write_text(f"# values\nt 1 0.5\n{line}\n")
        assert main([command, genus2_file, option, str(values)]) == EXIT_INVALID
        assert capsys.readouterr().out.startswith(f"invalid: {values}:3: ")

    def test_flow_failure_dump_carries_its_reason(self, tmp_path, capsys, monkeypatch):
        # inside the regime, with a first step far too long and no room to shrink it
        for name in ("DT_INIT", "DT_MIN", "DT_MAX"):
            monkeypatch.setattr(flows, name, 5.0)
        surf = genus2()
        path = str(tmp_path / "g.phm")
        write_phm(path, surf, perturbed_metric(surf, np.random.default_rng(0), spread=0.1))
        assert main(["flow", path, "--alpha", "1", "--target-const", "-1"]) == EXIT_RUNTIME
        last = open(path + ".failed.phm").read().splitlines()[-1]
        assert last.startswith("# failure: dt underflow")
        assert f"failure: {last[len('# failure: '):]}; state dumped" in capsys.readouterr().out
        assert validate(*parse_phm(path + ".failed.phm")).ok

    def test_flow_entry_refusal_fails_with_dump(self, tmp_path, capsys):
        # genus2(3,3), seed 59: a flip refused on entry, before any record
        surf = genus2(3, 3)
        path, log = str(tmp_path / "g.phm"), tmp_path / "steps.jsonl"
        write_phm(path, surf, perturbed_metric(surf, np.random.default_rng(59), spread=0.28))
        rc = main(["flow", path, "--alpha", "1", "--target-const", "-1", "--log", str(log)])
        assert rc == EXIT_RUNTIME
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["status failed", "steps 0"]
        assert out[2].startswith("failure: flip of edge") and out[2].endswith("state dumped to " + path + ".failed.phm")
        last = open(path + ".failed.phm").read().splitlines()[-1]
        assert last.startswith("# failure: flip of edge")
        assert validate(*parse_phm(path + ".failed.phm")).ok
        assert [json.loads(l) for l in open(log)] == [
            {"status": "failed", "steps": 0, "final_sup_err": None, "u": [0.0] * surf.vertex_count,
             "kind": "yamabe", "alpha": 1.0, "target": [-1.0] * surf.vertex_count,
             # the refused entry map counts nothing
             **dict.fromkeys(cli.FLOW_COUNTERS, 0)}
        ]

    def test_target_file(self, tmp_path, capsys, genus2_file):
        tf = tmp_path / "target.txt"
        tf.write_text("t 0 -2.0\n")
        rc = main([
            "newton", genus2_file, "--alpha", "1.0",
            "--target-const", "-1.0", "--target", str(tf),
        ])
        assert rc == EXIT_OK
