#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny fixtures; takes a few seconds.

    python3 bench/selftest.py

Checks that a failing solve is counted and does not abort the run, that
self times plus child spans add back to every span, that tracing leaves the
library as it found it and the results unchanged, and that the metrics the
harness prints are those BENCHMARK.json declares, with the same units.
"""

import json
import sys
import tempfile

import run  # pins BLAS threads before NumPy is imported
from tracer import NAME, PARENT, REQUEST, SID, T0, T1, Tracer, self_times

FAILED = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def main():
    hf = run.load_hypflow()
    flows, surface = hf["flows"], hf["surface"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS["selftest-infeasible"] = (
        # infeasible by Gauss-Bonnet: sum(target) = 0 is not > 2*pi*chi = 0
        run.Solve("newton", "grid_torus", (4, 4), 0.1, 0.0, 0.0),
    )
    run.WORKLOADS["selftest-small"] = (
        run.Solve("yamabe", "genus2", (3, 3), 0.28, 1.0, -1.0),
        run.Solve("newton", "grid_torus", (8, 8), 0.28, 0.0, 0.1),
    )
    # one build per set-up keeps the self-test short
    run.SETUP_WINDOW_S = 0.0
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for trace in (0, 1):
            res, _ = run.measure(hf, "selftest-infeasible", 1, 0, trace, workdir)
            expect(
                res["attempted"] >= 1 and res["failed"] == res["attempted"]
                and res["correct"] is False,
                f"trace={trace}: infeasible Newton counted as failed "
                f"({res['failed']} of {res['attempted']})",
            )
            if not trace:
                frac = res["metrics"]["solved_frac"]["value"]
                expect(frac == 0.0, f"fail_frac is 1 (solved_frac {frac})")

            res, _ = run.measure(hf, "selftest-small", 1, 0, trace, workdir)
            expect(res["correct"] and res["failed"] == 0, f"trace={trace}: small workload passes the gate")
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(emitted == declared, f"trace={trace}: metric names and units match BENCHMARK.json")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                expect(m["flows.rhs_per_step"] >= 11, "RK4 with step doubling: >= 11 RHS per step")
                expect(
                    m["curvature.jacobian_calls"] == m["flows.newton_iters"],
                    "jacobian calls equal Newton iterations (the flow is Yamabe)",
                )

        # spans of a traced pass: self time plus children gives each span back
        h = run.Harness(hf, run.WORKLOADS["selftest-small"], 2, workdir)
        h.setup_window(0)
        h.solve_references()
        tracer = Tracer()
        h.run_pass(tracer, label="traced")
        torus = h.inputs[1]
        spans = tracer.spans
        by_id = {s[SID]: s for s in spans}
        children = {}
        for s in spans:
            children.setdefault(s[PARENT], []).append(s)
        own = self_times(spans)
        worst = 0.0
        nested = True
        for s in spans:
            kids = sorted(children.get(s[SID], []), key=lambda k: k[T0])
            nested &= all(s[T0] <= k[T0] <= k[T1] <= s[T1] and k[REQUEST] == s[REQUEST] for k in kids)
            # the part of the span that no child covers, from the union of the
            # child intervals, must equal span minus the summed child spans
            covered, reach = 0.0, s[T0]
            for k in kids:
                covered += max(0.0, k[T1] - max(k[T0], reach))
                reach = max(reach, k[T1])
            worst = max(worst, abs((s[T1] - s[T0] - covered) - own[s[SID]]))
        expect(nested, "child spans lie inside their parent and share its request")
        expect(worst < 1e-9, f"self + child spans = span for {len(spans)} spans (worst {worst:.1e} s)")
        solvers = [s for s in spans if s[NAME] in ("flows.run_flow", "flows.newton_solve")]
        expect(
            len(solvers) == 2 and all(s[PARENT] == -1 and own[s[SID]] >= 0 for s in solvers),
            "one root span per solve with non-negative self time",
        )
        yamabe = next(s for s in solvers if s[NAME] == "flows.run_flow")
        expect(
            not any(s[NAME] == "curvature.jacobian" and s[REQUEST] == yamabe[REQUEST] for s in spans),
            "the Yamabe solve makes no jacobian call",
        )
        expect(all(s[PARENT] in by_id or s[PARENT] == -1 for s in spans), "every parent span is recorded")

        # tracing restores the library and changes no result
        import numpy as np

        expect(flows.np is np, "flows.np restored after tracing")
        expect(
            flows.advance_conformal is surface.advance_conformal
            and not hasattr(surface.advance_conformal, "__wrapped__"),
            "advance_conformal restored after tracing",
        )
        s, m = surface.clone_state(*torus)
        plain = flows.newton_solve(s, m, 0.0, 0.1)
        s, m = surface.clone_state(*torus)
        with Tracer().installed():
            again = flows.newton_solve(s, m, 0.0, 0.1)
        expect(
            np.array_equal(plain.state.u, again.state.u),
            "traced and untraced Newton give the same u",
        )
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
