#!/usr/bin/env python3
"""hypflow benchmark: seeded closed-loop solves of the prescribed alpha-curvature problem.

Run from the root of a checkout:

    python3 bench/run.py --workload newton-dense --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

One client solves one problem at a time, in one process, with BLAS and OpenMP
pinned to one thread.  Each pass solves a fresh set of inputs drawn from the
seed.  ``--trace 0`` times the solves untraced and reports the end-to-end
metrics; ``--trace 1`` solves each pass's inputs untraced, then traced, and
reports the per-layer metrics.  ``--workload all`` runs every workload, each
in a fresh process, traced and untraced, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  bench/README.md
defines the workloads and every metric.
"""

import os

# before NumPy is imported, so that its BLAS starts single-threaded
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the correctness gate: the bounds of the acceptance suite
TOL = 1e-10
SUP_R_BOUND = 1e-8
NEWTON_GAP_BOUND = 1e-6
FLIP_JUMP_BOUND = 1e-8
GAUSS_BONNET_BOUND = 1e-9

# the inputs of a pass take 5-270 ms to set up, and a shared virtual
# machine's speed can change by 1.8x from one second to the next, so set-up
# is timed in windows of at least this long, before each pass and after the
# last one; setup_s is the median over windows of the mean build time in a
# window
SETUP_WINDOW_S = 0.5

# solve_s is the median of at least this many untraced passes
MIN_PASSES = 2


@dataclass(frozen=True)
class Solve:
    method: str       # "yamabe", "calabi" or "newton"
    mesh: str         # fixture function in hypflow.meshes
    size: tuple
    spread: float     # perturbed_metric spread around unit edge lengths
    alpha: float
    target: float

    def describe(self) -> str:
        return (
            f"{self.method} on {self.mesh}{self.size} spread={self.spread} "
            f"alpha={self.alpha:g} target={self.target:g}"
        )


WORKLOADS = {
    # the paper's flow on its chi < 0 fixture: per-step integrator work and
    # the angle kernel dominate, few walls are crossed
    "flow-genus2": (Solve("yamabe", "genus2", (6, 6), 0.28, 1.0, -1.0),),
    # surgery-bound Newton: wall search and flips take nearly all the time,
    # the linear solve little; a 20x20 torus solves in about 2 s, so a run
    # takes the median over a dozen or more tori, whose flip counts vary
    "newton-surgery": (Solve("newton", "grid_torus", (20, 20), 0.28, 0.0, 0.1),),
    # no wall is crossed; dense Cholesky and solve on 2500 vertices dominate
    # time and memory
    "newton-dense": (Solve("newton", "grid_torus", (50, 50), 0.02, 0.0, 0.1),),
}


def load_hypflow():
    """Import hypflow from this checkout's src/, never from anywhere else."""
    if not (SRC / "hypflow" / "__init__.py").is_file():
        sys.exit(f"bench: no hypflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {
        name: importlib.import_module(f"hypflow.{name}")
        for name in ("meshes", "surface", "curvature", "flows", "cli")
    }
    if Path(mods["flows"].__file__).resolve().parent != SRC / "hypflow":
        sys.exit(f"bench: hypflow was imported from {mods['flows'].__file__}, not {SRC}")
    return mods


def machine() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = " ".join(str(deps["blas"].get(k, "")) for k in ("name", "version")).strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


class Harness:
    """Set-up, solves and correctness gate of one workload run."""

    def __init__(self, hf, specs, seed, workdir):
        self.hf = hf
        self.specs = specs
        self.seed = seed
        self.workdir = workdir
        self.inputs = None
        self.references = None
        self.builds = 0
        self.attempted = 0
        self.failures = []

    # -- set-up: fixture -> .phm -> parsed and validated input -------------
    def build_inputs(self, n):
        """The inputs of pass ``n``, drawn from the seed and ``n`` alone."""
        meshes, cli, surface = self.hf["meshes"], self.hf["cli"], self.hf["surface"]
        rng = np.random.default_rng([self.seed, n])
        inputs = []
        for k, spec in enumerate(self.specs):
            surf = getattr(meshes, spec.mesh)(*spec.size)
            metric = meshes.perturbed_metric(surf, rng, spread=spec.spread)
            path = os.path.join(self.workdir, f"fixture{k}.phm")
            cli.write_phm(path, surf, metric)
            surf, metric = cli.parse_phm(path)
            report = surface.validate(surf, metric)
            if not report.ok:
                raise RuntimeError(f"fixture {spec.describe()} is invalid: {report.errors}")
            inputs.append((surf, metric))
        return inputs

    def setup_window(self, n, tracer=None):
        """Set up the inputs of pass ``n``, building them again until
        SETUP_WINDOW_S has passed; returns the mean duration of a build."""
        total, builds = 0.0, 0
        while not builds or total < SETUP_WINDOW_S:
            if tracer is not None:
                tracer.request = f"setup{self.builds}"
            self.builds += 1
            builds += 1
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                t0 = perf_counter()
                self.inputs = self.build_inputs(n)
                total += perf_counter() - t0
        return total / builds

    def solve_references(self):
        """Solve each flow's input by Newton, to check the flow against."""
        flows, surface = self.hf["flows"], self.hf["surface"]
        self.references = []
        for spec, (surf, metric) in zip(self.specs, self.inputs):
            ref = None
            if spec.method != "newton":
                s, m = surface.clone_state(surf, metric)
                try:
                    res = flows.newton_solve(s, m, spec.alpha, spec.target, tol=TOL)
                    ref = res.state.u if res.converged else None
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            self.references.append(ref)

    # -- solves --------------------------------------------------------------
    def solve(self, spec, surf, metric):
        flows = self.hf["flows"]
        if spec.method == "newton":
            return flows.newton_solve(surf, metric, spec.alpha, spec.target, tol=TOL)
        cfg = flows.FlowConfig(
            kind=spec.method, alpha=spec.alpha, target=spec.target, tol_converge=TOL
        )
        return flows.run_flow(surf, metric, cfg)

    def gate(self, spec, surf, metric, result, reference):
        """Names of the correctness checks that ``result`` fails."""
        curvature, surface = self.hf["curvature"], self.hf["surface"]
        newton = spec.method == "newton"
        u = result.state.u if newton else result.final_u
        K = curvature.curvature(surf, metric)
        checks = {
            "converged": result.converged,
            "sup|R-target|": np.max(np.abs(K / np.exp(spec.alpha * u) - spec.target))
            <= SUP_R_BOUND,
            "max_flip_jump": result.max_flip_jump <= FLIP_JUMP_BOUND,
            "gauss-bonnet": abs(curvature.gauss_bonnet_residual(surf, metric))
            <= GAUSS_BONNET_BOUND,
            "delaunay": surface.delaunay_weights(surf, metric).min() >= -surface.TOL_DELAUNAY,
        }
        if not newton:
            checks["newton-gap"] = reference is not None and bool(
                np.max(np.abs(u - reference)) <= NEWTON_GAP_BOUND
            )
        return [name for name, ok in checks.items() if not ok]

    def run_pass(self, tracer=None, label="pass"):
        """Solve every input once; returns (summed solve time, solver counts)."""
        surface = self.hf["surface"]
        total = 0.0
        counts = {"steps": 0, "newton_iters": 0}
        for k, (spec, (surf0, metric0), ref) in enumerate(
            zip(self.specs, self.inputs, self.references)
        ):
            surf, metric = surface.clone_state(surf0, metric0)
            self.attempted += 1
            error = None
            if tracer is not None:
                tracer.request = f"{label}.solve{k}"
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                t0 = perf_counter()
                try:
                    result = self.solve(spec, surf, metric)
                except Exception as exc:
                    error = exc
                total += perf_counter() - t0
            if error is None:
                try:
                    failed = self.gate(spec, surf, metric, result, ref)
                except Exception as exc:
                    failed = [f"gate raised {type(exc).__name__}: {exc}"]
                if spec.method == "newton":
                    counts["newton_iters"] += result.iterations
                else:
                    counts["steps"] += result.steps
            else:
                failed = [f"raised {type(error).__name__}: {error}"]
            if failed:
                self.failures.append(f"{label} {spec.describe()}: {', '.join(failed)}")
        return total, counts


def measure(hf, workload, seed, seconds, trace, workdir):
    """One workload run; returns (result object, human-readable lines)."""
    from tracer import NAME, REQUEST, T0, T1, Tracer, layer_metrics, write_spans

    specs = WORKLOADS[workload]
    h = Harness(hf, specs, seed, workdir)
    lines = [
        f"workload {workload} seed {seed}: "
        + "; ".join(f"{n} x {d}" for d, n in Counter(s.describe() for s in specs).items())
    ]
    setup_tracer = Tracer() if trace else None
    solve_tracer = Tracer() if trace else None
    setups, plain, traced, layers = [], [], [], []
    start = perf_counter()
    while True:
        # closed loop: one pass at a time, each on fresh inputs; with tracing,
        # the same inputs are solved untraced, then traced, so the overhead is
        # measured on equal work under the same load
        t0 = perf_counter()
        n = len(plain)
        setups.append(h.setup_window(n, setup_tracer))
        h.solve_references()
        solve_s, _ = h.run_pass(label=f"pass{n}")
        plain.append(solve_s)
        if trace:
            first = len(solve_tracer.spans)
            solve_s, counts = h.run_pass(solve_tracer, label=f"traced{n}")
            traced.append(solve_s)
            layers.append(layer_metrics(solve_tracer.spans[first:], counts))
        step = perf_counter() - t0
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and perf_counter() - start + step + SETUP_WINDOW_S > seconds:
            break
    setups.append(h.setup_window(len(plain), setup_tracer))

    result = {
        "correct": not h.failures,
        "attempted": h.attempted,
        "failed": len(h.failures),
    }
    for f in h.failures:
        lines.append(f"FAILED {f}")
    if trace:
        metrics = {
            key: statistics.median(layer[key] for layer in layers) for key in layers[0]
        }

        def per_setup(name):
            by_rep = Counter()
            for s in setup_tracer.spans:
                if s[NAME] == name:
                    by_rep[s[REQUEST]] += s[T1] - s[T0]
            return statistics.median(by_rep.values())

        metrics["cli.write_phm_s"] = per_setup("cli.write_phm")
        metrics["cli.parse_phm_s"] = per_setup("cli.parse_phm")
        metrics["trace.overhead_frac"] = (
            statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        )
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}-seed{seed}.csv.gz"
        write_spans(span_file, setup_tracer.spans + solve_tracer.spans)
        lines.append(
            "solve_s per pass, untraced/traced: "
            + " ".join(f"{p:.4f}/{t:.4f}" for p, t in zip(plain, traced))
            + f"; {len(setup_tracer.spans) + len(solve_tracer.spans)} spans in "
            + str(span_file.relative_to(ROOT))
        )
    else:
        metrics = {
            "solve_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": 1.0 - len(h.failures) / h.attempted,
        }
        lines.append(
            f"{len(plain)} passes, solve_s per pass "
            + " ".join(f"{t:.4f}" for t in plain)
            + f"; {h.builds} builds in {len(setups)} set-up windows"
            + f"; fail_frac {len(h.failures) / h.attempted:.4f}"
            f" ({len(h.failures)} of {h.attempted} solves)"
        )
    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result, lines


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload, seed, seconds, trace):
    """One workload run in a fresh process.

    Returns the result object, or None if the run failed, and the lines it
    printed before it.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    out = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not out or not out[-1].startswith("{"):
        out.append(f"{workload} seed {seed} trace={trace}: exit code {proc.returncode}")
        return None, out
    return json.loads(out[-1]), out[:-1]


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    rows = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            res, out = run_child(workload, seed, seconds, trace)
            for line in out:
                print(line)
            if res is None:
                ok = False
                continue
            ok = ok and res["correct"]
            rows.setdefault(workload, {}).update(res["metrics"])
    names = sorted({name for metrics in rows.values() for name in metrics})
    print(f"{'metric':34s} {'unit':>8s} " + " ".join(f"{w:>16s}" for w in rows))
    for name in names:
        cells = []
        for metrics in rows.values():
            v = metrics.get(name, {}).get("value")
            cells.append(f"{v:16.6g}" if v is not None else f"{'-':>16s}")
        unit = next(m[name]["unit"] for m in rows.values() if name in m)
        print(f"{name:34s} {unit:>8s} " + " ".join(cells))
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.workload == "all":
        return 0 if run_all(args.seed, args.seconds) else 1

    hf = load_hypflow()
    print("machine " + json.dumps(machine(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result, lines = measure(hf, args.workload, args.seed, args.seconds, args.trace, workdir)
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
