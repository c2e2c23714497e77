"""Command-line entry points and text file formats.

Formats
-------
``.phm`` surface+metric files::

    phm 1
    v <N>
    f <i> <j> <k>      # oriented faces, 0-based vertex indices
    e <i> <j> <len>    # each undirected edge exactly once
    # comment

Target / conformal-factor files are lines ``t <i> <value>``; omitted vertices
take the command-line constant (targets) or zero (factors).

Step logs are JSON lines with keys t, dt, sup_err, min_M, max_M, flips,
energy, plus a terminal record with status, steps, final_sup_err and u.
Newton logs have one record per iteration with keys iteration, sup_residual
and linsolve_iters (the conjugate-gradient iterations of the step that led
to it; null for iteration 0), plus a terminal record with status,
iterations and u.

Exit codes: 0 converged/valid, 1 not converged/invalid input, 2 runtime
failure, 3 regime refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .curvature import (
    ConformalState,
    alpha_curvature,
    curvature,
    gauss_bonnet_residual,
)
from .flows import (
    FlowConfig,
    NewtonError,
    RegimeError,
    newton_solve,
    regime_check,
    run_flow,
)
from .surface import (
    TOL_DELAUNAY,
    MarkedSurface,
    PHMetric,
    SurfaceError,
    _edge,
    apply_conformal,
    delaunay_weights,
    euler_characteristic,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_REGIME = 3


class ParseError(ValueError):
    pass


def parse_phm(path: str):
    """Parse a .phm file into (MarkedSurface, PHMetric)."""
    n = None
    faces = []
    lengths = {}
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or lines[0].split("#")[0].strip() != "phm 1":
        raise ParseError(f"{path}:1: expected header 'phm 1'")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                n = int(parts[1])
            elif parts[0] == "f" and len(parts) == 4:
                faces.append(tuple(int(p) for p in parts[1:]))
            elif parts[0] == "e" and len(parts) == 4:
                i, j = int(parts[1]), int(parts[2])
                val = float(parts[3])
                e = _edge(i, j)
                if e in lengths:
                    raise ParseError(f"{path}:{lineno}: duplicate edge record {e}")
                if not (val > 0 and math.isfinite(val)):
                    raise ParseError(f"{path}:{lineno}: edge length must be positive")
                lengths[e] = val
            else:
                raise ParseError(f"{path}:{lineno}: unrecognized record {line!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if n is None:
        raise ParseError(f"{path}: missing 'v' record")
    try:
        surf = MarkedSurface(n, faces)
    except SurfaceError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    index = surf.edge_index
    missing = [e for e in index if e not in lengths]
    if missing:
        raise ParseError(f"{path}: missing 'e' record for edge {missing[0]}")
    extra = [e for e in lengths if e not in index]
    if extra:
        raise ParseError(f"{path}: 'e' record for nonexistent edge {extra[0]}")
    return surf, PHMetric(surf, lengths)


def write_phm(path: str, surf: MarkedSurface, m: PHMetric):
    with open(path, "w") as fh:
        fh.write("phm 1\n")
        fh.write(f"v {surf.vertex_count}\n")
        for f in surf.faces:
            fh.write(f"f {f[0]} {f[1]} {f[2]}\n")
        for e, l in zip(surf.edges, m.length.tolist()):
            fh.write(f"e {e[0]} {e[1]} {l:.17g}\n")


def parse_vertex_values(path: str, n: int, default: float = 0.0) -> np.ndarray:
    """Parse ``t <i> <value>`` lines into a length-n vector."""
    out = np.full(n, float(default))
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "t" or len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 't <i> <value>'")
            i = int(parts[1])
            if not 0 <= i < n:
                raise ParseError(f"{path}:{lineno}: vertex {i} out of range")
            out[i] = float(parts[2])
    return out


def _resolve_target(args, n: int) -> np.ndarray:
    if getattr(args, "target", None):
        return parse_vertex_values(args.target, n, default=args.target_const)
    return np.full(n, float(args.target_const))


def _write_step_log(path: str, run):
    with open(path, "w") as fh:
        for r in run.records:
            fh.write(json.dumps({
                "t": r.t, "dt": r.dt, "sup_err": r.sup_err,
                "min_M": r.min_M, "max_M": r.max_M,
                "flips": r.flips, "energy": r.energy,
            }) + "\n")
        fh.write(json.dumps({
            "status": run.status,
            "steps": run.steps,
            "final_sup_err": run.records[-1].sup_err if run.records else None,
            "u": list(run.final_u) if run.final_u is not None else None,
        }) + "\n")


def cmd_validate(args) -> int:
    try:
        surf, m = parse_phm(args.path)
    except (ParseError, SurfaceError, OSError) as exc:
        print(f"invalid: {exc}")
        return EXIT_INVALID
    report = validate(surf, m)
    n_delaunay = int(np.count_nonzero(delaunay_weights(surf, m) >= -TOL_DELAUNAY)) \
        if report.ok else 0
    print(f"chi = {report.chi}")
    print(f"|V| = {report.n_vertices}, |E| = {report.n_edges}, |F| = {report.n_faces}")
    print(f"min triangle-inequality slack = {report.min_slack:.6g}")
    if report.ok:
        print(f"Delaunay edges: {n_delaunay}/{report.n_edges}")
        print("valid")
        return EXIT_OK
    for err in report.errors:
        print(f"error: {err}")
    return EXIT_INVALID


def cmd_report(args) -> int:
    try:
        surf, m = parse_phm(args.path)
    except (ParseError, SurfaceError, OSError) as exc:
        print(f"invalid: {exc}")
        return EXIT_INVALID
    u = np.zeros(surf.vertex_count)
    if args.u:
        u = parse_vertex_values(args.u, surf.vertex_count, default=0.0)
        apply_conformal(surf, m, u)
    report = validate(surf, m)
    if not report.ok:
        for err in report.errors:
            print(f"error: {err}")
        return EXIT_INVALID
    K = curvature(surf, m)
    R = alpha_curvature(K, ConformalState(u), args.alpha)
    w = delaunay_weights(surf, m)
    print(f"# vertex K R_alpha (alpha={args.alpha})")
    for i in range(surf.vertex_count):
        print(f"{i} {K[i]:.17g} {R[i]:.17g}")
    print(f"gauss_bonnet_residual {gauss_bonnet_residual(surf, m):.3e}")
    bad = np.flatnonzero(w < -TOL_DELAUNAY)
    if bad.size:
        print("delaunay no")
        for idx in bad:
            print(f"non_delaunay_edge {tuple(surf.ends[:, idx].tolist())} weight {w[idx]:.6g}")
    else:
        print("delaunay yes")
    return EXIT_OK


def _load_for_solver(args):
    surf, m = parse_phm(args.path)
    report = validate(surf, m)
    if not report.ok:
        raise ParseError("; ".join(report.errors))
    target = _resolve_target(args, surf.vertex_count)
    return surf, m, target


def cmd_flow(args) -> int:
    try:
        surf, m, target = _load_for_solver(args)
    except (ParseError, SurfaceError, OSError) as exc:
        print(f"invalid: {exc}")
        return EXIT_INVALID
    ok, msg = regime_check(args.alpha, target, euler_characteristic(surf))
    if not ok:
        print(f"warning: target outside convergence regime: {msg}", file=sys.stderr)
    cfg = FlowConfig(
        kind=args.flow,
        alpha=args.alpha,
        target=target,
        tol_converge=args.tol,
        max_steps=args.max_steps,
    )
    run = run_flow(surf, m, cfg)
    if args.log:
        _write_step_log(args.log, run)
    print(f"status {run.status}")
    print(f"steps {run.steps}")
    print(f"final_sup_err {run.records[-1].sup_err:.6e}")
    if run.status == "converged":
        return EXIT_OK
    if run.status == "failed":
        write_phm(args.path + ".failed.phm", surf, m)
        print(f"failure: {run.reason}; state dumped to {args.path}.failed.phm")
        return EXIT_RUNTIME
    return EXIT_INVALID


def cmd_newton(args) -> int:
    try:
        surf, m, target = _load_for_solver(args)
    except (ParseError, SurfaceError, OSError) as exc:
        print(f"invalid: {exc}")
        return EXIT_INVALID
    rng = np.random.default_rng(args.seed)
    u0 = rng.uniform(-0.1, 0.1, surf.vertex_count) if args.seed is not None else None
    try:
        result = newton_solve(
            surf, m, args.alpha, target,
            tol=args.tol, max_iter=args.max_iter, u0=u0, force=args.force,
        )
    except RegimeError as exc:
        print(f"refused: {exc} (use --force to override)")
        return EXIT_REGIME
    except (NewtonError, SurfaceError, OverflowError) as exc:
        print(f"failure: {exc}")
        return EXIT_RUNTIME
    if args.log:
        with open(args.log, "w") as fh:
            cg = [None] + result.linsolve_iters
            for it, res in enumerate(result.residuals):
                fh.write(json.dumps({
                    "iteration": it, "sup_residual": res, "linsolve_iters": cg[it],
                }) + "\n")
            fh.write(json.dumps({
                "status": "converged" if result.converged else "max_iter",
                "iterations": result.iterations,
                "u": list(result.state.u),
            }) + "\n")
    print(f"status {'converged' if result.converged else 'max_iter'}")
    print(f"iterations {result.iterations}")
    print(f"final_residual {result.residuals[-1]:.6e}")
    for i, ui in enumerate(result.state.u):
        print(f"u {i} {ui:.17g}")
    return EXIT_OK if result.converged else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypflow",
        description="Curvature flows for piecewise hyperbolic metrics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a .phm file")
    pv.add_argument("path")
    pv.set_defaults(func=cmd_validate)

    pr = sub.add_parser("report", help="per-vertex curvature report")
    pr.add_argument("path")
    pr.add_argument("--alpha", type=float, default=0.0)
    pr.add_argument("--u", default=None, help="per-vertex conformal factor file")
    pr.set_defaults(func=cmd_report)

    pf = sub.add_parser("flow", help="run a curvature flow with surgery")
    pf.add_argument("path")
    pf.add_argument("--flow", choices=["yamabe", "calabi"], default="yamabe")
    pf.add_argument("--alpha", type=float, default=0.0)
    pf.add_argument("--target-const", type=float, default=0.0)
    pf.add_argument("--target", default=None, help="per-vertex target file")
    pf.add_argument("--tol", type=float, default=1e-10)
    pf.add_argument("--max-steps", type=int, default=5000)
    pf.add_argument("--log", default=None, help="step log output path (JSON lines)")
    pf.set_defaults(func=cmd_flow)

    pn = sub.add_parser("newton", help="Newton solve for a prescribed target")
    pn.add_argument("path")
    pn.add_argument("--alpha", type=float, default=0.0)
    pn.add_argument("--target-const", type=float, default=0.0)
    pn.add_argument("--target", default=None, help="per-vertex target file")
    pn.add_argument("--tol", type=float, default=1e-10)
    pn.add_argument("--max-iter", type=int, default=100)
    pn.add_argument("--seed", type=int, default=None, help="random initial u seed")
    pn.add_argument("--force", action="store_true", help="skip the regime guard")
    pn.add_argument("--log", default=None, help="iteration log output path")
    pn.set_defaults(func=cmd_newton)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"error: unexpected failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
