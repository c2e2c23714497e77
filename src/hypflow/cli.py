"""Command-line entry points and text file formats.

Formats
-------
``.phm`` surface+metric files::

    phm 1
    v <N>              # exactly once
    f <i> <j> <k>      # oriented faces, 0-based vertex indices
    e <i> <j> <len>    # each undirected edge exactly once
    # comment

Target / conformal-factor files are lines ``t <i> <value>``; omitted vertices
take the command-line constant (targets) or zero (factors), and a later line
for a vertex overrides an earlier one.

Both formats are read by ``_records``: one vectorised pass classifies each
line by its first byte (an indented line by its first token), and one
``np.loadtxt`` call reads each record kind, so that NumPy's text grammar
decides what a record is.  A token it refuses, or reads only with a warning,
is refused with a ParseError naming its line.

Step logs are JSON lines with keys t, dt, sup_err, min_M, max_M, flips,
energy, plus a terminal record with status, steps, final_sup_err, u and the
problem solved: kind, alpha and the per-vertex target.  Newton logs have
one record per iteration with keys iteration, sup_residual,
linsolve_iters, linsolve_stop, step_length and flips, plus a terminal
record with status, iterations, u, alpha and target.  linsolve_iters,
linsolve_stop and step_length describe the step that led to the iterate,
and are null for iteration 0: the conjugate-gradient iterations of its
linear solve, the 2-norm that solve's residual had to reach, and the
line-search step length accepted.  flips counts the edge flips of the
iteration's surgery: for iteration 0 those on entry and at the initial u,
then those of every line-search trial that reached its u.

A flow that fails dumps its state to ``<path>.failed.phm``, a ``.phm`` file
whose last line is the comment ``# failure: <reason>``.  A flip refused on
entry, before the first record, is such a failure: ``status failed`` with
``steps 0`` and no ``final_sup_err`` line, a step log with only its terminal
record, and the state dumped as the entry flips left it.

Exit codes: 0 converged/valid, 1 not converged/invalid input (a ``--tol``
that is not positive and finite, and a ``report --alpha`` that is not
finite, among them), 2 runtime failure, 3 regime refusal: before any step
``flow`` and ``newton`` refuse an alpha and target outside the convergence
regime, or not finite.  Only ``newton --force`` skips the refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from itertools import chain, compress, islice

import numpy as np

from .curvature import curvature, gauss_bonnet_residual
from .flows import (
    FlowConfig,
    NewtonError,
    RegimeError,
    newton_solve,
    run_flow,
)
from .surface import (
    MAX_LENGTH,
    MIN_LENGTH,
    TOL_DELAUNAY,
    MarkedSurface,
    PHMetric,
    SurfaceError,
    _pair_keys,
    apply_conformal,
    delaunay_weights,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_REGIME = 3

# the FlowRun counters that the flow log's terminal record carries
FLOW_COUNTERS = ("rhs_evals", "rejected", "entry_flips", "path_flips", "flip_rounds")


class ParseError(ValueError):
    pass


def parse_phm(path: str):
    """Parse a .phm file into (MarkedSurface, PHMetric): ``_records`` reads
    the v, f and e records as arrays, which are then checked as arrays."""
    text = _read_text(path)
    if text.partition("\n")[0].split("#")[0].strip() != "phm 1":
        raise ParseError(f"{path}:1: expected header 'phm 1'")
    records = _records(path, text, {"v": (np.int64,), "f": (np.int64,) * 3, "e": (np.int64, np.int64, np.float64)},
                       "unrecognized record {!r}", skip=1, once="v")
    n = records["v"][1][0][0]
    faces = np.stack(records["f"][1], axis=1)
    at, (i, j, length) = records["e"]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # the first duplicate record or length out of range, in line order
    key = _pair_keys(lo, hi, 0)
    order = np.argsort(key, kind="stable")
    d = order[1:][key[order[1:]] == key[order[:-1]]].min(initial=lo.size)
    b = np.flatnonzero(~((length >= MIN_LENGTH) & (length <= MAX_LENGTH))).min(initial=lo.size)
    if min(d, b) < lo.size:
        msg = (f"duplicate edge record {(int(lo[d]), int(hi[d]))}" if d <= b
               else f"edge length {length[b]} exceeds MAX_LENGTH = {MAX_LENGTH:.6g}" if length[b] > MAX_LENGTH
               else f"edge length {length[b]} is below MIN_LENGTH = {MIN_LENGTH:.6g}" if length[b] > 0.0
               else "edge length must be positive")
        raise ParseError(f"{path}:{at[min(d, b)]}: {msg}")
    try:
        surf = MarkedSurface(n, faces)
    except SurfaceError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    # a fresh surface's slots are in vertex-pair order, so its keys are sorted
    E = surf.ends.shape[1]
    key = _pair_keys(np.concatenate((surf.ends[0], lo)), np.concatenate((surf.ends[1], hi)), n)
    slot = np.minimum(np.searchsorted(key[:E], key[E:]), E - 1)
    found = key[slot] == key[E:]
    hit = np.bincount(slot[found], minlength=E)
    if not hit.all():
        raise ParseError(f"{path}: missing 'e' record for edge {tuple(surf.ends[:, np.argmin(hit)].tolist())}")
    if not found.all():
        k = np.argmin(found)
        raise ParseError(f"{path}: 'e' record for nonexistent edge {(int(lo[k]), int(hi[k]))}")
    return surf, PHMetric(surf, length[np.argsort(slot)])


def _records(path: str, text: str, kinds: dict, malformed: str, skip: int = 0, once: str = "") -> dict:
    """The records of a text file by tag: for each tag of ``kinds``, the
    1-based line numbers of its records and one array per column, of the
    tag's column dtypes.  The first ``skip`` lines are not read, and each
    tag in ``once`` must have exactly one record.

    One vectorised pass over the bytes classifies each line by its first
    byte (an indented line by its first token, from ``str.split()``), and
    one ``np.loadtxt`` reads the lines of each tag.  A ParseError names the
    first line that is no record (``malformed``, formatted with the line's
    text before any comment), else a missing or second record of a tag in
    ``once``, else the first token that loadtxt does not convert.  A tag
    whose lines loadtxt refuses is bisected for the line to name
    (``_first_failing``), so a refusal costs about two reads of its lines.
    """
    lines = text.split("\n")
    b = np.frombuffer(text.encode() + b"\n", dtype=np.uint8)
    # first[k] is the first byte of line k, a newline if it is empty
    first = b[np.concatenate(([0], np.flatnonzero(b[:-1] == 10) + 1))]
    first[:skip] = ord("#")
    known = np.zeros(256, dtype=bool)
    known[list(("".join(kinds) + "\n#").encode())] = True
    for k in np.flatnonzero(~known[first]).tolist():
        # an indented line is read by str.split(); a line that is no record is 0
        parts = lines[k].split("#", 1)[0].split()
        first[k] = 10 if not parts else ord(parts[0]) if parts[0] in kinds else 0
    at = {tag: np.flatnonzero(first == ord(tag)) + 1 for tag in kinds}
    bad = (np.flatnonzero(first == 0)[:1] + 1).tolist()
    out, refused = {}, []
    for tag, types in kinds.items():
        dtype = [("tag", "U2")] + [(f"c{c}", kind) for c, kind in enumerate(types)]
        rows = list(compress(lines, (first == ord(tag)).tolist()))
        table = _loadtxt(rows, dtype) if rows else np.empty(0, dtype)
        if table is not None and (table["tag"] == tag).all():
            out[tag] = at[tag], [table[name] for name, _ in dtype[1:]]
            continue
        # only after a refusal are the rows bisected: with every token read
        # as text, for the first with the wrong tag or token count, which
        # goes first whatever its line; else for the first that loadtxt
        # refuses, whose tokens are then read one by one
        as_text = [("tag", "U2")] + [(f"c{c}", "U1") for c in range(len(types))]
        if not _tagged(rows, as_text, tag):
            bad.append(int(at[tag][_first_failing(rows, lambda block: _tagged(block, as_text, tag))]))
            continue
        k = _first_failing(rows, lambda block: _tagged(block, dtype, tag))
        tokens = rows[k].split("#", 1)[0].split()[1:]
        refused += islice(((int(at[tag][k]), t, kind) for t, (_, kind) in zip(tokens, dtype[1:])
                           if _loadtxt([t], kind) is None), 1)
    if bad:
        k = min(bad)
        raise ParseError(f"{path}:{k}: " + malformed.format(lines[k - 1].split("#")[0].strip()))
    for tag in once:
        if at[tag].size != 1:
            raise ParseError(f"{path}:{at[tag][1]}: duplicate {tag!r} record" if at[tag].size
                             else f"{path}: missing {tag!r} record")
    if refused:
        k, token, kind = min(refused)
        raise ParseError(f"{path}:{k}: could not convert {token!r} to {np.dtype(kind)}")
    return out


def _tagged(rows: list, dtype, tag: str) -> bool:
    """Whether loadtxt reads ``rows`` as ``dtype`` with ``tag`` in every row."""
    table = _loadtxt(rows, dtype)
    return table is not None and bool((table["tag"] == tag).all())


def _first_failing(rows: list, ok) -> int:
    """The index of the first row r with ``ok(rows[:r + 1])`` false, for a
    predicate that holds on a block of rows iff on each of its rows and
    fails on ``rows``: a bisection over row blocks, each read whole, in
    about log2(len(rows)) calls that read about len(rows) rows in all."""
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(rows[lo:mid]) else (lo, mid)
    return lo


def _loadtxt(rows: list, dtype):
    """``rows`` read by ``np.loadtxt`` as an array of ``dtype``, or None if
    it refuses them or warns."""
    try:
        with warnings.catch_warnings():
            # NumPy 1.24 reads '1.0' as an int with a DeprecationWarning
            warnings.simplefilter("error")
            return np.loadtxt(rows, dtype=dtype, comments="#", ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None


def write_phm(path: str, surf: MarkedSurface, m: PHMetric):
    """Write the state in the v1 format: faces in face order, then edges in
    slot order, each length to 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(f"phm 1\nv {surf.vertex_count}\n")
        fh.write("f %d %d %d\n" * surf.face_array.shape[0] % tuple(surf.face_array.ravel().tolist()))
        records = chain.from_iterable(zip(*surf.ends.tolist(), m.length.tolist()))
        fh.write("e %d %d %.17g\n" * m.length.size % tuple(records))


def parse_vertex_values(path: str, n: int, default: float = 0.0) -> np.ndarray:
    """Parse ``t <i> <value>`` lines into a length-n vector, read as
    ``parse_phm`` reads its records; a later line for a vertex overrides an
    earlier one.  A ParseError names the first line that is no such record,
    else the first token that does not convert, else the first vertex out
    of range or value that is not finite."""
    at, (i, value) = _records(path, _read_text(path), {"t": (np.int64, np.float64)}, "expected 't <i> <value>'")["t"]
    out_of_range = (i < 0) | (i >= n)
    bad = np.flatnonzero(out_of_range | ~np.isfinite(value))
    if bad.size:
        k = bad[0]
        msg = f"vertex {i[k]} out of range" if out_of_range[k] else f"value {float(value[k])} is not finite"
        raise ParseError(f"{path}:{at[k]}: {msg}")
    last = i.size - 1 - np.unique(i[::-1], return_index=True)[1]
    out = np.full(n, float(default))
    out[i[last]] = value[last]
    return out


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _write_jsonl(path: str, records, terminal: dict):
    """Write a log: each of ``records``, then ``terminal``, as one JSON line."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in chain(records, [terminal]))


def cmd_validate(args) -> int:
    surf, m = parse_phm(args.path)
    report = validate(surf, m)
    print(f"chi = {report.chi}")
    print(f"|V| = {report.n_vertices}, |E| = {report.n_edges}, |F| = {report.n_faces}")
    print(f"min triangle-inequality slack = {report.min_slack:.6g}")
    if report.ok:
        print(f"Delaunay edges: {np.count_nonzero(delaunay_weights(surf, m) >= -TOL_DELAUNAY)}/{report.n_edges}")
        print("valid")
        return EXIT_OK
    for err in report.errors:
        print(f"error: {err}")
    return EXIT_INVALID


def cmd_report(args) -> int:
    if not np.isfinite(args.alpha):
        raise ValueError(f"alpha must be finite, got {args.alpha}")
    surf, m = parse_phm(args.path)
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
    R = K / np.exp(u) ** args.alpha
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
    n = surf.vertex_count
    target = parse_vertex_values(args.target, n, args.target_const) if args.target else np.full(n, args.target_const)
    return surf, m, target


def cmd_flow(args) -> int:
    surf, m, target = _load_for_solver(args)
    cfg = FlowConfig(
        kind=args.flow,
        alpha=args.alpha,
        target=target,
        tol_converge=args.tol,
        max_steps=args.max_steps,
    )
    run = run_flow(surf, m, cfg)
    if args.log:
        _write_jsonl(args.log, map(asdict, run.records), {
            "status": run.status, "steps": run.steps,
            "final_sup_err": run.records[-1].sup_err if run.records else None,
            "u": list(run.final_u), "kind": cfg.kind, "alpha": cfg.alpha, "target": target.tolist(),
            **{key: getattr(run, key) for key in FLOW_COUNTERS},
        })
    print(f"status {run.status}")
    print(f"steps {run.steps}")
    if run.records:
        print(f"final_sup_err {run.records[-1].sup_err:.6e}")
    if run.status == "converged":
        return EXIT_OK
    if run.status == "failed":
        write_phm(args.path + ".failed.phm", surf, m)
        with open(args.path + ".failed.phm", "a") as fh:
            fh.write(f"# failure: {' '.join(run.reason.splitlines())}\n")
        print(f"failure: {run.reason}; state dumped to {args.path}.failed.phm")
        return EXIT_RUNTIME
    return EXIT_INVALID


def cmd_newton(args) -> int:
    surf, m, target = _load_for_solver(args)
    rng = np.random.default_rng(args.seed)
    u0 = rng.uniform(-0.1, 0.1, surf.vertex_count) if args.seed is not None else None
    result = newton_solve(
        surf, m, args.alpha, target,
        tol=args.tol, max_iter=args.max_iter, u0=u0, force=args.force,
    )
    status = "converged" if result.converged else "max_iter"
    if args.log:
        keys = ("sup_residual", "linsolve_iters", "linsolve_stop", "step_length", "flips")
        rows = zip(result.residuals, [None] + result.linsolve_iters, [None] + result.linsolve_stop,
                   [None] + result.step_lengths, result.flips)
        records = ({"iteration": it, **dict(zip(keys, row))} for it, row in enumerate(rows))
        _write_jsonl(args.log, records, {
            "status": status, "iterations": result.iterations, "u": list(result.state.u),
            "alpha": args.alpha, "target": target.tolist(),
        })
    print(f"status {status}")
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
    except ValueError as exc:  # an unreadable or invalid input file or value, ParseError among them
        print(f"invalid: {exc}")
        return EXIT_INVALID
    except RegimeError as exc:
        print(f"refused: {exc}")
        return EXIT_REGIME
    except (NewtonError, SurfaceError, OverflowError) as exc:
        print(f"failure: {exc}")
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"error: unexpected failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
