"""Spans around hypflow's layer functions, installed from outside the library.

``Tracer.installed()`` replaces each traced function by a wrapper in every
``hypflow`` module that binds it, including the names that modules import
from each other (``flows.advance_conformal``, ``surface.angles_from_length_array``
and so on), and restores the originals on exit.  ``np.linalg.cholesky`` and
``np.linalg.solve`` are traced only as ``newton_solve`` calls them, through a
view of NumPy put in place of ``flows.np``.

Spans stay in memory as tuples until ``write_spans`` writes them out.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, function name, work done by one call or None)
LAYERS = (
    ("triangle.angles", "hypflow.triangle", "angles_from_length_array",
     lambda args, out: out.size // 3),
    ("surface.face_angles", "hypflow.surface", "face_angles", None),
    ("surface.delaunay_weights", "hypflow.surface", "delaunay_weights", None),
    ("surface.apply_conformal", "hypflow.surface", "apply_conformal", None),
    ("surface.flip", "hypflow.surface", "flip_edge", None),
    ("surface.advance", "hypflow.surface", "advance_conformal", lambda args, out: len(out[0])),
    ("curvature.curvature", "hypflow.curvature", "curvature", None),
    ("curvature.jacobian", "hypflow.curvature", "jacobian", None),
    ("flows.run_flow", "hypflow.flows", "run_flow", None),
    ("flows.newton_solve", "hypflow.flows", "newton_solve", None),
    ("cli.write_phm", "hypflow.cli", "write_phm", None),
    ("cli.parse_phm", "hypflow.cli", "parse_phm", None),
)

SOLVER_SPANS = ("flows.run_flow", "flows.newton_solve")

# field order of a span tuple
SID, PARENT, REQUEST, NAME, T0, T1, ERROR, WORK = range(8)


class _View:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **replaced):
        self.__dict__.update(replaced)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = ""
        self._stack = []
        self._ids = itertools.count()

    def wrap(self, name, fn, work=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            error, n = None, 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    n = work(args, out)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.request, name, t0, t1, error, n))

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "hypflow" or key.startswith("hypflow.")
        ]
        saved = []
        for name, module_name, attr, work in LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        flows = importlib.import_module("hypflow.flows")
        np = flows.np
        linalg = _View(
            np.linalg,
            cholesky=self.wrap("flows.linsolve", np.linalg.cholesky),
            solve=self.wrap("flows.linsolve", np.linalg.solve),
        )
        saved.append((flows, "np", np))
        flows.np = _View(np, linalg=linalg)
        try:
            yield self
        finally:
            for mod, key, value in reversed(saved):
                setattr(mod, key, value)


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    return {s[SID]: (s[T1] - s[T0]) - child[s[SID]] for s in spans}


def layer_metrics(spans, solver_counts: dict) -> dict:
    """Per-layer totals over ``spans`` of solver runs.

    ``solver_counts`` carries the counts that the solvers return rather than
    a layer boundary shows: ``steps`` (accepted flow steps) and
    ``newton_iters``.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    names = {s[SID]: s[NAME] for s in spans}

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum((s[T1] - s[T0] for s in by_name[name]), 0.0)

    def self_total(*names_):
        return sum((own[s[SID]] for n in names_ for s in by_name[n]), 0.0)

    def children(parent_name, name):
        return sum(1 for s in by_name[name] if names.get(s[PARENT]) == parent_name)

    advances = calls("surface.advance")
    flips = sum(s[WORK] for s in by_name["surface.advance"])
    # every advance_conformal call makes two apply_conformal calls (normalise,
    # then test the endpoint); the rest are wall-search probes
    probes = children("surface.advance", "surface.apply_conformal") - 2 * advances
    flow_runs = calls("flows.run_flow")
    newton_runs = calls("flows.newton_solve")
    steps = solver_counts["steps"]
    # run_flow advances once at start and once per accepted step besides its
    # RHS evaluations; newton_solve once more after the last iterate
    rhs = children("flows.run_flow", "surface.advance") - flow_runs - steps
    residuals = children("flows.newton_solve", "surface.advance") - newton_runs
    return {
        "triangle.angles_calls": calls("triangle.angles"),
        "triangle.angles_s": total("triangle.angles"),
        "triangle.face_evals": sum(s[WORK] for s in by_name["triangle.angles"]),
        "surface.face_angles_calls": calls("surface.face_angles"),
        "surface.face_angles_self_s": self_total("surface.face_angles"),
        "surface.delaunay_weights_calls": calls("surface.delaunay_weights"),
        "surface.delaunay_weights_s": total("surface.delaunay_weights"),
        "surface.advance_calls": advances,
        "surface.advance_self_s": self_total("surface.advance"),
        "surface.apply_conformal_calls": calls("surface.apply_conformal"),
        "surface.apply_conformal_s": total("surface.apply_conformal"),
        "surface.probes_per_flip": probes / flips if flips else 0.0,
        "surface.flip_calls": calls("surface.flip"),
        "surface.flip_s": total("surface.flip"),
        "surface.flip_refused": sum(
            1 for s in by_name["surface.flip"] if s[ERROR] == "FlipError"
        ),
        "flows.accepted_flips": flips,
        "curvature.curvature_calls": calls("curvature.curvature"),
        "curvature.curvature_s": total("curvature.curvature"),
        "curvature.jacobian_calls": calls("curvature.jacobian"),
        "curvature.jacobian_s": total("curvature.jacobian"),
        "flows.steps": steps,
        "flows.rhs_evals": rhs,
        "flows.rhs_per_step": rhs / steps if steps else 0.0,
        "flows.newton_iters": solver_counts["newton_iters"],
        "flows.residual_evals": residuals,
        "flows.linsolve_calls": calls("flows.linsolve"),
        "flows.linsolve_s": total("flows.linsolve"),
        "flows.self_s": self_total(*SOLVER_SPANS),
    }


def write_spans(path, spans):
    """Write spans as gzipped CSV, one line per span, in the order they ended."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("span,parent,request,name,start_s,end_s,error,work\n")
        for sid, parent, request, name, t0, t1, error, work in spans:
            fh.write(f"{sid},{parent},{request},{name},{t0!r},{t1!r},{error or ''},{work}\n")
