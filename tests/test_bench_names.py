"""The names that the benchmark in ``bench/`` reads from the library.

A name deleted from the library would crash the benchmark, not the tests,
so these tests check the functions of ``bench/tracer.py``'s ``LAYERS``
table (the file is loaded by path, as it is), the modules' ``__all__``,
and what ``bench/run.py`` reads to build, solve and gate its inputs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hypflow
from hypflow import cli, curvature, flows, meshes, surface

spec = importlib.util.spec_from_file_location("tracer", Path(__file__).parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span, module, name", [layer[:3] for layer in tracer.LAYERS])
def test_traced_layer_exists(span, module, name):
    assert callable(getattr(importlib.import_module(module), name)), span


def test_package_binds_the_curvature_module():
    # the submodule, not its function ``curvature``, which the package does not import
    assert hypflow.curvature is importlib.import_module("hypflow.curvature") is curvature
    assert callable(hypflow.curvature.jacobian) and callable(hypflow.curvature.curvature)


@pytest.mark.parametrize("module", ["triangle", "surface", "curvature", "flows", "meshes", "cli"])
def test_star_import(module):
    exec(f"from hypflow.{module} import *", {})


def test_traced_solves_give_what_the_harness_reads(tmp_path):
    inputs = []
    for mesh, size in (("grid_torus", (4, 4)), ("genus2", (3, 3))):
        path = str(tmp_path / f"{mesh}.phm")
        surf = getattr(meshes, mesh)(*size)
        cli.write_phm(path, surf, meshes.perturbed_metric(surf, np.random.default_rng(1), spread=0.28))
        inputs.append(surface.clone_state(*cli.parse_phm(path)))
        assert surface.validate(*inputs[-1]).ok
    traced = tracer.Tracer()
    with traced.installed():
        newton = flows.newton_solve(*inputs[0], 0.0, 0.1, tol=1e-10)
        cfg = flows.FlowConfig(kind="yamabe", alpha=1.0, target=-1.0, tol_converge=1e-10)
        flow = flows.run_flow(*inputs[1], cfg)
    assert flows.np is np and {"flows.newton_solve", "flows.run_flow"} <= {s[tracer.NAME] for s in traced.spans}
    assert newton.iterations >= 1 and flow.steps >= 1
    for (surf, m), result, u, alpha, target in ((inputs[0], newton, newton.state.u, 0.0, 0.1),
                                                 (inputs[1], flow, flow.final_u, 1.0, -1.0)):
        assert result.converged and result.max_flip_jump <= 1e-8
        assert np.max(np.abs(curvature.curvature(surf, m) / np.exp(alpha * u) - target)) <= 1e-8
        assert abs(curvature.gauss_bonnet_residual(surf, m)) <= 1e-9
        assert surface.delaunay_weights(surf, m).min() >= -surface.TOL_DELAUNAY
