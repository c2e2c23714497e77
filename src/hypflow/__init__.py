"""Combinatorial alpha-curvature flows for piecewise hyperbolic metrics."""

from .curvature import (
    ConformalState,
    JacobianL,
    energy_increment,
    gauss_bonnet_residual,
    jacobian,
)
from .flows import (
    FlowConfig,
    FlowRun,
    NewtonResult,
    newton_solve,
    regime_check,
    run_flow,
)
from .surface import (
    AdmissibilityError,
    FlipError,
    FlipEvent,
    MarkedSurface,
    PHMetric,
    SurfaceError,
    advance_conformal,
    apply_conformal,
    clone_state,
    delaunay_weights,
    euler_characteristic,
    flip_edge,
    validate,
)

__version__ = "0.1.0"
