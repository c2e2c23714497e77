"""Combinatorial alpha-curvature flows for piecewise hyperbolic metrics."""

from .curvature import (
    ConformalState,
    JacobianL,
    alpha_curvature,
    alpha_laplacian_apply,
    curvature,
    energy_increment,
    extended_curvature,
    gauss_bonnet_residual,
    jacobian,
)
from .flows import (
    FlowConfig,
    FlowRun,
    NewtonResult,
    decay_slope,
    monitor_max_principle,
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
    delaunay_weight,
    delaunay_weights,
    diagonal_length,
    euler_characteristic,
    flip_edge,
    make_delaunay,
    validate,
)
from .triangle import (
    TriAngles,
    TriLengths,
    dangle_du_diag,
    dangle_du_offdiag,
    darea_du,
    extended_angles,
    half_angle_identity_check,
    scaled_length,
    tri_angles,
    tri_area,
)

__version__ = "0.1.0"
