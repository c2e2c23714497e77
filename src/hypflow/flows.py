"""Curvature flows with surgery and a Newton solver for prescribed targets.

Time integration of the alpha-Yamabe and alpha-Calabi flows by the
Dormand-Prince 5(4) pair while its accuracy binds, and by a strongly damped
Runge-Kutta-Chebyshev method where that is cheaper once the pair's
stability interval binds, both gauged by a stiffness estimate from their
own stages; and a damped Newton iteration on the curvature equation whose
line search accepts any decrease of the sup-norm residual.  Both evaluate the curvature map at u through one
``_CurvatureMap``: a call is ``advance_conformal``'s surgery at u, whose
result depends on u alone, so neither solver follows a path between its
points, and K is read from the angles that the surgery measured at u.  A
solver's first call, at ``m.current_u``, is its entry: one advance that
flips the state Delaunay by isometric rounds and measures the first
right-hand side or residual.

``FlowRun`` and ``NewtonResult`` give the map's counters over all of a
solve's calls that returned: ``rhs_evals`` (``FlowRun`` only) counts the
calls, the entry among them; ``entry_flips`` the entry's isometric flips;
``path_flips`` the Ptolemy flips of the later calls (in ``NewtonResult``
derived from its flips per iteration); ``flip_rounds`` the flip rounds of
all calls; and ``max_flip_jump`` is the largest ``FlipEvent.k_jump``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curvature import ConformalState, JacobianL, energy_increment, jacobian
from .surface import (
    AdmissibilityError,
    FlipError,
    MarkedSurface,
    PHMetric,
    SurfaceError,
    _restore,
    advance_conformal,
    angle_defect,
    clone_state,
    euler_characteristic,
)

__all__ = [
    "FlowConfig",
    "StepRecord",
    "FlowRun",
    "NewtonResult",
    "run_flow",
    "newton_solve",
    "regime_check",
    "RegimeError",
    "NewtonError",
]

# the flows' step size starts at DT_INIT and stays at most DT_MAX; a trial
# whose local error passes STEP_ATOL is rejected, and a step size below
# DT_MIN after a rejection ends the run, as does |u| above U_ABORT
STEP_ATOL = 1e-8
DT_INIT = 0.1
DT_MIN = 1e-9
DT_MAX = 0.5
U_ABORT = 50.0
# a Dormand-Prince step size is also held to STIFF_FRACTION of DP5's
# stability interval on the negative real axis, which reaches about -3.3,
# over the stiffness estimate rho (Hairer, Norsett and Wanner, Solving ODEs
# I, II.10)
STIFF_FRACTION, DP5_REAL_EDGE = 0.8, 3.3
# a Runge-Kutta-Chebyshev step of size h takes the least s of 2 to
# RKC_MAX_STAGES stages whose real stability interval [-beta(s), 0] reaches
# RKC_MARGIN rho h, h shrunk if even RKC_MAX_STAGES do not; RKC_DAMPING is
# its damping epsilon
RKC_DAMPING, RKC_MARGIN, RKC_MAX_STAGES = 4.0, 1.2, 50


class _Method(NamedTuple):
    """An explicit Runge-Kutta method and its error estimate in one tableau
    form: row i of ``A`` gives stage i's point u + dt (A[i, :i] @ k), k[0]
    being the right-hand side at u; the last row is the solution, whose
    right-hand side is the next step's first stage (first same as last);
    ``dt (E @ k)`` estimates the local error, ``power`` is the step-size
    controller's exponent and ``beta`` the length of the real stability
    interval."""

    name: str
    A: np.ndarray
    E: np.ndarray
    power: float
    beta: float


# the Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 1980): row 6 of
# DP5_A is the fifth-order solution, and DP5_E the difference of the two
# solutions' weights
DP5_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
DP5_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP5 = _Method("dp5", DP5_A, DP5_E, 0.2, DP5_REAL_EDGE)


@functools.cache
def _rkc(s: int, damping: float) -> _Method:
    """The s-stage second-order Runge-Kutta-Chebyshev method (Sommeijer,
    Shampine and Verwer, J. Comput. Appl. Math. 88, 1997) as a ``_Method``.

    Its stages follow the three-term recurrence Y_j = (1 - mu_j - nu_j) Y_0
    + mu_j Y_{j-1} + nu_j Y_{j-2} + mut_j h F(Y_{j-1}) + gam_j h F(Y_0),
    whose coefficients come from the Chebyshev polynomials T_j and their
    first two derivatives at w0 = 1 + damping / s^2; unrolled, Y_j - Y_0 is
    h (A[j] @ k), row by row from the two rows before it.  The error
    estimate is SSV's 0.8 (u_n - u_{n+1}) + 0.4 h (F_n + F_{n+1}), and beta
    = (1 + w0) / w1 is where w0 + w1 z, the Chebyshev argument of the
    stability polynomial, reaches -1.  A damping well above SSV's 2/13
    (beta about 0.46 s^2 at 4, against 0.65 s^2) holds the stability
    polynomial at most about 0.45 in magnitude deep in that interval, where
    at 2/13 it is about 0.95, so the stiff modes decay within a few steps.
    """
    w0 = 1.0 + damping / s**2
    T, dT, ddT = np.zeros((3, s + 1))
    T[0], T[1], dT[1] = 1.0, w0, 1.0
    for j in range(2, s + 1):
        T[j] = 2 * w0 * T[j - 1] - T[j - 2]
        dT[j] = 2 * T[j - 1] + 2 * w0 * dT[j - 1] - dT[j - 2]
        ddT[j] = 4 * dT[j - 1] + 2 * w0 * ddT[j - 1] - ddT[j - 2]
    w1 = dT[s] / ddT[s]
    b = np.empty(s + 1)
    b[2:] = ddT[2:] / dT[2:] ** 2
    b[:2] = b[2]
    A = np.zeros((s + 1, s))
    A[1, 0] = b[1] * w1
    for j in range(2, s + 1):
        mut = 2 * b[j] * w1 / b[j - 1]
        A[j] = 2 * b[j] * w0 / b[j - 1] * A[j - 1] - b[j] / b[j - 2] * A[j - 2]
        A[j, j - 1] += mut
        A[j, 0] -= (1 - b[j - 1] * T[j - 1]) * mut
    E = np.zeros(s + 1)
    E[:s] = -0.8 * A[s]
    E[[0, s]] += 0.4
    return _Method("rkc", A, E, 1 / 3, (1 + w0) / w1)


def _next_trial(method: _Method, dt: float, rho: float):
    """The next trial's method and step size, after a trial of ``method``
    whose error estimate proposes step size ``dt`` and whose last two stages
    estimate the stiffness ``rho``.

    DP5 keeps stepping while its accuracy binds, that is while ``dt`` is
    within its stability cap.  Otherwise the next trial is the cheaper per
    unit time of DP5 at that cap, 6 maps a step, and RKC at ``dt`` with as
    many stages as its stability needs, s maps a step.
    """
    stable = min(DT_MAX, STIFF_FRACTION * _DP5.beta / rho if rho else math.inf)
    if method is _DP5 and dt <= stable:
        return _DP5, dt
    s = 2
    while s < RKC_MAX_STAGES and _rkc(s, RKC_DAMPING).beta < RKC_MARGIN * rho * dt:
        s += 1
    rkc = _rkc(s, RKC_DAMPING)
    dt = min(dt, rkc.beta / (RKC_MARGIN * rho)) if rho else dt
    return (rkc, dt) if s / dt <= 6 / stable else (_DP5, stable)


class RegimeError(RuntimeError):
    """Target/alpha combination outside the convexity regime."""


class NewtonError(RuntimeError):
    pass


@dataclass
class FlowConfig:
    kind: str = "yamabe"
    alpha: float = 0.0
    target: object = 0.0            # scalar or per-vertex array
    tol_converge: float = 1e-10
    max_steps: int = 5000

    def __post_init__(self):
        if self.kind not in ("yamabe", "calabi"):
            raise ValueError(f"unknown flow kind {self.kind!r}")


@dataclass
class StepRecord:
    t: float
    dt: float
    sup_err: float
    min_M: float
    max_M: float
    flips: int
    energy: float
    # the method of the step that ended here, "dp5" or "rkc" (the entry's is
    # "dp5", that of the step its map begins), and the curvature maps since
    # the previous record, rejected trials' among them (the entry's is 1)
    method: str
    maps: int


@dataclass
class FlowRun:
    """One flow run: ``records`` holds the state on entry, then one record
    per accepted step; a run refused on entry has none."""

    records: list = field(default_factory=list)
    status: str = "running"
    reason: str | None = None
    final_u: np.ndarray | None = None
    max_flip_jump: float = 0.0
    # trials rejected, by their error estimate or a raised curvature map
    rejected: int = 0
    # the curvature map's counters (module docstring)
    rhs_evals: int = 0
    entry_flips: int = 0
    path_flips: int = 0
    flip_rounds: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def steps(self) -> int:
        return max(len(self.records) - 1, 0)


def regime_check(alpha: float, target: np.ndarray, chi: int):
    """Whether (alpha, target, chi) satisfies one of the convergence regimes;
    a non-finite alpha or target satisfies none."""
    target = np.asarray(target, dtype=float)
    if not (math.isfinite(alpha) and np.all(np.isfinite(target))):
        return False, "alpha and target must be finite"
    if alpha > 0:
        if chi < 0 and np.all(target <= 0):
            return True, "alpha > 0, chi < 0, target <= 0"
        return False, "alpha > 0 requires chi < 0 and a nonpositive target"
    if alpha < 0:
        if np.all(target > 0):
            return True, "alpha < 0, target > 0"
        return False, "alpha < 0 requires a strictly positive target"
    if np.all(target < 2 * math.pi) and target.sum() > 2 * math.pi * chi:
        return True, "alpha = 0, target < 2*pi, sum(target) > 2*pi*chi"
    return False, "alpha = 0 requires target < 2*pi and sum(target) > 2*pi*chi"


def _entry_check(surf: MarkedSurface, alpha: float, target, tol: float, force: bool = False):
    """The target, a scalar or an (n,) array, as a new (n,) vector, once both
    solvers' input passes: ValueError for another shape or a ``tol`` that is
    not positive and finite, RegimeError unless ``regime_check`` passes."""
    n = surf.vertex_count
    t = np.full(n, float(target)) if np.ndim(target) == 0 else np.array(target, dtype=float)
    if t.shape != (n,):
        raise ValueError(f"target has shape {t.shape}, expected ({n},)")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not force:
        ok, reason = regime_check(alpha, t, euler_characteristic(surf))
        if not ok:
            raise RegimeError(reason)
    return t


class _CurvatureMap:
    """The curvature map at u after surgery, counting its calls.

    A call at u moves the state to u by ``advance_conformal`` and returns
    ``(K, angles, flips)``: the curvature and the (F, 3) corner angles that
    the surgery measured at u, and its number of flips.  The state must be
    Delaunay at ``m.current_u``, or u equal to it, and is left Delaunay at
    u.  Its attributes are the counters of the module docstring; a call that
    raises adds nothing to them.
    """

    def __init__(self, surf: MarkedSurface, m: PHMetric):
        self.surf, self.m = surf, m
        self.rhs_evals = self.entry_flips = self.path_flips = self.flip_rounds = 0
        self.max_flip_jump = 0.0

    def __call__(self, u: np.ndarray):
        events, jump, angles = advance_conformal(self.surf, self.m, u)
        if self.rhs_evals:
            self.path_flips += len(events)
        else:
            self.entry_flips = len(events)
        self.rhs_evals += 1
        self.flip_rounds += events[-1].round + 1 if events else 0
        self.max_flip_jump = max(self.max_flip_jump, jump)
        return angle_defect(self.surf, angles), angles, len(events)

    def copy_counters(self, result):
        """Copy onto ``result`` the attributes it shares with this map, the
        counters that are its fields; return it."""
        for name in vars(result).keys() & vars(self).keys():
            setattr(result, name, getattr(self, name))
        return result


def _rhs(surf: MarkedSurface, m: PHMetric, cfg: FlowConfig, target, u, K, angles):
    """The flow's right-hand side at u and F_alpha, ``(rhs, F_alpha)``, from
    the curvature K and corner angles measured at u; the state is at u.  The
    Calabi flow's is the alpha-Laplacian -(L f) / w^alpha of f = F_alpha - target."""
    F_a = K / np.exp(cfg.alpha * u)
    if cfg.kind == "yamabe":
        return target - F_a, F_a
    return -jacobian(surf, m, angles).apply(F_a - target) / np.exp(u) ** cfg.alpha, F_a


class _StepFailure(RuntimeError):
    """The step size fell below DT_MIN, or |u| passed U_ABORT."""


def run_flow(surf: MarkedSurface, m: PHMetric, cfg: FlowConfig) -> FlowRun:
    """Iterate the configured flow until convergence, max_steps or failure.

    ``_entry_check`` raises RegimeError outside the convergence regime before
    any step.  The entry, the curvature map's call at ``m.current_u``, flips
    the state Delaunay there and gives the first right-hand side; the first
    record's flips are its flips.  Each step is a trial of a ``_Method``:
    the Dormand-Prince 5(4) pair (``DP5_A``), six curvature maps, or the
    s-stage Runge-Kutta-Chebyshev method (``_rkc``), s maps.  Either way the
    last map is at the solution u1, and its right-hand side is the next
    step's first stage (first same as last).  A trial is accepted when its
    local error, the sup norm of dt (E @ k), is at most STEP_ATOL.  After
    each trial its error proposes the step size dt clip(0.9 (STEP_ATOL /
    err)^power, 0.2, 5), at most DT_MAX, and ``_next_trial`` picks the next
    trial's method and step size from that proposal and the stiffness rho
    = |k_n - k_{n-1}| / |u1 - y_{n-1}| (sup norms) of the last two stages:
    a DP5 trial sets rho, an RKC trial may only raise it.  Each record
    names the method of its step and counts the maps since the previous
    record.

    A trial that raises is rejected, the state restored in place to the
    snapshot taken at the accepted u, and dt halved.  A SurfaceError, a flip
    refused on entry among them, a step size below DT_MIN after a rejection
    and |u| above U_ABORT end the run with status ``"failed"`` and a reason,
    the state restored to the accepted u if a step began.  The run starts at
    ``m.current_u``; ``advance_conformal`` moves the state to another start
    first.
    """
    target = _entry_check(surf, cfg.alpha, cfg.target, cfg.tol_converge)
    run = FlowRun()
    u = m.current_u.copy()
    saved, mapped = None, 0
    curv = _CurvatureMap(surf, m)

    def rhs(v):
        """``(rhs, F_alpha, K, flips)`` at v."""
        K, angles, flips = curv(v)
        return (*_rhs(surf, m, cfg, target, v, K, angles), K, flips)

    def record(dt, flips, method):
        nonlocal mapped
        run.records.append(StepRecord(
            t=t, dt=dt, sup_err=float(np.max(np.abs(M))), min_M=float(M.min()),
            max_M=float(M.max()), flips=flips, energy=energy, method=method,
            maps=curv.rhs_evals - mapped,
        ))
        mapped = curv.rhs_evals

    try:
        ks = np.empty((max(len(DP5_A), RKC_MAX_STAGES + 1), u.size))
        ks[0], F_a, K, flips = rhs(u)
        M = F_a - target
        t, dt, energy, method, rho = 0.0, DT_INIT, 0.0, _DP5, 0.0
        record(0.0, flips, method.name)
        while True:
            if run.records[-1].sup_err <= cfg.tol_converge and cfg.max_steps > 0:
                run.status = "converged"
                break
            if run.steps >= cfg.max_steps:
                run.status = "max_steps"
                break
            saved = clone_state(surf, m)
            while True:
                taken, n = method, len(method.A) - 1
                try:
                    y = u
                    for i in range(1, n + 1):
                        y_last, y = y, u + dt * (taken.A[i, :i] @ ks[:i])
                        ks[i], F_a, K_new, flips = rhs(y)
                    err = dt * float(np.max(np.abs(taken.E @ ks[:n + 1])))
                    grow = min(5.0, max(0.2, 0.9 * (STEP_ATOL / err) ** taken.power)) if err else 5.0
                    # rho = k_gap / y_gap, from the last two stages; RKC's
                    # damping leaves little of the stiff modes in its stages,
                    # so they only raise the estimate of the last DP5 step
                    k_gap = float(np.max(np.abs(ks[n] - ks[n - 1])))
                    seen = k_gap / float(np.max(np.abs(y - y_last))) if k_gap else 0.0
                    rho = seen if taken is _DP5 else max(rho, seen)
                    step, (method, dt) = dt, _next_trial(taken, min(dt * grow, DT_MAX), rho)
                    rejection = f"local error {err:.3e} > STEP_ATOL {STEP_ATOL:.3e}"
                except (AdmissibilityError, FlipError, OverflowError) as exc:
                    # trial point left the admissible cone or requested a flip
                    # the combinatorics cannot honor; reject it and halve dt
                    _restore(surf, m, saved)
                    err, rejection, dt = math.inf, f"{type(exc).__name__}: {exc}", 0.5 * dt
                if err <= STEP_ATOL:
                    break
                run.rejected += 1
                if dt < DT_MIN:
                    raise _StepFailure(
                        f"dt underflow below {DT_MIN} at t={t}; last rejection: "
                        f"{rejection} (u={u.tolist()})"
                    )
            if np.max(np.abs(y)) > U_ABORT:
                raise _StepFailure(f"|u| exceeded {U_ABORT} at t={t}; target likely mis-posed")
            energy += energy_increment(K, K_new, u, y, target, cfg.alpha)
            t += step
            u, K, M, ks[0] = y, K_new, F_a - target, ks[n]
            record(dt, flips, taken.name)
    except (_StepFailure, SurfaceError) as exc:
        if saved is not None:
            _restore(surf, m, saved)
        run.status = "failed"
        run.reason = str(exc)
    run.final_u = u.copy()
    return curv.copy_counters(run)


@dataclass
class NewtonResult:
    state: ConformalState
    residuals: list
    iterations: int
    converged: bool
    max_flip_jump: float = 0.0
    # per Newton step: conjugate-gradient iterations of its linear solve,
    # the 2-norm its linear residual had to reach, and the accepted
    # line-search step length
    linsolve_iters: list = field(default_factory=list)
    linsolve_stop: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    # flips per iteration (iteration 0: on entry and at the initial u; then
    # those of the step's line search), and the curvature map's counters
    # (module docstring)
    flips: list = field(default_factory=list)
    entry_flips: int = 0
    flip_rounds: int = 0

    @property
    def path_flips(self) -> int:
        """The Ptolemy flips of all residual evaluations."""
        return sum(self.flips) - self.entry_flips


# the linear solve stops at ||r|| <= max(stop, PCG_RTOL * ||rhs||), or fails
# after PCG_MAX_ITER_PER_VERTEX * n iterations; newton_solve asks each step
# for stop = min(FORCING_MAX, |g|_inf) * |g|_inf, never below TOL_FRACTION * tol
PCG_RTOL = 1e-12
PCG_MAX_ITER_PER_VERTEX = 10
FORCING_MAX = 0.1
TOL_FRACTION = 0.1


def _newton_step(J: JacobianL, shift: np.ndarray, rhs: np.ndarray, stop: float):
    """Solve (L - diag(shift)) x = rhs matrix-free; returns (x, iterations).

    Positive definiteness is certified before the solve by strict diagonal
    dominance (``JacobianL.dominance_margin``), which holds on every Delaunay
    state inside the regime.  The solve is conjugate gradients (Hestenes and
    Stiefel) preconditioned by the diagonal, with each product by the matrix
    applied in O(E) from the stencil form, ``shift`` folded into its
    diagonal.  It stops once the residual's 2-norm is at most ``stop``,
    floored at PCG_RTOL * ||rhs||; a ``stop`` of 0 solves to that floor.
    """
    margin = J.dominance_margin(shift)
    worst = int(np.argmin(margin))
    if margin[worst] <= 0.0:
        raise NewtonError(
            "system matrix not certified positive definite: diagonal dominance "
            f"margin {margin[worst]:.3e} at vertex {worst}"
        )
    n = rhs.shape[0]
    diag = J.D - shift
    x, r = np.zeros(n), rhs.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    stop = max(stop, PCG_RTOL * math.sqrt(float(rhs @ rhs)))
    for it in range(PCG_MAX_ITER_PER_VERTEX * n):
        if math.sqrt(float(r @ r)) <= stop:
            return x, it
        Hp = J.apply(p, diag)
        pHp = float(p @ Hp)
        if pHp <= 0.0:
            raise NewtonError(f"system matrix not positive definite: p^T H p = {pHp:.3e}")
        step = rz / pHp
        x += step * p
        r -= step * Hp
        np.divide(r, diag, out=z)
        rz, rz_old = float(r @ z), rz
        p *= rz / rz_old
        p += z
    raise NewtonError(
        f"conjugate gradients stopped after {PCG_MAX_ITER_PER_VERTEX * n} iterations "
        f"at residual {math.sqrt(float(r @ r)):.3e} (target {stop:.3e})"
    )


def newton_solve(
    surf: MarkedSurface,
    m: PHMetric,
    alpha: float,
    target,
    tol: float = 1e-10,
    max_iter: int = 100,
    u0=None,
    force: bool = False,
) -> NewtonResult:
    """Damped Newton iteration on g(u) = F(u) - target * w^alpha.

    ``_entry_check`` raises RegimeError outside the convergence regime before
    iterating; ``force`` skips only that refusal.  Inside the regime
    alpha * target <= 0 componentwise, so the curvature energy is strictly
    convex and the system matrix H = L - alpha*diag(target*w^alpha) is
    strictly diagonally dominant with a positive diagonal.  Each step
    certifies that dominance in O(E), raising NewtonError where it fails,
    and solves H delta = -g by Jacobi-preconditioned conjugate gradients on
    the stencil form of L, the shift folded into its diagonal; no n x n
    matrix is formed.  L comes from the angles that the accepted residual
    evaluation measured at u.

    The solve is inexact (Dembo, Eisenstat and Steihaug, SIAM J. Numer.
    Anal. 1982): it stops once ||H delta + g||_2 <= min(FORCING_MAX,
    |g|_inf) * |g|_inf, floored at TOL_FRACTION * tol and at PCG_RTOL *
    ||g||_2.  The stop is taken against the sup-norm that ``tol`` tests:
    the step's linear error in that norm is below |g|_inf^2, the order of
    Newton's own quadratic term, so the iteration count is that of exact
    steps.  The ``tol`` floor spares the last step the accuracy that the
    ``tol`` test cannot see: a linear residual below TOL_FRACTION * tol
    leaves the next residual below ``tol`` up to Newton's quadratic term.
    A stop relative to ||g||_2, which grows like sqrt(n), costs extra
    iterations on large meshes.  As TOL_FRACTION * tol < |g|_inf <=
    ||g||_2 while iterating, every step makes at least one CG iteration.
    Convergence is still judged on the true residual g, and a residual that
    is not finite raises NewtonError.

    The entry, the curvature map's call at ``m.current_u``, flips the state
    Delaunay there, raising FlipError if a flip is refused, and gives the
    first residual; with ``u0`` a second call gives it at ``u0``.  The state
    is left at the returned u.  A line-search trial that raises is undone by
    ``advance_conformal``, which puts the state back as the trial found it.
    """
    target = _entry_check(surf, alpha, target, tol, force)
    curv, flips = _CurvatureMap(surf, m), [0]

    def residual(uv):
        """g at uv and the corner angles it was measured from; its flips
        count towards the current iteration."""
        K, angles, n_flips = curv(uv)
        flips[-1] += n_flips
        return K - target * np.exp(alpha * uv), angles

    for u in [m.current_u.copy()] + ([] if u0 is None else [np.array(u0, dtype=float)]):
        g, angles = residual(u)
    residuals = [float(np.max(np.abs(g)))]
    if not math.isfinite(residuals[0]):
        raise NewtonError(f"residual {residuals[0]} is not finite at the initial u")
    linsolve_iters, linsolve_stop, step_lengths = [], [], []
    it = 0
    while residuals[-1] > tol and it < max_iter:
        stop = max(min(FORCING_MAX, residuals[-1]) * residuals[-1], TOL_FRACTION * tol,
                   PCG_RTOL * math.sqrt(float(g @ g)))
        delta, cg_iters = _newton_step(
            jacobian(surf, m, angles), alpha * (target * np.exp(alpha * u)), -g, stop
        )
        linsolve_iters.append(cg_iters)
        linsolve_stop.append(stop)
        flips.append(0)
        lam = 1.0
        best = None
        while lam >= 2.0 ** -30:
            u_trial = u + lam * delta
            try:
                g_trial, angles_trial = residual(u_trial)
            except (AdmissibilityError, OverflowError, SurfaceError):
                lam *= 0.5
                continue
            if np.max(np.abs(g_trial)) < residuals[-1]:
                best = (u_trial, g_trial, angles_trial)
                break
            lam *= 0.5
        if best is None:
            raise NewtonError(
                f"line search failed at iteration {it}; u={u.tolist()}, "
                f"residual={residuals[-1]:.3e}"
            )
        u, g, angles = best
        step_lengths.append(lam)
        residuals.append(float(np.max(np.abs(g))))
        it += 1
    return curv.copy_counters(NewtonResult(
        state=ConformalState(u),
        residuals=residuals,
        iterations=it,
        converged=residuals[-1] <= tol,
        linsolve_iters=linsolve_iters,
        linsolve_stop=linsolve_stop,
        step_lengths=step_lengths,
        flips=flips,
    ))
