"""Curvature flows with surgery and a Newton solver for prescribed targets.

Time integration of the alpha-Yamabe and alpha-Calabi flows by the
variable-order numerical differentiation formulas (NDF), an implicit
method whose corrector solves its linear systems with the same
Jacobi-preconditioned conjugate gradients (``_pcg``) as Newton's steps; and
a damped Newton iteration on the curvature equation whose line search
accepts any decrease of the sup-norm residual.  Both evaluate the curvature
map at u through one ``_CurvatureMap``: a call is ``advance_conformal``'s
surgery at u, whose result depends on u alone, so neither solver follows a
path between its points, and K is read from the angles that the surgery
measured at u.  A solver's first call, at ``m.current_u``, is its entry:
one advance that flips the state Delaunay by isometric rounds and measures
the first right-hand side or residual.

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

# the flows' step size starts at DT_INIT and stays at most DT_MAX; a step
# whose local error passes STEP_ATOL is rejected, and a step size below
# DT_MIN after a rejection ends the run, as does |u| above U_ABORT
STEP_ATOL = 1e-8
DT_INIT = 0.1
DT_MIN = 1e-9
DT_MAX = 0.5
U_ABORT = 50.0
# the numerical differentiation formulas of orders 1 to NDF_MAX_ORDER
# (Shampine and Reichelt, SIAM J. Sci. Comput. 18, 1997): order k is the
# backward differentiation formula modified by NDF_KAPPA[k];
# NDF_GAMMA[k] = sum_{j <= k} 1/j, NDF_ALPHA[k] = (1 - kappa_k) gamma_k, and
# NDF_ERROR[k] = kappa_k gamma_k + 1/(k + 1) is the constant of the local
# error estimate NDF_ERROR[k] * d, d being the accepted u minus the
# prediction
NDF_MAX_ORDER = 5
NDF_KAPPA = np.array([0.0, -0.1850, -1 / 9, -0.0823, -0.0415, 0.0])
NDF_GAMMA = np.concatenate(([0.0], np.cumsum(1 / np.arange(1, NDF_MAX_ORDER + 1))))
NDF_ALPHA = (1 - NDF_KAPPA) * NDF_GAMMA
NDF_ERROR = NDF_KAPPA * NDF_GAMMA + 1 / np.arange(1, NDF_MAX_ORDER + 2)
# a step size changes by a factor of at least STEP_SHRINK and at most
# STEP_GROW
STEP_SHRINK, STEP_GROW = 0.2, 10.0
# the corrector evaluates the curvature map at most CORRECTOR_MAX_ITER times
# a trial and accepts an iterate whose residual is at most CORRECTOR_TOL *
# STEP_ATOL (sup norm); an iteration that shrinks the residual by less than
# a factor of CORRECTOR_RATE marks its Jacobian stale.  Its linear solves
# stop at CORRECTOR_RTOL of their right-hand side's sup norm: conjugate
# gradients stopped early can amplify modes that the right-hand side hardly
# holds, and the prediction amplifies them again, so such modes grow from
# rounding until they are about CORRECTOR_RTOL of a step's correction
CORRECTOR_MAX_ITER = 4
CORRECTOR_TOL = 0.5
CORRECTOR_RTOL = 0.01
CORRECTOR_RATE = 0.1


def _rescale(D: np.ndarray, order: int, factor: float):
    """Change the difference array ``D`` of an order-``order`` formula in
    place from step size h to factor * h: the backward differences of the
    same interpolating polynomial on the new grid (Shampine and Reichelt,
    1997)."""
    j = np.arange(1, order + 1)

    def R(f):
        M = np.zeros((order + 1, order + 1))
        M[0] = 1.0
        M[1:, 1:] = (j[:, None] - 1 - f * j) / j[:, None]
        return np.cumprod(M, axis=0)

    D[:order + 1] = (R(factor) @ R(1.0)).T @ D[:order + 1]


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
    # the formula of the step that ended here, "ndf1" to "ndf5" by its order
    # (the entry's is "ndf1", that of the first step), and the curvature
    # maps since the previous record, rejected trials' among them (the
    # entry's is 1)
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
    # trials rejected: by their error estimate, a corrector that did not
    # converge or a raised curvature map
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


# a linear solve stops at |r|_inf <= max(stop, PCG_RTOL * |rhs|_inf), or
# fails after PCG_MAX_ITER_PER_VERTEX * n iterations; newton_solve asks each
# step for stop = min(FORCING_MAX, |g|_inf) * |g|_inf, never below
# TOL_FRACTION * tol
PCG_RTOL = 1e-12
PCG_MAX_ITER_PER_VERTEX = 10
FORCING_MAX = 0.1
TOL_FRACTION = 0.01


def _certify(J: JacobianL, shift: np.ndarray):
    """Raise NewtonError unless L - diag(shift) is strictly diagonally
    dominant with a positive diagonal (``JacobianL.dominance_margin``), which
    by Gershgorin's theorem certifies it positive definite; it holds on every
    Delaunay state inside the regime."""
    margin = J.dominance_margin(shift)
    worst = int(np.argmin(margin))
    if margin[worst] <= 0.0:
        raise NewtonError(
            "system matrix not certified positive definite: diagonal dominance "
            f"margin {margin[worst]:.3e} at vertex {worst}"
        )


def _pcg(apply, diag: np.ndarray, rhs: np.ndarray, stop: float):
    """Solve H x = rhs for a symmetric positive definite H given by its
    product ``apply`` and its diagonal ``diag``; returns (x, iterations).

    Conjugate gradients (Hestenes and Stiefel) preconditioned by the
    diagonal.  It stops once the residual's sup norm is at most ``stop``,
    floored at PCG_RTOL * |rhs|_inf; a ``stop`` of 0 solves to that floor.
    A direction with p^T H p <= 0 raises NewtonError, as does the iteration
    cap.
    """
    n = rhs.shape[0]
    x, r = np.zeros(n), rhs.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    size = float(np.abs(r).max())
    stop = max(stop, PCG_RTOL * size)
    for it in range(PCG_MAX_ITER_PER_VERTEX * n):
        if size <= stop:
            return x, it
        Hp = apply(p)
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
        size = float(np.abs(r).max())
    raise NewtonError(
        f"conjugate gradients stopped after {PCG_MAX_ITER_PER_VERTEX * n} iterations "
        f"at residual {size:.3e} (target {stop:.3e})"
    )


def _newton_step(J: JacobianL, shift: np.ndarray, rhs: np.ndarray, stop: float):
    """Solve (L - diag(shift)) x = rhs matrix-free; returns (x, iterations).

    The matrix is certified positive definite first (``_certify``), then
    solved by ``_pcg`` with each product applied in O(E) from the stencil
    form, ``shift`` folded into its diagonal.
    """
    _certify(J, shift)
    diag = J.D - shift
    return _pcg(functools.partial(J.apply, diag=diag), diag, rhs, stop)


class _Corrector:
    """The linear systems of the NDF corrector, (I - c J_F) dy = r, with the
    flow's Jacobian J_F frozen where this was built: L = ``jacobian`` from the
    angles measured there and w^alpha = e^(alpha u) at its u.

    Yamabe: J_F = -diag(w^-alpha) H with Newton's H = L - alpha diag(target
    w^alpha), so the system is (H + diag(w^alpha / c)) dy = w^alpha r / c,
    strictly diagonally dominant inside the regime; it is certified by
    ``_certify`` once per step-size coefficient c.  Calabi: J_F =
    -diag(w^-alpha) L diag(w^-alpha) L, the alpha terms dropped, so the
    system is (diag(w^alpha) + c L diag(w^-alpha) L) dy = w^alpha r,
    symmetric positive definite by construction, with ``_pcg``'s p^T H p > 0
    as its guard.
    """

    def __init__(self, surf: MarkedSurface, m: PHMetric, cfg: FlowConfig, target, angles):
        self.J = jacobian(surf, m, angles)
        self.wa = np.exp(cfg.alpha * m.current_u)
        self.shift = cfg.alpha * target * self.wa if cfg.kind == "yamabe" else None
        self.c = None

    def solve(self, c: float, r: np.ndarray) -> np.ndarray:
        """dy with (I - c J_F) dy = r, to CORRECTOR_RTOL."""
        J, wa = self.J, self.wa
        if c != self.c:
            self.c = c
            if self.shift is not None:
                self.scale = wa / c
                shift = self.shift - self.scale
                _certify(J, shift)
                self.diag = J.D - shift
                self.apply = functools.partial(J.apply, diag=self.diag)
            else:
                self.scale = wa
                # (L diag(w^-alpha) L)_ii = D_i^2 / w_i^alpha + sum over the
                # half-edges at i of B^2 / w^alpha at their other end, exact
                # where no two edges join the same vertices; the
                # preconditioner needs only a positive diagonal
                LWL = J.D**2 / wa + np.bincount(J.ends, J.B2**2 / wa[J.cols], minlength=wa.size)
                self.diag = wa + c * LWL
                self.apply = lambda p: wa * p + c * J.apply(J.apply(p) / wa)
        b = self.scale * r
        return _pcg(self.apply, self.diag, b, CORRECTOR_RTOL * float(np.abs(b).max()))[0]


class _StepFailure(RuntimeError):
    """The step size fell below DT_MIN, or |u| passed U_ABORT."""


def run_flow(surf: MarkedSurface, m: PHMetric, cfg: FlowConfig) -> FlowRun:
    """Iterate the configured flow until convergence, max_steps or failure.

    ``_entry_check`` raises RegimeError outside the convergence regime before
    any step.  The entry, the curvature map's call at ``m.current_u``, flips
    the state Delaunay there and gives the first right-hand side; the first
    record's flips are its flips.

    The flow is stepped by the numerical differentiation formulas (NDF) of
    orders k = 1 to NDF_MAX_ORDER on the backward differences ``D`` of the
    solution's interpolating polynomial, with a quasi-constant step size h
    (Shampine and Reichelt, 1997); the first step is of order 1 and size
    DT_INIT.  A trial predicts y0 = sum(D[:k + 1]) and corrects it by
    simplified Newton on c F(y) - psi - (y - y0) = 0, c = h / NDF_ALPHA[k]:
    each corrector iteration evaluates the curvature map at its iterate, and
    from the second on accepts that iterate once the residual is at most
    CORRECTOR_TOL * STEP_ATOL, else solves ``_Corrector``'s linear system for
    the next.  So a step costs at least two maps, and its record, energy
    increment and convergence test, and the state it leaves, all read the
    map at the accepted u.  The Jacobian is frozen: it is built again from
    the last map's angles after a step whose maps flipped or whose last
    corrector iteration shrank the residual by less than CORRECTOR_RATE, and
    when a corrector fails.

    A step passes when its local error, NDF_ERROR[k] |d|_inf with d the
    accepted u minus y0, is at most STEP_ATOL.  A trial is rejected once its
    correction so far shows that it cannot pass; h then shrinks by the
    error's ratio to STEP_ATOL to the power 1/(k + 1), by STEP_SHRINK at
    most.  A corrector that fails to converge otherwise is retried with a
    Jacobian built where it stopped, and then at half the step size.  After
    k + 1 equal steps the order moves by at most one, to that whose error
    estimate allows the longest next step, and h changes by at most
    STEP_GROW, to at most DT_MAX.  Each record names the formula of its step
    and counts the maps since the previous record.

    A trial that raises is rejected, the state restored in place to the
    snapshot taken at the accepted u, and h halved.  A SurfaceError, a flip
    refused on entry among them, a step size below DT_MIN after a rejection,
    |u| above U_ABORT and a NewtonError from a corrector's linear solve end
    the run with status ``"failed"`` and a reason, the state restored to the
    accepted u if a step began.  The run starts at ``m.current_u``;
    ``advance_conformal`` moves the state to another start first.
    """
    target = _entry_check(surf, cfg.alpha, cfg.target, cfg.tol_converge)
    run = FlowRun()
    u = m.current_u.copy()
    saved, mapped = None, 0
    curv = _CurvatureMap(surf, m)

    def rhs(v):
        """``(rhs, F_alpha, K, angles, flips)`` at v."""
        K, angles, flips = curv(v)
        return (*_rhs(surf, m, cfg, target, v, K, angles), K, angles, flips)

    def record(dt, flips, order):
        nonlocal mapped
        low, high = float(M.min()), float(M.max())
        run.records.append(StepRecord(
            t=t, dt=dt, sup_err=max(-low, high), min_M=low, max_M=high, flips=flips,
            energy=energy, method=f"ndf{order}", maps=curv.rhs_evals - mapped,
        ))
        mapped = curv.rhs_evals

    try:
        f, F_a, K, angles, flips = rhs(u)
        M = F_a - target
        t, h, energy, order, equal_steps = 0.0, min(DT_INIT, DT_MAX), 0.0, 1, 0
        record(0.0, flips, order)
        D = np.zeros((NDF_MAX_ORDER + 3, u.size))
        D[0], D[1] = u, h * f
        corrector = None
        while True:
            if run.records[-1].sup_err <= cfg.tol_converge and cfg.max_steps > 0:
                run.status = "converged"
                break
            if run.steps >= cfg.max_steps:
                run.status = "max_steps"
                break
            saved = clone_state(surf, m)
            fresh = False
            while True:
                if corrector is None:
                    corrector, fresh = _Corrector(surf, m, cfg, target, angles), True
                c = h / NDF_ALPHA[order]
                psi = NDF_GAMMA[1:order + 1] @ D[1:order + 1] / NDF_ALPHA[order]
                y = D[:order + 1].sum(axis=0)
                d, d_norm, res, flips, converged = 0.0, 0.0, math.inf, 0, False
                try:
                    for it in range(CORRECTOR_MAX_ITER):
                        f, F_a, K_new, angles, n_flips = rhs(y)
                        flips += n_flips
                        r = c * f - psi - d
                        res, res_old = float(np.abs(r).max()), res
                        if it:
                            converged = res <= CORRECTOR_TOL * STEP_ATOL
                            # the iterate is within about res of the
                            # corrector's solution, so a correction this far
                            # past STEP_ATOL fails the error test however
                            # the iteration ends
                            if converged or NDF_ERROR[order] * (d_norm - res) > STEP_ATOL:
                                break
                        if not res < res_old or it + 1 == CORRECTOR_MAX_ITER:
                            break
                        dy = corrector.solve(c, r)
                        y, d = y + dy, d + dy
                        d_norm = float(np.abs(d).max())
                except (AdmissibilityError, FlipError, OverflowError) as exc:
                    # an iterate left the admissible cone or requested a flip
                    # the combinatorics cannot honor; reject it and halve h
                    _restore(surf, m, saved)
                    factor, rejection = 0.5, f"{type(exc).__name__}: {exc}"
                else:
                    err = NDF_ERROR[order] * d_norm
                    # a step size proposed after a slow corrector is cut
                    safety = 0.9 * (2 * CORRECTOR_MAX_ITER + 1) / (2 * CORRECTOR_MAX_ITER + it + 1)
                    if converged and err <= STEP_ATOL:
                        break
                    if err > STEP_ATOL:
                        factor = max(STEP_SHRINK, safety * (STEP_ATOL / err) ** (1 / (order + 1)))
                        rejection = f"local error {err:.3e} > STEP_ATOL {STEP_ATOL:.3e}"
                    else:
                        factor = 0.5 if fresh else 1.0
                        corrector = corrector if fresh else None
                        rejection = f"corrector residual {res:.3e} > {CORRECTOR_TOL * STEP_ATOL:.3e}"
                run.rejected += 1
                if factor != 1.0:
                    h *= factor
                    _rescale(D, order, factor)
                    equal_steps = 0
                    if h < DT_MIN:
                        raise _StepFailure(
                            f"dt underflow below {DT_MIN} at t={t}; last rejection: "
                            f"{rejection} (u={u.tolist()})"
                        )
            if np.abs(y).max() > U_ABORT:
                raise _StepFailure(f"|u| exceeded {U_ABORT} at t={t}; target likely mis-posed")
            energy += energy_increment(K, K_new, u, y, target, cfg.alpha)
            t += h
            u, K, M = y, K_new, F_a - target
            if flips or res > CORRECTOR_RATE * res_old:
                corrector = None
            # the new point's differences: d is its difference of order k + 1
            D[order + 2] = d - D[order + 1]
            D[order + 1] = d
            for i in reversed(range(order + 1)):
                D[i] += D[i + 1]
            step_order, equal_steps = order, equal_steps + 1
            if equal_steps > order:
                errors = (
                    NDF_ERROR[order - 1] * float(np.abs(D[order]).max()) if order > 1 else math.inf,
                    err,
                    NDF_ERROR[order + 1] * float(np.abs(D[order + 2]).max()) if order < NDF_MAX_ORDER else math.inf,
                )
                factors = [(STEP_ATOL / e) ** (1 / (order + j)) if e else math.inf for j, e in enumerate(errors)]
                best = int(np.argmax(factors))
                order += best - 1
                factor = min(STEP_GROW, safety * factors[best], DT_MAX / h)
                h *= factor
                _rescale(D, order, factor)
                equal_steps = 0
            record(h, flips, step_order)
    except (_StepFailure, SurfaceError, NewtonError) as exc:
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
    # the sup norm its linear residual had to reach, and the accepted
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
    Anal. 1982): it stops once |H delta + g|_inf <= min(FORCING_MAX,
    |g|_inf) * |g|_inf, floored at TOL_FRACTION * tol and at PCG_RTOL *
    |g|_inf.  Both the stop and the residual are measured in the sup norm
    that ``tol`` tests: the step's linear error in that norm is below
    |g|_inf^2, the order of Newton's own quadratic term, so the iteration
    count is that of exact steps, while a 2-norm residual, which grows like
    sqrt(n), would cost extra iterations on large meshes.  The ``tol``
    floor spares the last step the accuracy that the ``tol`` test cannot
    see: a linear residual below TOL_FRACTION * tol leaves the next residual
    near TOL_FRACTION * tol, up to Newton's quadratic term, so two Newton
    paths to the same solution agree to about that.  As TOL_FRACTION * tol
    < |g|_inf while iterating, every step makes at least one CG iteration.
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
                   PCG_RTOL * residuals[-1])
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
