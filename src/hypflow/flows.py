"""Curvature flows with surgery and a Newton solver for prescribed targets.

Time integration (adaptive RK4 with step doubling) of the alpha-Yamabe and
alpha-Calabi flows, Delaunay surgery after accepted steps, maximum-principle
monitors, and a damped Newton minimizer of the convex curvature energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import ConformalState, JacobianL, alpha_laplacian_apply, energy_increment, jacobian
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
    make_delaunay,
)

__all__ = [
    "FlowConfig",
    "StepRecord",
    "FlowRun",
    "FlowIntegrator",
    "NewtonResult",
    "MaxPrincipleReport",
    "run_flow",
    "newton_solve",
    "monitor_max_principle",
    "regime_check",
    "decay_slope",
    "RegimeError",
    "NewtonError",
]


class RegimeError(RuntimeError):
    """Target/alpha combination outside the convexity regime."""


class NewtonError(RuntimeError):
    pass


@dataclass
class FlowConfig:
    kind: str = "yamabe"
    alpha: float = 0.0
    target: object = 0.0            # scalar or per-vertex array
    dt_init: float = 0.1
    dt_min: float = 1e-9
    dt_max: float = 0.5
    tol_converge: float = 1e-10
    max_steps: int = 5000
    step_atol: float = 1e-8
    u_abort: float = 50.0

    def __post_init__(self):
        if self.kind not in ("yamabe", "calabi"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.tol_converge <= 0:
            raise ValueError("tol_converge must be positive")

    def target_vector(self, n: int) -> np.ndarray:
        t = np.asarray(self.target, dtype=float)
        if t.ndim == 0:
            return np.full(n, float(t))
        if t.shape != (n,):
            raise ValueError(f"target has shape {t.shape}, expected ({n},)")
        return t.copy()


@dataclass
class StepRecord:
    t: float
    dt: float
    sup_err: float
    min_M: float
    max_M: float
    flips: int
    energy: float


@dataclass
class FlowRun:
    kind: str
    alpha: float
    target: np.ndarray
    records: list = field(default_factory=list)
    status: str = "running"
    reason: str | None = None
    final_u: np.ndarray | None = None
    initial_F_alpha: np.ndarray | None = None
    initial_M: np.ndarray | None = None
    steps: int = 0
    total_flips: int = 0
    max_flip_jump: float = 0.0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def regime_check(alpha: float, target: np.ndarray, chi: int):
    """Whether (alpha, target, chi) satisfies one of the convergence regimes."""
    target = np.asarray(target, dtype=float)
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


def _F_alpha(surf: MarkedSurface, m: PHMetric, u: np.ndarray, alpha: float):
    """Operational curvature map: advance to u with surgery, then measure.

    Returns (F_alpha, K, flip events, sup-norm K jump across any flip).  The
    state must be Delaunay at ``m.current_u`` and is left Delaunay at u; K
    comes from the angles ``advance_conformal`` measured at u, with no angle
    pass of its own.  Flips happen at Delaunay walls, where they commute
    with vertex scaling, so the value depends on u alone and not on the path
    taken to reach it; the jump is a rounding-level continuity diagnostic.
    """
    flips, jump, angles = advance_conformal(surf, m, u)
    K = angle_defect(surf, angles)
    return K / np.exp(alpha * u), K, flips, jump


class FlowIntegrator:
    """Owns a (surface, metric) pair for the duration of one flow run.

    On construction the state is flipped Delaunay at ``m.current_u`` by
    ``make_delaunay``, the surgery's advance at a fixed u, then advanced to
    ``u0``; a flip refused on entry raises FlipError.  The first record's
    flips count both."""

    GROW_AFTER = 5
    GROW_FACTOR = 1.5

    def __init__(self, surf: MarkedSurface, m: PHMetric, cfg: FlowConfig, u0=None):
        self.surf = surf
        self.m = m
        self.cfg = cfg
        self.target = cfg.target_vector(surf.vertex_count)
        self.u = (
            m.current_u.copy() if u0 is None else np.asarray(u0, dtype=float).copy()
        )
        self.t = 0.0
        self.dt = cfg.dt_init
        self.energy = 0.0
        self._accept_streak = 0
        entry = make_delaunay(surf, m)
        self.max_flip_jump = max((ev.k_jump for ev in entry), default=0.0)
        self._k1, F_a, K, flips = self._eval(self.u)
        self.K = K
        self.M = F_a - self.target
        self.initial_F_alpha = F_a.copy()
        self.initial_M = self.M.copy()
        self.initial_flips = len(entry) + len(flips)

    def _eval(self, u: np.ndarray):
        """The flow's right-hand side at u with what it was computed from:
        ``(rhs, F_alpha, K, flip events)``; the state is left at u."""
        F_a, K, flips, jump = _F_alpha(self.surf, self.m, u, self.cfg.alpha)
        self.max_flip_jump = max(self.max_flip_jump, jump)
        if self.cfg.kind == "yamabe":
            return self.target - F_a, F_a, K, flips
        J = jacobian(self.surf, self.m)
        rhs = alpha_laplacian_apply(J, ConformalState(u), self.cfg.alpha, F_a - self.target)
        return rhs, F_a, K, flips

    def _rhs(self, u: np.ndarray) -> np.ndarray:
        return self._eval(u)[0]

    def _rk4(self, u: np.ndarray, dt: float, k1: np.ndarray | None = None) -> np.ndarray:
        if k1 is None:
            k1 = self._rhs(u)
        k2 = self._rhs(u + 0.5 * dt * k1)
        k3 = self._rhs(u + 0.5 * dt * k2)
        k4 = self._rhs(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def step(self) -> StepRecord:
        """One accepted RK4 step (with step-doubling error control) + surgery.

        The first stage is the right-hand side kept from the acceptance of u
        (first same as last).  A trial that raises is rejected and the state
        is restored in place to the snapshot taken at the accepted u."""
        cfg = self.cfg
        saved = clone_state(self.surf, self.m)
        k1 = self._k1
        while True:
            try:
                coarse = self._rk4(self.u, self.dt, k1=k1)
                half = self._rk4(self.u, 0.5 * self.dt, k1=k1)
                fine = self._rk4(half, 0.5 * self.dt)
                err = float(np.max(np.abs(coarse - fine))) / 15.0
                rejection = f"local error {err:.3e} > step_atol {cfg.step_atol:.3e}"
            except (AdmissibilityError, FlipError, OverflowError) as exc:
                # trial point left the admissible cone or requested a flip the
                # combinatorics cannot honor; reject the trial and shrink dt
                _restore(self.surf, self.m, saved)
                err, rejection = math.inf, f"{type(exc).__name__}: {exc}"
            if err <= cfg.step_atol:
                break
            self.dt *= 0.5
            self._accept_streak = 0
            if self.dt < cfg.dt_min:
                raise FlowStepFailure(
                    f"dt underflow below {cfg.dt_min} at t={self.t}; last rejection: "
                    f"{rejection} (u={self.u.tolist()})"
                )
        u_new = fine
        if np.max(np.abs(u_new)) > cfg.u_abort:
            raise FlowStepFailure(
                f"|u| exceeded {cfg.u_abort} at t={self.t}; target likely mis-posed"
            )
        self._k1, F_a, K_new, flips = self._eval(u_new)
        self.energy += energy_increment(
            self.K, K_new, self.u, u_new, self.target, cfg.alpha
        )
        self.t += self.dt
        self.u = u_new
        self.K = K_new
        self.M = F_a - self.target
        self._accept_streak += 1
        if self._accept_streak >= self.GROW_AFTER:
            self.dt = min(self.dt * self.GROW_FACTOR, cfg.dt_max)
            self._accept_streak = 0
        return self._record(self.dt, len(flips))

    def _record(self, dt: float, flips: int) -> StepRecord:
        """The record of the current state, reached with ``flips`` flips."""
        return StepRecord(
            t=self.t,
            dt=dt,
            sup_err=float(np.max(np.abs(self.M))),
            min_M=float(self.M.min()),
            max_M=float(self.M.max()),
            flips=flips,
            energy=self.energy,
        )


class FlowStepFailure(RuntimeError):
    pass


def run_flow(
    surf: MarkedSurface, m: PHMetric, cfg: FlowConfig, u0=None
) -> FlowRun:
    """Iterate the configured flow until convergence, max_steps or failure."""
    integ = FlowIntegrator(surf, m, cfg, u0=u0)
    run = FlowRun(
        kind=cfg.kind,
        alpha=cfg.alpha,
        target=integ.target.copy(),
        initial_F_alpha=integ.initial_F_alpha,
        initial_M=integ.initial_M,
    )
    run.records.append(integ._record(0.0, integ.initial_flips))
    run.total_flips = integ.initial_flips
    while True:
        sup = float(np.max(np.abs(integ.M)))
        if sup <= cfg.tol_converge and cfg.max_steps > 0:
            run.status = "converged"
            break
        if run.steps >= cfg.max_steps:
            run.status = "max_steps"
            break
        try:
            rec = integ.step()
        except (FlowStepFailure, SurfaceError) as exc:
            run.status = "failed"
            run.reason = str(exc)
            break
        run.records.append(rec)
        run.steps += 1
        run.total_flips += rec.flips
    run.final_u = integ.u.copy()
    run.max_flip_jump = integ.max_flip_jump
    return run


def decay_slope(run: FlowRun, tail: float = 0.5) -> float:
    """Least-squares slope of log sup-error vs t over the final part of a run."""
    pts = [(r.t, r.sup_err) for r in run.records if r.sup_err > 1e-300]
    if len(pts) < 3:
        raise ValueError("not enough nonzero error samples for a decay fit")
    t_end = pts[-1][0]
    t_start = pts[0][0]
    cut = t_start + (1.0 - tail) * (t_end - t_start)
    tail_pts = [(t, e) for t, e in pts if t >= cut]
    if len(tail_pts) < 3:
        tail_pts = pts[-3:]
    ts = np.array([t for t, _ in tail_pts])
    logs = np.log([e for _, e in tail_pts])
    return float(np.polyfit(ts, logs, 1)[0])


@dataclass
class MaxPrincipleReport:
    sign_hypothesis: str | None
    sign_preserved: bool | None
    envelope_applicable: bool
    envelope_ok: bool | None
    max_envelope_ratio: float | None


def monitor_max_principle(run: FlowRun, sign_tol: float = 1e-9, envelope_slack: float = 0.10) -> MaxPrincipleReport:
    """Check sign preservation of M = F_alpha - target along a Yamabe run.

    If the initial M is one-signed the sign must persist (up to ``sign_tol``).
    For alpha > 0 with a constant negative target and M(0) > 0 the decay
    envelope (target * max M(0) / max F_alpha(0)) * e^(alpha*target*t) must
    dominate max M(t) within ``envelope_slack``.
    """
    if run.initial_M is None or not run.records:
        raise ValueError("run carries no monitor data")
    m0 = run.initial_M
    if np.all(m0 <= 0):
        hypothesis = "nonpositive"
        preserved = all(r.max_M <= sign_tol for r in run.records)
    elif np.all(m0 >= 0):
        hypothesis = "nonnegative"
        preserved = all(r.min_M >= -sign_tol for r in run.records)
    else:
        hypothesis = None
        preserved = None

    tgt = run.target
    const_target = float(tgt[0]) if np.ptp(tgt) == 0 else None
    applicable = (
        run.kind == "yamabe"
        and run.alpha > 0
        and const_target is not None
        and const_target < 0
        and bool(np.all(m0 > 0))
    )
    env_ok = None
    worst = None
    if applicable:
        m0_max = float(m0.max())
        f0_max = float(run.initial_F_alpha.max())
        coef = const_target * m0_max / f0_max
        worst = 0.0
        for r in run.records:
            env = coef * math.exp(run.alpha * const_target * r.t)
            if env > 1e-300:
                worst = max(worst, r.max_M / env)
        env_ok = worst <= 1.0 + envelope_slack
    return MaxPrincipleReport(
        sign_hypothesis=hypothesis,
        sign_preserved=preserved,
        envelope_applicable=applicable,
        envelope_ok=env_ok,
        max_envelope_ratio=worst,
    )


@dataclass
class NewtonResult:
    state: ConformalState
    residuals: list
    iterations: int
    converged: bool
    max_flip_jump: float = 0.0
    # conjugate-gradient iterations of each Newton step's linear solve
    linsolve_iters: list = field(default_factory=list)


# the linear solve stops at ||r|| <= PCG_RTOL * ||rhs||, or fails after
# PCG_MAX_ITER_PER_VERTEX * n iterations
PCG_RTOL = 1e-12
PCG_MAX_ITER_PER_VERTEX = 10


def _newton_step(J: JacobianL, shift: np.ndarray, rhs: np.ndarray):
    """Solve (L - diag(shift)) x = rhs matrix-free; returns (x, iterations).

    Positive definiteness is certified before the solve by strict diagonal
    dominance (``JacobianL.dominance_margin``), which holds on every Delaunay
    state inside the regime.  The solve is conjugate gradients (Hestenes and
    Stiefel) preconditioned by the diagonal, with each product by the matrix
    applied in O(E) from the edge form.
    """
    margin = J.dominance_margin(shift)
    worst = int(np.argmin(margin))
    if margin[worst] <= 0.0:
        raise NewtonError(
            "system matrix not certified positive definite: diagonal dominance "
            f"margin {margin[worst]:.3e} at vertex {worst}"
        )
    n = rhs.shape[0]
    diag = J.diagonal() - shift
    x, r = np.zeros(n), rhs.copy()
    p = z = r / diag
    rz = float(r @ z)
    stop = PCG_RTOL * math.sqrt(float(rhs @ rhs))
    for it in range(PCG_MAX_ITER_PER_VERTEX * n):
        if math.sqrt(float(r @ r)) <= stop:
            return x, it
        Hp = J.apply(p) - shift * p
        pHp = float(p @ Hp)
        if pHp <= 0.0:
            raise NewtonError(f"system matrix not positive definite: p^T H p = {pHp:.3e}")
        step = rz / pHp
        x += step * p
        r -= step * Hp
        z = r / diag
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
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

    Raises RegimeError before iterating unless ``regime_check`` passes
    (``force`` skips the check).  Inside the regime alpha * target <= 0
    componentwise, so the curvature energy is strictly convex and the system
    matrix H = L - alpha*diag(target*w^alpha) is strictly diagonally dominant
    with a positive diagonal.  Each step certifies that dominance in O(E),
    raising NewtonError where it fails, and solves H delta = -g by
    Jacobi-preconditioned conjugate gradients on the edge form of L; no
    n x n matrix is formed.  On entry the state is flipped Delaunay at
    ``m.current_u`` by ``make_delaunay``, the surgery's advance at a fixed
    u, raising FlipError if a flip there is refused; it is left at the
    returned u.  A line-search trial that raises is undone by restoring the
    state at the current iterate.
    """
    n = surf.vertex_count
    target = np.asarray(target, dtype=float)
    if target.ndim == 0:
        target = np.full(n, float(target))
    if not force:
        ok, reason = regime_check(alpha, target, euler_characteristic(surf))
        if not ok:
            raise RegimeError(reason)
    u = m.current_u.copy() if u0 is None else np.asarray(u0, dtype=float).copy()
    max_jump = max((ev.k_jump for ev in make_delaunay(surf, m)), default=0.0)

    def residual(uv):
        nonlocal max_jump
        F_a, K, _, jump = _F_alpha(surf, m, uv, alpha)
        max_jump = max(max_jump, jump)
        return K - target * np.exp(alpha * uv)

    g = residual(u)
    residuals = [float(np.max(np.abs(g)))]
    linsolve_iters = []
    it = 0
    while residuals[-1] > tol and it < max_iter:
        delta, cg_iters = _newton_step(
            jacobian(surf, m), alpha * (target * np.exp(alpha * u)), -g
        )
        linsolve_iters.append(cg_iters)
        saved = clone_state(surf, m)
        lam = 1.0
        best = None
        while lam >= 2.0 ** -30:
            u_trial = u + lam * delta
            try:
                g_trial = residual(u_trial)
            except (AdmissibilityError, OverflowError, SurfaceError):
                _restore(surf, m, saved)
                lam *= 0.5
                continue
            if np.max(np.abs(g_trial)) < residuals[-1]:
                best = (u_trial, g_trial)
                break
            lam *= 0.5
        if best is None:
            raise NewtonError(
                f"line search failed at iteration {it}; u={u.tolist()}, "
                f"residual={residuals[-1]:.3e}"
            )
        u, g = best
        residuals.append(float(np.max(np.abs(g))))
        it += 1
    return NewtonResult(
        state=ConformalState(u),
        residuals=residuals,
        iterations=it,
        converged=residuals[-1] <= tol,
        max_flip_jump=max_jump,
        linsolve_iters=linsolve_iters,
    )
