"""Curvature and derivative assembly on a surface + metric state.

Angle-defect curvature K, alpha-curvature K_i / w_i^alpha, the Jacobian
L = dK/du with its diagonal + edge-weight decomposition, the discrete
alpha-Laplace operator and trajectory line-integral energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import (
    MarkedSurface,
    PHMetric,
    angle_defect,
    euler_characteristic,
    face_angles,
)

__all__ = [
    "ConformalState",
    "JacobianL",
    "curvature",
    "extended_curvature",
    "alpha_curvature",
    "jacobian",
    "alpha_laplacian_apply",
    "energy_increment",
    "gauss_bonnet_residual",
]


@dataclass
class ConformalState:
    """Cumulative per-vertex conformal factors relative to the initial metric."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if not np.all(np.isfinite(self.u)):
            raise ValueError("conformal factors must be finite")

    @property
    def w(self) -> np.ndarray:
        return np.exp(self.u)


@dataclass
class JacobianL:
    """dK/du assembled as L_ii = A_i + sum_j B_ij, L_ij = -B_ij for j ~ i.

    ``A`` is the per-vertex area-derivative diagonal, ``B`` the per-edge
    weights of the edges with endpoint indices ``i`` and ``j``.  On a
    Delaunay state A_i > 0 and B_ij >= 0, so ``matrix`` is symmetric
    positive definite.
    """

    A: np.ndarray
    B: np.ndarray
    i: np.ndarray
    j: np.ndarray
    matrix: np.ndarray


def curvature(surf: MarkedSurface, m: PHMetric) -> np.ndarray:
    """Angle defect K_i = 2*pi - sum of inner angles at vertex i."""
    return angle_defect(surf, face_angles(surf, m, strict=True))


def extended_curvature(surf: MarkedSurface, m: PHMetric) -> np.ndarray:
    """Angle defect with constant-extended angles; defined for any lengths."""
    return angle_defect(surf, face_angles(surf, m, strict=False))


def alpha_curvature(K: np.ndarray, state: ConformalState, alpha: float) -> np.ndarray:
    """R_alpha = K / w^alpha with w = e^u; alpha = 0 recovers K."""
    return np.asarray(K, dtype=float) / state.w ** alpha


def jacobian(surf: MarkedSurface, m: PHMetric) -> JacobianL:
    angles = face_angles(surf, m, strict=True)
    asum = angles.sum(axis=1)
    f1, c1, f2, c2 = surf.edge_faces.reshape(-1, 4).T
    t1 = 0.5 * (asum[f1] - 2.0 * angles[f1, c1])
    t2 = 0.5 * (asum[f2] - 2.0 * angles[f2, c2])
    if np.any(np.abs(np.abs(t1) - 0.5 * math.pi) < 5e-13) or np.any(
        np.abs(np.abs(t2) - 0.5 * math.pi) < 5e-13
    ):
        raise ValueError("tan pole in edge-weight assembly; corrupted angles")
    B = (np.tan(t1) + np.tan(t2)) / np.cosh(0.5 * m.length) ** 2

    i_idx, j_idx = surf.edge_endpoints()
    coshm1 = np.cosh(m.length) - 1.0
    A = np.zeros(surf.vertex_count)
    np.add.at(A, i_idx, B * coshm1)
    np.add.at(A, j_idx, B * coshm1)

    n = surf.vertex_count
    L = np.zeros((n, n))
    L[i_idx, j_idx] = -B
    L[j_idx, i_idx] = -B
    diag = A.copy()
    np.add.at(diag, i_idx, B)
    np.add.at(diag, j_idx, B)
    L[np.arange(n), np.arange(n)] = diag
    return JacobianL(A=A, B=B, i=i_idx.copy(), j=j_idx.copy(), matrix=L)


def alpha_laplacian_apply(
    Lmat: JacobianL, state: ConformalState, alpha: float, f: np.ndarray
) -> np.ndarray:
    """(Delta_alpha f)_i = sum_j B_ij/w_i^a (f_j - f_i) - A_i/w_i^a f_i."""
    f = np.asarray(f, dtype=float)
    n = Lmat.A.shape[0]
    if f.shape != (n,):
        raise ValueError(f"f has shape {f.shape}, expected ({n},)")
    out = -Lmat.A * f
    i_idx, j_idx = Lmat.i, Lmat.j
    np.add.at(out, i_idx, Lmat.B * (f[j_idx] - f[i_idx]))
    np.add.at(out, j_idx, Lmat.B * (f[i_idx] - f[j_idx]))
    return out / state.w ** alpha


def energy_increment(
    F_prev: np.ndarray,
    F_curr: np.ndarray,
    u_prev: np.ndarray,
    u_curr: np.ndarray,
    target: np.ndarray,
    alpha: float,
) -> float:
    """Trapezoidal increment of the curvature energy line integral.

    Integrates sum_i (F_i - target_i * w_i^alpha) du_i between two states;
    accumulated along a trajectory this realizes the convex energy whose
    gradient is the curvature field, up to an additive constant.
    """
    g_prev = np.asarray(F_prev, dtype=float) - np.asarray(target, dtype=float) * np.exp(
        alpha * np.asarray(u_prev, dtype=float)
    )
    g_curr = np.asarray(F_curr, dtype=float) - np.asarray(target, dtype=float) * np.exp(
        alpha * np.asarray(u_curr, dtype=float)
    )
    du = np.asarray(u_curr, dtype=float) - np.asarray(u_prev, dtype=float)
    return float(0.5 * np.dot(g_prev + g_curr, du))


def gauss_bonnet_residual(surf: MarkedSurface, m: PHMetric) -> float:
    """sum K_i - sum_faces Area(face) - 2*pi*chi; zero up to rounding."""
    angles = face_angles(surf, m, strict=False)
    K = angle_defect(surf, angles)
    area = (math.pi - angles.sum(axis=1)).sum()
    return float(K.sum() - area - 2.0 * math.pi * euler_characteristic(surf))
