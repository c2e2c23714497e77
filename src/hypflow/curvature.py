"""Curvature and derivative assembly on a surface + metric state.

Angle-defect curvature K, the Jacobian L = dK/du with its diagonal +
edge-weight decomposition, and trajectory line-integral energies; callers
divide by w^alpha, w = e^u, for the alpha-curvature and alpha-Laplacian.
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
    face_corner_lengths,
)
from .triangle import angle_derivatives

__all__ = [
    "ConformalState",
    "JacobianL",
    "curvature",
    "jacobian",
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


def _end_sums(ends: np.ndarray, at_i, at_j, n: int) -> np.ndarray:
    """Per-vertex sums of edge values, ``at_i`` scattered to the ``i`` ends
    and ``at_j`` to the ``j`` ends, ``ends`` listing all ``i`` ends in edge
    order and then all ``j`` ends.  Each vertex accumulates in that order, so
    a state with equal edge values stays bitwise symmetric."""
    return np.bincount(ends, np.concatenate((at_i, at_j)), minlength=n)


@dataclass
class JacobianL:
    """dK/du in edge form: L_ii = A_i + sum_j B_ij, L_ij = -B_ij for j ~ i.

    ``A`` is the per-vertex area-derivative diagonal, ``B`` the per-edge
    weights and ``ends`` the edges' endpoint indices, the ``i`` ends followed
    by the ``j`` ends.  No n x n array is formed.  The stencil form is built
    once per Jacobian: the diagonal ``D = A + sum_j B_ij``, ``cols`` the
    other end of each half-edge in ``ends`` and ``B2`` the weights listed
    twice, so ``apply`` is one gather and one scatter in O(E).  On a
    Delaunay state A_i > 0 and B_ij >= 0, so L is symmetric, strictly
    diagonally dominant and positive definite.
    """

    A: np.ndarray
    B: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        ne = self.B.shape[0]
        self.B2 = np.concatenate((self.B, self.B))
        self.cols = np.concatenate((self.ends[ne:], self.ends[:ne]))
        self.D = self.A + np.bincount(self.ends, self.B2, minlength=self.A.shape[0])

    def apply(self, f: np.ndarray, diag: np.ndarray | None = None) -> np.ndarray:
        """L f = D f - sum over the half-edges at each vertex of B times f at
        the other end; ``diag = D - shift`` in place of D applies
        L - diag(shift)."""
        d = self.D if diag is None else diag
        return d * f - np.bincount(self.ends, self.B2 * f[self.cols], minlength=self.A.shape[0])

    def dominance_margin(self, shift: np.ndarray) -> np.ndarray:
        """Row-wise diagonal dominance of L - diag(shift):
        A_i + sum_j (B_ij - |B_ij|) - shift_i.  By Gershgorin's theorem a
        positive margin at every vertex certifies positive definiteness."""
        neg = self.B - np.abs(self.B)
        return self.A - shift + _end_sums(self.ends, neg, neg, self.A.shape[0])


def curvature(surf: MarkedSurface, m: PHMetric) -> np.ndarray:
    """Angle defect K_i = 2*pi - sum of inner angles at vertex i."""
    return angle_defect(surf, face_angles(surf, m, strict=True))


def jacobian(surf: MarkedSurface, m: PHMetric, angles: np.ndarray) -> JacobianL:
    """L = dK/du at the current lengths, in edge form: O(E) arrays, no n x n
    matrix.  B_ij sums ``angle_derivatives`` over the two faces at the edge
    and A_i = sum_j B_ij (cosh l_ij - 1).  ``angles`` are the (F, 3) corner
    angles at the current lengths, as ``advance_conformal`` returns them."""
    W = angle_derivatives(face_corner_lengths(surf, m), angles).ravel()
    at = surf.edge_corners
    B = W[at[:, 0]] + W[at[:, 1]]

    ends = surf.ends.ravel()
    a = B * (np.cosh(m.length) - 1.0)
    return JacobianL(A=_end_sums(ends, a, a, surf.vertex_count), B=B, ends=ends)


def energy_increment(K_prev: np.ndarray, K_curr: np.ndarray, u_prev: np.ndarray,
                     u_curr: np.ndarray, target: np.ndarray, alpha: float) -> float:
    """Trapezoidal increment of the curvature energy line integral.

    Integrates sum_i (K_i - target_i * w_i^alpha) du_i between two states,
    K the angle-defect curvature at each; accumulated along a trajectory
    this realizes the convex energy whose gradient is that field, up to an
    additive constant.
    """
    g_prev = K_prev - target * np.exp(alpha * u_prev)
    g_curr = K_curr - target * np.exp(alpha * u_curr)
    return float(0.5 * np.dot(g_prev + g_curr, u_curr - u_prev))


def gauss_bonnet_residual(surf: MarkedSurface, m: PHMetric) -> float:
    """sum K_i - sum_faces Area(face) - 2*pi*chi; zero up to rounding."""
    angles = face_angles(surf, m, strict=False)
    K = angle_defect(surf, angles)
    area = (math.pi - angles.sum(axis=1)).sum()
    return float(K.sum() - area - 2.0 * math.pi * euler_characteristic(surf))
