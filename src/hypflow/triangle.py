"""Vectorised hyperbolic triangle kernel.

For an (F, 3) array of face lengths, entry [f, c] being the length of the
edge opposite corner c: the strict triangle inequality mask, the inner angles
by the hyperbolic cosine law, and the derivatives of those angles under
vertex scaling.  All functions here are pure; the mesh-level modules build
on them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "admissible_mask",
    "angles_from_length_array",
    "angle_derivatives",
]


def admissible_mask(L: np.ndarray) -> np.ndarray:
    """Strict triangle inequality mask for an (..., 3) array of lengths."""
    a, b, c = L[..., 0], L[..., 1], L[..., 2]
    return a + b + c - 2.0 * np.maximum(np.maximum(a, b), c) > 0.0


def angles_from_length_array(L: np.ndarray) -> np.ndarray:
    """Cosine-law angles for an (..., 3) length array.

    L[..., c] is the length opposite corner c; the returned array holds the
    inner angle at each corner.  Cosines are clamped to [-1, 1].  No
    admissibility check is made.  Columns are combined in place, not permuted.
    """
    ch, sh = np.cosh(L), np.sinh(L)
    cos, den = np.empty_like(ch), np.empty_like(sh)
    # the two other corners of corner c are (c + 1) % 3 and (c + 2) % 3
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(ch[..., a], ch[..., b], out=cos[..., c])
        np.multiply(sh[..., a], sh[..., b], out=den[..., c])
    cos -= ch
    cos /= den
    np.maximum(cos, -1.0, out=cos)
    return np.arccos(np.minimum(cos, 1.0, out=cos), out=cos)


def angle_derivatives(L: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Angle derivatives under vertex scaling, one entry per corner.

    For an (F, 3) length array ``L`` and its ``angles``, entry [f, c] is
    tan((theta_a + theta_b - theta_c)/2) / cosh^2(L_c/2), where a and b are
    the other two corners: the derivative d theta_a/d u_b = d theta_b/d u_a
    across the edge opposite c.  The rest of the calculus follows from these
    entries: d theta_a/d u_a = -sum_{c != a} W_c cosh L_c, and the area
    pi - sum theta has d Area/d u_a = sum_{c != a} W_c (cosh L_c - 1).
    Raises ValueError at a tan pole, which admissible angles never reach.
    """
    # (a + b) + c is bitwise sum(axis=-1), without its slow length-3 reduction
    total = angles[..., 0] + angles[..., 1] + angles[..., 2]
    t = 0.5 * (total[..., None] - 2.0 * angles)
    if np.any(np.abs(np.abs(t) - 0.5 * math.pi) < 5e-13):
        raise ValueError("tan pole in angle derivative; corrupted angles")
    return np.tan(t) / np.cosh(0.5 * L) ** 2
