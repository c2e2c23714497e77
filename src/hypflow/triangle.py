"""Hyperbolic triangle kernel.

Angles, areas, vertex-scaled edge lengths and the analytic derivatives of
angles/area with respect to per-vertex conformal factors, for a single
hyperbolic triangle with vertices labelled (i, j, k).  All functions here are
pure; the mesh-level modules build on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TriLengths",
    "TriAngles",
    "tri_angles",
    "extended_angles",
    "tri_area",
    "scaled_length",
    "dangle_du_offdiag",
    "dangle_du_diag",
    "darea_du",
    "half_angle_identity_check",
    "angles_from_length_array",
    "admissible_mask",
    "InadmissibleTriangleError",
]

TAN_POLE_GUARD = 1e-12


class InadmissibleTriangleError(ValueError):
    """Raised when a strict triangle inequality fails where it is required."""


@dataclass(frozen=True)
class TriLengths:
    """Edge lengths of one hyperbolic triangle with vertices (i, j, k)."""

    l_ij: float
    l_ik: float
    l_jk: float

    def __post_init__(self):
        for l in (self.l_ij, self.l_ik, self.l_jk):
            if not (math.isfinite(l) and l > 0.0):
                raise ValueError(f"edge lengths must be positive and finite, got {self}")

    @property
    def admissible(self) -> bool:
        """Conjunction of the three strict triangle inequalities."""
        a, b, c = self.l_ij, self.l_ik, self.l_jk
        return a + b > c and a + c > b and b + c > a


@dataclass(frozen=True)
class TriAngles:
    """Inner angles; a_i is opposite l_jk, a_j opposite l_ik, a_k opposite l_ij."""

    a_i: float
    a_j: float
    a_k: float

    def total(self) -> float:
        return self.a_i + self.a_j + self.a_k


def _clamped_acos(x: float) -> float:
    # rounding near degeneracy can push the cosine slightly outside [-1, 1]
    return math.acos(min(1.0, max(-1.0, x)))


def tri_angles(l: TriLengths) -> TriAngles:
    """Inner angles via the hyperbolic cosine law; requires an admissible triangle."""
    if not l.admissible:
        raise InadmissibleTriangleError(f"triangle inequalities violated for {l}")
    ch_ij, ch_ik, ch_jk = math.cosh(l.l_ij), math.cosh(l.l_ik), math.cosh(l.l_jk)
    sh_ij, sh_ik, sh_jk = math.sinh(l.l_ij), math.sinh(l.l_ik), math.sinh(l.l_jk)
    a_i = _clamped_acos((ch_ij * ch_ik - ch_jk) / (sh_ij * sh_ik))
    a_j = _clamped_acos((ch_ij * ch_jk - ch_ik) / (sh_ij * sh_jk))
    a_k = _clamped_acos((ch_ik * ch_jk - ch_ij) / (sh_ik * sh_jk))
    return TriAngles(a_i, a_j, a_k)


def extended_angles(l: TriLengths) -> TriAngles:
    """Angles extended by constants across the admissibility boundary.

    For an inadmissible triple the angle opposite the longest edge is pi and
    the other two vanish.  When two edges tie for longest we assign pi to the
    angle at the first vertex in (i, j, k) order; this is a convention, both
    choices are limits of degenerating admissible triangles.
    """
    if l.admissible:
        return tri_angles(l)
    # opposite lengths in vertex order (i, j, k)
    opp = (l.l_jk, l.l_ik, l.l_ij)
    big = max(range(3), key=lambda c: (opp[c], -c))
    vals = [0.0, 0.0, 0.0]
    vals[big] = math.pi
    return TriAngles(*vals)


def tri_area(a: TriAngles) -> float:
    """Hyperbolic area as angle deficit pi - (a_i + a_j + a_k)."""
    return math.pi - a.total()


def scaled_length(d: float, u_a: float, u_b: float) -> float:
    """Vertex-scaled edge length: sinh(l/2) = sinh(d/2) * e^(u_a + u_b)."""
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"base length must be positive and finite, got {d}")
    s = u_a + u_b
    if not math.isfinite(s):
        raise ValueError("conformal factors must be finite")
    half = math.sinh(0.5 * d)
    if math.log(half) + s > 350.0:
        raise OverflowError(
            f"conformal factor out of representable range: d={d}, u_a+u_b={s}"
        )
    return 2.0 * math.asinh(half * math.exp(s))


def _dangle_pair(a_s: float, a_v: float, a_o: float, l_sv: float) -> float:
    """d(angle at s)/d(u_v) = sech^2(l_sv/2) * tan((a_s + a_v - a_o)/2)."""
    t = 0.5 * (a_s + a_v - a_o)
    if abs(a_s + a_v - a_o - math.pi) < TAN_POLE_GUARD:
        raise ValueError("tan pole in angle derivative; corrupted angles")
    return math.tan(t) / math.cosh(0.5 * l_sv) ** 2


def dangle_du_offdiag(l: TriLengths, a: TriAngles) -> float:
    """d a_i / d u_j.  Symmetric in i <-> j by construction."""
    if not l.admissible:
        raise InadmissibleTriangleError(f"triangle inequalities violated for {l}")
    return _dangle_pair(a.a_i, a.a_j, a.a_k, l.l_ij)


def dangle_du_diag(l: TriLengths) -> float:
    """d a_i / d u_i via the closed form; strictly negative on admissible input."""
    if not l.admissible:
        raise InadmissibleTriangleError(f"triangle inequalities violated for {l}")
    a = tri_angles(l)
    ch_ij, ch_ik, ch_jk = math.cosh(l.l_ij), math.cosh(l.l_ik), math.cosh(l.l_jk)
    # normalizer is the Euclidean-style area expression (1/2) sinh sinh sin
    area_factor = 0.5 * math.sinh(l.l_ik) * math.sinh(l.l_ij) * math.sin(a.a_i)
    if area_factor <= 0.0:
        raise InadmissibleTriangleError(f"degenerate triangle {l}")
    num = (
        ch_ik ** 2
        + ch_ij ** 2
        - 2.0 * ch_jk * ch_ik * ch_ij
        + (1.0 - ch_jk) * (ch_ik + ch_ij)
    )
    return num / (area_factor * (1.0 + ch_ik) * (1.0 + ch_ij))


def darea_du(l: TriLengths, a: TriAngles, at_vertex: str) -> float:
    """d Area / d u_v for v in {"i","j","k"}.

    Combination of the two off-diagonal angle derivatives weighted by
    cosh(edge) - 1 on the edges meeting v.
    """
    if not l.admissible:
        raise InadmissibleTriangleError(f"triangle inequalities violated for {l}")
    if at_vertex == "i":
        return _dangle_pair(a.a_j, a.a_i, a.a_k, l.l_ij) * (math.cosh(l.l_ij) - 1.0) + \
            _dangle_pair(a.a_k, a.a_i, a.a_j, l.l_ik) * (math.cosh(l.l_ik) - 1.0)
    if at_vertex == "j":
        return _dangle_pair(a.a_i, a.a_j, a.a_k, l.l_ij) * (math.cosh(l.l_ij) - 1.0) + \
            _dangle_pair(a.a_k, a.a_j, a.a_i, l.l_jk) * (math.cosh(l.l_jk) - 1.0)
    if at_vertex == "k":
        return _dangle_pair(a.a_i, a.a_k, a.a_j, l.l_ik) * (math.cosh(l.l_ik) - 1.0) + \
            _dangle_pair(a.a_j, a.a_k, a.a_i, l.l_jk) * (math.cosh(l.l_jk) - 1.0)
    raise ValueError(f"at_vertex must be 'i', 'j' or 'k', got {at_vertex!r}")


def half_angle_identity_check(l: TriLengths, a: TriAngles) -> float:
    """Residual of the half-angle identity relating angles and half-lengths.

    2 sin((a_i + a_j - a_k)/2) cosh(l_ij/2)
        = (sinh^2(l_jk/2) + sinh^2(l_ik/2) - sinh^2(l_ij/2))
          / (sinh(l_jk/2) sinh(l_ik/2)).

    Expected at rounding level for well-scaled admissible input; used as a
    numerical self-test.
    """
    sh_jk = math.sinh(0.5 * l.l_jk)
    sh_ik = math.sinh(0.5 * l.l_ik)
    sh_ij = math.sinh(0.5 * l.l_ij)
    lhs = 2.0 * math.sin(0.5 * (a.a_i + a.a_j - a.a_k)) * math.cosh(0.5 * l.l_ij)
    rhs = (sh_jk ** 2 + sh_ik ** 2 - sh_ij ** 2) / (sh_jk * sh_ik)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# vectorized helpers shared by the mesh-level modules
# ---------------------------------------------------------------------------

def admissible_mask(L: np.ndarray) -> np.ndarray:
    """Strict triangle inequality mask for an (..., 3) array of lengths."""
    return L.sum(axis=-1) - 2.0 * L.max(axis=-1) > 0.0


def angles_from_length_array(L: np.ndarray) -> np.ndarray:
    """Cosine-law angles for an (..., 3) length array.

    L[..., c] is the length opposite corner c; the returned array holds the
    inner angle at each corner.  Cosines are clamped to [-1, 1].  No
    admissibility check is performed here.
    """
    ch = np.cosh(L)
    sh = np.sinh(L)
    # the two other corners of each corner c: (c + 1) % 3 and (c + 2) % 3
    c1, c2 = ch[..., [1, 2, 0]], ch[..., [2, 0, 1]]
    s1, s2 = sh[..., [1, 2, 0]], sh[..., [2, 0, 1]]
    cos_a = np.clip((c1 * c2 - ch) / (s1 * s2), -1.0, 1.0)
    return np.arccos(cos_a)
