"""Independent references that the tests compare the library against.

Plain ``math`` formulas for a single triangle with vertices (i, j, k): the
cosine-law angles, their constant extension across the admissibility
boundary, the area, vertex-scaled edge lengths, the half-angle identity and
the quad diagonal a flip inserts.  The tests compare the library's
vectorised kernel in ``hypflow.triangle`` and the mesh-level code against
them.  ``advance_by_bisection`` is the wall search by plain bisection that
``hypflow.surface.advance_conformal`` is compared against.  None of it is
used by the library.
"""

import math
from dataclasses import dataclass

import numpy as np

from hypflow.surface import (
    TOL_DELAUNAY,
    AdmissibilityError,
    SurfaceError,
    apply_conformal,
    delaunay_weights,
    face_angles,
    make_delaunay,
)


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

    def row(self) -> list:
        """The lengths opposite corners (i, j, k), the row order of the
        library's (F, 3) length arrays."""
        return [self.l_jk, self.l_ik, self.l_ij]


def _clamped_acos(x: float) -> float:
    # rounding near degeneracy can push the cosine slightly outside [-1, 1]
    return math.acos(min(1.0, max(-1.0, x)))


def tri_angles(l: TriLengths) -> tuple:
    """Inner angles (a_i, a_j, a_k) by the hyperbolic cosine law; a_i is
    opposite l_jk.  Raises ValueError on an inadmissible triangle."""
    if not l.admissible:
        raise ValueError(f"triangle inequalities violated for {l}")
    ch_ij, ch_ik, ch_jk = math.cosh(l.l_ij), math.cosh(l.l_ik), math.cosh(l.l_jk)
    sh_ij, sh_ik, sh_jk = math.sinh(l.l_ij), math.sinh(l.l_ik), math.sinh(l.l_jk)
    return (
        _clamped_acos((ch_ij * ch_ik - ch_jk) / (sh_ij * sh_ik)),
        _clamped_acos((ch_ij * ch_jk - ch_ik) / (sh_ij * sh_jk)),
        _clamped_acos((ch_ik * ch_jk - ch_ij) / (sh_ik * sh_jk)),
    )


def extended_angles(l: TriLengths) -> tuple:
    """Angles extended by constants across the admissibility boundary.

    For an inadmissible triple the angle opposite the longest edge is pi and
    the other two vanish.  When two edges tie for longest we assign pi to the
    angle at the first vertex in (i, j, k) order; this is a convention, both
    choices are limits of degenerating admissible triangles.
    """
    if l.admissible:
        return tri_angles(l)
    opp = l.row()
    big = max(range(3), key=lambda c: (opp[c], -c))
    vals = [0.0, 0.0, 0.0]
    vals[big] = math.pi
    return tuple(vals)


def tri_area(a: tuple) -> float:
    """Hyperbolic area as angle deficit pi - (a_i + a_j + a_k)."""
    return math.pi - sum(a)


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


def half_angle_residual(l: TriLengths, a: tuple) -> float:
    """Residual of the half-angle identity relating angles and half-lengths.

    2 sin((a_i + a_j - a_k)/2) cosh(l_ij/2)
        = (sinh^2(l_jk/2) + sinh^2(l_ik/2) - sinh^2(l_ij/2))
          / (sinh(l_jk/2) sinh(l_ik/2)).

    Expected at rounding level for well-scaled admissible input.
    """
    a_i, a_j, a_k = a
    sh_jk = math.sinh(0.5 * l.l_jk)
    sh_ik = math.sinh(0.5 * l.l_ik)
    sh_ij = math.sinh(0.5 * l.l_ij)
    lhs = 2.0 * math.sin(0.5 * (a_i + a_j - a_k)) * math.cosh(0.5 * l.l_ij)
    rhs = (sh_jk ** 2 + sh_ik ** 2 - sh_ij ** 2) / (sh_jk * sh_ik)
    return abs(lhs - rhs)


def flip_diagonal_from_j(surf, m, e) -> float:
    """Length of the diagonal {k, l} that a flip of edge e = (i, j) inserts,
    measured from the end j: the cosine law in the triangle (k, j, l), with
    the angle at j summed over the two faces at e by ``tri_angles``.  The
    library measures from the end i, so the two agree only if the quad's
    geometry is consistent."""
    i, j = sorted(e)
    lengths = dict(zip(surf.edges, m.length))

    def length(a, b):
        return lengths[(min(a, b), max(a, b))]

    theta, far = 0.0, []
    for f, _ in surf.edge_faces[surf.edge_index[(i, j)]].tolist():
        (k,) = set(surf.faces[f]) - {i, j}
        _, a_j, _ = tri_angles(TriLengths(length(i, j), length(i, k), length(j, k)))
        theta += a_j
        far.append(length(j, k))
    d_a, d_b = far
    return math.acosh(
        math.cosh(d_a) * math.cosh(d_b) - math.sinh(d_a) * math.sinh(d_b) * math.cos(theta)
    )


def advance_by_bisection(surf, m, u):
    """``hypflow.surface.advance_conformal`` with its walls found by plain
    bisection: each wall costs about 50 whole-mesh probes, halving [lo, hi]
    until it is narrower than 1e-15 in s, then the state flips at hi by
    ``make_delaunay``.  Returns the flip events; on an error the state is left
    at lo and the error is raised."""
    u = np.asarray(u, dtype=float)
    events = []
    while True:
        u_from = m.current_u.copy()

        def move(s):
            apply_conformal(surf, m, (1.0 - s) * u_from + s * u)

        def good(s):
            try:
                move(s)
                angles = face_angles(surf, m)
            except (AdmissibilityError, OverflowError):
                return False
            return not delaunay_weights(surf, m, angles).min() < -TOL_DELAUNAY

        if good(1.0):
            return events
        lo, hi = 0.0, 1.0
        while hi - lo >= 1e-15:
            mid = 0.5 * (lo + hi)
            if good(mid):
                lo = mid
            else:
                hi = mid
        try:
            move(hi)
            events += make_delaunay(surf, m)
        except (SurfaceError, OverflowError):
            move(lo)
            raise
