"""Closed triangulated marked surfaces with piecewise hyperbolic metrics.

Combinatorics (edges, adjacency, Euler characteristic), the Delaunay edge
predicate, edge flips with hyperbolic diagonal-length propagation and full
Delaunay re-triangulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .triangle import admissible_mask, angles_from_length_array

__all__ = [
    "SurfaceError",
    "AdmissibilityError",
    "FlipError",
    "MarkedSurface",
    "PHMetric",
    "FlipEvent",
    "ValidationReport",
    "validate_combinatorics",
    "validate",
    "euler_characteristic",
    "apply_conformal",
    "face_corner_lengths",
    "face_angles",
    "delaunay_weights",
    "flip_edge",
    "advance_conformal",
    "make_delaunay",
    "clone_state",
    "TOL_DELAUNAY",
]

# weights in [-TOL_DELAUNAY, 0) count as Delaunay, avoiding flip thrashing at
# co-circular configurations (the Delaunay condition itself is non-strict)
TOL_DELAUNAY = 1e-12


class SurfaceError(RuntimeError):
    pass


class AdmissibilityError(SurfaceError):
    """A face violates the strict triangle inequalities."""


class FlipError(SurfaceError):
    """A requested edge flip is refused; the state is left unmodified."""


Edge = tuple


def _edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def validate_combinatorics(vertex_count: int, faces) -> list:
    """Diagnostics for raw face lists; empty list means valid closed surface."""
    errors = []
    directed = {}
    undirected = {}
    for fi, f in enumerate(faces):
        if len(f) != 3:
            errors.append(f"face {fi} does not have 3 vertices: {tuple(f)}")
            continue
        a, b, c = f
        if len({a, b, c}) != 3:
            errors.append(f"face {fi} repeats a vertex: {tuple(f)}")
            continue
        for v in f:
            if not (0 <= v < vertex_count):
                errors.append(f"face {fi} references vertex {v} out of range")
        for s, t in ((a, b), (b, c), (c, a)):
            if (s, t) in directed:
                errors.append(
                    f"directed edge ({s},{t}) repeated (faces {directed[(s, t)]}, {fi}):"
                    " inconsistent orientation or non-manifold edge"
                )
            directed[(s, t)] = fi
            undirected.setdefault(_edge(s, t), []).append(fi)
    for e, fs in undirected.items():
        if len(fs) == 1:
            errors.append(f"boundary edge {e} (only face {fs[0]})")
        elif len(fs) > 2:
            errors.append(f"non-manifold edge {e} shared by faces {fs}")
    return errors


class MarkedSurface:
    """Closed oriented triangulated surface over vertices 0..N-1.

    Faces are oriented vertex triples.  ``edges`` lists the undirected edges
    as sorted vertex pairs and ``edge_index`` maps each pair to its position;
    ``edge_faces[e]`` holds the two (face, corner) pairs at edge e, the corner
    being the one opposite the edge, and ``FE[f, c]`` is the index of the edge
    opposite corner c of face f.  Edges start out in sorted order.  A flip
    rewrites the two faces and five edges it touches in place: vertex, face
    and edge indices are stable across flips, the new diagonal taking the
    flipped edge's slot, so after a flip ``edges`` is no longer sorted.
    """

    def __init__(self, vertex_count: int, faces):
        self.vertex_count = int(vertex_count)
        self.faces = [tuple(int(v) for v in f) for f in faces]
        errors = validate_combinatorics(self.vertex_count, self.faces)
        if errors:
            raise SurfaceError("; ".join(errors))
        incid = {}
        for fi, (a, b, c) in enumerate(self.faces):
            incid.setdefault(_edge(b, c), []).append((fi, 0))
            incid.setdefault(_edge(a, c), []).append((fi, 1))
            incid.setdefault(_edge(a, b), []).append((fi, 2))
        self.edges = sorted(incid)
        self.edge_index = {e: idx for idx, e in enumerate(self.edges)}
        self.face_array = np.array(self.faces, dtype=np.int64)
        ne = len(self.edges)
        self.edge_faces = np.array([incid[e] for e in self.edges], dtype=np.int64).reshape(ne, 2, 2)
        self.FE = np.empty((len(self.faces), 3), dtype=np.int64)
        self.FE[self.edge_faces[..., 0], self.edge_faces[..., 1]] = np.arange(ne)[:, None]
        ends = np.array(self.edges, dtype=np.int64).reshape(ne, 2)
        self._edge_i, self._edge_j = ends[:, 0], ends[:, 1]

    def copy(self) -> "MarkedSurface":
        s = object.__new__(MarkedSurface)
        s.vertex_count = self.vertex_count
        s.faces = list(self.faces)
        s.edges = list(self.edges)
        s.edge_index = dict(self.edge_index)
        for name in ("face_array", "edge_faces", "FE", "_edge_i", "_edge_j"):
            setattr(s, name, getattr(self, name).copy())
        return s

    def edge_endpoints(self):
        return self._edge_i, self._edge_j


class PHMetric:
    """Edge lengths of the current triangulation and their scaling invariant.

    ``length`` and ``lam`` are float arrays aligned with ``surf.edges``; the
    constructor takes a ``{edge: length}`` mapping at ``current_u = 0``.
    Vertex scaling, sinh(l_ij/2) = e^(u_i + u_j) sinh(L_ij/2), keeps
    ``lam[e] = log sinh(l_e/2) - u_i - u_j`` fixed for every edge, so the
    lengths at any u follow from ``lam`` alone.  A flip changes ``lam`` only
    at the new diagonal, which keeps cumulative conformal factors (u(0) = 0)
    well defined across surgery.
    """

    def __init__(self, surf: MarkedSurface, length: dict):
        missing = [e for e in surf.edges if e not in length]
        if missing:
            raise SurfaceError(f"missing edge lengths: {missing[:5]}")
        self.length = np.array([float(length[e]) for e in surf.edges])
        bad = np.flatnonzero(~((self.length > 0.0) & np.isfinite(self.length)))
        if bad.size:
            idx = int(bad[0])
            raise SurfaceError(f"edge {surf.edges[idx]} has non-positive length {self.length[idx]}")
        self.lam = np.log(np.sinh(0.5 * self.length))
        self.current_u = np.zeros(surf.vertex_count)

    def copy(self) -> "PHMetric":
        m = object.__new__(PHMetric)
        m.length = self.length.copy()
        m.lam = self.lam.copy()
        m.current_u = self.current_u.copy()
        return m


@dataclass
class FlipEvent:
    old_edge: Edge
    new_edge: Edge
    pre_weight: float
    # sup-norm change of the curvature across the flip; rounding level for a
    # geometric flip
    k_jump: float


@dataclass
class ValidationReport:
    ok: bool
    chi: int
    n_vertices: int
    n_edges: int
    n_faces: int
    min_slack: float
    errors: list = field(default_factory=list)


def euler_characteristic(surf: MarkedSurface) -> int:
    return surf.vertex_count - len(surf.edges) + len(surf.faces)


def clone_state(surf: MarkedSurface, m: PHMetric):
    """Independent copy of a surface/metric pair.

    Surfaces and metrics mutate together under flips, so they must be cloned
    together; a metric copy alone would go stale after surgery.  The copy
    keeps the edge order, to which the length arrays are aligned.
    """
    return surf.copy(), m.copy()


def face_corner_lengths(surf: MarkedSurface, m: PHMetric) -> np.ndarray:
    """(F, 3) lengths; entry [f, c] is the length of the edge opposite corner c."""
    return m.length[surf.FE]


def face_angles(surf: MarkedSurface, m: PHMetric, strict: bool = True) -> np.ndarray:
    """(F, 3) inner angles at each corner of each face.

    With ``strict`` the first inadmissible face raises AdmissibilityError;
    otherwise inadmissible rows get the constant extension of the angles
    across the admissibility boundary: pi at the corner opposite the longest
    edge, 0 at the other two.  Tied longest edges are admissible, so a tie
    can only come from rounding; it goes to the first corner.
    """
    L = face_corner_lengths(surf, m)
    ok = admissible_mask(L)
    angles = angles_from_length_array(L)
    if bool(ok.all()):
        return angles
    if strict:
        bad = int(np.flatnonzero(~ok)[0])
        raise AdmissibilityError(
            f"face {bad} {surf.faces[bad]} is inadmissible with opposite lengths {L[bad]}"
        )
    rows = np.flatnonzero(~ok)
    angles[rows] = 0.0
    angles[rows, L[rows].argmax(axis=1)] = math.pi
    return angles


def angle_defect(surf: MarkedSurface, angles: np.ndarray) -> np.ndarray:
    """K_i = 2*pi - sum of the corner ``angles`` at vertex i."""
    total = np.zeros(surf.vertex_count)
    np.add.at(total, surf.face_array.ravel(), angles.ravel())
    return 2.0 * math.pi - total


def validate(surf: MarkedSurface, m: PHMetric) -> ValidationReport:
    """Closed-manifold, orientation and admissibility report for a state."""
    errors = validate_combinatorics(surf.vertex_count, surf.faces)
    chi = euler_characteristic(surf)
    if chi % 2 != 0 or chi > 2:
        errors.append(f"Euler characteristic {chi} is not an even integer <= 2")
    L = face_corner_lengths(surf, m)
    slack = L.sum(axis=1) - 2.0 * L.max(axis=1)
    for fi in np.flatnonzero(slack <= 0.0):
        errors.append(f"inadmissible face {int(fi)} {surf.faces[int(fi)]}")
    return ValidationReport(
        ok=not errors,
        chi=chi,
        n_vertices=surf.vertex_count,
        n_edges=len(surf.edges),
        n_faces=len(surf.faces),
        min_slack=float(slack.min()),
        errors=errors,
    )


def apply_conformal(surf: MarkedSurface, m: PHMetric, u: np.ndarray) -> None:
    """Set the lengths to those of conformal factors u: l = 2 asinh(e^(lam + u_i + u_j))."""
    u = np.asarray(u, dtype=float)
    if u.shape != (surf.vertex_count,):
        raise ValueError(f"u has shape {u.shape}, expected ({surf.vertex_count},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("conformal factors must be finite")
    i_idx, j_idx = surf.edge_endpoints()
    m.length = _scaled_lengths(m.lam, u[i_idx], u[j_idx])
    m.current_u = u.copy()


def _scaled_lengths(lam: np.ndarray, u_i: np.ndarray, u_j: np.ndarray) -> np.ndarray:
    """Lengths 2 asinh(e^(lam + u_i + u_j)) of edges with invariants ``lam``
    and end factors ``u_i``, ``u_j``; OverflowError out of range."""
    x = lam + u_i + u_j
    if x.max() > 350.0:
        raise OverflowError("conformal factor out of representable range")
    return 2.0 * np.arcsinh(np.exp(x))


def delaunay_weights(surf: MarkedSurface, m: PHMetric, angles: np.ndarray | None = None) -> np.ndarray:
    """Per-edge Delaunay weights: four near angles minus the two opposite ones.

    An edge satisfies the Delaunay condition iff its weight is >= 0.
    """
    if angles is None:
        angles = face_angles(surf, m)
    return _weights(angles, surf.edge_faces)


def _weights(angles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Delaunay weights of the edges whose two (face, corner) pairs are
    ``pairs`` (n, 2, 2), the faces being rows of ``angles``."""
    asum = angles.sum(axis=1)
    f1, c1, f2, c2 = pairs.reshape(-1, 4).T
    return asum[f1] - 2.0 * angles[f1, c1] + asum[f2] - 2.0 * angles[f2, c2]


def _quad_around(surf: MarkedSurface, e: Edge):
    """The quad around edge e: vertices (i, j, k, l), faces [fa, fb] and the
    indices of its edges [ij, ik, jk, il, jl].

    fa contains the directed edge (i, j) with opposite vertex k;
    fb contains (j, i) with opposite vertex l.
    """
    i, j = _edge(*e)
    ij = surf.edge_index[(i, j)]
    (fa, ca), (fb, cb) = surf.edge_faces[ij].tolist()
    if surf.faces[fa][(ca + 1) % 3] != i:
        fa, ca, fb, cb = fb, cb, fa, ca
    ra, rb = surf.FE[fa].tolist(), surf.FE[fb].tolist()
    edges = [ij, ra[(ca + 2) % 3], ra[(ca + 1) % 3], rb[(cb + 1) % 3], rb[(cb + 2) % 3]]
    return (i, j, surf.faces[fa][ca], surf.faces[fb][cb]), [fa, fb], edges


def _corner_sums(surf: MarkedSurface, m: PHMetric, faces: list, verts) -> np.ndarray:
    """Sums of the corner angles at each of ``verts`` over ``faces``."""
    angles = angles_from_length_array(m.length[surf.FE[faces]])
    at = surf.face_array[faces]
    return np.array([angles[at == v].sum() for v in verts])


def _diagonal(surf: MarkedSurface, m: PHMetric, e: Edge):
    """Length of the quad diagonal {k, l} that a flip of e would insert,
    by the cosine law in the triangle (k, i, l) with angle at i the sum of
    i's corners in the quad.

    Returns ``(length, quad)`` with ``quad`` the vertices, faces and edges
    from ``_quad_around`` followed by the angle sums at (i, j, k, l) over the
    quad's two faces.  Raises AdmissibilityError if either face is
    inadmissible.
    """
    verts, faces, edges = _quad_around(surf, e)
    L = m.length[surf.FE[faces]]
    if not admissible_mask(L).all():
        raise AdmissibilityError(f"a face at edge {e} is inadmissible with opposite lengths {L.tolist()}")
    sums = _corner_sums(surf, m, faces, verts)
    _, d_ik, _, d_il, _ = m.length[edges].tolist()
    x = math.cosh(d_ik) * math.cosh(d_il) - math.sinh(d_ik) * math.sinh(d_il) * math.cos(sums[0])
    if x <= 1.0:
        raise FlipError(f"flip of edge {e} produces degenerate triangle")
    return math.acosh(x), (verts, faces, edges, sums)


def flip_edge(surf: MarkedSurface, m: PHMetric, e: Edge) -> FlipEvent:
    """Replace the two faces at e by the two faces of the other diagonal.

    The flip is an isometry of the piecewise hyperbolic metric: the new
    diagonal length is computed inside the glued quadrilateral, and ``lam``
    changes only at the new diagonal, set from its length at ``m.current_u``.
    The two faces keep their indices and the new diagonal takes e's slot in
    ``surf.edges``, ``m.length`` and ``m.lam``.  Only the quad is measured:
    ``pre_weight`` and ``k_jump`` come from the angle sums at its vertices
    i, j, k, l over its two faces before and after the flip, the only angle
    sums a flip changes.  Refused (no mutation) with FlipError if the result
    would be a multi-edge or a degenerate triangle, and with
    AdmissibilityError if a face of the quad is inadmissible.
    """
    e = _edge(*e)
    if e not in surf.edge_index:
        raise FlipError(f"no such edge {e}")
    d_kl, ((i, j, k, l), (fa, fb), (ij, ik, jk, il, jl), before) = _diagonal(surf, m, e)
    if k == l:
        raise FlipError(f"flip of edge {e} would create a self-loop at vertex {k}")
    kl = _edge(k, l)
    if kl in surf.edge_index:
        raise FlipError(f"flip of edge {e} would create a multi-edge {kl}")
    for a, b in ((ik, il), (jk, jl)):
        tri = (m.length[a], m.length[b], d_kl)
        if sum(tri) - 2.0 * max(tri) <= 0.0:
            raise FlipError(f"flip of edge {e} produces degenerate triangle")

    # fa becomes (k, i, l) and fb becomes (l, j, k); FE rows list the edges
    # opposite corners 0, 1, 2, and kl sits at corner 1 of both
    surf.faces[fa], surf.faces[fb] = (k, i, l), (l, j, k)
    surf.face_array[[fa, fb]] = surf.faces[fa], surf.faces[fb]
    surf.FE[[fa, fb]] = (il, ij, ik), (jk, ij, jl)
    del surf.edge_index[e]
    surf.edge_index[kl] = ij
    surf.edges[ij] = kl
    surf._edge_i[ij], surf._edge_j[ij] = kl
    surf.edge_faces[ij] = ((fa, 1), (fb, 1))
    for q, f, c in ((il, fa, 0), (ik, fa, 2), (jk, fb, 0), (jl, fb, 2)):
        pairs = surf.edge_faces[q]
        pairs[0 if pairs[0, 0] in (fa, fb) else 1] = (f, c)
    m.length[ij] = d_kl
    m.lam[ij] = math.log(math.sinh(0.5 * d_kl)) - m.current_u[k] - m.current_u[l]
    after = _corner_sums(surf, m, [fa, fb], (i, j, k, l))
    return FlipEvent(
        old_edge=e, new_edge=kl,
        # e's Delaunay weight: the four angles at i and j minus those at k and l
        pre_weight=float(before[0] + before[1] - before[2] - before[3]),
        k_jump=float(np.max(np.abs(after - before))),
    )


def advance_conformal(surf: MarkedSurface, m: PHMetric, u: np.ndarray):
    """Move the state to conformal factors ``u`` along a straight segment,
    flipping with ``make_delaunay`` at the walls where a Delaunay weight
    vanishes.

    The state must be Delaunay at ``m.current_u``: ``make_delaunay`` makes it
    so, and every call leaves it so at its endpoint.  Segment points are
    ``(1 - s) * u_from + s * u``, so the state ends at ``u`` exactly.

    Vertex scaling and geometric flips commute only at co-circular
    configurations, so flipping at the walls (bracketed to within 1e-15 in s
    by ``_bracket_wall``, a regula falsi on the weights of every edge at
    once) makes the final metric a function of ``u`` alone, independent of
    the path taken.  Flipping after overshooting a wall would instead leave a
    residue of the path in the lengths.  A segment that crosses no wall is
    measured once, at ``u``.

    Returns ``(events, max_jump, angles)`` where ``max_jump`` is the largest
    ``FlipEvent.k_jump`` (a rounding-level isometry-continuity diagnostic)
    and ``angles`` are the (F, 3) corner angles at ``u``.

    Raises FlipError if a wall cannot be crossed by flips, AdmissibilityError
    if the segment leaves the admissible cone (a degenerating face rather
    than a wall) and OverflowError if the lengths leave the representable
    range.  On any of these the state is left Delaunay at the last segment
    point before the obstruction.
    """
    u = np.asarray(u, dtype=float)
    cap = 100 * len(surf.edges)
    events = []
    while True:
        if len(events) > cap:
            raise SurfaceError(f"advance_conformal exceeded {cap} flips")
        u_from = m.current_u.copy()

        def at(s):
            return (1.0 - s) * u_from + s * u

        angles, w = _probe(surf, m, at(1.0))
        if not _past_wall(w):
            return events, max((ev.k_jump for ev in events), default=0.0), angles
        lo, hi = _bracket_wall(surf, m, at, _probe(surf, m, at(0.0))[1], w)
        try:
            apply_conformal(surf, m, at(hi))
            events += make_delaunay(surf, m)
        except (SurfaceError, OverflowError):
            apply_conformal(surf, m, at(lo))
            raise


def _probe(surf: MarkedSurface, m: PHMetric, u: np.ndarray):
    """Move the state to ``u`` and measure it: ``(angles, weights)``, or
    ``(None, None)`` outside the admissible cone or the representable range."""
    try:
        apply_conformal(surf, m, u)
        angles = face_angles(surf, m)
    except (AdmissibilityError, OverflowError):
        return None, None
    return angles, delaunay_weights(surf, m, angles)


def _past_wall(w) -> bool:
    """Whether Delaunay weights ``w`` (None where there are none) are past a
    wall.  NaN weights, from lengths so long that the cosine law overflows,
    are not."""
    return w is None or bool(w.min() < -TOL_DELAUNAY)


def _bracket_wall(surf: MarkedSurface, m: PHMetric, at, w_lo: np.ndarray, w_hi):
    """Bracket the first wall on the segment ``at(s)``, 0 <= s <= 1.

    ``w_lo`` are the Delaunay weights at s = 0, where the state is Delaunay,
    and ``w_hi`` those at s = 1, where it is not (None where there are none).
    Returns ``(lo, hi)`` with ``hi - lo < 1e-15``, the state whole-mesh
    Delaunay and admissible at ``lo`` and not at ``hi``; the state is left
    at a probed point.

    Without weights at hi the bracket is bisected on the whole mesh.  With
    them, the edges below the tolerance at hi are the candidates, and
    ``_secant`` closes in on their first crossing measuring only their
    faces.  One whole-mesh probe then confirms lo; if another edge or face
    failed first, that probe becomes hi and the search goes on.
    """
    lo, hi = 0.0, 1.0
    g_lo = w_lo + TOL_DELAUNAY
    g_hi = None if w_hi is None else w_hi + TOL_DELAUNAY
    while True:
        if g_hi is None:
            if hi - lo < 1e-15:
                return lo, hi
            mid = 0.5 * (lo + hi)
            w = _probe(surf, m, at(mid))[1]
            if _past_wall(w):
                hi, g_hi = mid, None if w is None else w + TOL_DELAUNAY
            else:
                lo, g_lo = mid, w + TOL_DELAUNAY
            continue
        edges = np.flatnonzero(g_hi < 0.0)
        s, hi = _secant(surf, m, at, edges, lo, hi, g_lo[edges], g_hi[edges])
        if s == lo:
            return lo, hi
        w = _probe(surf, m, at(s))[1]
        if not _past_wall(w):
            return s, hi
        hi, g_hi = s, None if w is None else w + TOL_DELAUNAY


def _secant(surf: MarkedSurface, m: PHMetric, at, edges: np.ndarray, lo: float, hi: float,
            g_lo: np.ndarray, g_hi: np.ndarray):
    """Shrink ``[lo, hi]`` below 1e-15 around the first zero of the weights
    plus TOL_DELAUNAY of ``edges``, given as ``g_lo`` and ``g_hi`` at the
    ends, measuring only the faces at those edges.  Returns ``(lo, hi)``.

    Each step probes the earliest per-edge regula falsi estimate of a zero.
    The Illinois rule halves the values at an end kept twice running, so the
    bracket shrinks from both sides.  A probe where one of the faces is
    inadmissible or a length overflows counts as past the wall, without
    values, and the next step bisects.
    """
    # the two faces of edges[k] are measured as rows 2k and 2k + 1
    pairs = surf.edge_faces[edges]
    fe = surf.FE[pairs[..., 0].flatten()]
    pairs[..., 0] = np.arange(fe.shape[0]).reshape(-1, 2)
    i_idx, j_idx = surf.edge_endpoints()
    vi, vj, lam = i_idx[fe], j_idx[fe], m.lam[fe]
    kept = 0  # 1 after a step that kept lo, -1 after one that kept hi
    while hi - lo >= 1e-15:
        s = 0.5 * (lo + hi)
        if g_hi is not None:
            past = g_hi < 0.0
            a, b = g_lo[past], g_hi[past]
            t = lo + (hi - lo) * float(np.min(a / (a - b)))
            if lo < t < hi:
                s = t
        us = at(s)
        try:
            L = _scaled_lengths(lam, us[vi], us[vj])
            ok = bool(admissible_mask(L).all())
        except OverflowError:
            ok = False
        w = _weights(angles_from_length_array(L), pairs) if ok else None
        if _past_wall(w):
            hi, g_hi = s, None if w is None else w + TOL_DELAUNAY
            if kept == 1:
                g_lo = 0.5 * g_lo
            kept = 1
        else:
            lo, g_lo = s, w + TOL_DELAUNAY
            if kept == -1 and g_hi is not None:
                g_hi = 0.5 * g_hi
            kept = -1
    return lo, hi


def make_delaunay(surf: MarkedSurface, m: PHMetric) -> list:
    """The one flip loop: flip non-Delaunay edges (most negative weight
    first) until none remain.

    This leaves the state Delaunay at ``m.current_u``, as
    ``advance_conformal`` requires of its starting state and does at each
    wall it crosses.  The angles are measured once on entry; after a flip
    only its quad is re-measured (``_remeasure_flip``).
    Raises FlipError if no non-Delaunay edge is flippable.
    """
    cap = 100 * len(surf.edges)
    events = []
    angles = face_angles(surf, m)
    w = delaunay_weights(surf, m, angles)
    while True:
        order = np.argsort(w, kind="stable")
        candidates = order[w[order] < -TOL_DELAUNAY]
        if not candidates.size:
            return events
        if len(events) >= cap:
            raise SurfaceError(
                f"make_delaunay exceeded {cap} flips; remaining min weight {w.min():.3e}"
            )
        for idx in candidates:
            try:
                events.append(flip_edge(surf, m, surf.edges[idx]))
                break
            except FlipError:
                continue
        else:
            raise FlipError(
                f"no non-Delaunay edge is flippable; min weight {w.min():.3e}"
            )
        _remeasure_flip(surf, m, angles, w, idx)


def _remeasure_flip(surf: MarkedSurface, m: PHMetric, angles: np.ndarray, w: np.ndarray, idx: int):
    """After a flip into edge slot ``idx``, re-measure in place the angles of
    its two faces and the weights of the five edges they bound, the only
    angles and weights the flip changes."""
    faces = surf.edge_faces[idx, :, 0]
    angles[faces] = angles_from_length_array(m.length[surf.FE[faces]])
    quad = surf.FE[faces].ravel()
    w[quad] = _weights(angles, surf.edge_faces[quad])
