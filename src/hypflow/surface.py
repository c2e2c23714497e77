"""Closed triangulated marked surfaces with piecewise hyperbolic metrics.

Combinatorics (edges, adjacency, Euler characteristic), the Delaunay edge
predicate, edge flips with hyperbolic diagonal-length propagation and full
Delaunay re-triangulation.
"""

from __future__ import annotations

import heapq
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

# largest lam + u_i + u_j admitted: the cosine law's cosh(l_a) cosh(l_b),
# about 4 e^(2 x_a + 2 x_b), overflows once x_a + x_b passes about 354
MAX_SCALED_X = 175.0
# longest length admitted: its lam is MAX_SCALED_X at u = 0, where solves start
MAX_LENGTH = 2.0 * math.asinh(math.exp(MAX_SCALED_X))


class SurfaceError(RuntimeError):
    pass


class AdmissibilityError(SurfaceError):
    """A face violates the strict triangle inequalities."""


class FlipError(SurfaceError):
    """A requested edge flip is refused; the state is left unmodified."""


def _pair_keys(lo: np.ndarray, hi: np.ndarray, vertex_count: int) -> np.ndarray:
    """Keys ordered as the pairs (lo, hi): lo N + hi, widened past 0..N-1."""
    base = lo.min(initial=0)
    return (lo - base) * (hi.max(initial=vertex_count - 1) + 1 - base) + (hi - base)


def _sort_half_edges(vertex_count: int, faces):
    """``(face_array, pairs, order, errors)``: ``order`` the half-edges (3 f + c
    runs opposite corner c of face f) of the faces without a repeated vertex,
    stably sorted by vertex pair so that each edge's two come together,
    ``pairs`` their (lo, hi) ends, and ``errors`` empty for a closed oriented
    surface: each pair twice, once each way; each vertex's corners one cycle;
    the faces one connected component."""
    try:
        F = np.array(faces, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        return None, None, None, [f"faces are not vertex triples: {exc}"]
    if F.ndim != 2 or F.shape[1:] != (3,) or not F.size:
        return F, None, None, [f"faces are not vertex triples: shape {F.shape}"]
    if vertex_count > F.size:
        # a closed surface has every vertex on a corner: refused before any O(N) array
        return F, None, None, [f"{vertex_count} vertices for {F.size} face corners"]
    rep = (F[:, 0] == F[:, 1]) | (F[:, 1] == F[:, 2]) | (F[:, 2] == F[:, 0])
    errors = [f"face {fi} repeats a vertex: {tuple(F[fi].tolist())}" for fi in np.flatnonzero(rep).tolist()]
    errors += [f"face {fi} references vertex {F[fi, c]} out of range"
               for fi, c in np.argwhere(((F < 0) | (F >= vertex_count)) & ~rep[:, None]).tolist()]
    he = np.flatnonzero(np.repeat(~rep, 3))
    s, t = F[:, [1, 2, 0]].ravel()[he], F[:, [2, 0, 1]].ravel()[he]
    pairs = np.stack((np.minimum(s, t), np.maximum(s, t)))
    key = _pair_keys(*pairs, vertex_count)
    o = np.argsort(key, kind="stable")
    order, pairs, key = he[o], pairs[:, o], key[o]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(first, append=key.size)
    n_fwd = np.add.reduceat((s < t)[o], first, dtype=np.int64) if first.size else first
    # a pair on more than two faces always has two of them the same way
    for kind, bad in (("boundary", count == 1), ("non-manifold", count > 2),
                      ("repeated directed", (count > 1) & ((count != 2) | (n_fwd != 1)))):
        errors += [f"{kind} edge {tuple(pairs[:, k].tolist())} on faces {(order[k:k + c] // 3).tolist()}"
                   for k, c in zip(first[bad].tolist(), count[bad].tolist())]
    if errors:
        return F, pairs, order, errors
    # corner 3 f + c leaves its vertex along half-edge R[3 f + c]; R of that
    # half-edge's twin is the vertex's corner in the next face around it
    twin = np.empty_like(order)
    twin[order] = order.reshape(-1, 2)[:, ::-1].ravel()
    corners = np.arange(order.size)
    R = corners.reshape(-1, 3)[:, [2, 0, 1]].ravel()
    step, label = R[twin[R]], corners
    # pointer doubling: each label becomes the least corner of its cycle
    for _ in range(int(np.bincount(F.ravel()).max()).bit_length()):
        label, step = np.minimum(label, label[step]), step[step]
    cycles = np.bincount(F.ravel()[label == corners], minlength=vertex_count)
    bad = np.flatnonzero(cycles != 1)
    if bad.size:
        errors.append(f"vertex {bad[0]} has {cycles[bad[0]]} link cycles, not 1 ({bad.size} such vertices)")
        return F, pairs, order, errors
    # with every link one cycle, the surface's components are its faces'
    # components across the twins: hook each face's label to its least
    # neighbour's, then pointer-jump; labels only fall, and stop once each
    # component carries its least face (``across`` is (3, F) with contiguous
    # rows, which keeps the gather and the minimum over its rows fast)
    across, label = np.ascontiguousarray(twin.reshape(-1, 3).T) // 3, np.arange(F.shape[0])
    while not np.array_equal(hooked := np.minimum(label, label[across].min(axis=0)), label):
        label = hooked
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    roots = np.flatnonzero(label == np.arange(label.size))
    if roots.size > 1:
        errors.append(f"surface has {roots.size} connected components, not 1 (faces {roots.tolist()} in different ones)")
    return F, pairs, order, errors


def validate_combinatorics(vertex_count: int, faces) -> list:
    """Diagnostics for (F, 3) integer faces; empty means a valid surface."""
    return _sort_half_edges(int(vertex_count), faces)[3]


class MarkedSurface:
    """Closed oriented triangulated surface over vertices 0..N-1, built from
    an (F, 3) integer array-like of oriented faces (``validate_combinatorics``).

    The state is four int64 arrays over faces 0..F-1 and edge slots 0..E-1:
    ``face_array`` (F, 3) the oriented faces, ``ends`` (2, E) each slot's
    vertex pair, smaller end first, ``edge_faces[e]`` the two (face, corner)
    pairs at slot e, the corner being the one opposite the edge, and
    ``FE[f, c]`` the slot of the edge opposite corner c of face f.  Slots
    start in sorted vertex-pair order.  A flip rewrites its two faces and
    five edges in place, the new diagonal taking the flipped edge's slot.
    ``faces``, ``edges`` and ``edge_index`` are tuple views built on access.
    """

    def __init__(self, vertex_count: int, faces):
        self.vertex_count = int(vertex_count)
        self.face_array, pairs, order, errors = _sort_half_edges(self.vertex_count, faces)
        if errors:
            raise SurfaceError("; ".join(errors))
        self.ends = np.ascontiguousarray(pairs[:, ::2])
        self.edge_faces = np.stack(np.divmod(order, 3), axis=-1).reshape(-1, 2, 2)
        self.FE = np.empty(self.face_array.shape, dtype=np.int64)
        self.FE.ravel()[order] = np.arange(order.size) // 2

    @property
    def faces(self) -> list:
        """The faces as vertex triples."""
        return list(map(tuple, self.face_array.tolist()))

    @property
    def edges(self) -> list:
        """The vertex pair of each edge slot, in slot order."""
        return list(zip(*self.ends.tolist()))

    @property
    def edge_index(self) -> dict:
        """The slot of each vertex pair."""
        return {e: idx for idx, e in enumerate(self.edges)}

    def copy(self) -> "MarkedSurface":
        s = object.__new__(MarkedSurface)
        s.vertex_count = self.vertex_count
        for name in ("face_array", "ends", "edge_faces", "FE"):
            setattr(s, name, getattr(self, name).copy())
        return s


class PHMetric:
    """Edge lengths of the current triangulation and their scaling invariant.

    ``length`` and ``lam`` are float arrays indexed by edge slot; the
    constructor takes the lengths at ``current_u = 0`` in slot order.
    Vertex scaling, sinh(l_ij/2) = e^(u_i + u_j) sinh(L_ij/2), keeps
    ``lam[e] = log sinh(l_e/2) - u_i - u_j`` fixed for every edge, so the
    lengths at any u follow from ``lam`` alone.  A flip changes ``lam`` only
    at the new diagonal, which keeps cumulative conformal factors (u(0) = 0)
    well defined across surgery.
    """

    def __init__(self, surf: MarkedSurface, length):
        self.length = np.array(length, dtype=float)
        if self.length.shape != (surf.ends.shape[1],):
            raise SurfaceError(f"lengths of shape {self.length.shape} for {surf.ends.shape[1]} edge slots")
        bad = np.flatnonzero(~((self.length > 0.0) & (self.length <= MAX_LENGTH)))
        if bad.size:
            raise SurfaceError(f"edge {tuple(surf.ends[:, bad[0]].tolist())} has length {self.length[bad[0]]},"
                               f" not in (0, MAX_LENGTH = {MAX_LENGTH:.6g}]")
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
    old_edge: tuple
    new_edge: tuple
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
    return surf.vertex_count - surf.ends.shape[1] + surf.face_array.shape[0]


def clone_state(surf: MarkedSurface, m: PHMetric):
    """Independent copy of a surface/metric pair.

    Surfaces and metrics mutate together under flips, so they must be cloned
    together; a metric copy alone would go stale after surgery.  The copy
    keeps the edge slots, which index the length arrays.
    """
    return surf.copy(), m.copy()


def _restore(surf: MarkedSurface, m: PHMetric, saved) -> None:
    """Put the ``clone_state`` snapshot ``saved`` back into ``surf`` and ``m``
    in place, so that every holder of the two objects sees it: a trial that
    raised is parked at its obstruction, where a retry would meet it again."""
    s, mm = clone_state(*saved)
    vars(surf).update(vars(s))
    vars(m).update(vars(mm))


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
            f"face {bad} {surf.face_array[bad].tolist()} is inadmissible with opposite lengths {L[bad]}"
        )
    rows = np.flatnonzero(~ok)
    angles[rows] = 0.0
    angles[rows, L[rows].argmax(axis=1)] = math.pi
    return angles


def angle_defect(surf: MarkedSurface, angles: np.ndarray) -> np.ndarray:
    """K_i = 2*pi - sum of the corner ``angles`` at vertex i."""
    total = np.bincount(surf.face_array.ravel(), angles.ravel(), minlength=surf.vertex_count)
    return 2.0 * math.pi - total


def validate(surf: MarkedSurface, m: PHMetric) -> ValidationReport:
    """Euler characteristic and admissibility report for a state; the
    constructor checked the combinatorics, and flips keep them valid."""
    errors = []
    chi = euler_characteristic(surf)
    if chi % 2 != 0 or chi > 2:
        errors.append(f"Euler characteristic {chi} is not an even integer <= 2")
    L = face_corner_lengths(surf, m)
    slack = L.sum(axis=1) - 2.0 * L.max(axis=1)
    errors += [f"inadmissible face {fi} {surf.face_array[fi].tolist()}" for fi in np.flatnonzero(slack <= 0.0).tolist()]
    return ValidationReport(
        ok=not errors,
        chi=chi,
        n_vertices=surf.vertex_count,
        n_edges=surf.ends.shape[1],
        n_faces=surf.face_array.shape[0],
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
    u_i, u_j = u[surf.ends]
    m.length = _scaled_lengths(m.lam, u_i, u_j)
    m.current_u = u.copy()


def _scaled_lengths(lam: np.ndarray, u_i: np.ndarray, u_j: np.ndarray) -> np.ndarray:
    """Lengths 2 asinh(e^(lam + u_i + u_j)) of edges with invariants ``lam``
    and end factors ``u_i``, ``u_j``; OverflowError out of range."""
    x = lam + u_i + u_j
    if x.max() > MAX_SCALED_X:
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
    ``pairs`` (n, 2, 2), the faces being rows of ``angles``: the sums over
    both pairs of theta_a + theta_b - theta_c, c being the pair's corner."""
    q = np.empty_like(angles)
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.add(angles[:, a], angles[:, b], out=q[:, c])
    q = (q - angles).ravel()[3 * pairs[..., 0] + pairs[..., 1]]
    return q[:, 0] + q[:, 1]


def _quad_around(surf: MarkedSurface, ij: int):
    """The quad around edge slot ij: vertices (i, j, k, l), the (face,
    corner) pairs [(fa, ca), (fb, cb)] and the slots of its edges
    [ij, ik, jk, il, jl].

    i < j are the slot's ends; fa contains the directed edge (i, j), its
    corners ca, ca + 1 and ca + 2 (mod 3) at k, i and j, and fb contains
    (j, i), its corners cb, cb + 1 and cb + 2 at l, j and i.
    """
    ef, F, FE = surf.edge_faces, surf.face_array, surf.FE
    i, j = surf.ends.item(0, ij), surf.ends.item(1, ij)
    fa, ca, fb, cb = ef.item(ij, 0, 0), ef.item(ij, 0, 1), ef.item(ij, 1, 0), ef.item(ij, 1, 1)
    if F.item(fa, (ca + 1) % 3) != i:
        fa, ca, fb, cb = fb, cb, fa, ca
    edges = [ij, FE.item(fa, (ca + 2) % 3), FE.item(fa, (ca + 1) % 3),
             FE.item(fb, (cb + 1) % 3), FE.item(fb, (cb + 2) % 3)]
    return (i, j, F.item(fa, ca), F.item(fb, cb)), [(fa, ca), (fb, cb)], edges


def flip_edge(surf: MarkedSurface, m: PHMetric, e: int) -> FlipEvent:
    """Replace the two faces at edge slot e by the two faces of the other
    diagonal; ``advance_conformal`` calls it at each wall.

    The flip is an isometry of the piecewise hyperbolic metric: the new
    diagonal {k, l} has the cosine-law length in the triangle (k, i, l)
    whose angle at i is the sum of i's corners in the glued quadrilateral,
    and ``lam`` changes only at the new diagonal, set from its length at
    ``m.current_u``.  The two faces keep their indices and the new diagonal
    takes slot e: the flip writes the two faces' rows of ``face_array`` and
    ``FE``, ``ends[:, e]``, the quad's ``edge_faces`` and slot e of
    ``m.length`` and ``m.lam``.  Only the quad is measured: ``pre_weight``
    and ``k_jump`` come from the angle sums at its vertices i, j, k, l over
    its two faces before and after the flip, the only angle sums a flip
    changes.  Refused (no mutation) with FlipError if e is not a slot or the
    result would be a self-loop, a multi-edge or a degenerate triangle, and
    with AdmissibilityError if a face of the quad is inadmissible.
    """
    if not 0 <= e < surf.ends.shape[1]:
        raise FlipError(f"no edge slot {e}")
    (i, j, k, l), ((fa, ca), (fb, cb)), (ij, ik, jk, il, jl) = _quad_around(surf, e)
    ln, F, FE, ef = m.length, surf.face_array, surf.FE, surf.edge_faces
    L = [[ln.item(q) for q in FE[f].tolist()] for f in (fa, fb)]
    if any(a + b + c - 2.0 * max(a, b, c) <= 0.0 for a, b, c in L):
        raise AdmissibilityError(f"a face at edge {(i, j)} is inadmissible with opposite lengths {L}")
    A, B = angles_from_length_array(np.array(L)).tolist()
    before = (A[(ca + 1) % 3] + B[(cb + 2) % 3], A[(ca + 2) % 3] + B[(cb + 1) % 3], A[ca], B[cb])
    d_ik, d_jk, d_il, d_jl = ln.item(ik), ln.item(jk), ln.item(il), ln.item(jl)
    x = math.cosh(d_ik) * math.cosh(d_il) - math.sinh(d_ik) * math.sinh(d_il) * math.cos(before[0])
    if x <= 1.0:
        raise FlipError(f"flip of edge {(i, j)} produces degenerate triangle")
    d_kl = math.acosh(x)
    if k == l:
        raise FlipError(f"flip of edge {(i, j)} would create a self-loop at vertex {k}")
    kl = (min(k, l), max(k, l))
    if ((surf.ends[0] == kl[0]) & (surf.ends[1] == kl[1])).any():
        raise FlipError(f"flip of edge {(i, j)} would create a multi-edge {kl}")
    for tri in ((d_ik, d_il, d_kl), (d_jk, d_jl, d_kl)):
        if sum(tri) - 2.0 * max(tri) <= 0.0:
            raise FlipError(f"flip of edge {(i, j)} produces degenerate triangle")

    # fa becomes (k, i, l) and fb becomes (l, j, k); FE rows list the edges
    # opposite corners 0, 1, 2, and kl sits at corner 1 of both
    F[fa], F[fb] = (k, i, l), (l, j, k)
    FE[fa], FE[fb] = (il, ij, ik), (jk, ij, jl)
    surf.ends[:, ij] = kl
    ef[ij] = (fa, 1), (fb, 1)
    for q, f, c in ((il, fa, 0), (ik, fa, 2), (jk, fb, 0), (jl, fb, 2)):
        ef[q, 0 if ef.item(q, 0, 0) in (fa, fb) else 1] = f, c
    ln[ij] = d_kl
    m.lam[ij] = math.log(math.sinh(0.5 * d_kl)) - m.current_u.item(k) - m.current_u.item(l)
    A, B = angles_from_length_array(np.array(((d_il, d_kl, d_ik), (d_jk, d_kl, d_jl)))).tolist()
    after = (A[1], B[1], A[0] + B[2], A[2] + B[0])
    return FlipEvent(
        old_edge=(i, j), new_edge=kl,
        # the old edge's Delaunay weight: the four angles at i and j minus those at k and l
        pre_weight=before[0] + before[1] - before[2] - before[3],
        k_jump=max(abs(a - b) for a, b in zip(after, before)),
    )


def advance_conformal(surf: MarkedSurface, m: PHMetric, u: np.ndarray):
    """Move the state to conformal factors ``u`` along the segment
    ``(1 - s) * u_from + s * u``, flipping by ``flip_edge`` at the walls
    where a Delaunay weight crosses -TOL_DELAUNAY; flips there commute with
    scaling, so the result depends on ``u`` alone.  Precondition: the
    state is Delaunay at ``m.current_u``, or ``u`` equal to it
    (``make_delaunay``); it is left Delaunay at ``u``.

    The walls are kinetic events.  An angle pass at ``u`` finds the edges
    past their walls and the edges of inadmissible faces; with none it is
    the only whole-mesh pass.  Each one's first wall is found on its quad
    alone (``_first_wall``, ``_quad_weight``: the algebraic test P), a heap
    orders the walls by s, then weight, and each flip re-searches its
    quad's five edges.  A second pass at ``u`` returns the angles; an edge
    still past there starts another round.  An edge that dips below its wall
    and back is no candidate (its flip and flip back would cancel); a flip
    or failure that meets one in its dip crosses the segment again in two
    parts, split there.  See README.md.

    Returns ``(events, max_jump, angles)``: the largest ``FlipEvent.k_jump``
    and the (F, 3) corner angles at ``u``.  Raises FlipError if a wall flip
    is refused, AdmissibilityError if a face degenerates before a wall and
    OverflowError if a length leaves the representable range, leaving the
    state Delaunay at the last segment point before the obstruction.
    """
    u = np.asarray(u, dtype=float)
    u_from = m.current_u.copy()
    n = surf.ends.shape[1]
    events, heap, start = [], [], None
    last = (0.0, 0.0)  # (lo, hi) of the last wall crossed

    def at(s):
        return (1.0 - s) * u_from + s * u

    def schedule(e, past_at_u):
        stamp[e] += 1
        wall = _first_wall(_quad_weight(surf, m, e, u0, u1), *last, past_at_u, still)
        due[e] = math.inf if wall is None else wall[0]
        if wall is not None:
            heapq.heappush(heap, (*wall, stamp[e], e))

    def split(s):
        _restore(surf, m, start)
        m.current_u = u_from
        head = advance_conformal(surf, m, at(s))
        tail = advance_conformal(surf, m, u)
        return head[0] + tail[0], max(head[1], tail[1]), tail[2]

    while True:
        try:
            apply_conformal(surf, m, u)
        except OverflowError:  # no lengths at u: each edge is measured on its quad
            past, measured = np.ones(n, dtype=bool), False
        else:
            angles = face_angles(surf, m, strict=False)
            past = delaunay_weights(surf, m, angles) < -TOL_DELAUNAY
            if not past.any():
                return events, max((ev.k_jump for ev in events), default=0.0), angles
            # extended angles can hide the walls of an inadmissible face's
            # edges on the way, and its degeneration is an obstruction too
            past[surf.FE[~admissible_mask(face_corner_lengths(surf, m))]] = True
            measured = True
        if start is None:  # walls ahead: a snapshot, and lists for the quad measure
            start, u0, u1 = clone_state(surf, m), u_from.tolist(), u.tolist()
            still = u0 == u1
            stamp, due = [0] * n, [math.inf] * n
        for e in np.flatnonzero(past).tolist():
            schedule(e, measured)
        while heap:
            hi, _, lo, st, e = heapq.heappop(heap)
            if st != stamp[e]:
                continue
            if len(events) >= 100 * n:
                raise SurfaceError(f"advance_conformal exceeded {100 * n} flips")
            quad = surf.FE[surf.edge_faces[e, :, 0]].ravel()  # kept by the flip
            if 0.0 < hi < 1.0 and any(due[q] > hi and _quad_weight(surf, m, q, u0, u1)(hi)[0]
                                      < -TOL_DELAUNAY for q in set(quad.tolist()) - {e}):
                return split(hi)
            try:
                m.current_u = at(hi)
                m.length[quad] = _scaled_lengths(m.lam[quad], *m.current_u[surf.ends[:, quad]])
                events.append(flip_edge(surf, m, e))
            except (SurfaceError, OverflowError):
                apply_conformal(surf, m, at(lo))
                w = delaunay_weights(surf, m, face_angles(surf, m, strict=False))
                if 0.0 < lo and any(due[q] > hi for q in np.flatnonzero(w < -2.0 * TOL_DELAUNAY)):
                    return split(lo)
                raise
            last = (lo, hi)
            for q in set(quad.tolist()):
                schedule(q, False)


def _quad_weight(surf: MarkedSurface, m: PHMetric, e: int, u_from: list, u: list):
    """Edge slot e's Delaunay weight plus TOL_DELAUNAY on the segment from
    ``u_from`` to ``u`` (lists), from its two faces alone: a function of s
    returning ``(value, derivative)``, or ``(-inf, nan)`` where a face is
    inadmissible or a length out of range.

    With x = sinh(l/2) = e^(lam + u_i + u_j), exponents linear in s and at 1
    bitwise those of ``apply_conformal(u)``, the Delaunay test is P_e = sum
    over e's faces of (x_a^2 + x_b^2 - x_e^2) / (x_a x_b x_e).  A face's term
    times x_e / (2 cosh(l_e/2)) is S = sin(q/2), q its two angles at e minus
    the one opposite, so P_e = 2 coth(l_e/2) (S_1 + S_2) has the sign of the
    weight 2 (asin S_1 + asin S_2); |S| < 1 is the triangle inequality."""
    ends, x0, x1, rate = surf.ends, [], [], []
    for q in _quad_around(surf, e)[2]:  # e, then each face's other two
        i, j, lm = ends.item(0, q), ends.item(1, q), m.lam.item(q)
        x0.append(lm + u_from[i] + u_from[j])
        x1.append(lm + u[i] + u[j])
        rate.append(x1[-1] - x0[-1])

    def weight(s):
        X = [(1.0 - s) * a + s * b for a, b in zip(x0, x1)]
        if max(X) > MAX_SCALED_X:
            return -math.inf, math.nan
        x = [math.exp(v) for v in X]
        C = x[0] * x[0]
        g, dg = TOL_DELAUNAY, 0.0
        for a, b in ((1, 2), (3, 4)):
            A, B = x[a] * x[a], x[b] * x[b]
            D = 2.0 * x[a] * x[b] * math.sqrt(1.0 + C)
            S = (A + B - C) / D
            if not -1.0 < S < 1.0:
                return -math.inf, math.nan
            dS = (2.0 * (rate[a] * A + rate[b] * B - rate[0] * C) / D
                  - S * (rate[a] + rate[b] + rate[0] * C / (1.0 + C)))
            g += 2.0 * math.asin(S)
            dg += 2.0 * dS / math.sqrt(1.0 - S * S)
        return g, dg

    return weight


def _first_wall(weight, lo: float, hi: float, past_at_u: bool, still: bool):
    """The first wall of a ``_quad_weight`` after the bracket ``[lo, hi]``:
    ``(hi, value at hi, lo)`` with hi - lo < 1e-15, or None if not past at
    s = 1 (``past_at_u`` asserts it is).  Newton steps, each carried 3e-16
    on so that the bracket closes from both sides; bisection where a step
    leaves the bracket, a point has no value or 50 steps have not closed it.
    On a zero-length segment (``still``, as in ``make_delaunay``) the weight
    is the same at every s, so its value at hi stands for s = 1."""
    v = weight(hi)
    if v[0] < 0.0:
        return hi, v[0], lo
    a, b, s, steps = hi, 1.0, 1.0, 0
    v = v_b = v if still else weight(1.0)
    if not (past_at_u or v[0] < 0.0):
        return None
    while b - a >= 1e-15:
        n = s - v[0] / v[1] if v[1] and steps < 50 else math.nan
        n += math.copysign(3e-16, n - s)
        t = n if a < n < b else 0.5 * (a + b)
        s, v, steps = t, weight(t), steps + 1
        if v[0] < 0.0:
            b, v_b = t, v
        else:
            a = t
    return b, v_b[0], a


def make_delaunay(surf: MarkedSurface, m: PHMetric) -> list:
    """The flip loop at a fixed u: ``advance_conformal`` to ``m.current_u``
    itself, leaving the state Delaunay there, as ``advance_conformal``
    requires of a start that is not its end.  On that zero-length segment
    every wall lies at s = 0, so the heap flips the least weight first.
    Returns the flip events; raises FlipError at the first refused flip,
    leaving the flips before it made.
    """
    return advance_conformal(surf, m, m.current_u)[0]
