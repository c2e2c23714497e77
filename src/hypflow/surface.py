"""Closed triangulated marked surfaces with piecewise hyperbolic metrics.

Combinatorics (edges, adjacency, Euler characteristic), the Delaunay edge
predicate, and surgery: rounds of edge flips at a target u, Ptolemy flips
in the scaling invariants off the current u and isometric flips at it.
"""

from __future__ import annotations

import itertools
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
    "validate",
    "euler_characteristic",
    "apply_conformal",
    "face_corner_lengths",
    "face_angles",
    "delaunay_weights",
    "flip_edge",
    "advance_conformal",
    "clone_state",
    "TOL_DELAUNAY",
]

# weights in [-TOL_DELAUNAY, 0) count as Delaunay, avoiding flip thrashing at
# co-circular configurations (the Delaunay condition itself is non-strict)
TOL_DELAUNAY = 1e-12

# largest |lam + u_i + u_j| admitted: the cosine law's cosh(l_a) cosh(l_b),
# about 4 e^(2 x_a + 2 x_b), overflows once x_a + x_b passes about 354, and
# below -MAX_SCALED_X (lengths below about 2e-76) its sinh(l_a) sinh(l_b)
# nears underflow
MAX_SCALED_X = 175.0
# shortest and longest lengths admitted: their lam is -MAX_SCALED_X and
# MAX_SCALED_X at u = 0, where solves start
MIN_LENGTH = 2.0 * math.asinh(math.exp(-MAX_SCALED_X))
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
    """``(face_array, ends, order, errors)``: ``order`` the half-edges (3 f + c
    runs opposite corner c of face f) of the faces without a repeated vertex,
    stably sorted by vertex pair so that each edge's two come together, and
    ``errors`` empty for a closed oriented surface: each pair twice, once each
    way; each vertex's corners one cycle; the faces one connected component.
    Without errors, ``ends`` (2, E) is the (lo, hi) pair of each edge in
    sorted order; with errors, ``ends`` and ``order`` are None.

    Each 3F-sized temporary is freed after its last read, so that at most
    about seven such arrays are held at once, ``face_array`` among them."""
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
    s = F[:, [1, 2, 0]].ravel()[he]
    t = F[:, [2, 0, 1]].ravel()[he]
    pairs = np.empty((2, he.size), dtype=np.int64)
    np.minimum(s, t, out=pairs[0])
    np.maximum(s, t, out=pairs[1])
    fwd = s < t
    del s, t
    key = _pair_keys(*pairs, vertex_count)
    o = np.argsort(key, kind="stable")
    order = he[o]
    del he
    key = key[o]
    pairs[0] = pairs[0, o]
    pairs[1] = pairs[1, o]
    fwd = fwd[o]
    del o
    first = np.flatnonzero(np.diff(key, prepend=-1))
    del key
    count = np.diff(first, append=order.size)
    n_fwd = np.add.reduceat(fwd, first, dtype=np.int64) if first.size else first
    # a pair on more than two faces always has two of them the same way
    for kind, bad in (("boundary", count == 1), ("non-manifold", count > 2),
                      ("repeated directed", (count > 1) & ((count != 2) | (n_fwd != 1)))):
        errors += [f"{kind} edge {tuple(pairs[:, k].tolist())} on faces {(order[k:k + c] // 3).tolist()}"
                   for k, c in zip(first[bad].tolist(), count[bad].tolist())]
    if errors:
        return F, None, None, errors
    ends = np.ascontiguousarray(pairs[:, ::2])
    del pairs, fwd, first, count, n_fwd
    # corner 3 f + c leaves its vertex along half-edge R[3 f + c]; R of that
    # half-edge's twin is the vertex's corner in the next face around it
    twin = np.empty_like(order)
    twin[order] = order.reshape(-1, 2)[:, ::-1].ravel()
    R = np.arange(order.size).reshape(-1, 3)[:, [2, 0, 1]].ravel()
    step = R[twin[R]]
    del R
    # the faces across each face's three edges, (3, F) with contiguous rows,
    # which keeps the gather and the minimum over its rows below fast
    across = np.ascontiguousarray(twin.reshape(-1, 3).T)
    del twin
    across //= 3
    # pointer doubling: each label becomes the least corner of its cycle
    label = np.arange(order.size)
    for _ in range(int(np.bincount(F.ravel()).max()).bit_length()):
        np.minimum(label, label[step], out=label)
        step = step[step]
    del step
    cycles = np.bincount(F.ravel()[label == np.arange(label.size)], minlength=vertex_count)
    del label
    bad = np.flatnonzero(cycles != 1)
    if bad.size:
        errors.append(f"vertex {bad[0]} has {cycles[bad[0]]} link cycles, not 1 ({bad.size} such vertices)")
        return F, None, None, errors
    # with every link one cycle, the surface's components are its faces'
    # components across the twins: hook each face's label to its least
    # neighbour's, then pointer-jump; labels only fall, and stop once each
    # component carries its least face
    label = np.arange(F.shape[0])
    while not np.array_equal(hooked := np.minimum(label, label[across].min(axis=0)), label):
        label = hooked
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    roots = np.flatnonzero(label == np.arange(label.size))
    if roots.size > 1:
        errors.append(f"surface has {roots.size} connected components, not 1 (faces {roots.tolist()} in different ones)")
        return F, None, None, errors
    return F, ends, order, errors


class MarkedSurface:
    """Closed oriented triangulated surface over vertices 0..N-1, built from
    an (F, 3) integer array-like of oriented faces; SurfaceError names every
    fault that ``_sort_half_edges`` finds in them.

    The state is four int64 arrays over faces 0..F-1 and edge slots 0..E-1:
    ``face_array`` (F, 3) the oriented faces, ``ends`` (2, E) each slot's
    vertex pair, smaller end first, ``edge_corners[e]`` the flat indices
    3 f + c of the two corners opposite slot e, corner c of face f each,
    and ``FE[f, c]`` the slot of the edge opposite corner c of face f.  Slots
    start in sorted vertex-pair order.  A flip rewrites its two faces and
    five edges in place, the new diagonal taking the flipped edge's slot.

    Construction holds at most about seven whole-mesh int64 arrays of 3F
    entries (the size of ``face_array``) at once, the four it keeps among
    them: ``_sort_half_edges`` frees each temporary after its last read.
    """

    def __init__(self, vertex_count: int, faces):
        self.vertex_count = int(vertex_count)
        self.face_array, self.ends, order, errors = _sort_half_edges(self.vertex_count, faces)
        if errors:
            raise SurfaceError("; ".join(errors))
        self.edge_corners = order.reshape(-1, 2)
        self.FE = np.empty(self.face_array.shape, dtype=np.int64)
        self.FE.ravel()[self.edge_corners] = np.arange(self.edge_corners.shape[0])[:, None]

    def copy(self) -> "MarkedSurface":
        s = object.__new__(MarkedSurface)
        s.vertex_count = self.vertex_count
        for name in ("face_array", "ends", "edge_corners", "FE"):
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
        bad = np.flatnonzero(~((self.length >= MIN_LENGTH) & (self.length <= MAX_LENGTH)))
        if bad.size:
            raise SurfaceError(f"edge {tuple(surf.ends[:, bad[0]].tolist())} has length {self.length[bad[0]]}, not in"
                               f" [MIN_LENGTH = {MIN_LENGTH:.6g}, MAX_LENGTH = {MAX_LENGTH:.6g}]")
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
    """One flip: the old and new edges by vertex pair, the old edge's
    Delaunay weight where it was flipped, and ``k_jump``, the sup-norm
    change of the curvature across the flip.  An isometric flip, of
    ``flip_edge`` or of ``advance_conformal`` at ``m.current_u``, is
    measured where it is made; a Ptolemy flip of ``advance_conformal`` off
    ``m.current_u`` at a wall of its quad.  Either way
    the jump is rounding level for a correct diagonal.  ``round`` numbers
    the flip round of its advance that made it."""

    old_edge: tuple
    new_edge: tuple
    pre_weight: float
    k_jump: float
    round: int = 0


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


def face_corner_lengths(surf: MarkedSurface, m: PHMetric) -> np.ndarray:
    """(F, 3) lengths; entry [f, c] is the length of the edge opposite corner c."""
    return m.length[surf.FE]


def face_angles(surf: MarkedSurface, m: PHMetric, strict: bool = True) -> np.ndarray:
    """(F, 3) inner angles at each corner of each face.

    With ``strict`` the first inadmissible face raises AdmissibilityError;
    otherwise inadmissible rows get the constant extension of the angles
    across the admissibility boundary (``_extend``).
    """
    L = face_corner_lengths(surf, m)
    ok = admissible_mask(L)
    angles = angles_from_length_array(L)
    if not ok.all():
        if strict:
            bad = int(np.flatnonzero(~ok)[0])
            raise AdmissibilityError(
                f"face {bad} {surf.face_array[bad].tolist()} is inadmissible with opposite lengths {L[bad]}"
            )
        _extend(angles, ok, L)
    return angles


def _extend(angles: np.ndarray, ok: np.ndarray, L: np.ndarray) -> None:
    """Give the rows of ``angles`` that ``ok`` does not mark the constant
    extension of the angles across the admissibility boundary: pi at the
    corner opposite the largest entry of the row of ``L`` (lengths, or any
    increasing function of them), 0 at the other two.  Tied longest edges
    are admissible, so a tie can only come from rounding; it goes to the
    first corner."""
    rows = np.flatnonzero(~ok)
    angles[rows] = 0.0
    angles[rows, L[rows].argmax(axis=1)] = math.pi


def angle_defect(surf: MarkedSurface, angles: np.ndarray) -> np.ndarray:
    """K_i = 2*pi - sum of the corner ``angles`` at vertex i."""
    total = np.bincount(surf.face_array.ravel(), angles.ravel(), minlength=surf.vertex_count)
    return 2.0 * math.pi - total


def validate(surf: MarkedSurface, m: PHMetric) -> ValidationReport:
    """Admissibility report for a state, with its Euler characteristic; the
    constructor checked the combinatorics, and flips keep them valid."""
    L = face_corner_lengths(surf, m)
    slack = L.sum(axis=1) - 2.0 * L.max(axis=1)
    errors = [f"inadmissible face {fi} {surf.face_array[fi].tolist()}" for fi in np.flatnonzero(slack <= 0.0).tolist()]
    return ValidationReport(
        ok=not errors,
        chi=euler_characteristic(surf),
        n_vertices=surf.vertex_count,
        n_edges=surf.ends.shape[1],
        n_faces=surf.face_array.shape[0],
        min_slack=float(slack.min()),
        errors=errors,
    )


def _scaled(surf: MarkedSurface, m: PHMetric, u):
    """``(u, x, top)``: ``u`` as a float array, x = lam + u_i + u_j = log
    sinh(l/2) of every edge at ``u``, and top = max |x|, with one gather of
    the end factors and one reduction.  ValueError unless ``u`` has shape
    (N,) and is finite: every vertex ends an edge, so a factor that is not
    finite leaves some x, and so ``top``, not finite."""
    u = np.asarray(u, dtype=float)
    if u.shape != (surf.vertex_count,):
        raise ValueError(f"u has shape {u.shape}, expected ({surf.vertex_count},)")
    u_i, u_j = u[surf.ends]
    x = m.lam + u_i + u_j
    top = np.abs(x).max()
    if not math.isfinite(top) and not np.all(np.isfinite(u)):
        raise ValueError("conformal factors must be finite")
    return u, x, top


def apply_conformal(surf: MarkedSurface, m: PHMetric, u: np.ndarray) -> None:
    """Set the lengths to those of conformal factors u: l = 2 asinh(e^(lam +
    u_i + u_j)); OverflowError if some |lam + u_i + u_j| exceeds
    MAX_SCALED_X."""
    u, x, top = _scaled(surf, m, u)
    if not top <= MAX_SCALED_X:
        raise OverflowError("conformal factor out of representable range")
    m.length = 2.0 * np.arcsinh(np.exp(x))
    m.current_u = u.copy()


def delaunay_weights(surf: MarkedSurface, m: PHMetric) -> np.ndarray:
    """Per-edge Delaunay weights: four near angles minus the two opposite ones.

    An edge satisfies the Delaunay condition iff its weight is >= 0.
    """
    return _weights(face_angles(surf, m), surf.edge_corners)


def _weights(angles: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Delaunay weights of the edges whose two corners have the flat indices
    ``at`` (n, 2) into the (F, 3) ``angles``: the sums over both corners c
    of theta_a + theta_b - theta_c, a and b the other corners of c's face."""
    q = np.empty_like(angles)
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.add(angles[:, a], angles[:, b], out=q[:, c])
    q = (q - angles).ravel()[at]
    return q[:, 0] + q[:, 1]


def _quads(surf: MarkedSurface, e: np.ndarray):
    """The quads at edge slots ``e``, as rows of arrays over ``e``: vertices
    (i, j, k, l), (face, corner) pairs (fa, ca, fb, cb) and edge slots (ij,
    ik, jk, il, jl).  i < j; fa holds the directed edge (i, j), its corners
    ca, ca + 1 and ca + 2 (mod 3) at k, i and j, and fb holds (j, i), its
    corners cb, cb + 1 and cb + 2 at l, j and i."""
    F, FE = surf.face_array, surf.FE
    i, j = surf.ends[:, e]
    f, c = np.divmod(surf.edge_corners[e], 3)
    swap = F[f[:, 0], (c[:, 0] + 1) % 3] != i
    f[swap], c[swap] = f[swap, ::-1], c[swap, ::-1]
    fa, ca, fb, cb = corners = np.array((f[:, 0], c[:, 0], f[:, 1], c[:, 1]))
    slots = np.array((e, FE[fa, (ca + 2) % 3], FE[fa, (ca + 1) % 3], FE[fb, (cb + 1) % 3], FE[fb, (cb + 2) % 3]))
    return np.array((i, j, F[fa, ca], F[fb, cb])), corners, slots


def _flip_measures(d: np.ndarray):
    """``(pre_weight, k_jump)`` of flips from the lengths ``d`` (rows ij, ik,
    jk, il, jl, kl): the old edge's weight from the angle sums at i, j, k
    and l over the old faces, and the sums' largest change to the new ones,
    the only angle sums a flip changes."""
    ij, ik, jk, il, jl, kl = d
    # the old faces' angles at (i, j, k) and (i, j, l), the new ones' at (k, i, l) and (l, j, k)
    A, B, C, D = angles_from_length_array(
        np.array(((jk, ik, ij), (jl, il, ij), (il, kl, ik), (jk, kl, jl))).transpose(0, 2, 1)).transpose(0, 2, 1)
    before = (A[0] + B[0], A[1] + B[1], A[2], B[2])
    after = (C[1], D[1], C[0] + D[2], C[2] + D[0])
    return before[0] + before[1] - before[2] - before[3], np.abs(np.array(after) - np.array(before)).max(axis=0)


def _commit(surf: MarkedSurface, m: PHMetric, quads, corners, slots, lam, pre, jump, rnd: int) -> list:
    """Make the flips of face-disjoint quads (``_quads``) with new diagonal
    invariants ``lam``, and return their events; FlipError, with nothing
    written, if a new diagonal {k, l} would be a self-loop, an edge already
    or an earlier flip's.  {k, l} takes the slot of ij, at corner 1 of both
    faces: fa becomes (k, i, l) and fb (l, j, k)."""
    i, j, k, l = quads
    fa, _, fb, _ = corners
    ij, ik, jk, il, jl = slots
    key = np.minimum(k, l) * surf.vertex_count + np.maximum(k, l)
    have = np.sort(surf.ends[0] * surf.vertex_count + surf.ends[1])
    taken = (have[np.minimum(np.searchsorted(have, key), have.size - 1)] == key) | (k == l)
    if key.size > 1:
        order = np.argsort(key, kind="stable")
        taken[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    if taken.any():
        a, b, c, d = quads[:, np.argmax(taken)].tolist()
        what = f"a self-loop at vertex {c}" if c == d else f"a multi-edge {(min(c, d), max(c, d))}"
        raise FlipError(f"flip of edge {(a, b)} would create {what}")
    ec = surf.edge_corners
    # il and jl leave fb for fa, ik stays in fa and jk in fb
    outer = slots[[3, 4, 1, 2]].ravel()
    side = (ec[outer, 0] // 3 != np.concatenate((fb, fb, fa, fa))).astype(np.int64)
    surf.face_array[fa], surf.face_array[fb] = np.array((k, i, l)).T, np.array((l, j, k)).T
    surf.FE[fa], surf.FE[fb] = np.array((il, ij, ik)).T, np.array((jk, ij, jl)).T
    surf.ends[:, ij] = np.minimum(k, l), np.maximum(k, l)
    ec[ij] = np.array((3 * fa + 1, 3 * fb + 1)).T
    ec[outer, side] = 3 * np.concatenate((fa, fb, fa, fb)) + np.repeat([0, 2, 2, 0], ij.size)
    m.lam[ij] = lam
    return list(map(FlipEvent, zip(*quads[:2].tolist()), zip(*surf.ends[:, ij].tolist()),
                    pre.tolist(), jump.tolist(), [rnd] * ij.size))


def flip_edge(surf: MarkedSurface, m: PHMetric, e: int) -> FlipEvent:
    """Flip edge slot e isometrically at ``m.current_u``: an isometric
    round (``_isometric``) of one edge, its new diagonal taking slot e with
    its cosine-law length.  Refused, with nothing changed, by FlipError if e
    is not a slot or the flip is refused, and by AdmissibilityError if a
    face of its quad is inadmissible."""
    if not 0 <= e < surf.ends.shape[1]:
        raise FlipError(f"no edge slot {e}")
    events, d_kl = _isometric(surf, m, np.array([e]), m.length, m.current_u, 0)
    m.length[e] = d_kl[0]
    return events[0]


def _isometric(surf: MarkedSurface, m: PHMetric, batch, L, u, rnd: int):
    """Isometric flips of edge slots ``batch`` at lengths ``L`` and factors
    ``u``: the new diagonal by the cosine law in the triangle (k, i, l), its
    angle at i the sum of i's corners in the quad.  Returns the events and
    the new diagonals' lengths.  AdmissibilityError if a face of a quad is
    inadmissible, FlipError if a new face would be degenerate."""
    quads, corners, slots = _quads(surf, batch)
    d = L[slots]
    old = np.array(((d[2], d[1], d[0]), (d[4], d[3], d[0]))).transpose(0, 2, 1)
    inadmissible = ~admissible_mask(old).all(axis=0)
    if inadmissible.any():
        b = np.argmax(inadmissible)
        raise AdmissibilityError(f"a face at edge {tuple(quads[:2, b].tolist())} is inadmissible"
                                 f" with opposite lengths {old[:, b].tolist()}")
    A, B = angles_from_length_array(old)
    c = [math.cosh(a) * math.cosh(b) - math.sinh(a) * math.sinh(b) * math.cos(t)
         for a, b, t in zip(d[1].tolist(), d[3].tolist(), (A[:, 0] + B[:, 0]).tolist())]
    d_kl = np.array([math.acosh(x) if x > 1.0 else 0.0 for x in c])
    flat = ~admissible_mask(np.array(((d[1], d[3], d_kl), (d[2], d[4], d_kl))).transpose(0, 2, 1)).all(axis=0)
    if flat.any():
        raise FlipError(f"flip of edge {tuple(quads[:2, np.argmax(flat)].tolist())} produces degenerate triangle")
    lam = np.array([math.log(math.sinh(0.5 * v)) for v in d_kl.tolist()]) - u[quads[2]] - u[quads[3]]
    return _commit(surf, m, quads, corners, slots, lam, *_flip_measures(np.vstack((d, d_kl))), rnd), d_kl


def _ptolemy(surf: MarkedSurface, m: PHMetric, batch, x, u, w, rnd: int) -> list:
    """Ptolemy flips of edge slots ``batch`` (``_ptolemy_lam``), with
    ``pre_weight`` from the weights ``w`` at u and ``k_jump`` measured at a
    wall of each quad (``_ptolemy_walls``); a wall that cannot be measured
    reads inf."""
    quads, corners, slots = _quads(surf, batch)
    lam = _ptolemy_lam(m.lam[slots])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        jump = _flip_measures(_ptolemy_walls(x[slots], lam + u[quads[2]] + u[quads[3]]))[1]
    return _commit(surf, m, quads, corners, slots, lam, w[batch], np.where(np.isfinite(jump), jump, math.inf), rnd)


def _ptolemy_lam(lam: np.ndarray) -> np.ndarray:
    """The new diagonals' invariant from the quads' (rows ij, ik, jk, il,
    jl): lam_kl = log(e^(lam_ik + lam_jl) + e^(lam_il + lam_jk)) - lam_ij."""
    ij, ik, jk, il, jl = lam
    return np.logaddexp(ik + jl, il + jk) - ij


def _ptolemy_walls(x: np.ndarray, x_kl: np.ndarray) -> np.ndarray:
    """The lengths (rows ij, ik, jk, il, jl, kl) of Ptolemy flips at a wall
    of each quad, from x = log sinh(l/2) at u of the quads' edges (rows ij,
    ik, jk, il, jl) and new diagonals: u_k and u_l moved by the t that the
    closed form in README.md gives, where the old edge's weight is zero."""
    ij, ik, jk, il, jl = x
    t = 0.5 * (2.0 * ij + np.logaddexp(-ik - jk, -il - jl)
               - np.logaddexp(np.logaddexp(ik - jk, jk - ik), np.logaddexp(il - jl, jl - il)))
    X = np.array((ij, ik + t, jk + t, il + t, jl + t, x_kl + 2.0 * t))
    return 2.0 * np.arcsinh(np.exp(np.minimum(X, MAX_SCALED_X)))


def advance_conformal(surf: MarkedSurface, m: PHMetric, u: np.ndarray):
    """Move the state to conformal factors ``u`` by flip rounds at ``u``
    (README.md): Ptolemy flips (``_ptolemy``) off ``m.current_u`` and
    isometric ones (``_isometric``) at it, until no edge is past its wall,
    so that the result depends on ``u`` alone.  Precondition: the state is
    Delaunay at ``m.current_u``, or ``u`` equals it; it is left Delaunay at
    ``u``.  A round flips, in one array step, the candidates that both
    their faces claim (``_claimed``); a candidate has a weight below
    -TOL_DELAUNAY or, at a face inadmissible or out of range at ``u``, a
    negative algebraic test (``_algebraic_negative``).

    Returns ``(events, max_jump, angles)``: the largest ``FlipEvent.k_jump``
    and the (F, 3) corner angles at ``u``.  Raises FlipError if a flip is
    refused, AdmissibilityError if a face is inadmissible at ``u`` after the
    rounds, OverflowError if a length at ``u`` is out of range and
    SurfaceError past 100 flips per edge, each with the state put back as
    it was given.
    """
    u, x, top = _scaled(surf, m, u)
    n, ec, FE = surf.ends.shape[1], surf.edge_corners, surf.FE
    far = top > MAX_SCALED_X
    L = 2.0 * np.arcsinh(np.exp(np.clip(x, -MAX_SCALED_X, MAX_SCALED_X) if far else x))

    def measure(rows):
        """The angles of faces ``rows`` at ``u``, the mask of those that are
        admissible with every length in range, the others given the
        extension, and whether the mask is all true."""
        FL = L[FE[rows]]
        ok, angles = admissible_mask(FL), angles_from_length_array(FL)
        if far:
            ok &= (np.abs(x[FE[rows]]) <= MAX_SCALED_X).all(axis=1)
        clean = ok.all()
        if not clean:
            _extend(angles, ok, FL)
        return angles, ok, clean

    angles, ok, clean = measure(slice(None))
    events, saved = [], None
    try:
        for rnd in itertools.count():
            w = _weights(angles, ec)
            past = w < -TOL_DELAUNAY
            if not clean:
                bad = np.flatnonzero(~ok[ec // 3].all(axis=1))
                past[bad] = _algebraic_negative(surf, x, bad)
            if not past.any():
                break
            batch = _claimed(surf, w, past)
            if len(events) + batch.size > 100 * n:
                raise SurfaceError(f"advance_conformal exceeded {100 * n} flips")
            if saved is None:
                saved, isometric = clone_state(surf, m), np.array_equal(u, m.current_u)
            events += _isometric(surf, m, batch, L, u, rnd)[0] if isometric else _ptolemy(surf, m, batch, x, u, w, rnd)
            x[batch] = m.lam[batch] + u[surf.ends[0, batch]] + u[surf.ends[1, batch]]
            far = far or np.abs(x[batch]).max() > MAX_SCALED_X
            L[batch] = 2.0 * np.arcsinh(np.exp(np.clip(x[batch], -MAX_SCALED_X, MAX_SCALED_X)))
            rows = (ec[batch] // 3).ravel()
            angles[rows], ok[rows], fresh = measure(rows)
            clean = fresh and (clean or ok.all())
        if far and np.abs(x).max() > MAX_SCALED_X:
            raise OverflowError("conformal factor out of representable range")
        if not clean:
            f = int(np.argmin(ok))
            raise AdmissibilityError(f"face {f} {surf.face_array[f].tolist()} is inadmissible at u")
    except Exception:
        if saved is not None:
            # in place, so that every holder of the two objects sees it
            vars(surf).update(vars(saved[0]))
            vars(m).update(vars(saved[1]))
        raise
    m.length, m.current_u = L, u.copy()
    return events, max((ev.k_jump for ev in events), default=0.0), angles


def _algebraic_negative(surf: MarkedSurface, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Whether the algebraic Delaunay test P_e (README.md) is negative at
    edge slots e, from x = log sinh(l/2): its four positive and two negative
    terms summed in logarithms, so that no length overflows."""
    f, c = np.divmod(surf.edge_corners[e], 3)
    xe, xa, xb = x[surf.FE[f, c]], x[surf.FE[f, (c + 1) % 3]], x[surf.FE[f, (c + 2) % 3]]
    pos = np.logaddexp.reduce(np.concatenate((xa - xb - xe, xb - xa - xe), axis=1), axis=1)
    return pos < np.logaddexp.reduce(xe - xa - xb, axis=1)


def _claimed(surf: MarkedSurface, w: np.ndarray, past: np.ndarray) -> np.ndarray:
    """The edges of the mask ``past`` that both their faces claim, least
    weight ``w`` first, each face claiming its edge of least weight (ties to
    the lower slot): face-disjoint, and never without the least of all."""
    order = np.flatnonzero(past)
    order = order[np.argsort(w[order], kind="stable")]
    rank = np.full(w.size, w.size)
    rank[order] = np.arange(order.size)
    least = rank[surf.FE].min(axis=1)
    return order[(least[surf.edge_corners[order] // 3] == rank[order, None]).all(axis=1)]

