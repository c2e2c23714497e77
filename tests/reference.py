"""Independent references that the tests compare the library against.

Plain ``math`` formulas for a single triangle with vertices (i, j, k): the
cosine-law angles, their constant extension across the admissibility
boundary, the area, vertex-scaled edge lengths, the half-angle identity and
the quad diagonal a flip inserts.  The tests compare the library's
vectorised kernel in ``hypflow.triangle`` and the mesh-level code against
them.  ``advance_by_bisection`` follows the segment to u and flips at each wall
found by plain bisection, the path that ``hypflow.surface.advance_conformal``
replaced by flip rounds at u; the two are compared.
``make_delaunay`` flips a state Delaunay at its own u, the advance to
``m.current_u`` itself, and ``delaunay_by_least_weight`` is the static flip
loop at a fixed u that this advance replaced.
``algebraic_delaunay_test`` is the Delaunay test P written on the lengths
alone, whose sign ``advance_conformal`` reads where a face is inadmissible.
``permuted_angles``, ``reduced_mask`` and ``four_minus_two_weights`` are the
row-wise array formulas that the library's column-form kernels replaced.
``dense_jacobian`` is the dense n x n form of ``hypflow.curvature.JacobianL``
that the tests compare its O(E) products against.
``flip_by_lists`` is the flip read through fancy indexing and ``tolist``,
the arithmetic that the scalar reads of ``hypflow.surface.flip_edge`` must
keep bitwise.
``combinatorics_by_faces`` is the per-face check of raw faces that the
half-edge sort of ``hypflow.surface._sort_half_edges`` replaced, and the
fixture builders, ``perturbed_lengths_by_dict`` and the line-wise
``write_phm_by_lines``/``parse_phm_by_lines`` build the benchmark's inputs
the way the array code in ``hypflow.meshes`` and ``hypflow.cli`` replaced.
``faces_of``, ``edges_of`` and ``edge_index_of`` read a surface's arrays
as tuples.  ``decay_slope`` and ``max_principle`` read the paper's
exponential decay and maximum principle off a flow run's step records.
None of it is used by the library.
"""

import math
from dataclasses import dataclass

import numpy as np

from hypflow.surface import (
    TOL_DELAUNAY,
    AdmissibilityError,
    FlipError,
    FlipEvent,
    SurfaceError,
    _weights,
    advance_conformal,
    apply_conformal,
    delaunay_weights,
    face_angles,
    flip_edge,
)
from hypflow.triangle import admissible_mask, angles_from_length_array


def faces_of(surf) -> list:
    """The faces of ``surf`` as vertex triples."""
    return list(map(tuple, surf.face_array.tolist()))


def edges_of(surf) -> list:
    """The vertex pair of each edge slot of ``surf``, in slot order."""
    return list(zip(*surf.ends.tolist()))


def edge_index_of(surf) -> dict:
    """The edge slot of each vertex pair of ``surf``."""
    return {e: idx for idx, e in enumerate(edges_of(surf))}


def edge_faces(surf) -> np.ndarray:
    """(E, 2, 2): the (face, corner) pairs of each slot's two corners, read
    off their flat indices 3 f + c in ``surf.edge_corners``."""
    return np.stack(np.divmod(surf.edge_corners, 3), axis=-1)


# decay_slope fits the final DECAY_TAIL of a run's time; the tolerance on
# the sign of M and the relative slack on its decay envelope
DECAY_TAIL = 0.5
SIGN_TOL = 1e-9
ENVELOPE_SLACK = 0.10


def decay_slope(run) -> float:
    """Least-squares slope of log sup-error vs t over the final part of a run."""
    pts = [(r.t, r.sup_err) for r in run.records if r.sup_err > 1e-300]
    if len(pts) < 3:
        raise ValueError("not enough nonzero error samples for a decay fit")
    t_end = pts[-1][0]
    t_start = pts[0][0]
    cut = t_start + (1.0 - DECAY_TAIL) * (t_end - t_start)
    tail_pts = [(t, e) for t, e in pts if t >= cut]
    if len(tail_pts) < 3:
        tail_pts = pts[-3:]
    ts = np.array([t for t, _ in tail_pts])
    logs = np.log([e for _, e in tail_pts])
    return float(np.polyfit(ts, logs, 1)[0])


def max_principle(records, alpha: float, target: float) -> tuple:
    """``(sign, preserved, ratio)`` of an alpha-Yamabe run to a constant
    ``target`` from its step records alone, M being F_alpha - target: the
    sign of M(0), "nonpositive", "nonnegative" or None; whether every record
    keeps it up to SIGN_TOL; and, for alpha > 0, target < 0 and M(0) > 0
    (else None), the largest max M(t) over the envelope (target * max M(0)
    / max F_alpha(0)) e^(alpha*target*t), max F_alpha(0) being max M(0) +
    target.  The paper bounds the ratio by 1."""
    first = records[0]
    if first.max_M <= 0:
        sign, preserved = "nonpositive", all(r.max_M <= SIGN_TOL for r in records)
    elif first.min_M >= 0:
        sign, preserved = "nonnegative", all(r.min_M >= -SIGN_TOL for r in records)
    else:
        sign, preserved = None, None
    if not (alpha > 0 and target < 0 and first.min_M > 0):
        return sign, preserved, None
    coef = target * first.max_M / (first.max_M + target)
    ratio = 0.0
    for r in records:
        env = coef * math.exp(alpha * target * r.t)
        if env > 1e-300:
            ratio = max(ratio, r.max_M / env)
    return sign, preserved, ratio


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
    # the library's MAX_SCALED_X, below which the cosine law cannot overflow
    if math.log(half) + s > 175.0:
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
    lengths = dict(zip(edges_of(surf), m.length))

    def length(a, b):
        return lengths[(min(a, b), max(a, b))]

    theta, far = 0.0, []
    for f in (surf.edge_corners[edge_index_of(surf)[(i, j)]] // 3).tolist():
        (k,) = set(surf.face_array[f].tolist()) - {i, j}
        _, a_j, _ = tri_angles(TriLengths(length(i, j), length(i, k), length(j, k)))
        theta += a_j
        far.append(length(j, k))
    d_a, d_b = far
    return math.acosh(
        math.cosh(d_a) * math.cosh(d_b) - math.sinh(d_a) * math.sinh(d_b) * math.cos(theta)
    )


def advance_by_bisection(surf, m, u):
    """Move the state to ``u`` along the segment from ``m.current_u``,
    flipping at each wall found by plain bisection: each wall costs about
    50 whole-mesh probes, halving [lo, hi] until it is narrower than 1e-15
    in s, then the state flips at hi by ``delaunay_by_least_weight``.
    Returns the flip events; on an error the state is left at lo and the
    error is raised."""
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
            return not _weights(angles, surf.edge_corners).min() < -TOL_DELAUNAY

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
            events += delaunay_by_least_weight(surf, m)
        except (SurfaceError, OverflowError):
            move(lo)
            raise


def make_delaunay(surf, m) -> list:
    """Flip the state Delaunay at ``m.current_u`` by isometric flip rounds,
    ``advance_conformal`` to ``m.current_u`` itself; returns the events.  A
    refused flip raises, with the state put back as it was given."""
    return advance_conformal(surf, m, m.current_u)[0]


def delaunay_by_least_weight(surf, m) -> list:
    """Flip the state Delaunay at ``m.current_u`` by a static loop: measure
    the whole mesh, flip the non-Delaunay edge of least weight whose flip
    ``flip_edge`` does not refuse, and measure again, until no weight is
    below -TOL_DELAUNAY.  Returns the flip events; raises FlipError if no
    non-Delaunay edge is flippable."""
    events = []
    while True:
        w = delaunay_weights(surf, m)
        candidates = np.flatnonzero(w < -TOL_DELAUNAY)
        if not candidates.size:
            return events
        if len(events) >= 100 * surf.ends.shape[1]:
            raise SurfaceError(f"{len(events)} flips and still not Delaunay")
        for e in candidates[np.argsort(w[candidates], kind="stable")].tolist():
            try:
                events.append(flip_edge(surf, m, e))
                break
            except FlipError:
                continue
        else:
            raise FlipError(f"no non-Delaunay edge is flippable; min weight {w.min():.3e}")


def algebraic_delaunay_test(surf, m) -> np.ndarray:
    """P_e = sum over the two faces at edge e of (x_a^2 + x_b^2 - x_e^2) /
    (x_a x_b x_e), with x = sinh(l/2) and a, b the face's other edges: no
    angle and no triangle inequality, and the sign of the Delaunay weight on
    admissible faces."""
    x = np.sinh(0.5 * m.length[surf.FE])
    T = np.empty_like(x)
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        T[:, c] = (x[:, a] ** 2 + x[:, b] ** 2 - x[:, c] ** 2) / (x[:, a] * x[:, b] * x[:, c])
    terms = T.ravel()[surf.edge_corners]
    return terms[:, 0] + terms[:, 1]


def permuted_angles(L: np.ndarray) -> np.ndarray:
    """Cosine-law angles of an (..., 3) length array, each corner's two
    neighbours taken by permuting the corners with fancy indexing."""
    ch, sh = np.cosh(L), np.sinh(L)
    c1, c2 = ch[..., [1, 2, 0]], ch[..., [2, 0, 1]]
    s1, s2 = sh[..., [1, 2, 0]], sh[..., [2, 0, 1]]
    return np.arccos(np.clip((c1 * c2 - ch) / (s1 * s2), -1.0, 1.0))


def reduced_mask(L: np.ndarray) -> np.ndarray:
    """Strict triangle inequality mask by reductions over the last axis."""
    return L.sum(axis=-1) - 2.0 * L.max(axis=-1) > 0.0


def four_minus_two_weights(angles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Delaunay weights as each face's angle sum minus twice the angle
    opposite the edge, summed over the edge's two (face, corner) ``pairs``."""
    asum = angles.sum(axis=1)
    f1, c1, f2, c2 = pairs.reshape(-1, 4).T
    return asum[f1] - 2.0 * angles[f1, c1] + asum[f2] - 2.0 * angles[f2, c2]


def dense_jacobian(J) -> np.ndarray:
    """The dense n x n matrix of a ``JacobianL`` J, entry by entry from its
    A, B and ends: L_ii = A_i + sum_j B_ij and L_ij = L_ji = -B_ij."""
    n = J.A.shape[0]
    i, j = np.split(J.ends, 2)
    L = np.diag(J.A)
    for a, b, w in zip(i.tolist(), j.tolist(), J.B.tolist()):
        L[a, a] += w
        L[b, b] += w
        L[a, b] -= w
        L[b, a] -= w
    return L


def _quad_around_by_lists(surf, ij: int):
    """The quad of one edge slot that ``hypflow.surface._quads`` reads for
    an array of slots, read by fancy indexing and ``tolist``."""
    i, j = surf.ends[:, ij].tolist()
    (fa, ca), (fb, cb) = edge_faces(surf)[ij].tolist()
    va, vb = surf.face_array[[fa, fb]].tolist()
    if va[(ca + 1) % 3] != i:
        fa, ca, va, fb, cb, vb = fb, cb, vb, fa, ca, va
    ra, rb = surf.FE[fa].tolist(), surf.FE[fb].tolist()
    edges = [ij, ra[(ca + 2) % 3], ra[(ca + 1) % 3], rb[(cb + 1) % 3], rb[(cb + 2) % 3]]
    return (i, j, va[ca], vb[cb]), [(fa, ca), (fb, cb)], edges


def flip_by_lists(surf, m, e: int) -> FlipEvent:
    """``hypflow.surface.flip_edge`` with its quad read by fancy indexing
    and ``tolist`` and its two faces written by fancy indexing."""
    if not 0 <= e < surf.ends.shape[1]:
        raise FlipError(f"no edge slot {e}")
    (i, j, k, l), ((fa, ca), (fb, cb)), (ij, ik, jk, il, jl) = _quad_around_by_lists(surf, e)
    L = m.length[surf.FE[[fa, fb]]]
    if not admissible_mask(L).all():
        raise AdmissibilityError(f"a face at edge {(i, j)} is inadmissible")
    A, B = angles_from_length_array(L).tolist()
    before = (A[(ca + 1) % 3] + B[(cb + 2) % 3], A[(ca + 2) % 3] + B[(cb + 1) % 3], A[ca], B[cb])
    d_ik, d_il = m.length[ik], m.length[il]
    x = math.cosh(d_ik) * math.cosh(d_il) - math.sinh(d_ik) * math.sinh(d_il) * math.cos(before[0])
    if x <= 1.0:
        raise FlipError(f"flip of edge {(i, j)} produces degenerate triangle")
    d_kl = math.acosh(x)
    if k == l:
        raise FlipError(f"flip of edge {(i, j)} would create a self-loop at vertex {k}")
    kl = (min(k, l), max(k, l))
    if ((surf.ends[0] == kl[0]) & (surf.ends[1] == kl[1])).any():
        raise FlipError(f"flip of edge {(i, j)} would create a multi-edge {kl}")
    for a, b in ((ik, il), (jk, jl)):
        tri = (m.length[a], m.length[b], d_kl)
        if sum(tri) - 2.0 * max(tri) <= 0.0:
            raise FlipError(f"flip of edge {(i, j)} produces degenerate triangle")
    surf.face_array[[fa, fb]] = (k, i, l), (l, j, k)
    surf.FE[[fa, fb]] = (il, ij, ik), (jk, ij, jl)
    surf.ends[:, ij] = kl
    surf.edge_corners[ij] = 3 * fa + 1, 3 * fb + 1
    for q, f, c in ((il, fa, 0), (ik, fa, 2), (jk, fb, 0), (jl, fb, 2)):
        at = surf.edge_corners[q]
        at[0 if at[0] // 3 in (fa, fb) else 1] = 3 * f + c
    m.length[ij] = d_kl
    m.lam[ij] = math.log(math.sinh(0.5 * d_kl)) - m.current_u[k] - m.current_u[l]
    A, B = angles_from_length_array(m.length[surf.FE[[fa, fb]]]).tolist()
    after = (A[1], B[1], A[0] + B[2], A[2] + B[0])
    return FlipEvent(
        old_edge=(i, j), new_edge=kl,
        pre_weight=before[0] + before[1] - before[2] - before[3],
        k_jump=max(abs(a - b) for a, b in zip(after, before)),
    )


def combinatorics_by_faces(vertex_count: int, faces) -> list:
    """Diagnostics for raw face lists, one face at a time; empty means every
    edge has two faces that traverse it in opposite directions."""
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
            undirected.setdefault((min(s, t), max(s, t)), []).append(fi)
    for e, fs in undirected.items():
        if len(fs) == 1:
            errors.append(f"boundary edge {e} (only face {fs[0]})")
        elif len(fs) > 2:
            errors.append(f"non-manifold edge {e} shared by faces {fs}")
    return errors


def grid_torus_faces_by_loop(n: int, m: int) -> list:
    """Faces of ``hypflow.meshes.grid_torus(n, m)``, cell by cell."""

    def v(a, b):
        return (a % n) * m + (b % m)

    faces = []
    for a in range(n):
        for b in range(m):
            faces.append((v(a, b), v(a + 1, b), v(a + 1, b + 1)))
            faces.append((v(a, b), v(a + 1, b + 1), v(a, b + 1)))
    return faces


def genus2_faces_by_loop(n: int, m: int) -> tuple:
    """``(vertex_count, faces)`` of ``hypflow.meshes.genus2(n, m)``: two grid
    tori, less a face each, glued along the removed faces' boundaries."""
    faces1 = faces2 = grid_torus_faces_by_loop(n, m)
    n1 = n * m
    (p, q, r), (x, y, z) = faces1[0], faces2[-1]
    relabel = {x: q, y: p, z: r}
    remap, nxt = {}, n1
    for vold in range(n1):
        if vold in relabel:
            remap[vold] = relabel[vold]
        else:
            remap[vold] = nxt
            nxt += 1
    faces = [f for f in faces1 if f != faces1[0]]
    faces += [tuple(remap[v] for v in f) for f in faces2[:-1]]
    return nxt, faces


def perturbed_lengths_by_dict(surf, rng, spread: float, base: float = 1.0) -> dict:
    """``{vertex pair: length}`` with one scalar draw per edge, in sorted
    vertex-pair order."""
    return {e: base * (1.0 + rng.uniform(-spread, spread)) for e in sorted(edges_of(surf))}


def write_phm_by_lines(path: str, surf, m) -> None:
    """The v1 ``.phm`` file of a state, written line by line."""
    with open(path, "w") as fh:
        fh.write("phm 1\n")
        fh.write(f"v {surf.vertex_count}\n")
        for f in faces_of(surf):
            fh.write(f"f {f[0]} {f[1]} {f[2]}\n")
        for e, l in zip(edges_of(surf), m.length.tolist()):
            fh.write(f"e {e[0]} {e[1]} {l:.17g}\n")


def parse_phm_by_lines(path: str) -> tuple:
    """``(vertex_count, faces, {vertex pair: length})`` of a well-formed v1
    ``.phm`` file, read line by line."""
    n, faces, lengths = None, [], {}
    with open(path) as fh:
        lines = fh.readlines()
    for raw in lines[1:]:
        parts = raw.split("#")[0].split()
        if not parts:
            continue
        if parts[0] == "v":
            n = int(parts[1])
        elif parts[0] == "f":
            faces.append(tuple(int(p) for p in parts[1:]))
        else:
            i, j = int(parts[1]), int(parts[2])
            lengths[(min(i, j), max(i, j))] = float(parts[3])
    return n, faces, lengths
