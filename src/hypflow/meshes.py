"""Built-in closed triangulated surfaces used as fixtures and demo inputs."""

from __future__ import annotations

import numpy as np

from .surface import MarkedSurface, PHMetric

__all__ = [
    "tetrahedron",
    "octahedron",
    "grid_torus",
    "genus2",
    "unit_metric",
    "perturbed_metric",
]


def tetrahedron() -> MarkedSurface:
    return MarkedSurface(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def octahedron() -> MarkedSurface:
    """Six vertices, antipodal pairs (0,5), (1,4), (2,3); every edge flippable."""
    faces = [
        (0, 1, 2), (0, 2, 4), (0, 4, 3), (0, 3, 1),
        (5, 2, 1), (5, 4, 2), (5, 3, 4), (5, 1, 3),
    ]
    return MarkedSurface(6, faces)


def grid_torus(n: int = 3, m: int = 3) -> MarkedSurface:
    """n x m grid torus, each cell split along one diagonal; simplicial for n, m >= 3."""
    if n < 3 or m < 3:
        raise ValueError("grid torus needs n, m >= 3 to stay simplicial")

    def v(a, b):
        return (a % n) * m + (b % m)

    faces = []
    for a in range(n):
        for b in range(m):
            faces.append((v(a, b), v(a + 1, b), v(a + 1, b + 1)))
            faces.append((v(a, b), v(a + 1, b + 1), v(a, b + 1)))
    return MarkedSurface(n * m, faces)


def genus2(n: int = 3, m: int = 3) -> MarkedSurface:
    """Genus-2 surface (chi = -2) as the connected sum of two grid tori.

    One face is removed from each torus and the boundary triangles are glued
    with orientations matched, so the result stays oriented and simplicial.
    """
    t1 = grid_torus(n, m)
    t2 = grid_torus(n, m)
    n1 = t1.vertex_count
    faces1, faces2 = t1.faces, t2.faces
    fa = faces1[0]            # (p, q, r) removed from the first torus
    fb = faces2[-1]           # (x, y, z) removed from the second
    p, q, r = fa
    x, y, z = fb
    # gluing map chosen so each glued edge keeps one face on each side with
    # opposite directed traversals
    relabel = {x: q, y: p, z: r}
    remap = {}
    nxt = n1
    for vold in range(t2.vertex_count):
        if vold in relabel:
            remap[vold] = relabel[vold]
        else:
            remap[vold] = nxt
            nxt += 1
    faces = [f for f in faces1 if f != fa]
    faces += [tuple(remap[v] for v in f) for f in faces2[:-1]]
    return MarkedSurface(nxt, faces)


def unit_metric(surf: MarkedSurface, length: float = 1.0) -> PHMetric:
    return PHMetric(surf, {e: length for e in surf.edges})


def perturbed_metric(
    surf: MarkedSurface, rng: np.random.Generator, spread: float = 0.1, base: float = 1.0
) -> PHMetric:
    """Random admissible lengths base * (1 +/- spread); spread < 1/3 keeps all
    triples inside the triangle inequalities."""
    if not 0.0 <= spread < 1.0 / 3.0:
        raise ValueError("spread must lie in [0, 1/3) for guaranteed admissibility")
    lengths = {
        e: base * (1.0 + rng.uniform(-spread, spread)) for e in sorted(surf.edges)
    }
    return PHMetric(surf, lengths)
