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


def _grid_faces(n: int, m: int) -> np.ndarray:
    """Faces of the n x m grid torus: cell (a, b), row-major, split into
    (v(a, b), v(a+1, b), v(a+1, b+1)) and (v(a, b), v(a+1, b+1), v(a, b+1))."""
    if n < 3 or m < 3:
        raise ValueError("grid torus needs n, m >= 3 to stay simplicial")
    a, b = np.divmod(np.arange(n * m), m)
    v00, v01 = a * m + b, a * m + (b + 1) % m
    v10, v11 = (a + 1) % n * m + b, (a + 1) % n * m + (b + 1) % m
    return np.stack((v00, v10, v11, v00, v11, v01), axis=1).reshape(-1, 3)


def grid_torus(n: int = 3, m: int = 3) -> MarkedSurface:
    """n x m grid torus, each cell split along one diagonal; simplicial for n, m >= 3."""
    return MarkedSurface(n * m, _grid_faces(n, m))


def genus2(n: int = 3, m: int = 3) -> MarkedSurface:
    """Genus-2 surface (chi = -2) as the connected sum of two grid tori.

    One face is removed from each torus and the boundary triangles are glued
    with orientations matched, so the result stays oriented and simplicial.
    """
    faces = _grid_faces(n, m)
    n1 = n * m
    (p, q, r), (x, y, z) = faces[0], faces[-1]  # removed from the first and the second torus
    # gluing map chosen so each glued edge keeps one face on each side with
    # opposite directed traversals; the second torus's other vertices follow
    # the first's in order
    remap = n1 + np.arange(n1) - np.searchsorted(np.sort([x, y, z]), np.arange(n1))
    remap[[x, y, z]] = q, p, r
    return MarkedSurface(2 * n1 - 3, np.concatenate((faces[1:], remap[faces[:-1]])))


def unit_metric(surf: MarkedSurface, length: float = 1.0) -> PHMetric:
    return PHMetric(surf, np.full(surf.ends.shape[1], float(length)))


def perturbed_metric(
    surf: MarkedSurface, rng: np.random.Generator, spread: float = 0.1, base: float = 1.0
) -> PHMetric:
    """Random admissible lengths base * (1 +/- spread); spread < 1/3 keeps all
    triples inside the triangle inequalities.  The draws go to the edges in
    sorted vertex-pair order, whatever their slots."""
    if not 0.0 <= spread < 1.0 / 3.0:
        raise ValueError("spread must lie in [0, 1/3) for guaranteed admissibility")
    length = np.empty(surf.ends.shape[1])
    length[np.argsort(surf.ends[0] * surf.vertex_count + surf.ends[1])] = base * (
        1.0 + rng.uniform(-spread, spread, length.size)
    )
    return PHMetric(surf, length)
