"""Finite-difference reference derivatives used by unit and acceptance tests.

Everything here goes through the scalar formulas of ``reference`` only
(``scaled_length`` and the cosine law), so it is an independent check of the
library's vectorised angle-derivative kernel.
"""

import numpy as np

from reference import TriLengths, scaled_length, tri_angles, tri_area


def random_admissible_lengths(rng, low=0.3, high=2.0, max_tries=1000):
    """Random admissible TriLengths with log-uniform edge lengths."""
    for _ in range(max_tries):
        vals = np.exp(rng.uniform(np.log(low), np.log(high), 3))
        tri = TriLengths(*vals)
        # stay away from the degeneracy boundary so derivatives are well scaled
        if vals.sum() - 2.0 * vals.max() > 0.05:
            return tri
    raise RuntimeError("failed to sample an admissible triangle")


def _scaled_tri(base: TriLengths, u_i: float, u_j: float, u_k: float) -> TriLengths:
    return TriLengths(
        l_ij=scaled_length(base.l_ij, u_i, u_j),
        l_ik=scaled_length(base.l_ik, u_i, u_k),
        l_jk=scaled_length(base.l_jk, u_j, u_k),
    )


def fd_dangle(base: TriLengths, angle: str, vertex: str, h: float = 1e-5) -> float:
    """Central difference of an angle w.r.t. one conformal factor at u = 0."""

    def eval_at(uv):
        u = {"i": 0.0, "j": 0.0, "k": 0.0}
        u[vertex] = uv
        a = tri_angles(_scaled_tri(base, u["i"], u["j"], u["k"]))
        return a["ijk".index(angle)]

    return (eval_at(h) - eval_at(-h)) / (2.0 * h)


def fd_darea(base: TriLengths, vertex: str, h: float = 1e-5) -> float:
    """Central difference of the triangle area w.r.t. one conformal factor."""

    def eval_at(uv):
        u = {"i": 0.0, "j": 0.0, "k": 0.0}
        u[vertex] = uv
        return tri_area(tri_angles(_scaled_tri(base, u["i"], u["j"], u["k"])))

    return (eval_at(h) - eval_at(-h)) / (2.0 * h)


def rel_err(approx: float, exact: float) -> float:
    """Mixed absolute/relative error: |diff| / max(1, |exact|)."""
    return abs(approx - exact) / max(1.0, abs(exact))
