import numpy as np
import pytest

from hypflow.meshes import genus2, grid_torus, octahedron, perturbed_metric, unit_metric


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def genus2_unit():
    """Fresh genus-2 surface with unit lengths; safe to mutate."""
    surf = genus2()
    return surf, unit_metric(surf)


@pytest.fixture
def genus2_perturbed():
    """Fresh genus-2 surface with seeded perturbed lengths; safe to mutate."""
    surf = genus2()
    rng = np.random.default_rng(1)
    return surf, perturbed_metric(surf, rng, spread=0.28)


@pytest.fixture
def torus_unit():
    surf = grid_torus(3, 3)
    return surf, unit_metric(surf)


@pytest.fixture
def octa_unit():
    surf = octahedron()
    return surf, unit_metric(surf)
