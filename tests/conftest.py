import numpy as np
import pytest

from biforge.groups import GroupSpec, sample_point
from biforge.operators import context


@pytest.fixture(scope="session")
def ctx_for():
    """Operator contexts are immutable; the whole run shares one per group."""
    return context


@pytest.fixture(scope="session")
def points_for():
    def get(spec: GroupSpec, count: int, seed: int):
        return np.array([sample_point(spec, seed + i) for i in range(count)])

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
