import numpy as np
import pytest

from biforge.groups import GroupSpec, sample_point
from biforge.operators import OperatorContext

_CTX_CACHE: dict = {}


@pytest.fixture(scope="session")
def ctx_for():
    """Operator contexts are immutable; share them across the whole run."""

    def get(spec: GroupSpec) -> OperatorContext:
        key = (spec.kind, spec.n)
        if key not in _CTX_CACHE:
            _CTX_CACHE[key] = OperatorContext.for_spec(spec)
        return _CTX_CACHE[key]

    return get


@pytest.fixture(scope="session")
def points_for():
    def get(spec: GroupSpec, count: int, seed: int):
        return np.array([sample_point(spec, seed + i) for i in range(count)])

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
