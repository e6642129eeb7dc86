"""Shared pytest fixtures."""

import numpy as np
import pytest

from repro.core.selection import SelectionStrategy


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """A factory for deterministic generators with distinct seeds."""

    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


class _InOrder(SelectionStrategy):
    """Sends a request's copies to the first backends, in list order."""

    def choose(self, num_backends, copies):
        return list(range(copies))


@pytest.fixture
def in_order() -> SelectionStrategy:
    """A selection strategy that places copies on backends 0, 1, ... in order."""
    return _InOrder()
