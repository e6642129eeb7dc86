"""Tests for the asyncio client's default backend selection."""

import collections

import pytest

from repro.core import UniformRandom
from repro.exceptions import ConfigurationError


class TestUniformRandom:
    def test_returns_distinct_backends(self):
        strategy = UniformRandom(seed=0)
        for _ in range(200):
            chosen = strategy.choose(10, 3)
            assert len(set(chosen)) == 3
            assert all(0 <= c < 10 for c in chosen)

    def test_covers_all_backends_over_time(self):
        strategy = UniformRandom(seed=1)
        seen = set()
        for _ in range(500):
            seen.update(strategy.choose(6, 2))
        assert seen == set(range(6))

    def test_roughly_uniform(self):
        strategy = UniformRandom(seed=2)
        counts = collections.Counter()
        for _ in range(6000):
            counts.update(strategy.choose(4, 1))
        for backend in range(4):
            assert counts[backend] == pytest.approx(1500, rel=0.15)

    def test_invalid_copies(self):
        with pytest.raises(ConfigurationError):
            UniformRandom(seed=0).choose(3, 4)
        with pytest.raises(ConfigurationError):
            UniformRandom(seed=0).choose(3, 0)
