"""Tests for the strict-priority switch output queue (PriorityQueueResource)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sim import PriorityQueueResource


class TestPriorityQueueResource:
    def test_strict_priority_ordering(self):
        queue = PriorityQueueResource(capacity_bytes=None, levels=2)
        queue.push("low", 100, priority=1)
        queue.push("high", 100, priority=0)
        item, _size, priority = queue.pop()
        assert item == "high" and priority == 0
        item, _size, priority = queue.pop()
        assert item == "low" and priority == 1

    def test_byte_capacity_enforced(self):
        queue = PriorityQueueResource(capacity_bytes=250.0)
        assert queue.push("a", 100)
        assert queue.push("b", 100)
        assert not queue.push("c", 100, displace_lower=False)
        assert queue.drops == 1

    def test_higher_priority_displaces_lower(self):
        queue = PriorityQueueResource(capacity_bytes=200.0, levels=2)
        assert queue.push("low-1", 100, priority=1)
        assert queue.push("low-2", 100, priority=1)
        # The queue is full of low-priority items; a normal-priority arrival
        # must displace them rather than being dropped.
        assert queue.push("high", 100, priority=0)
        assert queue.drops_by_priority[1] == 1
        assert queue.drops_by_priority[0] == 0
        item, _size, priority = queue.pop()
        assert item == "high"

    def test_lower_priority_never_displaces_higher(self):
        queue = PriorityQueueResource(capacity_bytes=200.0, levels=2)
        queue.push("high-1", 100, priority=0)
        queue.push("high-2", 100, priority=0)
        assert not queue.push("low", 100, priority=1)
        assert queue.occupancy_of(0) == 2

    def test_occupancy_bytes_accounting(self):
        queue = PriorityQueueResource(capacity_bytes=1000.0)
        queue.push("a", 300)
        queue.push("b", 200)
        assert queue.occupancy_bytes == 500
        queue.pop()
        assert queue.occupancy_bytes == 200

    def test_invalid_priority_rejected(self):
        queue = PriorityQueueResource(capacity_bytes=None, levels=2)
        with pytest.raises(ConfigurationError):
            queue.push("x", 10, priority=2)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PriorityQueueResource(capacity_bytes=None).pop()
