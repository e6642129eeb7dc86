"""The switch output queue of the Section 2.4 fat-tree simulator.

:class:`PriorityQueueResource` is a strict-priority, drop-tail byte-bounded
queue.  Each directed :class:`repro.network.link.Link` (the output port of
its upstream device) holds one, with original packets at high priority and
replicated packets at low priority.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.exceptions import ConfigurationError


class PriorityQueueResource:
    """A strict-priority, byte-bounded, drop-tail queue.

    Used for switch output ports: each enqueued item has a priority class
    (lower number = served strictly first) and a size in bytes.  The total
    byte occupancy across all priority classes is bounded by
    ``capacity_bytes``; an arriving item that does not fit is dropped
    regardless of priority (drop-tail, as in the paper's ns-3 setup).
    """

    def __init__(self, capacity_bytes: Optional[float], levels: int = 2) -> None:
        """Create a queue with ``levels`` strict-priority classes.

        Args:
            capacity_bytes: Shared byte budget across classes (``None`` =
                unbounded).
            levels: Number of priority classes (>= 1).
        """
        if levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {levels!r}")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity_bytes must be positive or None, got {capacity_bytes!r}"
            )
        self.capacity_bytes = capacity_bytes
        self.levels = levels
        self._queues: List[Deque[Tuple[Any, float]]] = [deque() for _ in range(levels)]
        self.occupancy_bytes = 0.0
        self.drops = 0
        self.drops_by_priority = [0] * levels

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def push(
        self, item: Any, size_bytes: float, priority: int = 0, displace_lower: bool = True
    ) -> bool:
        """Enqueue ``item`` of ``size_bytes`` at ``priority`` (0 = highest).

        When the shared buffer is full and ``displace_lower`` is true, queued
        items of *strictly lower* priority are dropped (newest first) to make
        room for the arriving higher-priority item.  This preserves the
        Section 2.4 guarantee that replicated (low-priority) traffic can never
        cause loss or delay of ordinary traffic, even though the buffer is
        shared.

        Returns:
            ``True`` if enqueued, ``False`` if dropped for lack of buffer space.

        Raises:
            ConfigurationError: If ``priority`` is outside ``[0, levels)``.
        """
        if not 0 <= priority < self.levels:
            raise ConfigurationError(
                f"priority {priority!r} outside [0, {self.levels}) for this queue"
            )
        if (
            self.capacity_bytes is not None
            and self.occupancy_bytes + size_bytes > self.capacity_bytes
        ):
            if displace_lower:
                self._displace_lower_priority(size_bytes, priority)
            if self.occupancy_bytes + size_bytes > self.capacity_bytes:
                self.drops += 1
                self.drops_by_priority[priority] += 1
                return False
        self._queues[priority].append((item, float(size_bytes)))
        self.occupancy_bytes += size_bytes
        return True

    def _displace_lower_priority(self, needed_bytes: float, priority: int) -> None:
        """Drop lower-priority items (newest first) until ``needed_bytes`` fit."""
        assert self.capacity_bytes is not None
        for lower in range(self.levels - 1, priority, -1):
            queue = self._queues[lower]
            while queue and self.occupancy_bytes + needed_bytes > self.capacity_bytes:
                _, size = queue.pop()
                self.occupancy_bytes -= size
                self.drops += 1
                self.drops_by_priority[lower] += 1
            if self.occupancy_bytes + needed_bytes <= self.capacity_bytes:
                return

    def pop(self) -> Tuple[Any, float, int]:
        """Dequeue from the highest-priority non-empty class.

        Returns:
            ``(item, size_bytes, priority)``.

        Raises:
            IndexError: If every class is empty.
        """
        for priority, queue in enumerate(self._queues):
            if queue:
                item, size = queue.popleft()
                self.occupancy_bytes -= size
                return item, size, priority
        raise IndexError("pop from empty PriorityQueueResource")

    @property
    def empty(self) -> bool:
        """Whether all priority classes are empty."""
        return all(not q for q in self._queues)

    def occupancy_of(self, priority: int) -> int:
        """Number of items queued at ``priority``."""
        return len(self._queues[priority])
