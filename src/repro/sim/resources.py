"""Queueing resources built on the event engine.

The substrates share three building blocks:

* :class:`Server` — a single FIFO queue + server with caller-supplied service
  times.  This is the work-horse of the Section 2.1 queueing model and of the
  disk/memcached models, where "the disk" or "the memcached process" is a
  server whose service time depends on the request.
* :class:`FifoQueue` — a plain FIFO buffer with optional capacity, used for
  switch output queues when priorities are not needed.
* :class:`PriorityQueueResource` — a strict-priority, drop-tail byte-bounded
  queue used by the fat-tree switches in Section 2.4 (original packets at high
  priority, replicated packets at low priority).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator


class Server:
    """A single-server FIFO queue.

    Jobs are submitted with :meth:`submit`; each job carries a service time
    and a completion callback.  The server works on one job at a time in
    arrival order.  The completion callback receives
    ``(job, start_time, finish_time)`` so callers can compute waiting and
    response times without the server knowing anything about the experiment.

    Attributes:
        busy: Whether a job is currently in service.
        queue_length: Number of jobs waiting (not counting the one in service).
    """

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        """Create an idle server attached to ``sim``."""
        self._sim = sim
        self.name = name
        self.busy = False
        self._queue: Deque[Tuple[Any, float, Callable[[Any, float, float], None]]] = deque()
        self.jobs_completed = 0
        self.busy_time = 0.0

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting for service (excludes the job in service)."""
        return len(self._queue)

    def submit(
        self,
        job: Any,
        service_time: float,
        on_complete: Callable[[Any, float, float], None],
    ) -> None:
        """Enqueue ``job`` requiring ``service_time`` seconds of service.

        Args:
            job: Opaque job object handed back to ``on_complete``.
            service_time: Non-negative service requirement in seconds.
            on_complete: Called as ``on_complete(job, start, finish)`` when the
                job finishes service.

        Raises:
            ConfigurationError: If ``service_time`` is negative.
        """
        if service_time < 0:
            raise ConfigurationError(f"service_time must be >= 0, got {service_time!r}")
        self._queue.append((job, float(service_time), on_complete))
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self.busy = False
            return
        self.busy = True
        job, service_time, on_complete = self._queue.popleft()
        start = self._sim.now
        finish = start + service_time
        self.busy_time += service_time
        self._sim.schedule(service_time, self._finish, job, start, finish, on_complete)

    def _finish(
        self,
        job: Any,
        start: float,
        finish: float,
        on_complete: Callable[[Any, float, float], None],
    ) -> None:
        self.jobs_completed += 1
        on_complete(job, start, finish)
        self._start_next()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the server has been busy.

        Args:
            elapsed: Observation window in seconds; defaults to the current
                simulated time.
        """
        window = self._sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)


class FifoQueue:
    """A capacity-bounded FIFO buffer (in items), with drop counting."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        """Create a queue holding at most ``capacity`` items (``None`` = unbounded)."""
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"capacity must be positive or None, got {capacity!r}")
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self.drops = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: Any) -> bool:
        """Append ``item``; returns ``False`` (and counts a drop) if full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.drops += 1
            return False
        self._items.append(item)
        return True

    def pop(self) -> Any:
        """Remove and return the oldest item.

        Raises:
            IndexError: If the queue is empty.
        """
        return self._items.popleft()

    def peek(self) -> Any:
        """Return the oldest item without removing it."""
        return self._items[0]

    @property
    def empty(self) -> bool:
        """Whether the queue holds no items."""
        return not self._items


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
