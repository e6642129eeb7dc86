"""The event heap of the Section 2.4 packet-level fat-tree simulator.

:class:`Simulator` keeps a simulated clock and one binary heap of plain
``(time, sequence, callback, args)`` entries.  The links, TCP flows and
experiment driver of :mod:`repro.network` advance time through it by
scheduling callables.  ``sequence`` is unique, so the key is a total order:
events fire by time, ties in scheduling order, and every comparison is made
in C by ``heappush``/``heappop`` without reaching the callback.

Nothing is cancelled.  The one timer the packet simulator withdraws, a TCP
flow's retransmission timeout, carries a per-flow token and returns without
acting once a later restart or the flow's completion has withdrawn it.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.exceptions import SimulationError


class Simulator:
    """A minimal discrete-event scheduler whose clock starts at 0.

    Work is scheduled with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time) and executed by :meth:`run` or
    :meth:`run_until`.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.schedule(1.5, fired.append, "hello")
        >>> sim.run()
        >>> sim.now, fired
        (1.5, ['hello'])
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple] = []
        self._sequence = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: If ``delay`` is negative or not a finite number.
        """
        self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``.

        Raises:
            SimulationError: If ``time`` is before the clock or not a finite
                number.  NaN compares false against the clock, so one check
                rejects it with the past and the infinities.
        """
        time = float(time)
        if not self._now <= time < math.inf:
            raise SimulationError(
                f"cannot schedule an event at t={time!r}: event times must be "
                f"finite and not before the clock (t={self._now!r})"
            )
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, args))

    def run(self) -> None:
        """Fire events until the heap is empty.

        Raises:
            SimulationError: If called from inside a callback.
        """
        self._drain(math.inf)

    def run_until(self, until: float) -> None:
        """Fire events with times ``<= until``, then set the clock to ``until``.

        Later events stay in the heap, so a later call resumes the run.

        Raises:
            SimulationError: If ``until`` is before the clock or not a finite
                number (NaN would fire every event, and a clock left at
                infinity would refuse every later event), or if called from
                inside a callback.
        """
        until = float(until)
        if not self._now <= until < math.inf:
            raise SimulationError(
                f"run_until horizon must be finite and not before the clock "
                f"(t={self._now!r}), got {until!r}"
            )
        self._drain(until)
        self._now = until

    def _drain(self, until: float) -> None:
        """Fire events in heap order up to time ``until``.

        ``heap`` stays the live queue: callbacks push onto it, and
        :meth:`clear` empties it in place.
        """
        if self._running:
            raise SimulationError("the simulator cannot be run from inside a callback")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and heap[0][0] <= until:
                time, _, callback, args = pop(heap)
                self._now = time
                callback(*args)
        finally:
            self._running = False

    def clear(self) -> None:
        """Drop all pending events without firing them.  The clock is kept."""
        self._heap.clear()
