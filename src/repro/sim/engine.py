"""The discrete-event simulation core.

:class:`Simulator` maintains a simulated clock and a priority queue of
:class:`~repro.sim.events.Event` objects.  The Section 2.4 packet-level
fat-tree simulator (:mod:`repro.network`: links, TCP flows and the experiment
driver) advances time through it by scheduling plain callables.

The queue is a binary heap of ``(time, priority, sequence, event)`` tuples.
``sequence`` is unique, so the key is a total order: every comparison happens
in C during ``heappush``/``heappop`` and never reaches the ``Event`` itself.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.exceptions import SimulationError
from repro.sim.events import Event, EventState


class Simulator:
    """A minimal, fast discrete-event scheduler.

    The simulator owns the clock (:attr:`now`) and an event queue.  Work is
    scheduled with :meth:`schedule` (relative delay) or :meth:`schedule_at`
    (absolute time) and executed by :meth:`run` or :meth:`run_until`.

    Args:
        start_time: Initial value of the simulated clock, in seconds.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, fired.append, "hello")
        >>> sim.run()
        1
        >>> sim.now, fired
        (1.5, ['hello'])
    """

    #: Cancelled events are purged from the queue once they are this many and
    #: outnumber the live events (amortised O(1) per cancellation).
    _PURGE_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0) -> None:
        """Create a simulator whose clock starts at ``start_time`` seconds.

        Raises:
            SimulationError: If ``start_time`` is not a finite number.
        """
        start = float(start_time)
        if not math.isfinite(start):
            raise SimulationError(f"start_time must be finite, got {start_time!r}")
        self._now = start
        self._heap: list[tuple] = []
        self._sequence = 0
        self._running = False
        self._events_processed = 0
        self._cancelled_in_heap = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have been executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events waiting to fire.

        Maintained as a live counter: cancelling an event decrements it
        immediately even though the cancelled entry stays in the queue until
        it is popped or lazily purged, so long-running simulations can
        introspect their backlog accurately.
        """
        return max(0, len(self._heap) - self._cancelled_in_heap)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------

    def _note_cancellation(self, _event: Event) -> None:
        """Event-cancellation hook keeping the live pending count accurate.

        Only events currently in the queue carry this hook: :meth:`clear` and
        :meth:`_purge_cancelled` detach it from evicted events, so a stale
        handle cancelled later cannot skew the count.
        """
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= self._PURGE_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._purge_cancelled()

    def _purge_cancelled(self) -> None:
        """Drop cancelled entries from the queue and restore its invariants.

        The heap list is compacted in place so that a drain loop holding a
        local reference keeps seeing the live queue.
        """
        cancelled = EventState.CANCELLED
        kept = []
        for entry in self._heap:
            event = entry[3]
            if event.state is cancelled:
                event.on_cancel = None
            else:
                kept.append(entry)
        self._heap[:] = kept
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Args:
            delay: Non-negative delay in simulated seconds.
            callback: Callable to invoke when the event fires.
            *args: Positional arguments for the callback.
            priority: Tie-break priority among events at the same timestamp;
                lower values fire first.

        Returns:
            The scheduled :class:`Event`, which may be cancelled.

        Raises:
            SimulationError: If ``delay`` is negative or not a finite number.
        """
        if not math.isfinite(delay):
            raise SimulationError(f"event delay must be finite, got {delay!r}")
        if delay < 0.0:
            raise SimulationError(f"cannot schedule an event {delay!r} seconds in the past")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``.

        Raises:
            SimulationError: If ``time`` is not a finite number or is before
                the current clock.  NaN is rejected explicitly: it compares
                false against every clock value, so it would slip past the
                ordering check below and corrupt the event queue's invariant.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6g}: clock is already at t={self._now:.6g}"
            )
        self._sequence += 1
        event = Event(
            time=float(time),
            priority=priority,
            sequence=self._sequence,
            callback=callback,
            args=args,
            on_cancel=self._note_cancellation,
        )
        heapq.heappush(self._heap, (event.time, priority, self._sequence, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue is exhausted (or ``max_events`` fired).

        Args:
            max_events: Optional safety cap on the number of events to
                process; ``None`` means run to completion, and ``0`` fires
                nothing.

        Returns:
            The number of events processed by this call.

        Raises:
            SimulationError: If the simulator is already running (re-entrant
                ``run`` calls from inside a callback are not allowed).
        """
        if self._running:
            raise SimulationError("Simulator.run() called re-entrantly from a callback")
        self._running = True
        try:
            return self._drain(max_events, math.inf)
        finally:
            self._running = False

    def run_until(self, until: float) -> int:
        """Run events with timestamps ``<= until`` and set the clock to ``until``.

        Events scheduled after ``until`` remain in the queue, so the
        simulation can be resumed by a later call.

        Args:
            until: Absolute simulated time to run up to (inclusive).

        Returns:
            The number of events processed by this call.

        Raises:
            SimulationError: If ``until`` is not a finite number, is before
                the current clock, or the simulator is already running.  NaN
                would compare false against every event time and fire them
                all; infinity would leave a clock no event can be scheduled
                after.
        """
        if not math.isfinite(until):
            raise SimulationError(f"run_until horizon must be finite, got {until!r}")
        if until < self._now:
            raise SimulationError(
                f"run_until({until!r}) is before the current time {self._now!r}"
            )
        if self._running:
            raise SimulationError("Simulator.run_until() called re-entrantly from a callback")
        self._running = True
        try:
            processed = self._drain(None, until)
        finally:
            self._running = False
        self._now = max(self._now, until)
        return processed

    def _drain(self, max_events: Optional[int], until: float) -> int:
        """Fire events in queue order up to time ``until``; return how many fired.

        Returns early when ``max_events`` have fired.  ``heap`` stays the live
        queue: callbacks push onto it, and :meth:`_purge_cancelled` and
        :meth:`clear` change it in place.
        """
        heap = self._heap
        pop = heapq.heappop
        cancelled = EventState.CANCELLED
        fired = EventState.FIRED
        limit = math.inf if max_events is None else max_events
        processed = 0
        while heap and heap[0][0] <= until and processed < limit:
            time, _, _, event = pop(heap)
            if event.state is cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._now = time
            event.state = fired
            event.callback(*event.args)
            self._events_processed += 1
            processed += 1
        return processed

    def clear(self) -> None:
        """Drop all pending events without firing them.  The clock is kept.

        ``_sequence`` intentionally survives a clear: it is the global
        tie-break of the event ordering key, and resetting it would let an
        event scheduled after the clear compare equal to (or before) a stale
        pre-clear handle, breaking the determinism of event order when a
        simulator is reused.  The monotonic sequence also keeps heap entries
        totally ordered, so comparisons never fall through to the ``Event``
        objects themselves.
        """
        for entry in self._heap:
            entry[3].on_cancel = None
        self._heap.clear()
        self._cancelled_in_heap = 0
