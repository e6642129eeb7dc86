"""Scheduled events for the discrete-event simulator.

An :class:`Event` is created by :meth:`repro.sim.engine.Simulator.schedule`
and represents a callback that will fire at a given simulated time unless it
is cancelled first.  The simulator fires events in ``(time, priority,
sequence)`` order, so ties at the same timestamp are resolved
deterministically: first by the caller-supplied priority, then by scheduling
order.

``Event`` is a ``__slots__`` class rather than a dataclass: packet-mode
network simulations allocate one event per packet per hop, so the per-event
memory and attribute-access overhead is on the critical path.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class EventState(enum.Enum):
    """Lifecycle state of a scheduled event."""

    PENDING = "pending"
    """The event is in the scheduler's queue and has not fired yet."""

    FIRED = "fired"
    """The event's callback has been executed."""

    CANCELLED = "cancelled"
    """The event was cancelled before firing; its callback will never run."""


def _noop() -> None:
    return None


class Event:
    """A callback scheduled to run at a simulated time.

    Instances are created by the simulator; user code normally only holds on
    to them in order to :meth:`cancel` them (for example, a retransmission
    timer that is no longer needed, or the losing copies of a hedged request).

    Attributes:
        time: Simulated time at which the event fires.
        priority: Tie-break priority for events at the same time (lower fires
            first).  Defaults to 0.
        sequence: Monotonically increasing scheduling sequence number used as
            the final tie-break so ordering is fully deterministic.
        callback: The callable invoked when the event fires (not part of the
            ordering key).
        args: Positional arguments passed to ``callback``.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args", "state", "on_cancel")

    def __init__(
        self,
        time: float,
        priority: int = 0,
        sequence: int = 0,
        callback: Callable[..., Any] = _noop,
        args: tuple = (),
        state: EventState = EventState.PENDING,
        on_cancel: Optional[Callable[["Event"], None]] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.state = state
        #: Set by the scheduler so it can keep an accurate live count of
        #: pending (non-cancelled) events; not part of the ordering key.
        self.on_cancel = on_cancel

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, state={self.state.value!r})"
        )

    def cancel(self) -> bool:
        """Cancel the event if it has not fired yet.

        Returns:
            ``True`` if the event was pending and is now cancelled, ``False``
            if it had already fired or was already cancelled.  Cancelling is
            O(1): the event is left in the queue and skipped when popped (the
            owning scheduler is notified so its pending count stays accurate).
        """
        if self.state is EventState.PENDING:
            self.state = EventState.CANCELLED
            if self.on_cancel is not None:
                self.on_cancel(self)
            return True
        return False

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return self.state is EventState.PENDING

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before firing."""
        return self.state is EventState.CANCELLED
