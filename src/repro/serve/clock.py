"""The injectable clock seam for ``repro.serve``.

Every sleep, timer, timeout and timestamp in the serving layer goes through a
:class:`Clock` so the same proxy + load-generator code runs in two modes:

* :class:`RealClock` — ``time.monotonic()`` and ``asyncio.sleep`` on a real
  event loop.  This is the *only* wall-clock surface of the package and is
  sanctioned by the DET003 ALLOWLIST entry for this module (live serving
  measures real latency by design; its reports are never canonical
  artifacts unless produced under a :class:`VirtualClock`).
* :class:`VirtualClock` — exact virtual time.  The clock drives its
  coroutine on a minimal event loop that keeps every timer on one plain
  heap and, when nothing is ready to run, jumps the clock to the next
  timer's due time instead of waiting: a 10-second sleep completes in
  microseconds of real time, and ``clock.now()`` reads exactly 10.0.  Runs
  are therefore seeded, wall-clock-free and byte-reproducible — the
  property the deterministic test harness and the CI ``cmp`` smoke pin.

Two ways to wait: coroutines await :meth:`Clock.sleep`, while the proxy's
race path, the simulated backends and the load generator schedule plain
callbacks with :meth:`Clock.call_at`, :meth:`Clock.call_later` and
:meth:`Clock.call_soon`, and hand results over through
:meth:`Clock.create_future`.  A timer's due time is bit-equal to the wake-up
of a ``sleep`` of the same delay started at the same instant.

The virtual loop trades generality for determinism: it refuses to wait
forever (an empty timer heap with nothing ready raises, surfacing
virtual-time deadlocks such as awaiting a future nobody will set) and it
has no I/O at all (sockets never become ready, because time jumps instead
of waiting).  ``SimBackend`` pools never touch I/O, so the whole simulated
serving stack runs under it unchanged.
"""

from __future__ import annotations

import abc
import asyncio
import heapq
import itertools
import time
from typing import Any, Awaitable, Callable, List, Optional, Protocol, Tuple, TypeVar

T = TypeVar("T")

__all__ = ["Clock", "RealClock", "Timer", "VirtualClock"]


class Timer(Protocol):
    """A scheduled callback that can still be withdrawn."""

    def cancel(self) -> None:
        """Withdraw the callback; it will not run."""


class Clock(abc.ABC):
    """Time source + scheduling: the only clock API ``repro.serve`` uses.

    The scheduling calls delegate to the running asyncio loop, whose
    ``time()`` must agree with :meth:`now` (true for ``time.monotonic()``).
    Outside a running loop they raise :class:`RuntimeError`.
    """

    #: Stable identifier recorded in run reports (``"real"`` / ``"virtual"``).
    name: str = "clock"

    @abc.abstractmethod
    def now(self) -> float:
        """The current time in seconds (monotonic; origin is clock-defined)."""

    @abc.abstractmethod
    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` seconds."""

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute time ``when``; return its timer."""
        return asyncio.get_running_loop().call_at(when, callback, *args)

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Run ``callback(*args)`` ``delay`` seconds from now; return its timer.

        The timer falls due at ``now() + delay``, exactly where
        ``sleep(delay)`` would wake; ``cancel()`` on the returned timer
        withdraws it.
        """
        return asyncio.get_running_loop().call_later(delay, callback, *args)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Timer:
        """Run ``callback(*args)`` on the next loop pass, before time moves."""
        return asyncio.get_running_loop().call_soon(callback, *args)

    def create_future(self) -> "asyncio.Future[Any]":
        """A future bound to the running loop."""
        return asyncio.get_running_loop().create_future()

    def quiet(self) -> bool:
        """Whether the loop has nothing to run but its caller: no ready
        callback and no timer that has not been cancelled.

        On a quiet clock, time moves only where the caller's next timer
        falls, so the caller may compute what its own timers would do
        ahead of time.  This base answers ``False``: a clock whose time
        moves by itself is never quiet.
        """
        return False


class RealClock(Clock):
    """Wall-clock time on a normal asyncio event loop.

    The ``time.monotonic()`` read below is the package's entire sanctioned
    wall-clock surface (see the DET003 ALLOWLIST).  Everything else in
    ``repro.serve`` asks this object for the time.
    """

    name = "real"

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)


class VirtualClock(Clock):
    """A deterministic virtual-time clock that runs its own event loop.

    :meth:`run` drives a coroutine to completion on a fresh
    :class:`_VirtualLoop`.  Every timer — asyncio's own (``asyncio.sleep``,
    ``wait_for``) and the clock's — sits on one heap ordered by due time,
    then by scheduling order.  When nothing is ready, the clock is set to
    the earliest due time *exactly*, and every timer due by then runs in
    the order it was scheduled.  A timer due in the past runs at the
    current time; time never moves backwards.

    The clock's own timers are light: they copy no context, and an
    exception raised by their callback propagates out of :meth:`run`
    instead of being logged by asyncio's exception handler.
    """

    name = "virtual"

    def __init__(self, start: float = 0.0) -> None:
        self._time = float(start)
        self._loop: Optional[_VirtualLoop] = None

    def now(self) -> float:
        return self._time

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def _running(self) -> "_VirtualLoop":
        loop = self._loop
        if loop is None:
            raise RuntimeError("no running virtual-time loop: call VirtualClock.run")
        return loop

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        loop = self._running()
        timer = _Timer(callback, args)
        heapq.heappush(loop._timers, (when, next(loop._seq), timer))
        return timer

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        loop = self._running()
        timer = _Timer(callback, args)
        heapq.heappush(loop._timers, (self._time + delay, next(loop._seq), timer))
        return timer

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Timer:
        timer = _Timer(callback, args)
        self._running()._ready.append(timer)
        return timer

    def create_future(self) -> "asyncio.Future[Any]":
        return self._running().create_future()

    def quiet(self) -> bool:
        loop = self._loop
        if loop is None or loop._ready:
            return False
        timers = loop._timers
        # A cancelled timer never runs and never moves the clock, so it is
        # dropped here as the loop would drop it.
        while timers and timers[0][2]._cancelled:
            heapq.heappop(timers)
        return not timers

    def run(self, main: Awaitable[T]) -> T:
        """Run ``main`` to completion under virtual time and return its result."""
        loop = _VirtualLoop(self)
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            return loop.run_until_complete(main)
        finally:
            self._loop = None
            asyncio.set_event_loop(None)
            loop.close()


class _Timer:
    """A clock callback on the virtual loop: no context, no exception handler."""

    __slots__ = ("_callback", "_args", "_cancelled")

    def __init__(self, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self._callback: Optional[Callable[..., Any]] = callback
        self._args: Tuple[Any, ...] = args
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._callback = None
        self._args = ()

    def _run(self) -> None:
        self._callback(*self._args)  # type: ignore[misc]


class _VirtualLoop(asyncio.BaseEventLoop):
    """An asyncio loop whose only event source is a heap of timers.

    ``call_later`` (and with it ``asyncio.sleep`` and ``wait_for``) reaches
    :meth:`call_at`, which pushes ``(due, seq, handle)`` onto the heap the
    clock's own timers share.  :meth:`_run_once` replaces asyncio's selector
    poll with a jump of the clock to the head's due time.
    """

    def __init__(self, clock: VirtualClock) -> None:
        super().__init__()
        self._clock = clock
        self._timers: List[Tuple[float, int, Any]] = []
        self._seq = itertools.count()

    def time(self) -> float:
        return self._clock._time

    def call_at(
        self, when: float, callback: Callable[..., Any], *args: Any, context: Any = None
    ) -> asyncio.TimerHandle:
        self._check_closed()
        timer = asyncio.TimerHandle(when, callback, args, self, context)
        heapq.heappush(self._timers, (when, next(self._seq), timer))
        return timer

    def _run_once(self) -> None:
        """One pass: advance to the next due time if idle, then run what is ready."""
        ready, timers, clock = self._ready, self._timers, self._clock
        if not ready and not self._stopping:
            while timers and timers[0][2]._cancelled:
                heapq.heappop(timers)
            if not timers:
                raise RuntimeError(
                    "virtual-time deadlock: the event loop would wait forever "
                    "(a task awaits something no timer will ever resolve)"
                )
            if timers[0][0] > clock._time:
                clock._time = timers[0][0]
        now = clock._time
        while timers and timers[0][0] <= now:
            ready.append(heapq.heappop(timers)[2])
        # Callbacks scheduled by these run on the next pass.
        for _ in range(len(ready)):
            handle = ready.popleft()
            if not handle._cancelled:
                handle._run()

    def close(self) -> None:
        super().close()
        self._timers.clear()
