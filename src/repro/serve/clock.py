"""The injectable clock seam for ``repro.serve``.

Every sleep, timer, timeout and timestamp in the serving layer goes through a
:class:`Clock` so the same proxy + load-generator code runs in two modes:

* :class:`RealClock` — ``time.monotonic()`` and ``asyncio.sleep`` on a real
  event loop.  This is the *only* wall-clock surface of the package and is
  sanctioned by the DET003 ALLOWLIST entry for this module (live serving
  measures real latency by design; its reports are never canonical
  artifacts unless produced under a :class:`VirtualClock`).
* :class:`VirtualClock` — a virtual-time event loop.  The clock owns a
  private asyncio loop whose selector is patched so that *waiting* advances
  virtual time instead of blocking: a 10-second sleep completes in
  microseconds of real time, and ``clock.now()`` reads exactly 10.0.  Runs
  are therefore seeded, wall-clock-free and byte-reproducible — the
  property the deterministic test harness and the CI ``cmp`` smoke pin.

Two ways to wait: coroutines await :meth:`Clock.sleep`, while the proxy's
race path and the simulated backends schedule plain callbacks with
:meth:`Clock.call_later`.  A timer's due time is bit-equal to the wake-up of
a ``sleep`` of the same delay started at the same instant.

The virtual loop trades generality for determinism: it refuses to wait
forever (``select(None)`` raises, surfacing virtual-time deadlocks such as
awaiting a future nobody will set) and it must not be mixed with real I/O
readiness (sockets never become ready, because time jumps instead of
waiting).  ``SimBackend`` pools never touch I/O, so the whole simulated
serving stack runs under it unchanged.
"""

from __future__ import annotations

import abc
import asyncio
import time
from typing import Any, Awaitable, Callable, TypeVar

T = TypeVar("T")

__all__ = ["Clock", "RealClock", "VirtualClock"]


class Clock(abc.ABC):
    """Time source + sleep primitive: the only clock API ``repro.serve`` uses."""

    #: Stable identifier recorded in run reports (``"real"`` / ``"virtual"``).
    name: str = "clock"

    @abc.abstractmethod
    def now(self) -> float:
        """The current time in seconds (monotonic; origin is clock-defined)."""

    @abc.abstractmethod
    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` seconds."""

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` ``delay`` seconds from now; return its timer.

        The timer falls due at ``loop.time() + delay`` on the running loop,
        exactly where ``sleep(delay)`` would wake; ``cancel()`` on the
        returned handle withdraws it.
        """
        return asyncio.get_running_loop().call_later(delay, callback, *args)


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
    """A deterministic virtual-time clock owning a patched asyncio loop.

    :meth:`run` drives a coroutine to completion on a fresh event loop whose
    selector never blocks: whenever the loop would wait ``timeout`` seconds
    for I/O, the clock instead advances virtual time by ``timeout`` and
    polls.  Because ``loop.time`` is overridden to the virtual time, every
    ``asyncio.sleep`` / ``call_later`` / ``wait_for`` in the coroutine tree
    observes exact, reproducible timestamps with zero real waiting.
    """

    name = "virtual"

    def __init__(self, start: float = 0.0) -> None:
        self._time = float(start)

    def now(self) -> float:
        return self._time

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def run(self, main: Awaitable[T]) -> T:
        """Run ``main`` to completion under virtual time and return its result."""
        loop = asyncio.new_event_loop()
        self._install(loop)
        try:
            return loop.run_until_complete(main)
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    def _install(self, loop: asyncio.AbstractEventLoop) -> None:
        """Patch ``loop`` so waiting advances ``self._time`` instead of blocking."""
        selector = loop._selector  # type: ignore[attr-defined]
        orig_select = selector.select

        def virtual_select(timeout: Any = None) -> Any:
            if timeout is None:
                raise RuntimeError(
                    "virtual-time deadlock: the event loop would wait forever "
                    "(a task awaits something no timer will ever resolve)"
                )
            if timeout > 0:
                self._time += timeout
            return orig_select(0)

        selector.select = virtual_select
        loop.time = self.now  # type: ignore[method-assign]
        asyncio.set_event_loop(loop)
