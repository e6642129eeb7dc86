"""Backend abstraction for the live serving layer.

A :class:`Backend` answers one request at a time cost; the proxy races k of
them.  :class:`SimBackend` is the workhorse: service times drawn from any
existing substrate :class:`~repro.distributions.base.Distribution` on a
seeded substream, with a single-server FIFO discipline expressed as a
*reservation*::

    start  = max(now, busy_until)
    finish = start + service
    busy_until = finish

— the same math as the stations of the offline FIFO hedging engine
(:mod:`repro.core.cancellation`), so the online layer and the offline
substrates agree on what a queue is.

Cancellation is conservative: a cancelled copy gives back only the *tail*
of its reservation, and only when nothing was queued behind it —
cancellation saves queueing, not work already under way.

Three call surfaces share that one ``busy_until`` state through one
reservation routine:

* ``start(key, done)`` — used by the proxy's race path (the race of
  :class:`repro.core.hedging.Racer`): reserves, schedules the finish as a
  clock timer due at the reserved finish time (``clock.call_at``) and
  returns a handle whose ``cancel()`` reclaims by the rule above.
  ``done(service)`` runs at the finish, which on a virtual clock is the
  reservation's ``finish`` bit for bit.  No task, no coroutine.
* ``submit(key, now)`` — synchronous fast path used by the proxy's
  no-cancel eager dispatch: reserves and returns the absolute finish time
  without scheduling anything.
* ``async handle(key)`` — the coroutine contract of every
  :class:`Backend`: on :class:`SimBackend` a thin wrapper that awaits
  ``start``.

Because every path drives the same reservation, a policy hot-swap mid-run
never leaves the pool with two disagreeing pictures of its queues.

Backends that only learn their finish by awaiting real I/O (the echo
backend) implement ``handle`` alone; the base class's ``start`` runs it in a
task and reports its outcome through the same ``done`` callback, as the
asyncio client in :mod:`repro.core.hedging` runs each of its copies.

``queueing=False`` turns the backend into an infinite-server station (no
reservation coupling between requests) — the configuration the ``bench``
mode uses so throughput measurement is not confounded by simulated
saturation.
"""

from __future__ import annotations

import abc
import asyncio
import functools
from typing import Optional, Tuple

import numpy as np

from repro.core.hedging import CopyDone, CopyHandle, _TaskCopy
from repro.distributions import Distribution, Exponential
from repro.serve.clock import Clock, Timer
from repro.sim.rng import substream

__all__ = ["Backend", "BackendError", "SimBackend"]

#: Service draws are replenished in blocks of this many samples.
_DRAW_BLOCK = 4096


class BackendError(RuntimeError):
    """A backend refused a request (e.g. it was marked failed)."""


class Backend(abc.ABC):
    """One addressable server in the pool, identified by its ring index."""

    def __init__(self, index: int) -> None:
        self.index = int(index)
        #: Completed copies (winners and losers both; cancelled copies not).
        self.completed = 0
        #: Simulated seconds of service actually consumed on this backend.
        self.consumed_s = 0.0

    @property
    @abc.abstractmethod
    def failed(self) -> bool:
        """Whether the backend currently refuses requests."""

    @abc.abstractmethod
    async def handle(self, key: int) -> float:
        """Serve ``key``; return the service time spent (seconds)."""

    def start(self, key: int, done: CopyDone) -> CopyHandle:
        """Start serving ``key`` without waiting; return a cancellable handle.

        ``done`` runs once, when the copy finishes: ``done(service)`` with
        the service time, or ``done(None, error)`` with the exception
        :meth:`handle` raised — any exception counts as a failed copy.
        After ``cancel()`` it never runs.  This default runs :meth:`handle`
        in a task; backends that can reserve synchronously override it and
        may raise :class:`BackendError` at once when they refuse the copy.
        """
        return _TaskCopy(asyncio.ensure_future(self.handle(key)), done)


class SimBackend(Backend):
    """A simulated backend: seeded service-time draws + FIFO reservations.

    Args:
        index: Position of this backend in the pool (names its substream).
        clock: The injected clock; all waiting goes through it.
        seed: Pool-level seed; the backend draws from
            ``substream(seed, "serve-backend", index)``.
        service: Service-time distribution (seconds). Defaults to an
            exponential with 1 ms mean.
        queueing: ``True`` for single-server FIFO (the default), ``False``
            for an infinite-server station (bench mode).
    """

    def __init__(
        self,
        index: int,
        clock: Clock,
        seed: int,
        service: Optional[Distribution] = None,
        queueing: bool = True,
    ) -> None:
        super().__init__(index)
        self._clock = clock
        self._service = service if service is not None else Exponential(mean=0.001)
        self._rng = substream(seed, "serve-backend", index)
        self._queueing = bool(queueing)
        self._busy_until = 0.0
        self._failed = False
        self._block = np.empty(0)
        self._cursor = 0

    @property
    def failed(self) -> bool:
        return self._failed

    def set_failed(self, failed: bool = True) -> None:
        """Mark the backend down (``handle``/``submit`` raise) or back up."""
        self._failed = bool(failed)

    def draw_service(self) -> float:
        """Next seeded service time (block-buffered for throughput)."""
        if self._cursor >= len(self._block):
            self._block = np.asarray(
                self._service.sample(self._rng, size=_DRAW_BLOCK), dtype=float
            )
            self._cursor = 0
        value = float(self._block[self._cursor])
        self._cursor += 1
        return value

    def draw_many(self, count: int) -> np.ndarray:
        """Next ``count`` seeded service times, from the same block stream.

        Consumes the identical draw sequence as ``count`` calls to
        :meth:`draw_service`, so batched and scalar dispatch agree on which
        service time each copy gets.
        """
        parts = []
        remaining = count
        while remaining > 0:
            available = len(self._block) - self._cursor
            if available == 0:
                self._block = np.asarray(
                    self._service.sample(self._rng, size=max(_DRAW_BLOCK, remaining)),
                    dtype=float,
                )
                self._cursor = 0
                continue
            take = min(available, remaining)
            parts.append(self._block[self._cursor : self._cursor + take])
            self._cursor += take
            remaining -= take
        return parts[0].copy() if len(parts) == 1 else np.concatenate(parts)

    def _reserve(self, now: float) -> Tuple[float, float, float, float]:
        """Reserve one copy's service at ``now``.

        Returns ``(prev_busy, start, finish, service)``: the FIFO
        reservation every call surface shares.
        """
        if self._failed:
            raise BackendError(f"backend {self.index} is marked failed")
        service = self.draw_service()
        if self._queueing:
            prev_busy = self._busy_until
            start = max(now, prev_busy)
            finish = start + service
            self._busy_until = finish
        else:
            prev_busy = start = now
            finish = now + service
        return prev_busy, start, finish, service

    def submit(self, key: int, now: float) -> Tuple[float, float]:
        """Reserve service for ``key`` at ``now``; return ``(finish, service)``.

        The synchronous fast path: no task, no sleep — the caller is
        responsible for delivering the completion at ``finish``.
        """
        _prev_busy, _start, finish, service = self._reserve(now)
        self.completed += 1
        self.consumed_s += service
        return finish, service

    def submit_many(self, arrivals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`submit` for a batch of copies.

        ``arrivals`` must be ascending (the load generator issues arrivals
        in time order).  Returns ``(finishes, services)``.  The FIFO
        recurrence ``finish_i = max(arrival_i, finish_{i-1}) + service_i``
        is evaluated in closed form: with ``C = cumsum(services)``,
        ``finish_i = max(busy, max_{j<=i}(arrival_j - C_{j-1})) + C_i``.
        """
        if self._failed:
            raise BackendError(f"backend {self.index} is marked failed")
        services = self.draw_many(len(arrivals))
        if self._queueing:
            csum = np.cumsum(services)
            slack = np.maximum.accumulate(arrivals - (csum - services))
            finishes = np.maximum(slack, self._busy_until) + csum
            self._busy_until = float(finishes[-1])
        else:
            finishes = arrivals + services
        self.completed += len(arrivals)
        self.consumed_s += float(services.sum())
        return finishes, services

    def start(self, key: int, done: CopyDone) -> "_SimCopy":
        """Reserve ``key`` now and finish it on a clock timer.

        The timer falls due at the reserved finish itself: a delay of
        ``finish - now`` would land on ``now + (finish - now)``, which need
        not equal ``finish`` once the finish exceeds twice the current time.
        Raises :class:`BackendError` at once if the backend is marked
        failed.
        """
        copy = _SimCopy(self, *self._reserve(self._clock.now()), done)
        copy.timer = self._clock.call_at(copy.finish, copy.complete)
        return copy

    def _reclaim(
        self, prev_busy: float, start: float, finish: float, service: float
    ) -> None:
        """Account for a copy cancelled before its finish.

        The reservation tail is given back only if the copy is still the
        last reservation (nothing queued behind it), and never below the
        work already performed; otherwise it is served in full.
        """
        if self._queueing and self._busy_until == finish:
            cancel_at = self._clock.now()
            self._busy_until = max(prev_busy, min(cancel_at, finish))
            self.consumed_s += max(0.0, min(cancel_at, finish) - start)
        else:
            self.completed += 1
            self.consumed_s += service

    async def handle(self, key: int) -> float:
        """Serve ``key`` on the coroutine path; cancellable while queued.

        Awaits :meth:`start`; cancelling the awaiting task cancels the copy.
        """
        finished: "asyncio.Future[float]" = self._clock.create_future()
        copy = self.start(key, functools.partial(_resolve, finished))
        try:
            return await finished
        except asyncio.CancelledError:
            copy.cancel()
            raise


def _resolve(future: "asyncio.Future[float]", service: Optional[float]) -> None:
    if not future.done():
        future.set_result(service)


class _SimCopy:
    """One copy reserved on a :class:`SimBackend`, due on a clock timer."""

    __slots__ = (
        "backend", "prev_busy", "service_start", "finish", "service", "done", "timer"
    )

    def __init__(
        self,
        backend: SimBackend,
        prev_busy: float,
        service_start: float,
        finish: float,
        service: float,
        done: CopyDone,
    ) -> None:
        self.backend = backend
        self.prev_busy = prev_busy
        self.service_start = service_start
        self.finish = finish
        self.service = service
        self.done: Optional[CopyDone] = done
        self.timer: Optional[Timer] = None

    def complete(self) -> None:
        """The timer callback: the copy's service ran to its finish."""
        done, self.done, self.timer = self.done, None, None
        backend = self.backend
        backend.completed += 1
        backend.consumed_s += self.service
        done(self.service)

    def cancel(self) -> None:
        """Withdraw the copy before its finish, reclaiming what it can."""
        if self.done is None:
            return
        self.done = None
        self.timer.cancel()
        self.timer = None
        self.backend._reclaim(
            self.prev_busy, self.service_start, self.finish, self.service
        )
