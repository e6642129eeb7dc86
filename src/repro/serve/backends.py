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

Two call surfaces share that one ``busy_until`` state:

* ``async handle(key)`` — coroutine path used by the racing proxy: reserves,
  sleeps on the injected clock until the reserved finish, reclaims on
  cancellation.
* ``submit(key, now)`` — synchronous fast path used by the proxy's
  no-cancel eager dispatch: reserves and returns the absolute finish time
  without creating a task.  Because both paths drive the same reservation,
  a policy hot-swap mid-run never leaves the pool with two disagreeing
  pictures of its queues.

``queueing=False`` turns the backend into an infinite-server station (no
reservation coupling between requests) — the configuration the ``bench``
mode uses so throughput measurement is not confounded by simulated
saturation.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.distributions import Distribution, Exponential
from repro.serve.clock import Clock
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

    def submit(self, key: int, now: float) -> Tuple[float, float]:
        """Reserve service for ``key`` at ``now``; return ``(finish, service)``.

        The synchronous fast path: no task, no sleep — the caller is
        responsible for delivering the completion at ``finish``.
        """
        if self._failed:
            raise BackendError(f"backend {self.index} is marked failed")
        service = self.draw_service()
        if self._queueing:
            start = max(now, self._busy_until)
            finish = start + service
            self._busy_until = finish
        else:
            finish = now + service
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

    async def handle(self, key: int) -> float:
        """Serve ``key`` on the coroutine path; cancellable while queued.

        Reserves exactly like :meth:`submit`, then sleeps the injected clock
        until the reserved finish.  On cancellation the reservation tail is
        reclaimed only if this copy is still the last reservation (nothing
        queued behind it) — and never below the work already performed.
        """
        if self._failed:
            raise BackendError(f"backend {self.index} is marked failed")
        now = self._clock.now()
        service = self.draw_service()
        if self._queueing:
            prev_busy = self._busy_until
            start = max(now, prev_busy)
            finish = start + service
            self._busy_until = finish
        else:
            prev_busy = now
            start = now
            finish = now + service
        try:
            delay = finish - now
            if delay > 0:
                await self._clock.sleep(delay)
        except BaseException:
            if self._queueing and self._busy_until == finish:
                cancel_at = self._clock.now()
                self._busy_until = max(prev_busy, min(cancel_at, finish))
                self.consumed_s += max(0.0, min(cancel_at, finish) - start)
            else:
                self.completed += 1
                self.consumed_s += service
            raise
        self.completed += 1
        self.consumed_s += service
        return service
