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

Four call surfaces share that one ``busy_until`` state.  The first three
reserve one copy each through one reservation routine:

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
* :class:`BatchReserver` — the proxy's batch path: reserves a whole batch
  of copies across the live pool and picks each request's winner.  With
  the C kernels that is one compiled ``reserve_stretch`` pass of a single
  wake, which reads each backend's draw block in place and refills it as
  :meth:`SimBackend.draw_many` would.  Without them :func:`reserve_copies`
  groups the copies by backend and runs the same recurrence in closed form,
  one numpy row per backend.  Both give the same bytes.
  :meth:`SimBackend.submit_many` is the one-backend case of
  :func:`reserve_copies`.  With the kernels the same pass also issues a
  load run's whole quiet stretch (:meth:`BatchReserver.reserve_stretch`):
  each batch as above, each lone arrival as a batch of one at its wake,
  which for finite services is the reservation :meth:`SimBackend.submit`
  makes, with each backend's state copied in and out once per stretch.

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
import ctypes
import functools
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import _ckernels
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

    def _sample_block(self, size: int) -> np.ndarray:
        """The next ``size`` seeded service times, as a contiguous float block."""
        return np.ascontiguousarray(self._service.sample(self._rng, size=size), dtype=float)

    def draw_service(self) -> float:
        """Next seeded service time (block-buffered for throughput)."""
        if self._cursor >= len(self._block):
            self._block = self._sample_block(_DRAW_BLOCK)
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
                self._block = self._sample_block(max(_DRAW_BLOCK, remaining))
                self._cursor = 0
                continue
            take = min(available, remaining)
            parts.append(self._block[self._cursor : self._cursor + take])
            self._cursor += take
            remaining -= take
        if not parts:
            return np.empty(0)
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

        ``arrivals`` must be ascending.  Returns ``(finishes, services)``;
        the one-backend case of :func:`reserve_copies`.
        """
        targets = np.zeros(len(arrivals), dtype=np.intp)
        return reserve_copies([self], targets, np.asarray(arrivals, dtype=float))

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


def reserve_copies(
    pool: Sequence[SimBackend], targets: np.ndarray, arrivals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Reserve a batch of copies across a pool; return ``(finishes, services)``.

    Copy ``i`` goes to ``pool[targets[i]]`` at ``arrivals[i]``; each
    backend's copies must arrive in ascending order, and each backend serves
    them in that order, as :meth:`SimBackend.submit` calls in copy order
    would.  Raises :class:`BackendError`, before any backend changes, if one
    that receives a copy is marked failed.

    One stable argsort groups the copies by backend.  Each backend takes its
    services from its own draw stream (:meth:`SimBackend.draw_many`), and
    the FIFO recurrence runs in closed form on one row per backend
    (:func:`_fifo_finishes`), so each row rounds exactly as that backend's
    own 1-D pass would.
    """
    if len(targets) == 0:
        return np.empty(0), np.empty(0)
    # The narrowest integer type that holds every target: numpy sorts 8- and
    # 16-bit integers stably with a linear-time radix sort.
    order = np.argsort(targets.astype(np.min_scalar_type(len(pool))), kind="stable")
    counts = np.bincount(targets, minlength=len(pool))
    used = counts.nonzero()[0]
    backends = [pool[index] for index in used.tolist()]
    for backend in backends:
        if backend.failed:
            raise BackendError(f"backend {backend.index} is marked failed")
    widths = counts[used]
    parts = [backend.draw_many(width) for backend, width in zip(backends, widths.tolist())]
    drawn = np.concatenate(parts)
    # One row per receiving backend, padded past its copies: the padding
    # trails every real entry, so it never reaches a prefix sum or maximum.
    filled = np.arange(max(len(part) for part in parts)) < widths[:, None]
    arrival = np.zeros(filled.shape)
    arrival[filled] = arrivals[order]
    service = np.zeros(filled.shape)
    service[filled] = drawn
    busy = np.array([backend._busy_until for backend in backends])
    queueing = np.array([backend._queueing for backend in backends])
    if queueing.all():
        finish = _fifo_finishes(arrival, service, busy)
    else:
        # Infinite-server rows: every copy starts at its arrival.
        finish = arrival + service
        if queueing.any():
            finish[queueing] = _fifo_finishes(
                arrival[queueing], service[queueing], busy[queueing]
            )
    for row, (backend, part) in enumerate(zip(backends, parts)):
        if backend._queueing:
            backend._busy_until = float(finish[row, len(part) - 1])
        backend.completed += len(part)
        backend.consumed_s += float(part.sum())
    finishes = np.empty(len(targets))
    finishes[order] = finish[filled]
    services = np.empty(len(targets))
    services[order] = drawn
    return finishes, services


def _fifo_finishes(arrival: np.ndarray, service: np.ndarray, busy: np.ndarray) -> np.ndarray:
    """Row-wise closed form of ``finish_i = max(arrival_i, finish_{i-1}) + service_i``.

    Each row is one FIFO server, free from ``busy[row]``; with ``C`` the
    row's cumulative service, ``finish_i = max(busy, max_{j<=i}(arrival_j -
    C_{j-1})) + C_i``.  Cumulative sums and maxima accumulate along each row
    in order, so a row rounds exactly as a 1-D pass over it would.
    """
    csum = np.cumsum(service, axis=1)
    slack = np.maximum.accumulate(arrival - (csum - service), axis=1)
    return np.maximum(slack, busy[:, None]) + csum


class BatchReserver:
    """The proxy's batch path over one ring membership of a pool.

    ``live`` are the pool indices on the ring, each a :class:`SimBackend`,
    and ``table`` is the replica table built against them: one row of pool
    indices per key.  :meth:`reserve` reserves a batch of requests, each
    with the first ``copies`` backends of its key's row, and picks each
    request's winner; :meth:`reserve_stretch` issues a whole quiet stretch
    of a load run, batches and lone arrivals both.

    With the compiled kernels (:mod:`repro.cluster._ckernels`, looked up
    once, when the reserver is built) each is one ``reserve_stretch`` call,
    made in :meth:`reserve_stretch` alone: a batch is a stretch of one
    wake.  The call copies every live backend's draw block, cursor,
    ``busy_until`` and totals into the kernel's per-slot arrays, and the
    receiving backends' new state back out.  A backend whose block runs out
    is refilled as :meth:`SimBackend.draw_service` (one arrival) or
    :meth:`SimBackend.draw_many` (a batch) would refill it.  Without them,
    for keys or arrivals the kernel cannot read in place and for keys
    outside the table, a batch runs the numpy path, :func:`reserve_copies`
    then ``np.argmin``, and a stretch declines.  Both give the same bytes.
    """

    def __init__(
        self, pool: Sequence[SimBackend], live: Sequence[int], table: np.ndarray
    ) -> None:
        self._pool = pool
        self._live = [(slot, pool[slot]) for slot in live]
        self._table = table
        self._lib = _ckernels.load()
        if self._lib is None:
            return
        self._table = table = np.ascontiguousarray(table, dtype=np.int64)
        slots = len(pool)
        self._queueing = np.zeros(slots, dtype=np.uint8)
        for slot, backend in self._live:
            self._queueing[slot] = backend._queueing
        self._blocks, blocks = _slot_array(slots, np.uintp)
        self._lengths, lengths = _slot_array(slots, np.int64)
        self._refills, refills = _slot_array(slots, np.uintp)
        self._refill_lengths, refill_lengths = _slot_array(slots, np.int64)
        self._cursors, cursors = _slot_array(slots, np.int64)
        self._busy, busy = _slot_array(slots, np.float64)
        self._frame = _ckernels.BatchPool(
            table=table.ctypes.data,
            rows=table.shape[0],
            width=table.shape[1],
            slots=slots,
            block=_DRAW_BLOCK,
            queueing=self._queueing.ctypes.data,
            blocks=blocks,
            lengths=lengths,
            refills=refills,
            refill_lengths=refill_lengths,
            cursors=cursors,
            busy=busy,
        )
        self._frame_at = ctypes.addressof(self._frame)
        # A call's running totals per slot: copies received, consumed_s.
        self._completed, completed = _slot_array(slots, np.int64)
        self._consumed_s, consumed_s = _slot_array(slots, np.float64)
        self._stretch = _ckernels.Stretch(completed=completed, consumed=consumed_s)
        self._stretch_at = ctypes.addressof(self._stretch)

    def reserve(
        self, keys: np.ndarray, arrivals: np.ndarray, copies: int
    ) -> Optional[Tuple[np.ndarray, float, float]]:
        """Reserve ``copies`` copies of request ``i`` (key ``keys[i]``) at
        ``arrivals[i]``; return ``(latencies, useful_s, last_finish)``.

        ``latencies`` holds each request's winning finish minus its
        arrival, ``useful_s`` is the sum of the winners' services and
        ``last_finish`` the latest winning finish.  With the kernels the
        batch is a stretch of one wake (:meth:`reserve_stretch` from its
        first arrival with an infinite resolution, so every arrival is due
        at once).  Returns ``None``, changing nothing, when a live backend
        is marked failed.

        Raises:
            IndexError: If a key lies outside the table, negative keys
                included; nothing changes.
        """
        stretch = None
        if 0 < len(keys) == len(arrivals):
            stretch = self.reserve_stretch(
                keys, arrivals, -0.0, 0, len(keys), arrivals[0], math.inf, copies, 0.0, -math.inf
            )
        if stretch is None:
            return self._reserve_numpy(keys, arrivals, copies)
        _reached, _wake, chunks, lone, useful, last = stretch
        # Two or more arrivals are one batch; one alone is a lone arrival.
        return (chunks[0] if chunks else np.array(lone)), useful, last

    def reserve_stretch(
        self,
        keys: np.ndarray,
        offsets: np.ndarray,
        start: float,
        index: int,
        stop: int,
        now: float,
        resolution: float,
        copies: int,
        useful: float,
        last: float,
    ) -> Optional[Tuple[int, float, List[np.ndarray], List[float], float, float]]:
        """Issue arrivals ``index`` to ``stop - 1`` (key ``keys[i]``, due at
        ``start + offsets[i]``) from the clock time ``now``, as
        :func:`~repro.serve.loadgen.run_load`'s per-wake loop would on a
        clock with nothing else to run, in one ``reserve_stretch`` call.

        ``useful`` and ``last`` are the proxy's useful service and latest
        winning finish so far.  Returns ``(reached, wake, chunks, lone,
        useful, last)``: the next arrival and the last wake emulated, each
        batch's latencies (views of one buffer), the lone arrivals'
        latencies, and the two totals after them.  The call stops early only
        at a key or copy count the table cannot serve.  Returns ``None``,
        changing nothing, without the compiled kernels, for keys or offsets
        it cannot read in place, when a live backend is marked failed, or
        when not even the first wake can be issued.

        Raises:
            ValueError: If ``index`` and ``stop`` do not satisfy ``0 <=
                index <= stop <= min(len(keys), len(offsets))``.
        """
        if not 0 <= index <= stop <= min(len(keys), len(offsets)):
            raise ValueError(
                f"need 0 <= index <= stop <= {min(len(keys), len(offsets))}, "
                f"got index {index!r} and stop {stop!r}"
            )
        if self._lib is None:
            return None
        key_at = _address(keys, np.int64)
        offset_at = _address(offsets, np.float64)
        if key_at is None or offset_at is None:
            return None
        blocks, lengths, cursors, busy = self._blocks, self._lengths, self._cursors, self._busy
        completed, consumed_s = self._completed, self._consumed_s
        for slot, backend in self._live:
            if backend._failed:
                return None
            block = backend._block
            blocks[slot] = block.ctypes.data
            lengths[slot] = len(block)
            cursors[slot] = backend._cursor
            busy[slot] = backend._busy_until
            completed[slot] = 0
            consumed_s[slot] = backend.consumed_s
        size = stop - index
        latencies = np.empty(size)
        ends = np.empty(size // 2 + 1, dtype=np.int64)  # a batch holds 2+ arrivals
        run = self._stretch
        run.keys, run.offsets, run.start, run.resolution = key_at, offset_at, start, resolution
        run.copies, run.stop, run.index, run.now = copies, stop, index, now
        run.latencies, run.size, run.batched, run.lone = latencies.ctypes.data, size, 0, 0
        run.ends, run.batches, run.useful, run.last = ends.ctypes.data, 0, useful, last
        status = self._lib.reserve_stretch(self._frame_at, self._stretch_at)
        while status > 0:
            refilled = self._draw_refills()
            status = self._lib.reserve_stretch(self._frame_at, self._stretch_at)
            self._move_on(refilled)
        for slot, backend in self._live:
            received = completed[slot]
            if received:
                backend.completed += received
                backend.consumed_s = consumed_s[slot]
                backend._cursor = cursors[slot]
                backend._busy_until = busy[slot]
        if status == -2:
            raise MemoryError("reserve_stretch could not allocate its scratch")
        if run.index == index:  # -1 at the first wake
            return None
        bounds = ends[: run.batches].tolist()
        chunks = [latencies[low:high] for low, high in zip([0] + bounds, bounds)]
        lone = latencies[size - run.lone :][::-1].tolist()
        return run.index, run.now, chunks, lone, run.useful, run.last

    def _draw_refills(self) -> List[Tuple[int, SimBackend, np.ndarray]]:
        """Draw the refill block each slot the kernel asked for needs, of
        the length it asked for."""
        refilled = []
        wants, refills = self._refill_lengths, self._refills
        for slot, backend in self._live:
            if wants[slot] and not refills[slot]:
                block = backend._sample_block(wants[slot])
                refills[slot] = block.ctypes.data
                refilled.append((slot, backend, block))
        return refilled

    def _move_on(self, refilled: List[Tuple[int, SimBackend, np.ndarray]]) -> None:
        """Hand each refill block the kernel moved on to to its backend, and
        withdraw any it never reached (a call that failed first), so no slot
        keeps the address of a block nothing holds."""
        refills, wants = self._refills, self._refill_lengths
        for slot, backend, block in refilled:
            if refills[slot]:
                refills[slot] = wants[slot] = 0
            else:
                backend._block = block

    def _reserve_numpy(
        self, keys: np.ndarray, arrivals: np.ndarray, copies: int
    ) -> Optional[Tuple[np.ndarray, float, float]]:
        """:meth:`reserve` in numpy: :func:`reserve_copies`, then each
        request's first least finish."""
        for _slot, backend in self._live:
            if backend._failed:
                return None
        count = len(keys)
        if count and np.min(keys) < 0:  # numpy would wrap it to a row from the end
            raise IndexError(f"keys must lie in [0, {len(self._table)}), got {int(np.min(keys))}")
        finishes, services = reserve_copies(
            self._pool, self._table[keys, :copies].ravel(), np.repeat(arrivals, copies)
        )
        finishes = finishes.reshape(count, copies)
        services = services.reshape(count, copies)
        winner = np.argmin(finishes, axis=1)
        lanes = np.arange(count)
        win_finish = finishes[lanes, winner]
        return (
            win_finish - arrivals,
            float(services[lanes, winner].sum()),
            float(win_finish.max()),
        )


def _slot_array(slots: int, dtype: type) -> Tuple[memoryview, int]:
    """A zeroed per-slot array, as a view (which keeps it alive) and its address."""
    array = np.zeros(slots, dtype=dtype)
    return memoryview(array), array.ctypes.data


def _address(array: np.ndarray, dtype: type) -> Optional[int]:
    """Where a 1-D, writable, C-contiguous, non-empty ``dtype`` array's data
    starts, or ``None`` for any other array.

    Several times cheaper than ``array.ctypes.data``, which builds a helper
    object per call.
    """
    if not isinstance(array, np.ndarray) or array.dtype != dtype or array.ndim != 1:
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):  # read-only, strided or empty
        return None


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
