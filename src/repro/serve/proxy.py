"""The redundancy-aware request proxy.

:class:`RedundancyProxy` fronts a pool of backends placed on a virtual-node
consistent-hash ring and applies a ``PolicySpec`` per request:

* ``none`` routes each key to its primary ring successor;
* ``k2``/``k3`` send eager copies to the k *distinct* ring successors
  (``ConsistentHashRing.replicas_for``) and keep the first answer;
* ``hedge:<delay>[...]`` launches the primary immediately and duplicate
  copies after the configured delays, via timers on the injected clock;
* ``hedge:p95`` asks the live policy object for its current delay before
  every request — the proxy feeds each completed latency back through
  ``policy.record_latency``, so the streaming recorder inside
  ``HedgeOnPercentile`` warms up and the hedge delay adapts online;
* cancel-on-win (the paper's "cancel the rest") withdraws the losing
  copies from their backends, which reclaim what is left of their
  reservations.

:meth:`RedundancyProxy.set_policy` hot-swaps the policy mid-run: requests
already in flight finish under the plan they were launched with; new
requests pick up the new plan.  Both dispatch paths (below) share the
backends' single reservation state, so a swap never corrupts queue state.

Membership is live too.  :meth:`RedundancyProxy.remove_backend` evicts a
backend from the hash ring mid-run — ``dead=True`` (a crash) additionally
marks it failed so copies already racing toward it error out and fail over;
``dead=False`` is a graceful drain: no *new* copies route to it, but
dispatched copies complete.  :meth:`RedundancyProxy.add_backend` brings a
pool slot (back) onto the ring; stable vnode identity means a re-added
backend reclaims exactly the keys it owned before.  Every membership event
rebuilds the precomputed replica table against the live ring, so both
dispatch paths re-home keys immediately and deterministically.

Two dispatch paths, one accounting surface:

* the **race path** (:meth:`race`, awaited by :meth:`request`) is required
  whenever a plan hedges, cancels on win, or must survive backend failure.
  It is the race of :class:`repro.core.hedging.Racer`, which the asyncio
  client runs too: each copy is a backend reservation whose finish is a
  clock timer due at the reserved finish time, and each hedge a timer that
  starts its copy; no task is created per copy or per request.  The first
  finish schedules one settle step for the next loop pass
  (``clock.call_soon``), which resolves the request's future
  (``clock.create_future``).  All of it goes through the injected clock, so
  on a :class:`~repro.serve.clock.VirtualClock` a race is a few entries on
  the clock's timer heap, each run at its exact due time;
* the **fast path** (:meth:`submit_nowait`, vectorised as
  :meth:`submit_batch`) covers eager plans without cancel-on-win: every
  copy's finish time is known at dispatch from the reservation math, so
  the proxy computes the winner and its latency synchronously — no timer
  at all.  A batch is reserved, and its winners picked, in one call of a
  :class:`~repro.serve.backends.BatchReserver` built for the live ring at
  each membership event.  This is what makes ``bench`` sustain >100k
  req/s.  On a quiet virtual clock :meth:`submit_stretch` goes further: it
  issues every arrival of a load run up to its next control, batches and
  lone arrivals as the load generator's wakes would issue them, and writes
  the proxy's and the backends' state back once for the whole stretch.
  When the C kernels load, both are one compiled ``reserve_stretch`` pass
  (a batch is a stretch of one wake), which reserves a lone arrival as a
  batch of one at its wake.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.consistent_hash import ConsistentHashRing
from repro.core.hedging import Racer
from repro.core.policy import (
    PolicyLike,
    ReplicationPolicy,
    RequestPlan,
    parse_policy,
    policy_to_spec,
)
from repro.metrics.recorder import LatencyRecorder
from repro.serve.backends import Backend, BackendError, BatchReserver, SimBackend
from repro.serve.clock import Clock

__all__ = ["RedundancyProxy"]


class RedundancyProxy(Racer):
    """Race redundant copies of each request across ring-placed backends.

    Args:
        backends: The pool; ``backends[i]`` sits at ring position ``i``.
        clock: Injected time source — the proxy never reads a wall clock.
        policy: Initial replication policy (any ``PolicySpec`` or object).
    """

    def __init__(
        self,
        backends: Sequence[Backend],
        clock: Clock,
        policy: PolicyLike = "none",
    ) -> None:
        if not backends:
            raise ValueError("RedundancyProxy needs at least one backend")
        # The race keeps the cost counters (copies launched, hedges fired and
        # suppressed, copies cancelled, failures) — the cost side of the
        # latency/cost trade-off; the fast path adds to them too.
        super().__init__(clock)
        self.backends = list(backends)
        self.ring = ConsistentHashRing(len(self.backends))
        self.policy: ReplicationPolicy = parse_policy(policy)
        self.recorder = LatencyRecorder("serve", mode="streaming")
        self.requests = 0
        self.useful_service_s = 0.0
        self.policy_swaps: List[Dict[str, Union[float, str]]] = []
        self.membership_events: List[Dict[str, Union[float, int, str]]] = []
        self._replica_table: Optional[np.ndarray] = None
        self._table_copies = 0
        # The batch path for the live ring, while every member is a SimBackend.
        self._batch: Optional[BatchReserver] = None
        self._keyspace: Optional[int] = None
        self._keyspace_copies = 0
        self._fast_plan: Optional[RequestPlan] = None
        self._pending_latencies: List[float] = []
        self._pending_chunks: List[np.ndarray] = []
        self._last_finish = 0.0
        self._refresh_fast_plan()

    # ------------------------------------------------------------------
    # Policy management
    # ------------------------------------------------------------------

    def set_policy(self, policy: PolicyLike) -> None:
        """Hot-swap the replication policy; in-flight requests are unaffected."""
        self.policy = parse_policy(policy)
        self._refresh_fast_plan()
        self.policy_swaps.append(
            {"at": self.clock.now(), "policy": policy_to_spec(self.policy)}
        )

    def _refresh_fast_plan(self) -> None:
        """Cache the plan iff the fast path may serve it: static + eager +
        no cancel-on-win, and every backend able to reserve synchronously
        (real-socket backends cannot know their finish at dispatch).
        Adaptive and hedging plans always race."""
        if not all(hasattr(backend, "submit") for backend in self.backends):
            self._fast_plan = None
            return
        plan = self.policy.plan() if self.policy.is_static else None
        if plan is not None and plan.is_eager and not plan.cancel_on_win:
            self._fast_plan = plan
        else:
            self._fast_plan = None

    @property
    def policy_spec(self) -> str:
        return policy_to_spec(self.policy)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def live_backends(self) -> Tuple[int, ...]:
        """Indices of the backends currently on the ring, ascending."""
        return self.ring.servers

    def remove_backend(self, index: int, dead: bool = True) -> None:
        """Evict ``backends[index]`` from the ring (failover / scale-down).

        With ``dead=True`` the backend is also marked failed — crash
        semantics: racing copies already headed its way raise
        :class:`BackendError` and fail over to surviving replicas, while
        copies *in service* complete (fail-stop at dispatch, matching the
        offline substrates).  ``dead=False`` is a graceful drain: the
        backend just stops receiving new copies.

        Raises:
            ConfigurationError: If the index is not on the ring, or it is
                the last live backend.
        """
        self.ring.remove_server(index)
        backend = self.backends[index]
        if dead and hasattr(backend, "set_failed"):
            backend.set_failed(True)
        self.membership_events.append(
            {
                "at": self.clock.now(),
                "action": "crash" if dead else "remove",
                "backend": int(index),
            }
        )
        self._rebuild_replica_table()

    def add_backend(self, index: int) -> None:
        """Bring pool slot ``index`` (back) onto the ring.

        A previously crashed backend is revived (``set_failed(False)``)
        before it rejoins.  Stable vnode identity means a re-added backend
        reclaims exactly the keys it owned before its removal.

        Raises:
            ValueError: If ``index`` is not a pool slot.
            ConfigurationError: If the backend is already on the ring.
        """
        if not 0 <= index < len(self.backends):
            raise ValueError(
                f"backend index must be in [0, {len(self.backends)}), got {index!r}"
            )
        backend = self.backends[index]
        if getattr(backend, "failed", False) and hasattr(backend, "set_failed"):
            backend.set_failed(False)
        self.ring.add_server(index)
        self.membership_events.append(
            {"at": self.clock.now(), "action": "add", "backend": int(index)}
        )
        self._rebuild_replica_table()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def prepare_keyspace(self, num_keys: int, max_copies: int) -> None:
        """Precompute the replica table for keys ``0..num_keys-1``.

        One vectorised ``ring.replica_table`` pass replaces a per-request
        blake2b + bisect — load-bearing for the bench throughput target.
        The table is rebuilt automatically on every membership event, so
        ``max_copies`` is remembered (clamped to the live pool each time).
        """
        self._keyspace = int(num_keys)
        self._keyspace_copies = max(1, int(max_copies))
        self._rebuild_replica_table()

    def _rebuild_replica_table(self) -> None:
        """Recompute the replica table against the live ring membership."""
        if self._keyspace is None:
            return
        copies = min(self._keyspace_copies, self.ring.num_servers)
        self._replica_table = self.ring.replica_table(range(self._keyspace), copies)
        self._table_copies = copies
        live = self.ring.servers
        if all(isinstance(self.backends[index], SimBackend) for index in live):
            self._batch = BatchReserver(self.backends, live, self._replica_table)
        else:
            self._batch = None

    def replicas(self, key: int, copies: int) -> List[int]:
        """The ``copies`` distinct live backend indices serving ``key``."""
        if self._replica_table is not None and 0 <= key < len(self._replica_table):
            if copies <= self._table_copies:
                return [int(b) for b in self._replica_table[key, :copies]]
        return self.ring.replicas_for(key, copies)

    # ------------------------------------------------------------------
    # Fast path: eager plans without cancel-on-win
    # ------------------------------------------------------------------

    def submit_nowait(self, key: int) -> bool:
        """Dispatch ``key`` without creating tasks, if the plan allows it.

        Returns ``False`` when the current plan hedges, adapts or cancels
        on win — the caller must fall back to :meth:`request`.  Otherwise
        reserves every copy synchronously: with eager launches and no
        cancellation, every copy's finish is fixed by the reservation math
        at dispatch and cannot be affected by later requests, so the winner
        is known immediately — no task, no timer, no race.
        """
        plan = self._fast_plan
        if plan is None:
            return False
        now = self.clock.now()
        max_copies = min(plan.copies, self.ring.num_servers)
        win_finish = None
        win_service = 0.0
        launched = 0
        for backend_index in self.replicas(key, max_copies):
            backend = self.backends[backend_index]
            if backend.failed:
                self.failed_copies += 1
                continue
            finish, service = backend.submit(key, now)
            launched += 1
            if win_finish is None or finish < win_finish:
                win_finish = finish
                win_service = service
        self.requests += 1
        self.copies_launched += launched
        if win_finish is None:
            self.failed_requests += 1
            return True
        self.useful_service_s += win_service
        if win_finish > self._last_finish:
            self._last_finish = win_finish
        self._pending_latencies.append(win_finish - now)
        self.policy.record_latency(win_finish - now)
        return True

    def submit_batch(self, keys: np.ndarray, arrivals: np.ndarray) -> bool:
        """Vectorised :meth:`submit_nowait` for a block of due arrivals.

        ``arrivals`` are absolute, ascending timestamps.  The whole batch is
        reserved, and each request's winner picked, in one
        :meth:`~repro.serve.backends.BatchReserver.reserve` call: when the
        C kernels load, one ``reserve_stretch`` pass of a single wake at the
        first arrival, else the numpy grouping of
        :func:`~repro.serve.backends.reserve_copies`; either keeps each
        backend's FIFO and draw order.  This is the dispatch path the
        ``bench`` throughput target measures.  Falls back to ``False``
        (caller loops scalar) when the plan is not fast-path eligible, a
        live backend is down, or a live backend is not a
        :class:`SimBackend` (decided at each membership change).  An empty
        batch on an eligible plan is a no-op that returns ``True``.

        Raises:
            IndexError: If a key lies outside the prepared keyspace,
                negative keys included; nothing changes.
        """
        plan = self._fast_plan
        if plan is None or self._batch is None:
            return False
        copies = min(plan.copies, self.ring.num_servers)
        if copies > self._table_copies:
            # A narrower table than the plan would leave the tail columns of
            # the finish/service arrays unfilled — fall back to scalar
            # dispatch, which recomputes replicas off-table.
            return False
        if len(keys) == 0:
            return True
        reserved = self._batch.reserve(keys, arrivals, copies)
        if reserved is None:
            # A live backend is down.  Only the ring's members are checked:
            # a crashed backend off the ring must not refuse every batch.
            return False
        latencies, useful_s, last = reserved
        count = len(keys)
        self.requests += count
        self.copies_launched += count * copies
        self.useful_service_s += useful_s
        if last > self._last_finish:
            self._last_finish = last
        self._pending_chunks.append(latencies)
        return True

    def submit_stretch(
        self,
        keys: np.ndarray,
        offsets: np.ndarray,
        start: float,
        index: int,
        stop: int,
        resolution: float,
    ) -> Optional[Tuple[int, float]]:
        """Issue a quiet stretch of a load run in one compiled pass.

        Arrival ``i`` has key ``keys[i]`` and is due at ``start +
        offsets[i]``.  Arrivals ``index`` to ``stop - 1`` are issued exactly
        as :func:`~repro.serve.loadgen.run_load`'s per-wake loop would issue
        them from now at this ``resolution``: the same wakes, each batch
        through :meth:`submit_batch` and each lone arrival through
        :meth:`submit_nowait` at its wake, the same bytes.  That holds only
        while nothing else runs on the clock, so the stretch is taken only
        when the clock is quiet, the plan is fast-path eligible with a
        table wide enough for it, no live backend is failed, the policy
        ignores feedback (its ``record_latency`` is the base no-op), and the
        compiled kernels load (:meth:`BatchReserver.reserve_stretch`).

        Returns ``(reached, wake)``: the next arrival to issue and the last
        wake, where the caller's clock must move before it goes on; or
        ``None``, having issued nothing, when the stretch is not taken.

        Raises:
            ValueError: If the stretch is taken and ``index`` and ``stop``
                do not lie within both arrays.
        """
        plan = self._fast_plan
        if (
            plan is None
            or self._batch is None
            or type(self.policy).record_latency is not ReplicationPolicy.record_latency
        ):
            return None
        copies = min(plan.copies, self.ring.num_servers)
        if copies > self._table_copies or not self.clock.quiet():
            return None
        stretch = self._batch.reserve_stretch(
            keys, offsets, start, index, stop, self.clock.now(), resolution,
            copies, self.useful_service_s, self._last_finish,
        )
        if stretch is None:
            return None
        reached, wake, chunks, lone, self.useful_service_s, self._last_finish = stretch
        self.requests += reached - index
        self.copies_launched += (reached - index) * copies
        self._pending_latencies.extend(lone)
        self._pending_chunks.extend(chunks)
        return reached, wake

    def finalize(self) -> None:
        """Flush deferred fast-path latencies into the recorder, in one call:
        the scalar path's latencies first, then each batch's chunk.

        That one :meth:`~repro.metrics.recorder.LatencyRecorder.record_batches`
        call folds and bins the whole run a block of about 4,096 samples at
        a time: one ``fold_moments`` and one ``bin_counts`` call each when
        the compiled kernels load (:mod:`repro.cluster._ckernels`), else a
        numpy fold per batch and one ``np.bincount`` of the block's keys.
        """
        batches = self._pending_chunks
        if self._pending_latencies:
            batches = [self._pending_latencies] + batches
        if batches:
            self.recorder.record_batches(batches)
        self._pending_latencies = []
        self._pending_chunks = []

    @property
    def last_finish_at(self) -> float:
        """Latest known completion time (fast-path completions included)."""
        return self._last_finish

    # ------------------------------------------------------------------
    # Race path: hedged / cancel-on-win / failure-tolerant dispatch
    # ------------------------------------------------------------------

    def race(self, key: int) -> "asyncio.Future[float]":
        """Start one request under the current plan; return its latency future.

        Zero-delay copies start at once (:meth:`Backend.start`); each hedge
        is parked as a clock timer that starts it, in launch order.  The
        first copy to finish schedules the settle step for the next loop
        pass, which picks the winner, suppresses unlaunched hedges, cancels
        or strands the launched losers (strays, which :meth:`drain` waits
        for) and resolves the future.  The future fails with
        :class:`BackendError` once every copy has failed.
        """
        plan = self.policy.plan()
        max_copies = min(plan.copies, self.ring.num_servers)
        backends = [self.backends[index] for index in self.replicas(key, max_copies)]
        self.requests += 1
        return self._start(key, backends, plan).future

    async def request(self, key: int) -> float:
        """Serve one request under the current plan; return its latency.

        Awaits the future of :meth:`race`.  The winner's latency is fed to
        the recorder and the policy; a failed request raises
        :class:`BackendError`.
        """
        return await self.race(key)

    def _won(self, race, copy: int, service: float, latency: float) -> float:
        self.useful_service_s += service
        self.recorder.record(latency)
        self.policy.record_latency(latency)
        return latency

    def _lost(self, race) -> BackendError:
        return BackendError(f"all copies of request {race.key} failed")

    # ------------------------------------------------------------------
    # Drain / bookkeeping
    # ------------------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every accepted request and every stray copy has finished."""
        await self._idle.wait()

    def counters(self) -> Dict[str, Union[int, float]]:
        """The cost-side counters as a plain dict (stable key order)."""
        duplicate_rate = (
            self.copies_launched / self.requests - 1.0 if self.requests else 0.0
        )
        consumed = sum(backend.consumed_s for backend in self.backends)
        return {
            "requests": self.requests,
            "copies_launched": self.copies_launched,
            "duplicate_rate": duplicate_rate,
            "hedges_fired": self.hedges_fired,
            "hedges_suppressed": self.hedges_suppressed,
            "copies_cancelled": self.copies_cancelled,
            "failed_copies": self.failed_copies,
            "failed_requests": self.failed_requests,
            "service_consumed_s": consumed,
            "useful_service_s": self.useful_service_s,
            "wasted_service_s": max(0.0, consumed - self.useful_service_s),
        }

