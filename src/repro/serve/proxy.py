"""The redundancy-aware request proxy.

:class:`RedundancyProxy` fronts a pool of backends placed on a virtual-node
consistent-hash ring and applies a ``PolicySpec`` per request:

* ``none`` routes each key to its primary ring successor;
* ``k2``/``k3`` send eager copies to the k *distinct* ring successors
  (``ConsistentHashRing.replicas_for``) and keep the first answer;
* ``hedge:<delay>[...]`` launches the primary immediately and duplicate
  copies after the configured delays, via tasks parked on the injected
  clock;
* ``hedge:p95`` asks the live policy object for its current delay before
  every request — the proxy feeds each completed latency back through
  ``policy.record_latency``, so the streaming recorder inside
  ``HedgeOnPercentile`` warms up and the hedge delay adapts online;
* cancel-on-win (the paper's "cancel the rest") is plain
  ``asyncio`` task cancellation of the losing copies.

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

* the **race path** (:meth:`request`) creates one task per copy and races
  them — required whenever a plan hedges, cancels on win, or must survive
  backend failure;
* the **fast path** (:meth:`submit_nowait`) covers eager plans without
  cancel-on-win: every copy's finish time is known at dispatch from the
  reservation math, so the proxy computes the winner synchronously and
  schedules a single ``call_at`` timer for the completion callback.  This
  is what makes ``bench`` sustain >100k req/s — no per-copy tasks, no
  races, one heap entry per request.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.consistent_hash import ConsistentHashRing
from repro.core.policy import (
    PolicyLike,
    ReplicationPolicy,
    RequestPlan,
    parse_policy,
    policy_to_spec,
)
from repro.metrics.recorder import LatencyRecorder
from repro.serve.backends import Backend, BackendError
from repro.serve.clock import Clock

__all__ = ["RedundancyProxy"]


class RedundancyProxy:
    """Race redundant copies of each request across ring-placed backends.

    Args:
        backends: The pool; ``backends[i]`` sits at ring position ``i``.
        clock: Injected time source — the proxy never reads a wall clock.
        policy: Initial replication policy (any ``PolicySpec`` or object).
        virtual_nodes: Virtual nodes per backend on the hash ring.
        recorder_name: Name for the internal streaming latency recorder.
    """

    def __init__(
        self,
        backends: Sequence[Backend],
        clock: Clock,
        policy: PolicyLike = "none",
        virtual_nodes: int = 64,
        recorder_name: str = "serve",
    ) -> None:
        if not backends:
            raise ValueError("RedundancyProxy needs at least one backend")
        self.backends = list(backends)
        self.clock = clock
        self.ring = ConsistentHashRing(len(self.backends), virtual_nodes=virtual_nodes)
        self.policy: ReplicationPolicy = parse_policy(policy)
        self.recorder = LatencyRecorder(recorder_name, mode="streaming")
        # Counters — the cost side of the latency/cost trade-off.
        self.requests = 0
        self.copies_launched = 0
        self.hedges_fired = 0
        self.hedges_suppressed = 0
        self.copies_cancelled = 0
        self.failed_copies = 0
        self.failed_requests = 0
        self.useful_service_s = 0.0
        self.policy_swaps: List[Dict[str, Union[float, str]]] = []
        self.membership_events: List[Dict[str, Union[float, int, str]]] = []
        self._replica_table: Optional[np.ndarray] = None
        self._table_copies = 0
        self._keyspace: Optional[int] = None
        self._keyspace_copies = 0
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._strays: set = set()
        self._fast_plan: Optional[RequestPlan] = None
        self._pending_latencies: List[float] = []
        self._pending_chunks: List[np.ndarray] = []
        self._last_finish = 0.0
        self._refresh_fast_plan()

    # ------------------------------------------------------------------
    # Policy management
    # ------------------------------------------------------------------

    def set_policy(self, policy: PolicyLike, record_swap: bool = True) -> None:
        """Hot-swap the replication policy; in-flight requests are unaffected."""
        self.policy = parse_policy(policy)
        self._refresh_fast_plan()
        if record_swap:
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

    def replicas(self, key: int, copies: int) -> List[int]:
        """The ``copies`` distinct live backend indices serving ``key``."""
        if self._replica_table is not None and key < len(self._replica_table):
            if copies <= self._table_copies:
                return [int(b) for b in self._replica_table[key, :copies]]
        return self.ring.replicas_for(key, copies)

    # ------------------------------------------------------------------
    # Fast path: eager plans without cancel-on-win
    # ------------------------------------------------------------------

    def submit_nowait(self, key: int, record: bool = True) -> bool:
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
        if record:
            self._pending_latencies.append(win_finish - now)
            self.policy.record_latency(win_finish - now)
        return True

    def submit_batch(
        self, keys: np.ndarray, arrivals: np.ndarray, record: bool = True
    ) -> bool:
        """Vectorised :meth:`submit_nowait` for a block of due arrivals.

        ``arrivals`` are absolute, ascending timestamps.  Copies are grouped
        per backend (in arrival order, preserving each backend's FIFO and
        draw order) and reserved with one :meth:`SimBackend.submit_many`
        call each — the dispatch path the ``bench`` throughput target
        measures.  Falls back to ``False`` (caller loops scalar) when the
        plan is not fast-path eligible, a backend is down, or a backend
        lacks vectorised submission.
        """
        plan = self._fast_plan
        if plan is None or self._replica_table is None:
            return False
        # Only the *live* members receive batch copies — a crashed backend
        # off the ring must not refuse the batch for everyone else.
        if any(
            self.backends[i].failed or not hasattr(self.backends[i], "submit_many")
            for i in self.ring.servers
        ):
            return False
        count = len(keys)
        copies = min(plan.copies, self.ring.num_servers)
        if copies > self._table_copies:
            # A narrower table than the plan would leave the tail columns of
            # the finish/service arrays unfilled — fall back to scalar
            # dispatch, which recomputes replicas off-table.
            return False
        replicas = self._replica_table[keys, :copies]
        finishes = np.empty((count, copies))
        services = np.empty((count, copies))
        for index, backend in enumerate(self.backends):
            rows, cols = np.nonzero(replicas == index)
            if len(rows) == 0:
                continue
            finishes[rows, cols], services[rows, cols] = backend.submit_many(
                arrivals[rows]
            )
        winner = np.argmin(finishes, axis=1)
        lanes = np.arange(count)
        win_finish = finishes[lanes, winner]
        latencies = win_finish - arrivals
        self.requests += count
        self.copies_launched += count * copies
        self.useful_service_s += float(services[lanes, winner].sum())
        last = float(win_finish.max())
        if last > self._last_finish:
            self._last_finish = last
        if record:
            self._pending_chunks.append(latencies)
        return True

    def finalize(self) -> None:
        """Flush deferred fast-path latencies into the recorder."""
        if self._pending_latencies:
            self.recorder.record_many(self._pending_latencies)
            self._pending_latencies = []
        for chunk in self._pending_chunks:
            self.recorder.record_many(chunk)
        self._pending_chunks = []

    @property
    def last_finish_at(self) -> float:
        """Latest known completion time (fast-path completions included)."""
        return self._last_finish

    # ------------------------------------------------------------------
    # Race path: hedged / cancel-on-win / failure-tolerant dispatch
    # ------------------------------------------------------------------

    async def request(self, key: int, record: bool = True) -> float:
        """Serve one request under the current plan; return its latency.

        Launches one task per copy (delayed copies park on ``clock.sleep``),
        races them, feeds the winner's latency to the recorder and the
        policy, and — when the plan says so — cancels the losers.
        """
        plan = self.policy.plan()
        started = self.clock.now()
        max_copies = min(plan.copies, self.ring.num_servers)
        replicas = self.replicas(key, max_copies)
        self.requests += 1
        self._begin()
        tasks = []
        launched_flags = {}
        for copy, delay in enumerate(plan.launch_delays[:max_copies]):
            flag = [False]
            task = asyncio.ensure_future(
                self._copy(self.backends[replicas[copy]], key, delay, delay > 0, flag)
            )
            tasks.append(task)
            launched_flags[task] = flag
        try:
            winner_latency: Optional[float] = None
            winner_service = 0.0
            pending = set(tasks)
            launch_index = {task: position for position, task in enumerate(tasks)}
            while pending and winner_latency is None:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                # ``done`` is an unordered set; on a (virtual-time) tie the
                # winner must not depend on set iteration order, so visit
                # copies in launch order — the byte-reproducibility contract.
                for task in sorted(done, key=launch_index.__getitem__):
                    if task.cancelled() or task.exception() is not None:
                        continue
                    if task.result() is not None:
                        winner_latency = self.clock.now() - started
                        winner_service = task.result()
                        break
            if winner_latency is None:
                self.failed_requests += 1
                raise BackendError(f"all copies of request {key} failed")
            # A backup still parked on its delay is always suppressed (it
            # never reached a backend — matching the offline FIFO hedging
            # engine, repro.core.cancellation);
            # copies already under way are cancelled only when the plan
            # says cancel-on-win, else they run to completion as strays.
            to_cancel = {
                task
                for task in pending
                if plan.cancel_on_win or not launched_flags[task][0]
            }
            for task in pending - to_cancel:
                self._strays.add(task)
                task.add_done_callback(self._strays.discard)
            if to_cancel:
                for task in to_cancel:
                    task.cancel()
                # Await the cancellations so the backends reclaim their
                # reservation tails before the next request reserves.
                await asyncio.wait(to_cancel)
            self.useful_service_s += winner_service
            if record:
                self.recorder.record(winner_latency)
                self.policy.record_latency(winner_latency)
            return winner_latency
        finally:
            self._end()

    async def _copy(
        self,
        backend: Backend,
        key: int,
        delay: float,
        is_hedge: bool,
        launched_flag: List[bool],
    ) -> Optional[float]:
        """One (possibly delayed) copy; ``None`` means the copy failed.

        Counter semantics match ``core.hedging.hedged_call``: a hedge
        cancelled while still parked on its delay never reached a backend
        and counts as *suppressed*; one cancelled mid-service counts as a
        launched-then-*cancelled* copy.
        """
        if delay > 0:
            try:
                await self.clock.sleep(delay)
            except asyncio.CancelledError:
                self.hedges_suppressed += 1
                raise
        launched_flag[0] = True
        if is_hedge:
            self.hedges_fired += 1
        self.copies_launched += 1
        try:
            return await backend.handle(key)
        except asyncio.CancelledError:
            self.copies_cancelled += 1
            raise
        except BackendError:
            self.failed_copies += 1
            return None

    # ------------------------------------------------------------------
    # Drain / bookkeeping
    # ------------------------------------------------------------------

    def _begin(self) -> None:
        self._in_flight += 1
        self._idle.clear()

    def _end(self) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self._idle.set()

    @property
    def in_flight(self) -> int:
        return self._in_flight

    async def drain(self) -> None:
        """Wait until every accepted request has completed."""
        await self._idle.wait()
        while self._strays:
            await asyncio.wait(set(self._strays))

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
