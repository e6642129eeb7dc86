"""The FIFO hedging engine: the paper's "first copy to finish wins" over FIFO servers.

Every offline substrate that queues hedged copies — the database and
memcached clusters (static and under churn), the pipeline's event executor
and the queueing model's ``run_event_driven`` — runs through
:func:`simulate_cancelling_arrivals`.  Callers describe their work only
through callbacks and the engine owns every FIFO station:
``server_of(request, copy)`` names the station a copy queues at, and
``begin(request, copy, at)`` performs the dispatch-time work (cache access,
service-time draw — in dispatch order) and returns either
``("done", finish_time)`` for work that bypasses the queue (a cache hit
served from memory) or ``("service", service_s, tail_s)`` for a queued job
whose completion is ``entry_into_service + service_s + tail_s`` (``tail_s``
being queue-free post-processing such as the memory copy after a disk
read).  ``background_jobs`` / ``begin_background`` inject non-request work
(churn migration reads) into the same FIFOs.

The engine has two passes:

* **Known completion** (:func:`repro.core.policy.simulate_hedged_arrivals`),
  taken when ``policy.cancel_on_win`` is false.  Nothing can retract queued
  work, so a copy's completion is known the moment it is dispatched and
  arrivals plus backup launches are merged in one time-ordered pass with no
  event heap for service.  This is the fast case, and the one the queueing
  model's ``run_fast`` calls directly.
* **Event loop** for cancel-on-win.  Cancellation breaks the known-completion
  property *retroactively* — pulling a queued copy out of a server shifts the
  start of everything queued behind it — so this pass is a global event loop
  over per-server cancellable queues:

  - events are processed in ``(time, kind, seq)`` order with a fixed kind
    priority (station completion < win < background job < backup launch <
    arrival), so runs are deterministic for a given seed;
  - a copy *in service* always runs to completion, matching the paper's
    observation that cancellation saves queueing, not work already under
    way;
  - when the first copy of a request completes ("win"), its still-**queued**
    sibling copies are removed from their servers' queues, giving the
    capacity back to later arrivals;
  - backups are suppressed as in the known-completion pass: a backup whose
    request already has a known finish at or before the launch time never
    launches;
  - background jobs are all run, including those due after the last
    dispatch.

Both passes release adaptive-policy feedback through :class:`PolicyDriver`
once a request's last backup decision has been made, but they feed different
latencies.  The known-completion pass knows every launched copy's finish at
dispatch and feeds the request's true earliest finish.  The event loop
releases feedback once *some* copy's finish is known (a copy entered
service): if a copy that was still queued then finishes first, the policy is
fed the slower copy's latency.  So ``hedge:p95`` and ``hedge:p95:nocancel``
differ in their feedback, not only in cancellation.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.policy import PolicyDriver, ReplicationPolicy, simulate_hedged_arrivals

__all__ = ["simulate_cancelling_arrivals"]

#: Event kind priorities at equal timestamps.  Background (migration) jobs
#: slot between wins and backup launches so that, at equal timestamps, they
#: join their station before any foreground dispatch — matching the "flush
#: due migration work, then serve" order of the known-completion pass.
_POP, _WIN, _BG, _BACKUP, _ARRIVAL = 0, 1, 2, 3, 4

#: Queue-entry states.
_QUEUED, _IN_SERVICE, _CANCELLED = 0, 1, 2

BeginResult = Union[Tuple[str, float], Tuple[str, float, float]]


class _Server:
    """One FIFO station: the in-service job plus a cancellable queue."""

    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        self.busy = False
        self.queue: deque = deque()


def simulate_cancelling_arrivals(
    policy: ReplicationPolicy,
    arrival_times,
    max_copies: int,
    server_of: Callable[[int, int], int],
    begin: Callable[[int, int, float], BeginResult],
    on_copy_resolved: Optional[Callable[[int, int, str, float, float], None]] = None,
    background_jobs: Optional[List[Tuple[float, int, int]]] = None,
    begin_background: Optional[Callable[[int, float], BeginResult]] = None,
):
    """Drive FIFO servers through ``policy``, cancelling queued losers if it says so.

    Args:
        policy: The replication policy (shared state across requests).
        arrival_times: 1-D array of request arrival times, non-decreasing.
        max_copies: Cap on copies per request; plans are truncated to it.
        server_of: ``server_of(request, copy) -> station id`` for the queue
            the copy joins.
        begin: Dispatch-time callback; see the module docstring.
        on_copy_resolved: Optional per-copy accounting hook, called the
            moment a copy's fate is sealed (in deterministic event order):
            ``on_copy_resolved(request, copy, outcome, work_s, finish_s)``
            with ``outcome`` one of ``"finished"`` (the copy's FIFO
            completion is known — when it enters service in the event loop,
            at dispatch in the known-completion pass; ``work_s`` is its
            station-busy seconds, ``finish_s`` its absolute completion
            including any tail), ``"done"`` (queue-bypassing work;
            ``work_s`` is 0.0) or ``"cancelled"`` (withdrawn while queued;
            ``work_s`` is 0.0 and ``finish_s`` the cancellation time).
            Copies whose launch was suppressed never reach the hook.
        background_jobs: Optional ``(time, station, job)`` triples, ascending
            in time: non-request work (e.g. churn migration reads) injected
            into station FIFOs.  Background jobs compete for service exactly
            like copies but are never cancelled, complete no request, and
            appear in none of the returned accounting arrays.
        begin_background: Dispatch-time callback for background jobs,
            ``begin_background(job, at) -> BeginResult`` with the same
            contract as ``begin``.  Required when ``background_jobs`` is
            non-empty.

    Returns:
        ``(finish_at, copies_launched, copies_cancelled)`` per-request
        arrays: earliest absolute completion, dispatched copies, and copies
        cancelled while still queued — ``copies_cancelled`` is ``None`` when
        the policy never cancels.
    """
    if not policy.cancel_on_win:
        finish_at, launched = simulate_hedged_arrivals(
            policy,
            arrival_times,
            max_copies,
            server_of,
            begin,
            on_copy_resolved,
            background_jobs,
            begin_background,
        )
        return finish_at, launched, None
    num_requests = len(arrival_times)
    driver = PolicyDriver(policy)
    finish_at = np.full(num_requests, np.inf)
    launched = np.zeros(num_requests, dtype=np.int64)
    cancelled = np.zeros(num_requests, dtype=np.int64)
    outstanding = np.zeros(num_requests, dtype=np.int64)
    won = np.zeros(num_requests, dtype=bool)
    fed_back = np.zeros(num_requests, dtype=bool)
    queued_entries: Dict[int, List[list]] = {}
    servers: Dict[int, _Server] = {}
    heap: List[tuple] = []
    seq = 0

    def push(at: float, kind: int, payload: tuple) -> None:
        nonlocal seq
        heapq.heappush(heap, (at, kind, seq, payload))
        seq += 1

    def feedback(request: int) -> None:
        # Release adaptive feedback once no backup decision is pending and
        # some copy's finish is known.  A still-queued copy may later finish
        # first; the policy is then fed the slower latency (module docstring).
        if fed_back[request] or outstanding[request] != 0:
            return
        if not np.isfinite(finish_at[request]):
            return
        fed_back[request] = True
        driver.complete(
            float(finish_at[request]),
            float(finish_at[request] - arrival_times[request]),
        )

    def complete(request: int, at: float) -> None:
        if at < finish_at[request]:
            finish_at[request] = at
            push(at, _WIN, (request,))

    def enter_service(station: _Server, entry: list, at: float) -> None:
        request, copy, service, tail = entry[0], entry[1], entry[2], entry[3]
        entry[4] = _IN_SERVICE
        station.busy = True
        finish = at + service
        if request >= 0:
            if on_copy_resolved is not None:
                on_copy_resolved(request, copy, "finished", service, finish + tail)
            complete(request, finish + tail)
        push(finish, _POP, (station,))

    def join(station_id, entry: list, at: float) -> bool:
        # Start the job if its station is idle; True if it had to queue.
        station = servers.setdefault(station_id, _Server())
        if station.busy:
            station.queue.append(entry)
            return True
        enter_service(station, entry, at)
        return False

    def dispatch(request: int, copy: int, at: float) -> None:
        launched[request] += 1
        result = begin(request, copy, at)
        if result[0] == "done":
            if on_copy_resolved is not None:
                on_copy_resolved(request, copy, "done", 0.0, result[1])
            complete(request, result[1])
            return
        entry = [request, copy, result[1], result[2], _QUEUED]
        if join(server_of(request, copy), entry, at):
            queued_entries.setdefault(request, []).append(entry)

    for request in range(num_requests):
        push(float(arrival_times[request]), _ARRIVAL, (request,))
    if background_jobs:
        if begin_background is None:
            raise ValueError("background_jobs requires begin_background")
        for when, station_id, job in background_jobs:
            push(float(when), _BG, (station_id, job))

    while heap:
        at, kind, _seq, payload = heapq.heappop(heap)
        if kind == _ARRIVAL:
            (request,) = payload
            plan = driver.plan_for(at)
            delays = plan.launch_delays[:max_copies]
            dispatch(request, 0, at)
            for copy, delay in enumerate(delays[1:], start=1):
                push(at + delay, _BACKUP, (request, copy))
                outstanding[request] += 1
            feedback(request)
        elif kind == _BG:
            station_id, job = payload
            result = begin_background(job, at)
            if result[0] != "done":
                join(station_id, [-1, job, result[1], result[2], _QUEUED], at)
        elif kind == _BACKUP:
            request, copy = payload
            outstanding[request] -= 1
            if finish_at[request] > at:  # still pending: the hedge fires
                dispatch(request, copy, at)
            feedback(request)
        elif kind == _WIN:
            (request,) = payload
            if won[request] or finish_at[request] != at:
                continue  # a faster copy already claimed the win
            won[request] = True
            for entry in queued_entries.pop(request, ()):
                if entry[4] == _QUEUED:
                    entry[4] = _CANCELLED
                    cancelled[request] += 1
                    if on_copy_resolved is not None:
                        on_copy_resolved(request, entry[1], "cancelled", 0.0, at)
            feedback(request)
        else:  # _POP: a station finished its in-service job
            (station,) = payload
            station.busy = False
            queue = station.queue
            while queue:
                entry = queue.popleft()
                if entry[4] == _QUEUED:
                    enter_service(station, entry, at)
                    break

    return finish_at, launched, cancelled
