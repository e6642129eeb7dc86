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
  - the heap holds only station-completion, win, background and backup
    events.  Arrivals, which must be non-decreasing, are a stream merged
    with it: the next arrival runs once the heap's head is strictly later,
    since heap events at an equal time have a lower kind;
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

Both passes skip what cannot change a run.  A policy whose
``record_latency`` is the base class's no-op is fed nothing
(:attr:`PolicyDriver.wants_feedback`), and a static one of those is planned
once per run instead of once per request (:meth:`PolicyDriver.fixed_delays`).
A static policy that overrides ``record_latency`` keeps a plan and its
feedback per request.  Per-request state lives in Python lists, turned into
the returned arrays once at the end.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.core.policy import (
    PolicyDriver,
    ReplicationPolicy,
    arrival_list,
    simulate_hedged_arrivals,
)

__all__ = ["simulate_cancelling_arrivals"]

#: Event kind priorities at equal timestamps.  Background (migration) jobs
#: slot between wins and backup launches so that, at equal timestamps, they
#: join their station before any foreground dispatch — matching the "flush
#: due migration work, then serve" order of the known-completion pass.
#: Arrivals, which are not on the heap, rank after every kind.
_POP, _WIN, _BG, _BACKUP = 0, 1, 2, 3

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

    Raises:
        ValueError: If ``arrival_times`` decrease anywhere, or
            ``background_jobs`` is given without ``begin_background``.
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
    arrivals = arrival_list(arrival_times)
    num_requests = len(arrivals)
    driver = PolicyDriver(policy)
    wants_feedback = driver.wants_feedback
    fixed_delays = driver.fixed_delays(max_copies)
    finish_at = [math.inf] * num_requests
    launched = [0] * num_requests
    cancelled = [0] * num_requests
    outstanding = [0] * num_requests
    won = [False] * num_requests
    fed_back = [False] * num_requests
    queued_entries: Dict[int, List[list]] = {}
    servers: Dict[Hashable, _Server] = {}
    # Events are (time, kind, seq, a, b); seq is unique, so comparisons
    # never reach the payload.
    heap: List[tuple] = []
    order = itertools.count()
    push = heapq.heappush

    def feedback(request: int) -> None:
        # Release adaptive feedback once no backup decision is pending and
        # some copy's finish is known.  A still-queued copy may later finish
        # first; the policy is then fed the slower latency (module docstring).
        if fed_back[request] or outstanding[request] != 0:
            return
        finish = finish_at[request]
        if not math.isfinite(finish):
            return
        fed_back[request] = True
        driver.complete(finish, finish - arrivals[request])

    def complete(request: int, at: float) -> None:
        if at < finish_at[request]:
            finish_at[request] = at
            push(heap, (at, _WIN, next(order), request, None))

    def enter_service(station: _Server, entry: list, at: float) -> None:
        request, copy, service, tail = entry[0], entry[1], entry[2], entry[3]
        entry[4] = _IN_SERVICE
        station.busy = True
        finish = at + service
        if request >= 0:
            if on_copy_resolved is not None:
                on_copy_resolved(request, copy, "finished", service, finish + tail)
            complete(request, finish + tail)
        push(heap, (finish, _POP, next(order), station, None))

    def join(station_id: Hashable, entry: list, at: float) -> bool:
        # Start the job if its station is idle; True if it had to queue.
        station = servers.get(station_id)
        if station is None:
            station = servers[station_id] = _Server()
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

    if background_jobs:
        if begin_background is None:
            raise ValueError("background_jobs requires begin_background")
        for when, station_id, job in background_jobs:
            push(heap, (float(when), _BG, next(order), station_id, job))

    pop = heapq.heappop
    next_request = 0
    while True:
        # Heap events at an arrival's time have a lower kind, so they go first.
        if heap and (next_request == num_requests or heap[0][0] <= arrivals[next_request]):
            at, kind, _seq, a, b = pop(heap)
            if kind == _POP:  # station a finished its in-service job
                a.busy = False
                queue = a.queue
                while queue:
                    entry = queue.popleft()
                    if entry[4] == _QUEUED:
                        enter_service(a, entry, at)
                        break
            elif kind == _WIN:  # request a's earliest known finish is now
                if won[a] or finish_at[a] != at:
                    continue  # a faster copy already claimed the win
                won[a] = True
                for entry in queued_entries.pop(a, ()):
                    if entry[4] == _QUEUED:
                        entry[4] = _CANCELLED
                        cancelled[a] += 1
                        if on_copy_resolved is not None:
                            on_copy_resolved(a, entry[1], "cancelled", 0.0, at)
                if wants_feedback:
                    feedback(a)
            elif kind == _BG:  # background job b joins station a
                result = begin_background(b, at)
                if result[0] != "done":
                    join(a, [-1, b, result[1], result[2], _QUEUED], at)
            else:  # _BACKUP: copy b of request a is due
                if finish_at[a] > at:  # still pending: the hedge fires
                    dispatch(a, b, at)
                if wants_feedback:
                    outstanding[a] -= 1
                    feedback(a)
            continue
        if next_request == num_requests:
            break
        request = next_request
        next_request += 1
        at = arrivals[request]
        if fixed_delays is None:
            delays = driver.plan_for(at).launch_delays[:max_copies]
        else:
            delays = fixed_delays
        dispatch(request, 0, at)
        for copy in range(1, len(delays)):
            push(heap, (at + delays[copy], _BACKUP, next(order), request, copy))
        if wants_feedback:
            outstanding[request] = len(delays) - 1
            feedback(request)

    return (
        np.array(finish_at, dtype=float),
        np.array(launched, dtype=np.int64),
        np.array(cancelled, dtype=np.int64),
    )
