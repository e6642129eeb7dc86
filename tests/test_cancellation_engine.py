"""The FIFO hedging engine against the loops it was rewritten from.

``reference_cancelling_arrivals`` is the cancel-on-win event loop as it was
before the engine moved to Python lists, an arrival stream merged with the
event heap, one plan per static policy and skipped no-op feedback:
every request's arrival on the heap, numpy per-request state, and a
``PolicyDriver.plan_for`` plus feedback call for every request.
``reference_hedged_arrivals`` is the known-completion pass before the same
plan and feedback changes.  The hypothesis properties require the engine to
equal them exactly: per-request results, every callback in order, and every
latency fed back to the policy.
"""

import heapq
import math
from collections import deque
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cancellation import simulate_cancelling_arrivals
from repro.core.policy import (
    HedgeAfterDelay,
    HedgeOnPercentile,
    PolicyDriver,
    simulate_hedged_arrivals,
)

_POP, _WIN, _BG, _BACKUP, _ARRIVAL = 0, 1, 2, 3, 4
_QUEUED, _IN_SERVICE, _CANCELLED = 0, 1, 2


class _Server:
    __slots__ = ("busy", "queue")

    def __init__(self) -> None:
        self.busy = False
        self.queue: deque = deque()


def reference_cancelling_arrivals(
    policy,
    arrival_times,
    max_copies,
    server_of,
    begin,
    on_copy_resolved=None,
    background_jobs=None,
    begin_background=None,
):
    """The cancel-on-win event loop the engine replaced, for cancelling policies."""
    assert policy.cancel_on_win
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

    def push(at, kind, payload):
        nonlocal seq
        heapq.heappush(heap, (at, kind, seq, payload))
        seq += 1

    def feedback(request):
        if fed_back[request] or outstanding[request] != 0:
            return
        if not np.isfinite(finish_at[request]):
            return
        fed_back[request] = True
        driver.complete(
            float(finish_at[request]),
            float(finish_at[request] - arrival_times[request]),
        )

    def complete(request, at):
        if at < finish_at[request]:
            finish_at[request] = at
            push(at, _WIN, (request,))

    def enter_service(station, entry, at):
        request, copy, service, tail = entry[0], entry[1], entry[2], entry[3]
        entry[4] = _IN_SERVICE
        station.busy = True
        finish = at + service
        if request >= 0:
            if on_copy_resolved is not None:
                on_copy_resolved(request, copy, "finished", service, finish + tail)
            complete(request, finish + tail)
        push(finish, _POP, (station,))

    def join(station_id, entry, at):
        station = servers.setdefault(station_id, _Server())
        if station.busy:
            station.queue.append(entry)
            return True
        enter_service(station, entry, at)
        return False

    def dispatch(request, copy, at):
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
            if finish_at[request] > at:
                dispatch(request, copy, at)
            feedback(request)
        elif kind == _WIN:
            (request,) = payload
            if won[request] or finish_at[request] != at:
                continue
            won[request] = True
            for entry in queued_entries.pop(request, ()):
                if entry[4] == _QUEUED:
                    entry[4] = _CANCELLED
                    cancelled[request] += 1
                    if on_copy_resolved is not None:
                        on_copy_resolved(request, entry[1], "cancelled", 0.0, at)
            feedback(request)
        else:
            (station,) = payload
            station.busy = False
            queue = station.queue
            while queue:
                entry = queue.popleft()
                if entry[4] == _QUEUED:
                    enter_service(station, entry, at)
                    break

    return finish_at, launched, cancelled


def reference_hedged_arrivals(
    policy,
    arrival_times,
    max_copies,
    server_of,
    begin,
    on_copy_resolved=None,
    background_jobs=None,
    begin_background=None,
):
    """The known-completion pass before plans were computed once per static policy."""
    arrivals = np.asarray(arrival_times, dtype=float).tolist()
    num_requests = len(arrivals)
    driver = PolicyDriver(policy)
    finish_at = [math.inf] * num_requests
    launched = [0] * num_requests
    outstanding = [0] * num_requests
    backups = []
    seq = 0
    free_at = {}
    jobs = background_jobs or ()
    if jobs and begin_background is None:
        raise ValueError("background_jobs requires begin_background")
    next_job = 0

    def launch(request, copy, at):
        nonlocal next_job
        while next_job < len(jobs) and jobs[next_job][0] <= at:
            when, station, job = jobs[next_job]
            next_job += 1
            result = begin_background(job, when)
            if result[0] != "done":
                free = free_at.get(station, 0.0)
                free_at[station] = (free if free > when else when) + result[1]
        result = begin(request, copy, at)
        launched[request] += 1
        if result[0] == "done":
            outcome, work, finish = "done", 0.0, result[1]
        else:
            _kind, work, tail = result
            station = server_of(request, copy)
            free = free_at.get(station, 0.0)
            end = (free if free > at else at) + work
            free_at[station] = end
            outcome, finish = "finished", end + tail
        if on_copy_resolved is not None:
            on_copy_resolved(request, copy, outcome, work, finish)
        if finish < finish_at[request]:
            finish_at[request] = finish

    next_request = 0
    while next_request < num_requests or backups:
        if backups and (
            next_request >= num_requests
            or backups[0][0] <= arrivals[next_request]
        ):
            at, _, request, copy = heapq.heappop(backups)
            outstanding[request] -= 1
            if finish_at[request] > at:
                launch(request, copy, at)
            if outstanding[request] == 0:
                driver.complete(finish_at[request], finish_at[request] - arrivals[request])
            continue
        arrival = arrivals[next_request]
        plan = driver.plan_for(arrival)
        delays = plan.launch_delays[:max_copies]
        launch(next_request, 0, arrival)
        for copy, delay in enumerate(delays[1:], start=1):
            heapq.heappush(backups, (arrival + delay, seq, next_request, copy))
            seq += 1
            outstanding[next_request] += 1
        if outstanding[next_request] == 0:
            driver.complete(finish_at[next_request], finish_at[next_request] - arrival)
        next_request += 1

    return np.array(finish_at, dtype=float), np.array(launched, dtype=np.int64)


# --------------------------------------------------------------------------- #
# Policies that log every latency fed back to them


class RecordingPercentile(HedgeOnPercentile):
    """``hedge:p<P>`` that also logs each ``record_latency`` value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def record_latency(self, latency):
        self.seen.append(latency)
        super().record_latency(latency)


class RecordingDelay(HedgeAfterDelay):
    """A static hedge that overrides ``record_latency``: its feedback must still flow."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def record_latency(self, latency):
        self.seen.append(latency)


def make_policy(kind, delay, extra, percentile, window, cancel):
    """A fresh policy: each engine gets its own, since adaptive ones keep state."""
    if kind == "delay":
        return HedgeAfterDelay(delay, extra_copies=extra, cancel_on_win=cancel)
    if kind == "percentile":
        return RecordingPercentile(
            percentile,
            initial_delay=delay,
            window=window,
            extra_copies=extra,
            cancel_on_win=cancel,
        )
    return RecordingDelay(delay, extra_copies=extra, cancel_on_win=cancel)


# --------------------------------------------------------------------------- #
# Inputs on a coarse time grid, so arrivals, backups, completions and
# background jobs tie often.  Callback results are drawn as indices into a
# small table: ``("done", offset)`` finishes ``offset`` after dispatch,
# ``("service", service_s, tail_s)`` queues.

GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
RESULTS = [("done", offset) for offset in GRID] + [
    ("service", service, tail) for service in GRID for tail in (0.0, 0.25)
]


def table_rows(draw, rows, columns, size):
    """``rows`` lists of ``columns`` indices below ``size``, in one draw."""
    cells = rows * columns
    flat = draw(st.lists(st.integers(0, size - 1), min_size=cells, max_size=cells))
    return [flat[row * columns : (row + 1) * columns] for row in range(rows)]


@st.composite
def engine_inputs(draw):
    num_requests = draw(st.integers(min_value=0, max_value=25))
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
            min_size=num_requests,
            max_size=num_requests,
        )
    )
    arrivals = np.cumsum(np.asarray(gaps, dtype=float)) if gaps else np.empty(0)
    stations = draw(st.integers(min_value=1, max_value=4))
    max_copies = draw(st.integers(min_value=1, max_value=3))
    placement = table_rows(draw, num_requests, max_copies, stations)
    results = [
        [RESULTS[index] for index in row]
        for row in table_rows(draw, num_requests, max_copies, len(RESULTS))
    ]
    horizon = float(arrivals[-1]) if num_requests else 1.0
    job_times = sorted(
        draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, horizon, horizon + 1.0]),
                max_size=6,
            )
        )
    )
    (job_stations,) = table_rows(draw, 1, len(job_times), stations) if job_times else ([],)
    background = [
        (when, station, job)
        for job, (when, station) in enumerate(zip(job_times, job_stations))
    ]
    (job_results,) = (
        table_rows(draw, 1, len(background), len(RESULTS)) if background else ([],)
    )
    background_results = [RESULTS[index] for index in job_results]
    policy = (
        draw(st.sampled_from(["delay", "percentile", "recording"])),
        draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        draw(st.integers(min_value=1, max_value=2)),
        draw(st.sampled_from([50.0, 90.0])),
        draw(st.integers(min_value=1, max_value=4)),
    )
    return arrivals, max_copies, placement, results, background, background_results, policy


def run_engine(engine, policy, inputs):
    """Run ``engine`` on ``inputs``; return its results and every callback, in order."""
    arrivals, max_copies, placement, results, background, background_results, _ = inputs
    calls = []

    def server_of(request, copy):
        calls.append(("server_of", request, copy))
        return placement[request][copy]

    def begin(request, copy, at):
        calls.append(("begin", request, copy, at))
        result = results[request][copy]
        if result[0] == "done":
            return ("done", at + result[1])
        return result

    def on_copy_resolved(request, copy, outcome, work, finish):
        calls.append(("resolved", request, copy, outcome, work, finish))

    def begin_background(job, at):
        calls.append(("background", job, at))
        result = background_results[job]
        if result[0] == "done":
            return ("done", at + result[1])
        return result

    out = engine(
        policy,
        arrivals,
        max_copies,
        server_of,
        begin,
        on_copy_resolved,
        background or None,
        begin_background,
    )
    return out, calls


def assert_same_run(policy_args, inputs, engine, reference):
    expected_policy = make_policy(*policy_args)
    got_policy = make_policy(*policy_args)
    expected, expected_calls = run_engine(reference, expected_policy, inputs)
    got, got_calls = run_engine(engine, got_policy, inputs)
    assert len(got) == len(expected)
    for got_array, expected_array in zip(got, expected):
        assert got_array.dtype == expected_array.dtype
        assert np.array_equal(got_array, expected_array)
    assert got_calls == expected_calls
    assert getattr(got_policy, "seen", None) == getattr(expected_policy, "seen", None)


@settings(max_examples=300, deadline=None)
@given(engine_inputs())
def test_cancelling_engine_equals_reference_loop(inputs):
    policy_args = inputs[-1] + (True,)
    assert_same_run(
        policy_args, inputs, simulate_cancelling_arrivals, reference_cancelling_arrivals
    )


@settings(max_examples=150, deadline=None)
@given(engine_inputs())
def test_known_completion_pass_equals_reference(inputs):
    policy_args = inputs[-1] + (False,)
    assert_same_run(policy_args, inputs, simulate_hedged_arrivals, reference_hedged_arrivals)


def test_static_feedback_free_policy_plans_once(monkeypatch):
    # A static policy whose record_latency is the base no-op gets one plan,
    # however many requests arrive; feedback is never parked for it.
    plans = []
    policy = HedgeAfterDelay(0.5)
    original = type(policy).plan
    monkeypatch.setattr(
        type(policy), "plan", lambda self: plans.append(1) or original(self)
    )
    parked = []
    monkeypatch.setattr(PolicyDriver, "complete", lambda self, *a: parked.append(a))
    for engine in (simulate_cancelling_arrivals, simulate_hedged_arrivals):
        plans.clear()
        engine(
            policy,
            np.arange(50, dtype=float),
            2,
            lambda request, copy: copy,
            lambda request, copy, at: ("service", 1.5, 0.0),
        )
        assert len(plans) == 1
    assert parked == []


def test_overriding_static_policy_keeps_its_feedback():
    policy = RecordingDelay(0.5)
    simulate_cancelling_arrivals(
        policy,
        np.arange(20, dtype=float),
        2,
        lambda request, copy: copy,
        lambda request, copy, at: ("service", 0.25, 0.0),
    )
    assert policy.seen == [0.25] * 19  # the last request's feedback is still parked


@pytest.mark.parametrize("engine", [simulate_cancelling_arrivals, simulate_hedged_arrivals])
@pytest.mark.parametrize(
    "policy", [HedgeAfterDelay(0.1), HedgeAfterDelay(0.1, cancel_on_win=False)]
)
def test_decreasing_arrival_times_are_rejected(engine, policy):
    with pytest.raises(ValueError, match="non-decreasing"):
        engine(
            policy,
            np.array([0.0, 2.0, 1.0]),
            2,
            lambda request, copy: copy,
            lambda request, copy, at: ("service", 1.0, 0.0),
        )
