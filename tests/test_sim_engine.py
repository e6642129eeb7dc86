"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim import EventState, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_can_start_elsewhere(self):
        assert Simulator(start_time=5.0).now == 5.0

    @pytest.mark.parametrize("start_time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_time_rejected(self, start_time):
        # Rejected where it is given, naming it, rather than at the first
        # schedule() as a bad event time.
        with pytest.raises(SimulationError, match="start_time"):
            Simulator(start_time=start_time)

    def test_schedule_and_run_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.5

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_broken_by_priority_then_sequence(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late-priority", priority=5)
        sim.schedule(1.0, order.append, "first-scheduled", priority=0)
        sim.schedule(1.0, order.append, "second-scheduled", priority=0)
        sim.run()
        assert order == ["first-scheduled", "second-scheduled", "late-priority"]

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_time_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_schedule_at_nan_rejected(self):
        # NaN compares false against the clock, so without an explicit check
        # it would slip into the heap and corrupt its ordering invariant.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_schedule_at_infinite_time_rejected(self):
        sim = Simulator()
        for time in (float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                sim.schedule_at(time, lambda: None)

    def test_schedule_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_infinite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)

    def test_nan_schedule_leaves_heap_usable(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        fired = []
        sim.schedule(1.0, fired.append, "ok")
        sim.run()
        assert fired == ["ok"] and sim.now == 1.0

    def test_events_scheduled_from_callbacks(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        assert event.cancel() is True
        sim.run()
        assert fired == []
        assert event.state is EventState.CANCELLED

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        assert event.cancel() is False
        assert event.state is EventState.FIRED

    def test_double_cancel_returns_false(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.cancel() is True
        assert event.cancel() is False


class TestRunControl:
    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_past_time_rejected(self):
        sim = Simulator(start_time=3.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_run_until_nan_rejected(self):
        # NaN compares false against every event time, so no event would be
        # "after" the horizon and all of them would fire.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 1

    def test_run_until_infinite_rejected(self):
        # A clock left at infinity would make every later schedule() fail.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError):
            sim.run_until(float("inf"))
        assert fired == [] and sim.now == 0.0
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1, 2] and sim.now == 2.0

    def test_max_events_cap(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        processed = sim.run(max_events=4)
        assert processed == 4
        assert sim.pending_events == 6

    def test_max_events_zero_fires_nothing(self):
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.schedule(float(i + 1), fired.append, i)
        assert sim.run(max_events=0) == 0
        assert fired == [] and sim.now == 0.0 and sim.pending_events == 3
        assert sim.events_processed == 0

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_clear_drops_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.clear()
        sim.run()
        assert fired == []


class TestPendingEventsExcludeCancelled:
    def test_cancelled_events_not_counted(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert sim.pending_events == 6

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1

    def test_count_stays_accurate_as_cancelled_events_are_popped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(2.0, fired.append, "keep")
        doomed = sim.schedule(1.0, fired.append, "doomed")
        doomed.cancel()
        assert sim.pending_events == 1
        sim.run(max_events=1)  # skips the cancelled event and fires "keep"
        assert fired == ["keep"]
        assert sim.pending_events == 0
        assert keep.state is EventState.FIRED

    def test_mass_cancellation_purges_heap_lazily(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for event in events[:400]:
            event.cancel()
        # The live count is exact and the heap itself has been compacted below
        # the raw number of scheduled events.
        assert sim.pending_events == 100
        assert len(sim._heap) < 500
        assert sim.run() == 100

    def test_purge_during_run_keeps_draining_the_live_queue(self):
        # The purge compacts the heap in place, under the drain loop that
        # holds a reference to it: survivors and events scheduled after the
        # purge must still fire in this run.
        sim = Simulator()
        fired = []
        later = [sim.schedule(10.0 + i, fired.append, i) for i in range(150)]

        def cancel_most():
            for event in later[:100]:
                event.cancel()
            assert len(sim._heap) < 150  # the purge ran
            sim.schedule(4.0, fired.append, "after-purge")

        sim.schedule(1.0, cancel_most)
        assert sim.run() == 52
        assert fired == ["after-purge"] + list(range(100, 150))
        assert sim.pending_events == 0

    def test_cancellation_during_run_keeps_count_accurate(self):
        sim = Simulator()
        later = [sim.schedule(10.0 + i, lambda: None) for i in range(3)]
        observed = []

        def cancel_two():
            later[0].cancel()
            later[1].cancel()
            observed.append(sim.pending_events)

        sim.schedule(1.0, cancel_two)
        sim.run_until(5.0)
        assert observed == [1]
        assert sim.pending_events == 1

    def test_clear_resets_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.clear()
        assert sim.pending_events == 0
        # A stale handle cancelled after clear() must not corrupt the count,
        # even once new events have been scheduled into the heap.
        stale = sim.schedule(1.0, lambda: None)
        sim.clear()
        stale.cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 1
        other_stale = sim.schedule(3.0, lambda: None)
        sim.clear()
        sim.schedule(4.0, lambda: None)
        other_stale.cancel()
        assert sim.pending_events == 1

    def test_stale_handle_from_purge_cannot_skew_count(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()  # triggers a lazy purge along the way
        assert sim.pending_events == 50
        # Cancelling an already-purged event again is a no-op.
        assert events[0].cancel() is False
        assert sim.pending_events == 50


class TestSequenceSurvivesClear:
    """``_sequence`` must not reset on clear() — see Simulator.clear()."""

    def test_sequence_is_not_reset_by_clear(self):
        sim = Simulator()
        before = sim.schedule(1.0, lambda: None)
        sim.clear()
        after = sim.schedule(1.0, lambda: None)
        # If clear() reset the counter, `after` would collide with the stale
        # pre-clear handle in the (time, priority, sequence) ordering key and
        # event order on a reused simulator would no longer be deterministic.
        assert after.sequence > before.sequence

    def test_order_stays_deterministic_across_reuse(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first-life")
        sim.run()
        sim.clear()
        sim.schedule(1.0 - 1.0, order.append, "ignored")  # cleared below
        sim.clear()
        sim.schedule(2.0, order.append, "second-life-late", priority=0)
        sim.schedule(2.0, order.append, "second-life-later", priority=0)
        sim.run()
        assert order == ["first-life", "second-life-late", "second-life-later"]


# Initial events sit on a 0.5 s grid so that ties are common.  Each carries up
# to two actions run by its callback: schedule a child 0, 0.5 or 1 s later, or
# cancel the handle at an index (taken modulo the handles scheduled so far).
_PRIORITIES = st.integers(min_value=-2, max_value=2)
_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("child"), st.sampled_from([0.0, 0.5, 1.0]), _PRIORITIES),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    ),
    max_size=2,
)
_INITIAL_EVENTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8), _PRIORITIES, _ACTIONS),
    max_size=40,
)


def _reference_order(initial, split):
    """Fire order of a plain-list model of the event queue.

    At each step the model fires the live entry with the least ``(time,
    priority, sequence)``.  Returns the ``(tag, time)`` sequence fired up to
    ``split``, the number of live entries left then, and the whole sequence.
    """
    # One [time, priority, sequence, tag, actions, state] list per handle,
    # in scheduling order, so an entry's index is its sequence.
    entries = [
        [0.5 * slot, priority, index, str(index), actions, "pending"]
        for index, (slot, priority, actions) in enumerate(initial)
    ]
    fired = []
    prefix = pending_at_split = None
    while True:
        live = [entry for entry in entries if entry[5] == "pending"]
        head = min(live, key=lambda entry: entry[:3]) if live else None
        if prefix is None and (head is None or head[0] > split):
            prefix, pending_at_split = list(fired), len(live)
        if head is None:
            return prefix, pending_at_split, fired
        head[5] = "fired"
        fired.append((head[3], head[0]))
        for action in head[4]:
            if action[0] == "child":
                _, delay, priority = action
                tag = f"{head[3]}/{len(entries)}"
                entries.append([head[0] + delay, priority, len(entries), tag, (), "pending"])
            else:
                target = entries[action[1] % len(entries)]
                if target[5] == "pending":
                    target[5] = "cancelled"


class TestReferenceModelOrder:
    @settings(max_examples=150, deadline=None)
    @given(initial=_INITIAL_EVENTS, split_slot=st.integers(min_value=0, max_value=10))
    def test_fire_order_matches_plain_list_model(self, initial, split_slot):
        split = 0.5 * split_slot
        sim = Simulator()
        fired = []
        handles = []

        def fire(tag, actions):
            fired.append((tag, sim.now))
            for action in actions:
                if action[0] == "child":
                    _, delay, priority = action
                    child = f"{tag}/{len(handles)}"
                    handles.append(sim.schedule(delay, fire, child, (), priority=priority))
                else:
                    handles[action[1] % len(handles)].cancel()

        for index, (slot, priority, actions) in enumerate(initial):
            handles.append(
                sim.schedule_at(0.5 * slot, fire, str(index), actions, priority=priority)
            )
        prefix, pending_at_split, order = _reference_order(initial, split)

        assert sim.run_until(split) == len(prefix)
        assert fired == prefix
        assert sim.now == split
        assert sim.pending_events == pending_at_split
        assert sim.run() == len(order) - len(prefix)
        assert fired == order
        assert sim.now == max([split] + [time for _, time in order])
        assert sim.pending_events == 0
        assert sim.events_processed == len(order)
