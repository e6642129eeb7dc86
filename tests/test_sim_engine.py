"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

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

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first-scheduled")
        sim.schedule_at(1.0, order.append, "second-scheduled")
        sim.schedule(1.0, order.append, "third-scheduled")
        sim.run()
        assert order == ["first-scheduled", "second-scheduled", "third-scheduled"]

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_time_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
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
        sim = Simulator()
        sim.run_until(3.0)
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
        assert fired == [] and sim.now == 0.0
        sim.run()
        assert fired == [1]

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

    def test_run_until_fires_events_at_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "at-horizon")
        sim.schedule(2.0 + 1e-12, fired.append, "after")
        sim.run_until(2.0)
        assert fired == ["at-horizon"]

    def test_a_zero_delay_event_fires_after_queued_ties(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "scheduled-by-first")

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, "queued-tie")
        sim.run()
        assert order == ["first", "queued-tie", "scheduled-by-first"]

    def test_clear_from_a_callback_stops_the_run(self):
        # The drain loop holds the heap list itself, so clear() must empty
        # that list rather than replace it.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.clear)
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [] and sim.now == 1.0

    @pytest.mark.parametrize("nested", ["run", "run_until"])
    def test_reentrant_run_rejected(self, nested):
        sim = Simulator()
        errors = []

        def call_nested():
            try:
                if nested == "run":
                    sim.run()
                else:
                    sim.run_until(5.0)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, call_nested)
        sim.schedule(2.0, errors.append, "later")
        sim.run()
        assert len(errors) == 2 and isinstance(errors[0], SimulationError)
        assert errors[1] == "later" and sim.now == 2.0

    def test_a_raising_callback_leaves_the_simulator_runnable(self):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, fired.append, 2)
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert fired == [2]

    def test_clear_drops_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.run_until(0.5)
        sim.clear()
        sim.run()
        assert fired == [] and sim.now == 0.5

    def test_order_stays_deterministic_across_clear(self):
        # A simulator reused after clear() still fires ties in scheduling
        # order, and nothing cleared fires.
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first-life")
        sim.run()
        sim.schedule(1.0, order.append, "cleared")
        sim.clear()
        sim.schedule(2.0, order.append, "second-life-early")
        sim.schedule(2.0, order.append, "second-life-late")
        sim.run()
        assert order == ["first-life", "second-life-early", "second-life-late"]


# Initial events sit on a 0.5 s grid so that ties are common.  Each may
# schedule up to two children 0, 0.5 or 1 s after it fires.
_CHILDREN = st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=2)
_INITIAL_EVENTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8), _CHILDREN), max_size=40
)


def _reference_order(initial, split):
    """Fire order of a plain-list model of the event heap.

    At each step the model fires the pending entry with the least ``(time,
    sequence)``, the sequence being the scheduling index.  Returns the
    ``(tag, time)`` sequence fired up to ``split`` and the whole sequence.
    """
    # One [time, sequence, tag, children, fired] list per scheduled event.
    entries = [
        [0.5 * slot, index, str(index), children, False]
        for index, (slot, children) in enumerate(initial)
    ]
    fired = []
    prefix = None
    while True:
        pending = [entry for entry in entries if not entry[4]]
        head = min(pending, key=lambda entry: entry[:2]) if pending else None
        if prefix is None and (head is None or head[0] > split):
            prefix = list(fired)
        if head is None:
            return prefix, fired
        head[4] = True
        fired.append((head[2], head[0]))
        for delay in head[3]:
            tag = f"{head[2]}/{len(entries)}"
            entries.append([head[0] + delay, len(entries), tag, (), False])


class TestReferenceModelOrder:
    @settings(max_examples=150, deadline=None)
    @given(initial=_INITIAL_EVENTS, split_slot=st.integers(min_value=0, max_value=10))
    def test_fire_order_matches_plain_list_model(self, initial, split_slot):
        split = 0.5 * split_slot
        sim = Simulator()
        fired = []
        scheduled = [len(initial)]

        def fire(tag, children):
            fired.append((tag, sim.now))
            for delay in children:
                sim.schedule(delay, fire, f"{tag}/{scheduled[0]}", ())
                scheduled[0] += 1

        for index, (slot, children) in enumerate(initial):
            sim.schedule_at(0.5 * slot, fire, str(index), children)
        prefix, order = _reference_order(initial, split)

        sim.run_until(split)
        assert fired == prefix
        assert sim.now == split
        sim.run()
        assert fired == order
        assert sim.now == max([split] + [time for _, time in order])
