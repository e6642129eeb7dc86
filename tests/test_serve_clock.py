"""Unit tests for the ``repro.serve`` clock seam.

The whole deterministic serving harness rests on :class:`VirtualClock`
being *exact*: every sleep and timer runs at precisely its due time, timers
due at one instant run in the order they were scheduled, and no real time
passes.  These tests pin that contract, the clock's scheduling calls
(``call_at``, ``call_later``, ``call_soon``, ``create_future``), and the
deadlock guard that turns a hung virtual run into an immediate error.
"""

import asyncio
import time

import pytest

from repro.serve.clock import Clock, RealClock, VirtualClock


class TestVirtualClock:
    def test_sleep_advances_exact_virtual_time(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(10.0)
            first = clock.now()
            await clock.sleep(6.25)
            return first, clock.now()

        wall_before = time.monotonic()
        first, second = clock.run(main())
        wall_elapsed = time.monotonic() - wall_before
        assert first == 10.0
        assert second == 16.25
        # A 16-second virtual run must not take 16 real seconds.
        assert wall_elapsed < 2.0

    def test_start_offset(self):
        clock = VirtualClock(start=100.0)

        async def main():
            await clock.sleep(1.0)
            return clock.now()

        assert clock.run(main()) == 101.0

    def test_timers_fire_in_timestamp_order(self):
        clock = VirtualClock()
        fired = []

        async def stamp(delay, label):
            await clock.sleep(delay)
            fired.append((label, clock.now()))

        async def main():
            await asyncio.gather(
                stamp(0.3, "c"), stamp(0.1, "a"), stamp(0.2, "b")
            )

        clock.run(main())
        assert fired == [("a", 0.1), ("b", 0.2), ("c", 0.3)]

    def test_wait_for_times_out_at_exact_virtual_instant(self):
        clock = VirtualClock()

        async def main():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(clock.sleep(60.0), timeout=2.5)
            return clock.now()

        assert clock.run(main()) == 2.5

    def test_deadlock_raises_instead_of_hanging(self):
        clock = VirtualClock()

        async def main():
            # Nobody will ever set this future and no timer is pending, so
            # the loop would select(None) forever on a real clock.
            await asyncio.get_event_loop().create_future()

        with pytest.raises(RuntimeError, match="virtual-time deadlock"):
            clock.run(main())

    def test_loop_time_is_virtual(self):
        clock = VirtualClock()

        async def main():
            loop = asyncio.get_event_loop()
            await clock.sleep(3.0)
            return loop.time()

        assert clock.run(main()) == 3.0

    def test_name(self):
        assert VirtualClock().name == "virtual"


class TestVirtualTimers:
    def test_timers_half_a_nanosecond_apart_read_their_own_due_times(self):
        clock = VirtualClock()
        seen = []

        async def main():
            clock.call_later(1.0, lambda: seen.append(clock.now()))
            clock.call_later(1.0 + 5e-10, lambda: seen.append(clock.now()))
            await clock.sleep(2.0)

        clock.run(main())
        assert seen == [1.0, 1.0 + 5e-10]

    def test_timers_due_at_one_instant_run_in_scheduling_order(self):
        clock = VirtualClock()
        order = []

        async def main():
            for index in range(6):
                clock.call_later(0.25, order.append, index)
            await clock.sleep(1.0)

        clock.run(main())
        assert order == [0, 1, 2, 3, 4, 5]

    def test_call_at_mixes_with_call_later_and_sleep_on_one_heap(self):
        clock = VirtualClock()
        order = []

        async def main():
            clock.call_at(0.5, order.append, "at")
            clock.call_later(0.5, order.append, "later")
            await clock.sleep(0.5)
            order.append("sleep")

        clock.run(main())
        assert order == ["at", "later", "sleep"]
        assert clock.now() == 0.5

    def test_call_soon_runs_before_time_advances(self):
        clock = VirtualClock()
        seen = []

        def fire():
            seen.append(("timer", clock.now()))
            clock.call_soon(lambda: seen.append(("soon", clock.now())))

        async def main():
            clock.call_later(1.0, fire)
            clock.call_later(2.0, lambda: seen.append(("next", clock.now())))
            await clock.sleep(3.0)

        clock.run(main())
        assert seen == [("timer", 1.0), ("soon", 1.0), ("next", 2.0)]

    def test_timer_due_in_the_past_runs_now_and_time_never_goes_back(self):
        clock = VirtualClock()
        seen = []

        async def main():
            await clock.sleep(5.0)
            clock.call_at(2.0, lambda: seen.append(clock.now()))
            clock.call_later(-1.0, lambda: seen.append(clock.now()))
            await clock.sleep(0.0)
            await clock.sleep(0.0)
            return clock.now()

        assert clock.run(main()) == 5.0
        assert seen == [5.0, 5.0]

    def test_create_future_resolves_from_a_timer(self):
        clock = VirtualClock()

        async def main():
            future = clock.create_future()
            clock.call_at(4.0, future.set_result, "done")
            return await future, clock.now()

        assert clock.run(main()) == ("done", 4.0)

    def test_callback_exception_propagates_out_of_run(self):
        clock = VirtualClock()

        def boom():
            raise ValueError("boom")

        async def main():
            clock.call_later(1.0, boom)
            await clock.sleep(2.0)

        with pytest.raises(ValueError, match="boom"):
            clock.run(main())
        assert clock.now() == 1.0

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda clock: clock.call_later(1.0, print),
            lambda clock: clock.call_at(1.0, print),
            lambda clock: clock.call_soon(print),
            lambda clock: clock.create_future(),
        ],
        ids=["call_later", "call_at", "call_soon", "create_future"],
    )
    def test_scheduling_outside_run_raises(self, schedule):
        clock = VirtualClock()
        with pytest.raises(RuntimeError):
            schedule(clock)
        clock.run(clock.sleep(1.0))
        with pytest.raises(RuntimeError):
            schedule(clock)


class TestRealClock:
    def test_is_a_clock_named_real(self):
        clock = RealClock()
        assert isinstance(clock, Clock)
        assert clock.name == "real"

    def test_now_is_monotonic_and_sleep_waits(self):
        clock = RealClock()

        async def main():
            before = clock.now()
            await clock.sleep(0.01)
            return clock.now() - before

        elapsed = asyncio.run(main())
        assert elapsed >= 0.009

    def test_scheduling_calls_use_the_running_asyncio_loop(self):
        clock = RealClock()
        seen = []

        async def main():
            future = clock.create_future()
            clock.call_soon(seen.append, "soon")
            clock.call_later(0.001, seen.append, "later")
            clock.call_at(clock.now() + 0.002, future.set_result, "at")
            return await future

        assert asyncio.run(main()) == "at"
        assert seen == ["soon", "later"]

    def test_scheduling_outside_a_loop_raises(self):
        with pytest.raises(RuntimeError):
            RealClock().call_soon(print)
