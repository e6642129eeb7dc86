"""Tests for the asyncio hedged-execution layer."""

import asyncio

import pytest

from repro.core import (
    HedgeAfterDelay,
    KCopies,
    NoReplication,
    RedundantClient,
    first_completed,
    hedged_call,
)
from repro.core.selection import RankedBest
from repro.exceptions import ConfigurationError
from repro.serve.clock import RealClock


def run(coro):
    return asyncio.run(coro)


async def backend(value, delay, fail=False):
    await asyncio.sleep(delay)
    if fail:
        raise RuntimeError(f"backend {value} failed")
    return value


class TestFirstCompleted:
    def test_fastest_wins(self):
        result = run(first_completed([backend("slow", 0.05), backend("fast", 0.0)]))
        assert result == "fast"

    def test_failure_tolerated_when_another_succeeds(self):
        result = run(
            first_completed([backend("bad", 0.0, fail=True), backend("good", 0.01)])
        )
        assert result == "good"

    def test_all_failures_raise(self):
        with pytest.raises(RuntimeError):
            run(first_completed([backend("a", 0.0, fail=True), backend("b", 0.0, fail=True)]))

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            run(first_completed([]))

    def test_losers_are_cancelled(self):
        cancelled = []

        async def slow():
            try:
                await asyncio.sleep(5.0)
            except asyncio.CancelledError:
                cancelled.append(True)
                raise
            return "slow"

        async def scenario():
            return await first_completed([slow(), backend("fast", 0.0)])

        assert run(scenario()) == "fast"
        assert cancelled == [True]


class TestHedgedCall:
    def test_two_eager_copies_take_the_faster(self):
        result = run(
            hedged_call(
                [lambda: backend("a", 0.05), lambda: backend("b", 0.0)],
                policy=KCopies(2),
            )
        )
        assert result.value == "b"
        assert result.winner == 1
        assert result.errors == []

    def test_no_replication_uses_single_factory(self):
        result = run(hedged_call([lambda: backend("only", 0.0)], policy=NoReplication()))
        assert result.value == "only"
        assert result.copies_launched == 1

    def test_hedge_after_delay_skips_backup_when_primary_fast(self):
        result = run(
            hedged_call(
                [lambda: backend("primary", 0.0), lambda: backend("backup", 0.0)],
                policy=HedgeAfterDelay(delay=0.5),
            )
        )
        assert result.value == "primary"
        assert result.copies_launched == 1

    def test_hedge_after_delay_fires_backup_when_primary_slow(self):
        result = run(
            hedged_call(
                [lambda: backend("primary", 0.5), lambda: backend("backup", 0.0)],
                policy=HedgeAfterDelay(delay=0.01),
            )
        )
        assert result.value == "backup"
        assert result.copies_launched == 2

    def test_all_copies_failing_raises(self):
        with pytest.raises(RuntimeError):
            run(
                hedged_call(
                    [lambda: backend("a", 0.0, fail=True), lambda: backend("b", 0.0, fail=True)],
                    policy=KCopies(2),
                )
            )

    def test_errors_recorded_when_winner_exists(self):
        result = run(
            hedged_call(
                [lambda: backend("a", 0.0, fail=True), lambda: backend("b", 0.02)],
                policy=KCopies(2),
            )
        )
        assert result.value == "b"
        assert len(result.errors) == 1

    def test_too_few_factories_rejected(self):
        with pytest.raises(ConfigurationError):
            run(hedged_call([lambda: backend("a", 0.0)], policy=KCopies(2)))

    def test_default_policy_is_two_copies(self):
        result = run(hedged_call([lambda: backend("a", 0.0), lambda: backend("b", 0.01)]))
        assert result.value == "a"

    def test_copies_launched_counts_actual_backend_calls(self, monkeypatch):
        """A hedge cancelled during its delay is not a launched copy.

        The old accounting counted any hedge whose ``delay <= elapsed``, so a
        slow event loop (here simulated by a clock that jumps past the hedge
        delay) inflated ``copies_launched`` even though the backup's backend
        call never started.
        """

        class JumpyClock(RealClock):
            """A real clock whose reading leaps far beyond the hedge delay."""

            def __init__(self):
                self.calls = 0

            def now(self):
                self.calls += 1
                return 0.0 if self.calls == 1 else 100.0

        monkeypatch.setattr("repro.serve.clock.RealClock", JumpyClock)
        invoked = []

        def factory(name):
            async def call():
                invoked.append(name)
                return name

            return call

        result = run(
            hedged_call(
                [factory("primary"), factory("backup")],
                policy=HedgeAfterDelay(delay=0.2),
            )
        )
        assert result.value == "primary"
        assert invoked == ["primary"]
        assert result.copies_launched == 1
        assert result.elapsed == pytest.approx(100.0)

    def test_copies_cancelled_counts_started_losers(self):
        async def fast():
            return "fast"

        async def slow():
            await asyncio.sleep(5.0)
            return "slow"

        result = run(
            hedged_call([lambda: slow(), lambda: fast()], policy=HedgeAfterDelay(0.0))
        )
        assert result.value == "fast"
        assert result.copies_launched == 2
        assert result.copies_cancelled == 1

    def test_a_backend_returning_none_wins(self):
        result = run(
            hedged_call(
                [lambda: backend(None, 0.0), lambda: backend("late", 0.05)],
                policy=HedgeAfterDelay(0.0),
            )
        )
        assert result.value is None
        assert result.winner == 0
        assert result.errors == []

    def test_lower_copy_index_wins_when_copies_finish_in_one_loop_pass(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            gates = [loop.create_future(), loop.create_future()]

            async def copy(index):
                return await gates[index]

            def open_gates():
                # Copy 1 resumes, and finishes, first within the pass.
                gates[1].set_result("second")
                gates[0].set_result("first")

            loop.call_later(0.01, open_gates)
            return await hedged_call(
                [lambda: copy(0), lambda: copy(1)], policy=KCopies(2)
            )

        result = run(scenario())
        assert (result.winner, result.value) == (0, "first")


class TestRedundantClient:
    def test_request_returns_fastest_backend(self):
        async def fast(key):
            return ("fast", key)

        async def slow(key):
            await asyncio.sleep(0.05)
            return ("slow", key)

        client = RedundantClient([slow, fast], policy=KCopies(2), selection=RankedBest([0, 1]))
        result = run(client.request(key="name"))
        assert result.value == ("fast", "name")

    def test_latency_recorded(self):
        async def quick(key):
            return key

        client = RedundantClient([quick, quick])
        run(client.request(key="x"))
        run(client.request(key="y"))
        assert len(client.metrics.histogram("latency")) == 2

    def test_policy_capped_by_backend_count(self):
        async def only(key):
            return key

        client = RedundantClient([only], policy=KCopies(3))
        result = run(client.request(key="z"))
        assert result.value == "z"

    def test_needs_at_least_one_backend(self):
        with pytest.raises(ConfigurationError):
            RedundantClient([])

    def test_metrics_registry_records_requests_and_copies(self):
        async def quick(key):
            return key

        client = RedundantClient([quick, quick])
        run(client.request(key="x"))
        run(client.request(key="y"))
        assert client.metrics.counter("requests").value == 2
        assert client.metrics.counter("copies_launched").value >= 2
        assert client.metrics.histogram("latency").count == 2
        snapshot = client.metrics.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["latency"]["count"] == 2

    @pytest.mark.parametrize(
        "policy", [HedgeAfterDelay(0.01, cancel_on_win=False), KCopies(2)]
    )
    def test_loser_runs_to_completion_when_the_plan_does_not_cancel(self, policy):
        async def scenario():
            finished = asyncio.Event()

            async def slow(key):
                await asyncio.sleep(0.1)
                finished.set()
                return ("slow", key)

            async def fast(key):
                await asyncio.sleep(0.02)
                return ("fast", key)

            client = RedundantClient([slow, fast], policy=policy, selection=RankedBest([0, 1]))
            result = await client.request(key="k")
            await asyncio.wait_for(finished.wait(), timeout=5.0)
            return result, client

        result, client = run(scenario())
        assert result.value == ("fast", "k")
        assert result.copies_cancelled == 0
        assert client.metrics.counter("copies_cancelled").value == 0

    @pytest.mark.parametrize("cancel_on_win", [True, False])
    def test_timeout_withdraws_launched_copies_and_parked_hedges(self, cancel_on_win):
        async def scenario():
            cancelled, hedged = [], []

            async def primary(key):
                try:
                    await asyncio.sleep(5.0)
                except asyncio.CancelledError:
                    cancelled.append(key)
                    raise

            async def backup(key):
                hedged.append(key)

            client = RedundantClient(
                [primary, backup],
                policy=HedgeAfterDelay(0.05, cancel_on_win=cancel_on_win),
                selection=RankedBest([0, 1]),
            )
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.request(key="k"), timeout=0.01)
            # Past the hedge's due time: a parked hedge would have fired.
            await asyncio.sleep(0.1)
            return cancelled, hedged, client

        cancelled, hedged, client = run(scenario())
        assert cancelled == ["k"]
        assert hedged == []
        assert client.metrics.counter("failed_requests").value == 1
