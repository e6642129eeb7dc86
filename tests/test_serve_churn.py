"""Live membership changes in the serving layer (``repro.serve``).

The offline substrates replay churn on epoch rings; here the ring mutates
*while requests are in flight*.  The contracts under test:

* eviction is fail-stop at dispatch — copies already in service complete,
  racing copies headed at a dead backend fail over to surviving replicas,
  and the whole thing is deterministic under the virtual clock;
* stable vnode identity — a re-added backend reclaims exactly its old keys,
  so the precomputed replica table round-trips through remove + add;
* the adaptive ``hedge:p95`` recorder keeps adapting across an eviction
  (backend death must not wedge the percentile feedback loop);
* event schedules ride the report (`serve-report/2`) byte-reproducibly.
"""

import asyncio
import json

import pytest

from repro.core.policy import HedgeOnPercentile, parse_policy
from repro.distributions import Deterministic
from repro.exceptions import ConfigurationError
from repro.serve import (
    BackendError,
    LoadGenConfig,
    RealClock,
    RedundancyProxy,
    SimBackend,
    VirtualClock,
    run_load,
)


def make_stack(policy="none", backends=4, seed=0, service=None):
    clock = VirtualClock()
    pool = [
        SimBackend(index, clock, seed=seed, service=service)
        for index in range(backends)
    ]
    proxy = RedundancyProxy(pool, clock, policy=policy)
    return clock, proxy


def run_report(policy, *, rate=2000.0, requests=800, seed=0, backends=4, events=()):
    clock, proxy = make_stack(policy, backends=backends, seed=seed)
    config = LoadGenConfig(
        rate=rate, num_requests=requests, seed=seed, events=events
    )
    return clock.run(run_load(proxy, clock, config))


# ---------------------------------------------------------------------------
# Membership surface
# ---------------------------------------------------------------------------

class TestMembership:
    def test_crash_evicts_marks_dead_and_records(self):
        clock, proxy = make_stack(backends=4)
        proxy.remove_backend(2, dead=True)
        assert proxy.live_backends == (0, 1, 3)
        assert proxy.backends[2].failed is True
        assert proxy.membership_events == [
            {"at": 0.0, "action": "crash", "backend": 2}
        ]

    def test_graceful_remove_keeps_backend_alive(self):
        clock, proxy = make_stack(backends=4)
        proxy.remove_backend(2, dead=False)
        assert proxy.live_backends == (0, 1, 3)
        assert proxy.backends[2].failed is False
        assert proxy.membership_events[0]["action"] == "remove"

    def test_add_revives_a_crashed_backend(self):
        clock, proxy = make_stack(backends=4)
        proxy.remove_backend(1, dead=True)
        proxy.add_backend(1)
        assert proxy.live_backends == (0, 1, 2, 3)
        assert proxy.backends[1].failed is False
        assert [e["action"] for e in proxy.membership_events] == ["crash", "add"]

    def test_illegal_transitions_raise(self):
        clock, proxy = make_stack(backends=2)
        with pytest.raises(ConfigurationError):
            proxy.add_backend(0)  # already live
        with pytest.raises(ValueError):
            proxy.add_backend(7)  # not a pool slot
        proxy.remove_backend(0)
        with pytest.raises(ConfigurationError):
            proxy.remove_backend(0)  # not on the ring
        with pytest.raises(ConfigurationError):
            proxy.remove_backend(1)  # last live backend

    def test_readd_restores_the_exact_replica_table(self):
        """Stable vnode identity, observed through the fast-path table."""
        clock, proxy = make_stack("k2", backends=5)
        proxy.prepare_keyspace(2_000, 2)
        baseline = proxy._replica_table.copy()
        proxy.remove_backend(3)
        assert not (proxy._replica_table == 3).any()
        proxy.add_backend(3)
        assert (proxy._replica_table == baseline).all()

    def test_replicas_clamp_to_live_pool(self):
        clock, proxy = make_stack("k2", backends=2)
        proxy.remove_backend(0)
        # One live backend: a 2-copy plan degrades to a single copy rather
        # than raising or double-dispatching to the survivor.
        assert proxy.submit_nowait(5) is True
        assert proxy.copies_launched == 1


# ---------------------------------------------------------------------------
# Fail-stop at dispatch: in-flight work across an eviction
# ---------------------------------------------------------------------------

class TestInFlightFailover:
    def test_in_service_copy_completes_across_a_crash(self):
        """Eviction is fail-stop at *dispatch*: a copy the dead backend had
        already accepted runs to completion (matching the offline path)."""
        clock, proxy = make_stack(
            "none", backends=2, service=Deterministic(0.050)
        )
        key = next(k for k in range(100) if proxy.ring.primary_for(k) == 0)

        async def main():
            task = asyncio.ensure_future(proxy.request(key))
            await clock.sleep(0.010)  # request now in service on backend 0
            proxy.remove_backend(0, dead=True)
            return await task

        latency = clock.run(main())
        assert latency == pytest.approx(0.050)
        assert proxy.failed_requests == 0
        assert proxy.backends[0].completed == 1

    def test_requests_after_eviction_avoid_the_dead_backend(self):
        clock, proxy = make_stack("k2", backends=4)
        proxy.remove_backend(0, dead=True)

        async def main():
            for key in range(200):
                await proxy.request(key)

        clock.run(main())
        assert proxy.failed_requests == 0
        assert proxy.failed_copies == 0  # nothing was even routed at the corpse
        assert proxy.backends[0].completed == 0

    def test_dispatch_to_dead_unevicted_backend_fails_over(self):
        """The window between death and eviction: k2 copies aimed at the dead
        backend raise at dispatch and the surviving replica wins."""
        clock, proxy = make_stack("k2", backends=4)
        proxy.backends[0].set_failed()  # dead but still on the ring

        async def main():
            for key in range(200):
                await proxy.request(key)

        clock.run(main())
        assert proxy.failed_requests == 0
        assert proxy.failed_copies > 0

    def test_deterministic_across_runs(self):
        def run_once():
            clock, proxy = make_stack("k2", backends=4, seed=9)
            key = next(k for k in range(100) if proxy.ring.primary_for(k) == 1)

            async def main():
                latencies = []
                task = asyncio.ensure_future(proxy.request(key))
                await clock.sleep(0.0005)
                proxy.remove_backend(1, dead=True)
                latencies.append(await task)
                for k in range(100):
                    latencies.append(await proxy.request(k))
                return latencies

            return clock.run(main())

        assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Adaptive hedging across evictions
# ---------------------------------------------------------------------------

class TestRecorderSurvivesEviction:
    def test_hedge_p95_keeps_adapting_after_a_crash(self):
        policy = parse_policy("hedge:p95")
        assert isinstance(policy, HedgeOnPercentile)
        clock, proxy = make_stack(policy, backends=4, seed=11)
        config = LoadGenConfig(
            rate=2000.0,
            num_requests=1200,
            seed=11,
            events=((0.2, "crash", 1),),
        )
        report = clock.run(run_load(proxy, clock, config))
        assert report.counters["requests"] == 1200
        assert report.counters["failed_requests"] == 0
        # The recorder kept feeding the policy after the eviction: the warmed
        # delay tracks the run's p95, not the cold-start default.
        assert policy.current_delay() == pytest.approx(report.summary.p95, rel=0.5)
        # All post-crash completions came from the three survivors.
        assert report.per_backend_completions[1] < report.counters["requests"] / 4


# ---------------------------------------------------------------------------
# Event schedules through run_load and the report
# ---------------------------------------------------------------------------

class TestEventSchedule:
    EVENTS = ((0.1, "crash", 1), (0.25, "add", 1))

    def test_events_recorded_in_order_in_the_report(self):
        report = run_report("k2", events=self.EVENTS)
        assert [(e["at"], e["action"], e["backend"]) for e in report.events] == [
            (pytest.approx(0.1), "crash", 1),
            (pytest.approx(0.25), "add", 1),
        ]
        payload = json.loads(report.to_json())
        assert payload["schema"] == "serve-report/2"
        assert [e["action"] for e in payload["events"]] == ["crash", "add"]

    @pytest.mark.parametrize("policy", ["none", "k2", "hedge:p95"])
    def test_event_runs_are_byte_identical(self, policy):
        first = run_report(policy, seed=7, events=self.EVENTS).to_json()
        second = run_report(policy, seed=7, events=self.EVENTS).to_json()
        assert first == second

    def test_eviction_changes_the_run(self):
        with_events = run_report("k2", seed=7, events=self.EVENTS).to_json()
        without = run_report("k2", seed=7).to_json()
        assert with_events != without

    @pytest.mark.parametrize("clock_name", ["virtual", "real"])
    def test_crashing_the_last_live_backend_fails_run_load(self, clock_name):
        """A control that raises mid-run fails run_load on either clock,
        instead of being logged by the loop while run_load waits forever."""
        clock = VirtualClock() if clock_name == "virtual" else RealClock()
        pool = [SimBackend(index, clock, seed=0) for index in range(2)]
        proxy = RedundancyProxy(pool, clock, policy="hedge:1ms")
        config = LoadGenConfig(
            rate=2000.0,
            num_requests=100,
            events=((0.002, "crash", 0), (0.004, "crash", 1)),
            resolution=0.0 if clock_name == "virtual" else 0.001,
        )
        with pytest.raises(ConfigurationError):
            if clock_name == "virtual":
                clock.run(run_load(proxy, clock, config))
            else:
                asyncio.run(asyncio.wait_for(run_load(proxy, clock, config), 10.0))

    def test_bad_event_action_rejected(self):
        with pytest.raises(ValueError, match="add/remove/crash"):
            LoadGenConfig(rate=100.0, num_requests=10, events=((0.1, "frob", 1),))

    def test_no_request_lost_across_churn(self):
        report = run_report("k2", requests=1000, events=self.EVENTS)
        assert report.counters["requests"] == 1000
        assert report.counters["failed_requests"] == 0
        assert sum(report.per_backend_completions) == report.counters[
            "copies_launched"
        ] - report.counters["copies_cancelled"] - report.counters["failed_copies"]
