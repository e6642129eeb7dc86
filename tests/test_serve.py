"""End-to-end tests of the live serving layer under the virtual clock.

Everything here runs wall-clock-free: the full proxy + load-generator stack
executes on a :class:`VirtualClock`, so runs are seeded and byte-reproducible
— the property the determinism tests pin with exact JSON equality.
"""

import asyncio
import dataclasses
import gc
import json

import numpy as np
import pytest

from repro.core.policy import HedgeOnPercentile, parse_policy
from repro.distributions import Deterministic, Exponential
from repro.exceptions import ConfigurationError
from repro.serve import (
    Backend,
    BackendError,
    LoadGenConfig,
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


def run_report(policy, *, rate=2000.0, requests=800, seed=0, backends=4, swaps=()):
    clock, proxy = make_stack(policy, backends=backends, seed=seed)
    config = LoadGenConfig(
        rate=rate, num_requests=requests, seed=seed, swaps=swaps
    )
    return clock.run(run_load(proxy, clock, config))


class SleepingBackend(Backend):
    """A backend that serves each copy by sleeping on the clock in ``handle``."""

    def __init__(self, index, clock, service_s):
        super().__init__(index)
        self._clock = clock
        self._service_s = service_s
        self.cancelled = 0

    @property
    def failed(self):
        return False

    async def handle(self, key):
        try:
            await self._clock.sleep(self._service_s)
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        self.completed += 1
        self.consumed_s += self._service_s
        return self._service_s


# ---------------------------------------------------------------------------
# Determinism: the tentpole property
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("policy", ["none", "k2", "hedge:2ms", "hedge:p95"])
    def test_same_seed_byte_identical_report(self, policy):
        first = run_report(policy, seed=7).to_json()
        second = run_report(policy, seed=7).to_json()
        assert first == second

    def test_different_seed_different_report(self):
        assert run_report("k2", seed=1).to_json() != run_report("k2", seed=2).to_json()

    def test_report_is_canonical_json(self):
        report = run_report("k2")
        payload = json.loads(report.to_json())
        assert payload["schema"] == "serve-report/2"
        assert payload["clock"] == "virtual"
        assert payload["policy"] == "k2"
        assert list(payload) == sorted(payload)

    def test_swap_schedule_is_deterministic_too(self):
        swaps = ((0.1, "k2"), (0.25, "hedge:1ms"))
        first = run_report("none", seed=3, swaps=swaps).to_json()
        second = run_report("none", seed=3, swaps=swaps).to_json()
        assert first == second


# ---------------------------------------------------------------------------
# Policy semantics on the race path
# ---------------------------------------------------------------------------

class TestHedging:
    def test_hedge_fires_then_loses_and_is_cancelled(self):
        """Slow primary, fixed service: the hedge fires at its delay, wins,
        and the primary copy is cancelled mid-service (cancel-on-win)."""
        clock = VirtualClock()
        slow = SimBackend(0, clock, seed=0, service=Deterministic(0.100))
        fast = SimBackend(1, clock, seed=0, service=Deterministic(0.001))
        # Key 0's primary under this 2-ring happens to be backend 0 or 1;
        # pick a key whose primary is the slow backend so the hedge helps.
        proxy = RedundancyProxy([slow, fast], clock, policy="hedge:5ms")
        key = next(
            k for k in range(100) if proxy.ring.primary_for(k) == 0
        )
        latency = clock.run(proxy.request(key))
        # Winner is the hedge: 5 ms delay + 1 ms fast service.
        assert latency == pytest.approx(0.006)
        assert proxy.hedges_fired == 1
        assert proxy.hedges_suppressed == 0
        assert proxy.copies_cancelled == 1  # the slow primary, mid-service
        # Cancellation reclaimed the un-run tail of the primary's reservation.
        assert slow.consumed_s < 0.100

    def test_fast_primary_suppresses_the_hedge(self):
        clock = VirtualClock()
        pool = [
            SimBackend(i, clock, seed=0, service=Deterministic(0.001))
            for i in range(2)
        ]
        proxy = RedundancyProxy(pool, clock, policy="hedge:5ms")
        latency = clock.run(proxy.request(0))
        # Primary answers in 1 ms, well inside the 5 ms hedge delay.
        assert latency == pytest.approx(0.001)
        assert proxy.hedges_fired == 0
        assert proxy.hedges_suppressed == 1
        assert proxy.copies_cancelled == 0

    def test_nocancel_strays_run_to_completion(self):
        clock = VirtualClock()
        slow = SimBackend(0, clock, seed=0, service=Deterministic(0.100))
        fast = SimBackend(1, clock, seed=0, service=Deterministic(0.001))
        proxy = RedundancyProxy([slow, fast], clock, policy="hedge:5ms:nocancel")
        key = next(k for k in range(100) if proxy.ring.primary_for(k) == 0)

        async def main():
            await proxy.request(key)
            await proxy.drain()

        clock.run(main())
        assert proxy.copies_cancelled == 0
        # The losing primary ran to completion and consumed its full service.
        assert slow.consumed_s == pytest.approx(0.100)

    def test_exact_tie_under_a_cancelling_eager_plan(self):
        """Both copies finish at the same instant: the earlier-launched copy
        wins and the other counts as completed, not cancelled."""
        clock, proxy = make_stack(
            "hedge:0ms", backends=2, service=Deterministic(0.001)
        )
        latency = clock.run(proxy.request(0))
        assert latency == pytest.approx(0.001)
        assert proxy.copies_cancelled == 0
        assert [b.completed for b in proxy.backends] == [1, 1]

    def test_hedge_due_at_the_winners_instant_launches_then_cancels(self):
        """A hedge falling due exactly when the primary finishes still
        launches; cancel-on-win then reclaims its whole reservation."""
        clock, proxy = make_stack(
            "hedge:1ms", backends=2, service=Deterministic(0.001)
        )
        key = next(k for k in range(100) if proxy.ring.primary_for(k) == 0)
        latency = clock.run(proxy.request(key))
        assert latency == pytest.approx(0.001)
        assert proxy.hedges_fired == 1
        assert proxy.hedges_suppressed == 0
        assert proxy.copies_cancelled == 1
        assert [b.completed for b in proxy.backends] == [1, 0]
        assert [b.consumed_s for b in proxy.backends] == [0.001, 0.0]

    @pytest.mark.parametrize("policy", ["hedge:p95", "hedge:2ms:nocancel", "hedge:0ms"])
    def test_no_reference_cycles_per_request(self, policy):
        """Finished races leave nothing for the cyclic collector: the
        garbage it finds after a run does not grow with the request count."""

        def unreachable_after(requests):
            clock, proxy = make_stack(policy, backends=8, seed=0)
            config = LoadGenConfig(rate=2000.0, num_requests=requests, seed=0)
            gc.collect()
            gc.disable()
            try:
                clock.run(run_load(proxy, clock, config))
                return gc.collect()
            finally:
                gc.enable()

        assert unreachable_after(400) == unreachable_after(4000)

    @pytest.mark.parametrize("policy", ["hedge:5ms", "hedge:5ms:nocancel"])
    def test_task_backed_losers_are_cancelled_or_drained(self, policy):
        """Backends without synchronous reservations race through a task
        per copy; the loser's task is cancelled, or drained as a stray."""
        clock = VirtualClock()
        slow = SleepingBackend(0, clock, 0.100)
        fast = SleepingBackend(1, clock, 0.001)
        proxy = RedundancyProxy([slow, fast], clock, policy=policy)
        key = next(k for k in range(100) if proxy.ring.primary_for(k) == 0)

        async def main():
            latency = await proxy.request(key)
            await proxy.drain()
            await asyncio.sleep(0)
            return latency

        assert clock.run(main()) == pytest.approx(0.006)
        assert proxy.hedges_fired == 1
        if policy == "hedge:5ms":
            assert proxy.copies_cancelled == 1
            assert (slow.cancelled, slow.completed) == (1, 0)
        else:
            assert proxy.copies_cancelled == 0
            assert (slow.cancelled, slow.completed) == (0, 1)
            assert clock.now() == pytest.approx(0.100)

    def test_hedge_p95_adapts_as_recorder_warms_up(self):
        policy = parse_policy("hedge:p95")
        assert isinstance(policy, HedgeOnPercentile)
        initial_delay = policy.current_delay()
        clock, proxy = make_stack(policy, backends=8, seed=11)
        config = LoadGenConfig(rate=2000.0, num_requests=1500, seed=11)
        report = clock.run(run_load(proxy, clock, config))
        warmed_delay = policy.current_delay()
        # The proxy fed every completed latency back, so the delay moved off
        # its cold-start value and now tracks the observed p95.
        assert warmed_delay != initial_delay
        assert warmed_delay == pytest.approx(report.summary.p95, rel=0.5)
        assert report.counters["hedges_fired"] + report.counters[
            "hedges_suppressed"
        ] == report.counters["requests"]


class TestEagerCopies:
    def test_k2_duplicates_every_request(self):
        report = run_report("k2", requests=500)
        assert report.counters["duplicate_rate"] == pytest.approx(1.0)
        assert report.counters["copies_launched"] == 2 * report.counters["requests"]
        # Copies go to *distinct* backends: with 4 backends and 2x copies,
        # each backend completes roughly half the request count.
        assert sum(report.per_backend_completions) == report.counters["copies_launched"]

    def test_k2_beats_none_below_threshold_load(self):
        # 4 backends x 1 ms mean service = 4000/s capacity; rate 1000/s is
        # load 0.25, under the paper's 1/3 threshold for exponential service
        # — so duplication must improve the tail.
        none_p99 = run_report("none", rate=1000.0, requests=2000, seed=5).summary.p99
        k2_p99 = run_report("k2", rate=1000.0, requests=2000, seed=5).summary.p99
        assert k2_p99 < none_p99

    def test_wasted_work_accounting(self):
        report = run_report("k2", requests=500)
        counters = report.counters
        assert counters["wasted_service_s"] > 0
        assert counters["service_consumed_s"] == pytest.approx(
            counters["useful_service_s"] + counters["wasted_service_s"]
        )


# ---------------------------------------------------------------------------
# Hot swap
# ---------------------------------------------------------------------------

class TestHotSwap:
    def test_swap_recorded_and_changes_dispatch(self):
        swaps = ((0.2, "k2"),)
        report = run_report("none", rate=2000.0, requests=1000, seed=3, swaps=swaps)
        assert report.policy == "none"
        assert len(report.swaps) == 1
        assert report.swaps[0]["policy"] == "k2"
        assert report.swaps[0]["at"] == pytest.approx(0.2)
        # Roughly the first 0.2 s * 2000/s requests ran single-copy, the rest
        # duplicated — so the overall duplicate rate sits strictly between.
        assert 0.0 < report.counters["duplicate_rate"] < 1.0

    def test_swap_between_paths_race_to_fast(self):
        # hedge:p95 runs the race path; the swap drops to the fast path
        # mid-stream and the stack keeps a single accounting surface.
        swaps = ((0.15, "none"),)
        report = run_report("hedge:1ms", rate=2000.0, requests=600, seed=9, swaps=swaps)
        total_copies = report.counters["copies_launched"]
        assert report.counters["requests"] == 600
        assert total_copies >= 600  # hedges before the swap, singles after
        assert report.swaps[0]["policy"] == "none"


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------

class RefusingBackend(Backend):
    """A backend whose connection is always refused."""

    @property
    def failed(self):
        return False

    async def handle(self, key):
        raise ConnectionRefusedError(f"backend {self.index} refused {key}")


class TestBackendFailure:
    def test_any_exception_a_copy_raises_is_a_failed_copy(self):
        clock = VirtualClock()
        pool = [RefusingBackend(0), SimBackend(1, clock, seed=0)]
        proxy = RedundancyProxy(pool, clock, policy="k2")
        latency = clock.run(proxy.request(0))
        assert latency > 0
        assert proxy.failed_copies == 1
        assert proxy.failed_requests == 0

    def test_request_fails_when_every_copy_refuses(self):
        clock = VirtualClock()
        pool = [RefusingBackend(0), RefusingBackend(1)]
        proxy = RedundancyProxy(pool, clock, policy="k2")
        with pytest.raises(BackendError):
            clock.run(proxy.request(0))
        assert proxy.failed_copies == 2
        assert proxy.failed_requests == 1

    def test_k2_survives_a_dead_primary(self):
        clock, proxy = make_stack("k2", backends=4, seed=0)
        proxy.backends[0].set_failed()

        async def main():
            total = 0.0
            for key in range(200):
                total += await proxy.request(key)
            return total

        clock.run(main())
        assert proxy.failed_requests == 0
        assert proxy.failed_copies > 0  # primaries on backend 0 errored

    def test_single_copy_to_dead_backend_raises(self):
        clock, proxy = make_stack("none", backends=2, seed=0)
        dead = proxy.ring.primary_for(0)
        proxy.backends[dead].set_failed()
        with pytest.raises(BackendError):
            clock.run(proxy.request(0))
        assert proxy.failed_requests == 1


    def test_dead_unevicted_primary_waits_for_the_parked_hedge(self):
        """A copy refused at dispatch does not launch the hedge early: the
        request is served by the hedge at its scheduled delay."""
        clock, proxy = make_stack(
            "hedge:5ms", backends=2, service=Deterministic(0.001)
        )
        proxy.backends[0].set_failed()
        key = next(k for k in range(100) if proxy.ring.primary_for(k) == 0)
        latency = clock.run(proxy.request(key))
        assert latency == pytest.approx(0.006)
        assert proxy.failed_copies == 1
        assert proxy.hedges_fired == 1
        assert proxy.failed_requests == 0


# ---------------------------------------------------------------------------
# Dispatch-path equivalence
# ---------------------------------------------------------------------------

class TestFastPathEquivalence:
    def test_batched_and_scalar_dispatch_agree(self):
        """The vectorised submit_batch path reserves with the same FIFO math
        and draw order as scalar submit_nowait, so a coarse-resolution run
        (everything batched) reports identical latencies to an exact one."""

        def run_with_resolution(resolution):
            clock, proxy = make_stack("k2", backends=4, seed=13)
            config = LoadGenConfig(
                rate=5000.0, num_requests=1200, seed=13, resolution=resolution
            )
            return clock.run(run_load(proxy, clock, config))

        exact = run_with_resolution(0.0)
        batched = run_with_resolution(10.0)
        # Identical up to summation order (cumsum vs sequential adds).
        for field, value in dataclasses.asdict(exact.summary).items():
            assert dataclasses.asdict(batched.summary)[field] == pytest.approx(
                value, rel=1e-12
            ), field
        for key, value in exact.counters.items():
            assert batched.counters[key] == pytest.approx(value, rel=1e-12), key

    def test_submit_batch_refuses_narrow_replica_table(self):
        """A replica table narrower than the plan's copies must refuse the
        batch (regression: it used to slice past the table and leave the
        finish/service tail columns uninitialized)."""
        clock, proxy = make_stack("k4", backends=6)
        proxy.prepare_keyspace(100, 2)
        keys = np.arange(4)
        arrivals = np.linspace(0.0, 0.003, 4)
        assert proxy.submit_batch(keys, arrivals) is False
        assert proxy.requests == 0  # nothing was reserved
        # The scalar path still serves the same plan via the ring fallback.
        assert proxy.submit_nowait(0) is True
        assert proxy.copies_launched == 4

    def test_wide_policy_batched_and_scalar_agree(self):
        """k10 on 12 backends — wider than the old 8-column table cap —
        stays on the batch path and matches scalar dispatch exactly."""

        def run_with_resolution(resolution):
            clock, proxy = make_stack("k10", backends=12, seed=5)
            config = LoadGenConfig(
                rate=2000.0, num_requests=600, seed=5, resolution=resolution
            )
            return clock.run(run_load(proxy, clock, config))

        exact = run_with_resolution(0.0)
        batched = run_with_resolution(10.0)
        assert exact.counters["duplicate_rate"] == 9.0
        for field, value in dataclasses.asdict(exact.summary).items():
            assert dataclasses.asdict(batched.summary)[field] == pytest.approx(
                value, rel=1e-12
            ), field

    def test_race_path_refused_for_sim_eager_plans(self):
        clock, proxy = make_stack("k2")
        proxy.prepare_keyspace(100, 2)
        assert proxy.submit_nowait(0) is True
        proxy.set_policy("hedge:1ms")
        assert proxy.submit_nowait(0) is False

    def test_exponential_default_service(self):
        clock, proxy = make_stack("none", backends=1)
        assert isinstance(proxy.backends[0]._service, Exponential)


# ---------------------------------------------------------------------------
# Load-generator configuration
# ---------------------------------------------------------------------------

class TestLoadGenConfigBounds:
    """A NaN rate issues every arrival at once (and writes ``NaN`` into the
    report, which is not JSON); a NaN or infinite resolution never moves the
    clock.  Each is refused when the config is built."""

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="rate must be finite and positive"):
            LoadGenConfig(rate=rate, num_requests=10)

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf"), -1e-3])
    def test_resolution_must_be_finite_and_non_negative(self, resolution):
        with pytest.raises(ValueError, match="resolution must be finite"):
            LoadGenConfig(rate=100.0, num_requests=10, resolution=resolution)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 0.0, -1.0])
    def test_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ValueError, match="duration_s must be finite and positive"):
            LoadGenConfig(rate=100.0, duration_s=duration)

    @pytest.mark.parametrize("flag", ["--rate", "--duration"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5", "fast"])
    def test_cli_rejects_a_bad_rate_or_duration_at_parse_time(self, flag, value, capsys):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag, value, "--quiet"])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("requests", [0, -3])
    def test_num_requests_must_be_positive(self, requests):
        with pytest.raises(ValueError, match="num_requests must be >= 1"):
            LoadGenConfig(rate=100.0, num_requests=requests)

    @pytest.mark.parametrize("keyspace", [0, -1])
    def test_keyspace_must_be_positive(self, keyspace):
        with pytest.raises(ValueError, match="keyspace must be >= 1"):
            LoadGenConfig(rate=100.0, num_requests=10, keyspace=keyspace)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--requests", "0"],
            ["run", "--requests", "-3"],
            ["run", "--keyspace", "0"],
            ["run", "--backends", "0"],
            ["run", "--service-mean", "0"],
            ["run", "--service-mean", "-1"],
            ["run", "--service-mean", "nan"],
            ["run", "--policy", "foo"],
            ["run", "--swap", "0.5:foo"],
            ["bench", "--policies", ","],
            ["bench", "--policies", "foo"],
            ["bench", "--policies", "k2,foo"],
            ["bench", "--requests", "0"],
            ["bench", "--backends", "0"],
        ],
    )
    def test_cli_rejects_bad_input_at_parse_time(self, argv, capsys):
        """Each used to end in a traceback (exit 1) from deep in the run."""
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("index", ["8", "99", "-1"])
    def test_cli_rejects_an_event_backend_outside_the_pool_at_parse_time(self, index, capsys):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--event", f"0.1:crash:{index}", "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --event" in err and "[0, 8)" in err
        assert "Traceback" not in err

    def test_cli_accepts_the_last_backend_of_the_pool(self, tmp_path):
        from repro.serve.cli import main

        out = tmp_path / "report.json"
        argv = ["run", "--backends", "2", "--requests", "200", "--event", "0.01:crash:1",
                "--json", str(out), "--quiet"]
        assert main(argv) == 0
        events = json.loads(out.read_text())["events"]
        assert [(event["action"], event["backend"]) for event in events] == [("crash", 1)]

    def test_an_empty_duration_fails_before_issuing(self):
        clock, proxy = make_stack("k2")
        config = LoadGenConfig(rate=2000.0, duration_s=1e-9)
        with pytest.raises(ConfigurationError, match="duration_s=1e-09"):
            clock.run(run_load(proxy, clock, config))
        assert proxy.counters()["requests"] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--event", "0.1:add:1"], "already on the ring"),
            (["run", "--duration", "1e-9"], "no arrival falls inside"),
        ],
    )
    def test_cli_reports_an_error_raised_mid_run_and_exits_2(self, argv, message, capsys):
        from repro.serve.cli import main

        assert main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_cli_rejects_an_unknown_repro_flag(self, monkeypatch, capsys):
        from repro.serve import cli

        ran = []
        monkeypatch.setenv("REPRO_CKERNEL", "0")
        monkeypatch.setattr(cli, "cmd_run", lambda args: ran.append(args) or 0)
        assert cli.main(["run", "--quiet"]) == 2
        assert ran == []
        assert "REPRO_CKERNEL" in capsys.readouterr().err

    def test_bench_policies_parse_to_a_list_of_specs(self):
        from repro.serve.cli import _build_parser

        args = _build_parser().parse_args(["bench", "--policies", " k2 , hedge:1ms ,"])
        assert args.policies == ["k2", "hedge:1ms"]
        assert _build_parser().parse_args(["bench"]).policies == [
            "none", "k2", "hedge:1ms", "hedge:p95"
        ]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

class TestBenchCommand:
    def test_race_policy_bench_exits_zero(self):
        from repro.serve.cli import main

        assert main(["bench", "--policies", "hedge:1ms", "--requests", "500", "--quiet"]) == 0

    def test_kernels_load_before_the_first_timed_run(self, monkeypatch):
        from repro.cluster import _ckernels
        from repro.serve import cli

        events = []
        load = _ckernels.load
        monkeypatch.setattr(_ckernels, "load", lambda: events.append("load") or load())

        async def run_load(proxy, clock, config):
            events.append("run_load")

        monkeypatch.setattr(cli, "run_load", run_load)
        assert cli.main(["bench", "--policies", "none,k2", "--requests", "100", "--quiet"]) == 0
        assert events[0] == "load" and events.count("run_load") == 2
