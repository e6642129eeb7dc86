"""The ledger's five workloads: set-up, one run, and the checks on its output.

Each workload has three steps, called by ``measure.py`` in a fresh process:

* ``setup(seed, quick, workdir)`` — imports, the C kernels, scenario
  expansion or traffic draws; returns the state every run reuses;
* ``run(state)`` — one repetition, the only timed step;
* ``check(state, raw)`` — turns the run's output into an :class:`Outcome`:
  digests of every canonical output, failed operations, per-unit latencies
  and exact per-layer counts.

Nothing in this module imports ``repro`` at import time, so ``measure.py``
can time the imports as part of set-up.  All load comes from one process
with no threads: sweeps run with ``workers=1`` and the serve workloads on a
single asyncio loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Simulated backends behind the proxy in every serve workload.
POOL_SIZE = 8
#: Keys are drawn uniformly from this many.
KEYSPACE = 10_000


@dataclasses.dataclass
class Outcome:
    """What one run produced, reduced to what the ledger reports and checks."""

    ops: int
    failed: int
    digests: Dict[str, str]
    unit_ms: List[float]
    counts: Dict[str, float]
    errors: List[str]
    throughput: Optional[float] = None
    info: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: ``unit_ms`` are latencies of paced real-clock traffic, which the
    #: clock sets, rather than times of CPU-bound work.
    real_clock: bool = False


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------------- #
# Sweeps: repro.experiments over the substrates


class Sweep:
    """A sequence of registered scenarios run by ``SweepRunner(workers=1)``.

    Operations are sweep points; a point fails when its status is not
    ``ok``.  The unit latency is the wall time of one scenario's sweep, from
    the call to its finished artifact.
    """

    def __init__(
        self,
        name: str,
        scenarios: Sequence[Tuple[str, Dict[str, Any]]],
        quick: Sequence[Tuple[str, Dict[str, Any]]],
    ) -> None:
        self.name = name
        self.scenarios = scenarios
        self.quick = quick

    def setup(self, seed: int, quick: bool, workdir: str) -> Dict[str, Any]:
        import repro.cluster  # noqa: F401  (the adapters import these lazily)
        import repro.pipeline  # noqa: F401
        import repro.queueing  # noqa: F401
        from repro.cluster import _ckernels
        from repro.experiments import get_scenario

        _ckernels.load()
        plan = []
        for name, overrides in self.quick if quick else self.scenarios:
            scenario = get_scenario(name).with_overrides(base_params=overrides, seed=seed)
            plan.append((scenario, len(list(scenario.points())), os.path.join(workdir, name)))
        return {"plan": plan}

    def run(self, state: Dict[str, Any]) -> List[float]:
        from repro.experiments import SweepRunner

        unit_ms = []
        for scenario, _points, out in state["plan"]:
            started = time.perf_counter()
            SweepRunner(workers=1).run(scenario, out=out)
            unit_ms.append(1e3 * (time.perf_counter() - started))
        return unit_ms

    def check(self, state: Dict[str, Any], unit_ms: List[float]) -> Outcome:
        digests: Dict[str, str] = {}
        errors: List[str] = []
        ops = failed = 0
        launched = requests = cancelled = cancel_base = 0
        for scenario, points, out in state["plan"]:
            with open(out, "rb") as handle:
                data = handle.read()
            digests[scenario.name] = sha256(data)
            records = [json.loads(line) for line in data.splitlines()[1:]]
            if len(records) != points:
                errors.append(f"{scenario.name}: {len(records)} of {points} points written")
            ops += points
            failed += max(points - len(records), 0)
            for record in records:
                if record["status"] != "ok":
                    failed += 1
                    continue
                counters = record["metrics"] or {}
                base = counters.get("requests", counters.get("chunks", 0))
                launched += counters.get("copies_launched", 0)
                requests += base
                if "copies_cancelled" in counters:
                    cancelled += counters["copies_cancelled"]
                    cancel_base += base
        counts = {
            "core.copies_per_request": _ratio(launched, requests),
            "core.cancelled_per_request": _ratio(cancelled, cancel_base),
        }
        return Outcome(ops, failed, digests, unit_ms, counts, errors)


# --------------------------------------------------------------------------- #
# Serve on the virtual clock: run_load end to end, byte-reproducible


class ServeVirtual:
    """One ``run_load`` over a ``SimBackend`` pool under ``VirtualClock``.

    Operations are requests.  The run is one canonical ``RunReport`` (its
    unit latency is the run's wall time); a request fails when the proxy
    counts it failed or it never completed.  Membership events are placed
    at fixed fractions of the arrival horizon so quick runs keep them.
    """

    def __init__(
        self,
        name: str,
        policy: str,
        service_mean_s: float,
        rate: float,
        requests: int,
        quick_requests: int,
        resolution: float,
        events: Sequence[Tuple[float, str, int]],
    ) -> None:
        self.name = name
        self.policy = policy
        self.service_mean_s = service_mean_s
        self.rate = rate
        self.requests = requests
        self.quick_requests = quick_requests
        self.resolution = resolution
        self.events = events

    def setup(self, seed: int, quick: bool, workdir: str) -> Dict[str, Any]:
        from repro.distributions import Exponential
        from repro.serve import LoadGenConfig

        requests = self.quick_requests if quick else self.requests
        horizon = requests / self.rate
        config = LoadGenConfig(
            rate=self.rate,
            num_requests=requests,
            seed=seed,
            keyspace=KEYSPACE,
            resolution=self.resolution,
            events=[(round(at * horizon, 6), action, backend) for at, action, backend in self.events],
        )
        return {
            "seed": seed,
            "config": config,
            "service": Exponential(mean=self.service_mean_s),
        }

    def run(self, state: Dict[str, Any]) -> Tuple[Any, Any, str]:
        from repro.serve import RedundancyProxy, SimBackend, VirtualClock, run_load

        clock = VirtualClock()
        pool = [
            SimBackend(i, clock, seed=state["seed"], service=state["service"])
            for i in range(POOL_SIZE)
        ]
        proxy = RedundancyProxy(pool, clock, policy=self.policy)
        report = clock.run(run_load(proxy, clock, state["config"]))
        return proxy, report, report.to_json()

    def check(self, state: Dict[str, Any], raw: Tuple[Any, Any, str]) -> Outcome:
        proxy, report, text = raw
        counters = report.counters
        sent = state["config"].num_requests
        completed = proxy.recorder.count
        failed = counters["failed_requests"] + max(sent - counters["requests"], 0)
        errors = []
        if counters["requests"] != completed + counters["failed_requests"]:
            errors.append(
                f"requests {counters['requests']} != completed {completed} "
                f"+ failed {counters['failed_requests']}"
            )
        if counters["copies_launched"] < counters["requests"] - counters["failed_requests"]:
            errors.append("fewer copies launched than requests served")
        return Outcome(
            ops=sent,
            failed=failed,
            digests={"report": sha256(text.encode("utf-8"))},
            unit_ms=[],
            counts=serve_counts(counters),
            errors=errors,
        )


def serve_counts(counters: Dict[str, float]) -> Dict[str, float]:
    """Exact waste ratios from a proxy's cost counters, per request."""
    requests = counters["requests"]
    consumed = counters["service_consumed_s"]
    return {
        "core.copies_per_request": _ratio(counters["copies_launched"], requests),
        "core.cancelled_per_request": _ratio(counters["copies_cancelled"], requests),
        "serve.hedges_fired_per_request": _ratio(counters["hedges_fired"], requests),
        "serve.hedges_suppressed_per_request": _ratio(counters["hedges_suppressed"], requests),
        "serve.wasted_service_frac": _ratio(counters["wasted_service_s"], consumed),
    }


# --------------------------------------------------------------------------- #
# Serve on the real clock: the latency a user sees


class ServeLive:
    """The race path on a real asyncio loop, driven by the benchmark.

    Each run builds a fresh proxy (so ``hedge:p95`` warms up the same way
    every time) and drives it in three phases on one loop: open-loop Poisson
    arrivals at a moderate and at a high rate, each request timed from the
    moment it was due, with the generator's own lateness recorded; then a
    closed loop of concurrent callers, each sending its next request when
    the previous one answers, whose completion rate is the throughput.
    """

    def __init__(
        self,
        name: str,
        policy: str,
        service_mean_s: float,
        phases: Sequence[Tuple[float, float]],
        callers: int,
        closed_s: float,
        quick_scale: float,
    ) -> None:
        self.name = name
        self.policy = policy
        self.service_mean_s = service_mean_s
        self.phases = phases
        self.callers = callers
        self.closed_s = closed_s
        self.quick_scale = quick_scale

    def setup(self, seed: int, quick: bool, workdir: str) -> Dict[str, Any]:
        import repro.serve  # noqa: F401
        from repro.distributions import Exponential
        from repro.sim.rng import substream
        from repro.workloads.arrivals import PoissonArrivals

        scale = self.quick_scale if quick else 1.0
        traffic = []
        for rate, seconds in self.phases:
            count = max(1, int(rate * seconds * scale))
            offsets = PoissonArrivals(rate, substream(seed, "ledger-live", rate)).times_count(count)
            keys = substream(seed, "ledger-live-keys", rate).integers(0, KEYSPACE, size=count)
            traffic.append((rate, offsets, keys.tolist()))
        closed_keys = substream(seed, "ledger-live-closed").integers(0, KEYSPACE, size=100_000)
        return {
            "seed": seed,
            "traffic": traffic,
            "closed_keys": closed_keys.tolist(),
            "closed_s": self.closed_s * scale,
            "service": Exponential(mean=self.service_mean_s),
        }

    def run(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return asyncio.run(self._drive(state))

    async def _drive(self, state: Dict[str, Any]) -> Dict[str, Any]:
        from repro.serve import RealClock, RedundancyProxy, SimBackend

        if state["tracer"] is not None:
            # Time spent blocked in the selector is idle, not dispatch work.
            selector = asyncio.get_running_loop()._selector  # type: ignore[attr-defined]
            selector.select = state["tracer"].wrap(selector.select, "asyncio.select", "idle")
        clock = RealClock()
        pool = [
            SimBackend(i, clock, seed=state["seed"], service=state["service"])
            for i in range(POOL_SIZE)
        ]
        proxy = RedundancyProxy(pool, clock, policy=self.policy)
        proxy.prepare_keyspace(KEYSPACE, POOL_SIZE)
        phases = []
        for rate, offsets, keys in state["traffic"]:
            phases.append((rate, await self._open_loop(proxy, offsets, keys)))
        closed = await self._closed_loop(proxy, state)
        return {"proxy": proxy, "phases": phases, "closed": closed}

    @staticmethod
    async def _open_loop(proxy: Any, offsets: Any, keys: List[int]) -> Dict[str, Any]:
        from repro.serve import BackendError

        clock = proxy.clock
        latency_ms: List[float] = []
        lag_ms: List[float] = []
        failures = 0

        async def one(key: int, due: float) -> None:
            nonlocal failures
            try:
                await proxy.request(key)
            except BackendError:
                failures += 1
            else:
                latency_ms.append(1e3 * (clock.now() - due))

        tasks = []
        start = clock.now()
        index, total = 0, len(keys)
        while index < total:
            wait = start + offsets[index] - clock.now()
            if wait > 0:
                await asyncio.sleep(wait)
            now = clock.now()
            while index < total and start + offsets[index] <= now:
                due = start + offsets[index]
                lag_ms.append(1e3 * (now - due))
                tasks.append(asyncio.ensure_future(one(keys[index], due)))
                index += 1
        await asyncio.gather(*tasks)
        await proxy.drain()
        return {"sent": total, "latency_ms": latency_ms, "lag_ms": lag_ms, "failed": failures}

    async def _closed_loop(self, proxy: Any, state: Dict[str, Any]) -> Dict[str, Any]:
        from repro.serve import BackendError

        clock = proxy.clock
        keys = state["closed_keys"]
        completed = failures = 0
        stop = clock.now() + state["closed_s"]

        async def caller(index: int) -> None:
            nonlocal completed, failures
            while clock.now() < stop:
                try:
                    await proxy.request(keys[index % len(keys)])
                except BackendError:
                    failures += 1
                else:
                    completed += 1
                index += self.callers

        start = clock.now()
        await asyncio.gather(*(caller(i) for i in range(self.callers)))
        elapsed = clock.now() - start
        await proxy.drain()
        return {"sent": completed + failures, "completed": completed, "failed": failures, "elapsed_s": elapsed}

    def check(self, state: Dict[str, Any], raw: Dict[str, Any]) -> Outcome:
        proxy, phases, closed = raw["proxy"], raw["phases"], raw["closed"]
        counters = proxy.counters()
        sent = sum(phase["sent"] for _rate, phase in phases) + closed["sent"]
        failed = sum(phase["failed"] for _rate, phase in phases) + closed["failed"]
        completed = sum(len(phase["latency_ms"]) for _rate, phase in phases) + closed["completed"]
        errors = []
        if sent != completed + failed:
            errors.append(f"sent {sent} != completed {completed} + failed {failed}")
        if counters["requests"] != sent:
            errors.append(f"proxy saw {counters['requests']} requests, the generator sent {sent}")
        if counters["copies_launched"] < counters["requests"]:
            errors.append("fewer copies launched than requests")
        info: Dict[str, float] = {}
        for rate, phase in phases:
            tag = f"{rate / 1000:g}k"
            info[f"p50_ms_{tag}"] = _percentile(phase["latency_ms"], 50)
            info[f"p99_ms_{tag}"] = _percentile(phase["latency_ms"], 99)
            info[f"gen_lag_p99_ms_{tag}"] = _percentile(phase["lag_ms"], 99)
        return Outcome(
            ops=sent,
            failed=failed,
            digests={},
            unit_ms=phases[0][1]["latency_ms"],
            counts=serve_counts(counters),
            errors=errors,
            throughput=_ratio(closed["completed"], closed["elapsed_s"]),
            info=info,
            real_clock=True,
        )


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


# --------------------------------------------------------------------------- #

WORKLOADS = {
    workload.name: workload
    for workload in (
        Sweep(
            "sweep-eager",
            [("paper-database-ec2", {"num_requests": 80_000})],
            [("paper-database-ec2", {"num_requests": 1_000, "num_files": 2_000})],
        ),
        Sweep(
            "sweep-hedged",
            [
                ("standard-queueing-policy-ablation", {"num_requests": 5_000}),
                ("standard-db-hedging", {"num_requests": 2_500}),
                ("standard-memcached-hedging", {"num_requests": 5_000}),
                ("standard-db-rebalance", {"num_requests": 1_000}),
                ("standard-pipeline-stragglers", {"num_jobs": 20}),
            ],
            [
                ("standard-queueing-policy-ablation", {"num_requests": 1_000}),
                ("standard-db-hedging", {"num_requests": 500, "num_files": 2_000}),
                ("standard-memcached-hedging", {"num_requests": 1_000}),
                ("standard-db-rebalance", {"num_requests": 500, "num_files": 2_000}),
                ("standard-pipeline-stragglers", {"num_jobs": 2}),
            ],
        ),
        ServeVirtual(
            "serve-race",
            policy="hedge:p95",
            service_mean_s=0.001,
            rate=4_000.0,
            requests=8_000,
            quick_requests=400,
            resolution=0.0,
            events=[(0.4, "crash", 1), (0.667, "add", 1)],
        ),
        ServeVirtual(
            "serve-batch",
            policy="k2",
            service_mean_s=20e-6,
            rate=100_000.0,
            requests=400_000,
            quick_requests=10_000,
            resolution=0.001,
            events=[(0.4, "crash", 1), (0.667, "add", 1)],
        ),
        ServeLive(
            "serve-live",
            policy="hedge:p95",
            service_mean_s=0.00025,
            phases=[(3_000.0, 0.75), (6_000.0, 0.5)],
            callers=128,
            closed_s=2.0,
            quick_scale=0.05,
        ),
    )
}
