"""The Section 2.3 memcached experiment.

Same setup as the disk-backed database but with the store entirely in memory:
service times are a fraction of a millisecond and not very variable, so the
client-side cost of processing a second response (measured in the paper at
>= 9% of the mean service time via a "stub" build whose memcached calls are
no-ops) eats the benefit of replication.  The paper's findings reproduced
here:

* replication worsens overall performance at every load from 10% to 90%
  (Figure 12);
* at a very low (0.1%) load, replication roughly breaks even in the real build
  (the paper measures a slight benefit there), while the stub build isolates
  the pure client-side overhead (Figure 13);
* hence the threshold load is small - well below 10%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.stats import LatencySummary
from repro.cluster.churn import (
    ChurnTimeline,
    migration_schedule,
    parse_churn,
    spike_metrics,
)
from repro.cluster.draws import sequential_finish_times
from repro.core.cancellation import simulate_cancelling_arrivals
from repro.core.policy import PolicyDriver, PolicyLike, resolve_run_policy, run_policy_spec
from repro.exceptions import CapacityError, ConfigurationError
from repro.metrics import MetricsRegistry
from repro.sim.rng import substream


@dataclass(frozen=True)
class MemcachedConfig:
    """Configuration of the memcached experiment.

    Attributes:
        num_servers: Number of memcached servers.
        mean_service_s: Mean server-side service time (the paper measures
            ≈0.18 ms).
        service_spread: Half-width of the uniform body of the service time,
            as a fraction of the mean (the distribution is deliberately
            low-variance: the paper notes >99.9% of the mass lies within 4x of
            the mean).
        outlier_probability: Probability that a request hits a server-side
            outlier (GC pause, scheduling blip).
        outlier_scale_s: Mean of the exponential extra delay of an outlier.
        client_base_s: Client-side processing time for an unreplicated request
            (request serialisation, kernel, NIC).
        client_extra_copy_s: Additional client-side time per extra copy — the
            paper's stub measurement puts this at ≈0.016 ms, i.e. ≈9% of the
            mean service time.
        unmeasured_extra_copy_s: Additional per-extra-copy cost that the stub
            build cannot observe (network and kernel processing of the second
            response); the paper notes its stub figure "is an underestimate of
            the true client-side overhead" for exactly this reason.  Charged
            only in real (non-stub) runs.
        copies: Replication factor when replication is on.
        seed: Base random seed.
    """

    num_servers: int = 4
    mean_service_s: float = 0.00018
    service_spread: float = 0.3
    outlier_probability: float = 0.0005
    outlier_scale_s: float = 0.002
    client_base_s: float = 0.00004
    client_extra_copy_s: float = 0.000016
    unmeasured_extra_copy_s: float = 0.000006
    copies: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers < 2:
            raise ConfigurationError("need at least 2 servers to replicate across")
        if self.mean_service_s <= 0:
            raise ConfigurationError("mean_service_s must be positive")
        if not 0.0 <= self.service_spread < 1.0:
            raise ConfigurationError("service_spread must be in [0, 1)")
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ConfigurationError("outlier_probability must be in [0, 1]")
        if (
            self.outlier_scale_s < 0
            or self.client_base_s < 0
            or self.client_extra_copy_s < 0
            or self.unmeasured_extra_copy_s < 0
        ):
            raise ConfigurationError("latency parameters must be non-negative")
        if not 1 <= self.copies <= self.num_servers:
            raise ConfigurationError(
                f"copies must be in [1, {self.num_servers}], got {self.copies!r}"
            )

    def overhead_fraction(self) -> float:
        """Client overhead per extra copy as a fraction of the mean service time."""
        return self.client_extra_copy_s / self.mean_service_s

    def expected_service_s(self) -> float:
        """Mean server-side service time including the outlier contribution."""
        return self.mean_service_s + self.outlier_probability * self.outlier_scale_s


@dataclass(frozen=True)
class MemcachedRunResult:
    """Result of one (load, copies) memcached run.

    Attributes:
        load: Offered load (fraction of unreplicated capacity).
        copies: Copies per request.
        stub: Whether the run used the stub build (server calls replaced by
            no-ops, isolating client-side latency).
        response_times: Per-request response times in seconds.
        summary: Latency summary of ``response_times``.
        metrics: Snapshot of the run's metrics registry (``requests`` and
            ``copies_launched`` counters and the ``latency`` summary row).
        policy_spec: Canonical spec of the replication policy used (``None``
            for policies the spec language cannot express).
        copies_launched: Total copies actually issued (warmup included);
            under hedging, backups suppressed by a fast first response never
            launch.
        copies_cancelled: Copies cancelled while still queued after another
            copy won (warmup included); ``None`` unless the policy cancels
            on win.
        spike: Before/during/after p99 quantification of the membership-event
            latency spike (see :func:`repro.cluster.churn.spike_metrics`);
            ``None`` unless the run had a churn timeline.
    """

    load: float
    copies: int
    stub: bool
    response_times: np.ndarray
    summary: LatencySummary
    metrics: Optional[Dict[str, object]] = None
    policy_spec: Optional[str] = None
    copies_launched: Optional[int] = None
    copies_cancelled: Optional[int] = None
    spike: Optional[Dict[str, float]] = None

    @property
    def mean(self) -> float:
        """Mean response time in seconds."""
        return self.summary.mean


class MemcachedExperiment:
    """Drives the in-memory store model across loads and copy counts."""

    def __init__(self, config: Optional[MemcachedConfig] = None) -> None:
        """Create the experiment (default configuration = the paper's)."""
        self.config = config or MemcachedConfig()

    def _sample_service(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw server-side service times: a narrow uniform body plus rare outliers."""
        config = self.config
        spread = config.mean_service_s * config.service_spread
        body = rng.uniform(config.mean_service_s - spread, config.mean_service_s + spread, count)
        outliers = rng.random(count) < config.outlier_probability
        extra = rng.exponential(config.outlier_scale_s, count) * outliers
        return body + extra

    def run(
        self,
        load: float,
        copies: Optional[int] = None,
        stub: bool = False,
        num_requests: int = 50_000,
        warmup_fraction: float = 0.1,
        policy: Optional[PolicyLike] = None,
        churn: Optional[Union[str, ChurnTimeline]] = None,
        migration_rate: float = 2000.0,
        num_keys: int = 20_000,
        cold_penalty_s: float = 0.002,
    ) -> MemcachedRunResult:
        """Simulate the memcached cluster at one load.

        Args:
            load: Offered load as a fraction of unreplicated capacity.
            copies: Eager copies per request (defaults to the config's value);
                mutually exclusive with ``policy``.
            stub: Run the stub build: server calls return immediately, so the
                response time is pure client-side processing (Figure 13).
            num_requests: Requests to simulate.
            warmup_fraction: Leading fraction of requests discarded.
            policy: A :class:`~repro.core.policy.ReplicationPolicy` or spec
                string.  Eager policies take the original ``copies`` path
                byte-for-byte.  Under hedging, a backup GET launches only if
                the first response is still outstanding after the hedge delay
                — in the stub build the call returns in tens of microseconds,
                so hedged backups are almost always suppressed and the run
                isolates how little of the stub overhead a hedging client
                would actually pay.
            churn: A membership-event timeline — a
                :class:`~repro.cluster.churn.ChurnTimeline` or spec string
                like ``"crash:1@0.4"`` (times are fractions of the arrival
                horizon).  Churn runs place keys on a consistent-hash ring
                over a ``num_keys`` keyspace (instead of the static runs'
                random placement): keys re-home per the live ring each
                epoch, migration SETs compete with foreground GETs in the
                gaining servers' FIFOs, and a GET served by a gaining server
                before its key's migration SET is scheduled pays
                ``cold_penalty_s`` (fetch-through from a surviving replica).
                Remove and crash are identical here (fail-stop, no drain).
            migration_rate: Migration SETs per second per gaining server.
            num_keys: Keyspace size of churn runs.
            cold_penalty_s: Server-side cost of a pre-migration cold read.

        Raises:
            CapacityError: If the offered load saturates the servers.
            ConfigurationError: If ``churn`` is combined with ``stub`` (the
                stub build has no servers to re-home keys across).
        """
        config = self.config
        hedged, k = resolve_run_policy(policy, copies, default_copies=config.copies)
        if not 1 <= k <= config.num_servers:
            raise ConfigurationError(f"copies must be in [1, {config.num_servers}], got {k!r}")
        if load <= 0:
            raise ConfigurationError(f"load must be positive, got {load!r}")
        eager_util = load if hedged is not None else k * load
        if not stub and eager_util >= 0.98:
            raise CapacityError(
                f"load {load:.2f} with {k} copies saturates the servers"
            )

        timeline = parse_churn(churn)
        if timeline:
            if stub:
                raise ConfigurationError("churn is not meaningful in the stub build")
            return self._run_churn(
                load,
                hedged,
                k,
                num_requests,
                warmup_fraction,
                timeline,
                migration_rate,
                num_keys,
                cold_penalty_s,
            )

        arrivals_rng = substream(config.seed, "arrivals", load, k, stub)
        service_rng = substream(config.seed, "service", load, k, stub)
        placement_rng = substream(config.seed, "placement", load, k, stub)

        mean_service = config.expected_service_s()
        total_rate = config.num_servers * load / mean_service
        arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))

        stub_extra_s = config.client_extra_copy_s
        real_extra_s = config.client_extra_copy_s + config.unmeasured_extra_copy_s
        client_time = config.client_base_s + (stub_extra_s if stub else real_extra_s) * (k - 1)

        total_cancelled: Optional[int] = None
        if stub:
            # Stub build: the memcached call is a no-op, so the response time
            # is client processing only (plus its own small jitter).
            jitter = service_rng.uniform(0.8, 1.2, num_requests)
            if hedged is None:
                response = client_time * jitter
                total_launched = num_requests * k
            else:
                driver = PolicyDriver(hedged)
                response = np.empty(num_requests)
                total_launched = 0
                base = config.client_base_s
                for i in range(num_requests):
                    plan = driver.plan_for(arrival_times[i])
                    first = base * jitter[i]
                    extras = sum(1 for d in plan.launch_delays[1:k] if d < first)
                    value = (base + stub_extra_s * extras) * jitter[i]
                    response[i] = value
                    total_launched += 1 + extras
                    driver.complete(arrival_times[i] + value, value)
        elif hedged is None:
            service_times = self._sample_service(service_rng, num_requests * k).reshape(
                num_requests, k
            )
            placements = self._choose_servers(placement_rng, num_requests, k)
            # Copies are served in flat (request, copy) order and each
            # touches exactly one server's FIFO queue, so the per-server
            # busy-period recursion over the grouped accesses reproduces the
            # per-request loop (``reference_memcached_eager`` in
            # ``tests/test_fast_paths.py``) bit for bit.
            srv_flat = placements.ravel()
            svc_flat = service_times.ravel()
            arr_flat = np.repeat(arrival_times, k)
            finish_flat = np.empty(num_requests * k)
            for server in range(config.num_servers):
                pos = np.flatnonzero(srv_flat == server)
                if pos.size:
                    finish_flat[pos] = sequential_finish_times(arr_flat[pos], svc_flat[pos])
            elapsed = finish_flat.reshape(num_requests, k) - arrival_times[:, None]
            response = elapsed.min(axis=1) + client_time
            total_launched = num_requests * k
        else:
            service_times = self._sample_service(service_rng, num_requests * k).reshape(
                num_requests, k
            )
            placements = self._choose_servers(placement_rng, num_requests, k)
            response, total_launched, total_cancelled = self._run_hedged(
                hedged, k, arrival_times, service_times, placements
            )

        start = int(num_requests * warmup_fraction)
        retained = response[start:]
        registry = MetricsRegistry("memcached")
        registry.counter("requests").increment(num_requests)
        registry.counter("copies_launched").increment(total_launched)
        recorder = registry.recorder("latency")
        recorder.record_many(retained)
        return MemcachedRunResult(
            load=float(load),
            copies=k,
            stub=stub,
            response_times=retained,
            summary=recorder.summary(),
            metrics=registry.snapshot(),
            policy_spec=run_policy_spec(hedged, k),
            copies_launched=total_launched,
            copies_cancelled=total_cancelled,
        )

    def _run_churn(
        self,
        load: float,
        hedged,
        k: int,
        num_requests: int,
        warmup_fraction: float,
        timeline: ChurnTimeline,
        migration_rate: float,
        num_keys: int,
        cold_penalty_s: float,
    ) -> MemcachedRunResult:
        """One run under a membership-event timeline (ring-placed keys).

        GETs go to the replica set the live ring names for their key; each
        membership change schedules migration SETs on the gaining servers —
        paced at ``migration_rate`` per server — which occupy the same FIFOs
        as foreground traffic, and a GET that reaches a gaining server before
        its key's migration SET is scheduled pays ``cold_penalty_s`` on top
        of its drawn service time (the fetch-through from a surviving
        replica).  Remove and crash plan identical migrations (fail-stop, no
        drain), so crash-at-t is byte-identical to remove-at-t.
        """
        config = self.config
        rings = timeline.epoch_rings(config.num_servers)
        min_live = min(ring.num_servers for ring in rings)
        if k > min_live:
            raise ConfigurationError(
                f"copies={k} exceeds the {min_live} servers live in the "
                f"smallest epoch of churn {timeline.spec()!r}"
            )
        if num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {num_keys!r}")
        if cold_penalty_s < 0:
            raise ConfigurationError(
                f"cold_penalty_s must be >= 0, got {cold_penalty_s!r}"
            )

        arrivals_rng = substream(config.seed, "arrivals", load, k, False)
        service_rng = substream(config.seed, "service", load, k, False)
        keys_rng = substream(config.seed, "keys", load, k)
        migration_rng = substream(config.seed, "migration", load, k)

        mean_service = config.expected_service_s()
        total_rate = config.num_servers * load / mean_service
        arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
        service_times = self._sample_service(service_rng, num_requests * k).reshape(
            num_requests, k
        )
        key_ids = keys_rng.integers(0, num_keys, size=num_requests)

        horizon = float(arrival_times[-1])
        event_times = timeline.event_times(horizon)
        epoch_of = np.searchsorted(event_times, arrival_times, side="right")
        replica_lists = np.empty((num_requests, k), dtype=np.int64)
        for epoch, ring in enumerate(rings):
            pos = np.flatnonzero(epoch_of == epoch)
            if pos.size:
                replica_lists[pos] = ring.replica_table(key_ids[pos].tolist(), k)

        mig_times, mig_servers, mig_keys = migration_schedule(
            rings, event_times, num_keys, migration_rate, horizon
        )
        num_migrations = len(mig_times)
        mig_services = self._sample_service(migration_rng, num_migrations)
        # A (server, key) pair is cold from the event until its migration SET
        # is scheduled; earliest schedule wins if several events move it.
        migrated_at: Dict[tuple, float] = {}
        for j in range(num_migrations):
            pair = (int(mig_servers[j]), int(mig_keys[j]))
            if pair not in migrated_at:
                migrated_at[pair] = float(mig_times[j])

        def cold_tail(request: int, copy: int, at: float) -> float:
            # The fetch-through from a surviving replica is time the *client*
            # waits, not time the gaining server is busy: it adds to this
            # copy's completion but does not occupy the FIFO (so a failover
            # cannot saturate the pool through the penalty alone).
            pair = (int(replica_lists[request, copy]), int(key_ids[request]))
            when = migrated_at.get(pair)
            if when is not None and at < when:
                return cold_penalty_s
            return 0.0

        if hedged is None:
            free_at = {sid: 0.0 for sid in timeline.all_servers(config.num_servers)}
            real_extra_s = config.client_extra_copy_s + config.unmeasured_extra_copy_s
            client_time = config.client_base_s + real_extra_s * (k - 1)
            total_cancelled = None
            response = np.empty(num_requests)
            m = 0
            for i in range(num_requests):
                arrival = float(arrival_times[i])
                while m < num_migrations and mig_times[m] <= arrival:
                    g = int(mig_servers[m])
                    start = free_at[g] if free_at[g] > mig_times[m] else float(mig_times[m])
                    free_at[g] = start + float(mig_services[m])
                    m += 1
                best = np.inf
                for copy in range(k):
                    server = int(replica_lists[i, copy])
                    start = free_at[server] if free_at[server] > arrival else arrival
                    finish = start + float(service_times[i, copy])
                    free_at[server] = finish
                    elapsed = finish - arrival + cold_tail(i, copy, arrival)
                    if elapsed < best:
                        best = elapsed
                response[i] = best + client_time
            total_launched = num_requests * k
        else:
            response, total_launched, total_cancelled = self._run_hedged(
                hedged,
                k,
                arrival_times,
                service_times,
                replica_lists,
                cold_tail,
                (mig_times, mig_servers, mig_services),
            )

        start_index = int(num_requests * warmup_fraction)
        retained = response[start_index:]
        spike = spike_metrics(arrival_times[start_index:], retained, event_times)
        registry = MetricsRegistry("memcached")
        registry.counter("requests").increment(num_requests)
        registry.counter("copies_launched").increment(total_launched)
        registry.counter("migration_jobs").increment(num_migrations)
        recorder = registry.recorder("latency")
        recorder.record_many(retained)
        return MemcachedRunResult(
            load=float(load),
            copies=k,
            stub=False,
            response_times=retained,
            summary=recorder.summary(),
            metrics=registry.snapshot(),
            policy_spec=run_policy_spec(hedged, k),
            copies_launched=total_launched,
            copies_cancelled=total_cancelled,
            spike=spike,
        )

    def _run_hedged(
        self,
        hedged,
        k: int,
        arrival_times: np.ndarray,
        service_times: np.ndarray,
        replicas: np.ndarray,
        cold_tail: Optional[Callable[[int, int, float], float]] = None,
        migrations: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, int, Optional[int]]:
        """One hedged run through the FIFO hedging engine.

        Copy ``c`` of request ``r`` queues at server ``replicas[r, c]`` for
        its pre-drawn ``service_times[r, c]``, plus the queue-free
        ``cold_tail(r, c, at)`` seconds of a churn run.  ``migrations`` are
        the churn migration SETs as ``(times, servers, services)`` arrays.

        Returns:
            ``(response_times, copies_launched, copies_cancelled)``, with
            ``copies_cancelled`` ``None`` when the policy never cancels.
        """

        def server_of(request: int, copy: int) -> int:
            return int(replicas[request, copy])

        def begin(request: int, copy: int, at: float):
            tail = 0.0 if cold_tail is None else cold_tail(request, copy, at)
            return ("service", float(service_times[request, copy]), tail)

        background = begin_background = None
        if migrations is not None:
            mig_times, mig_servers, mig_services = migrations

            def begin_background(job: int, at: float):
                return ("service", float(mig_services[job]), 0.0)

            background = [
                (float(mig_times[j]), int(mig_servers[j]), j) for j in range(len(mig_times))
            ]
        finish_at, launched, cancelled = simulate_cancelling_arrivals(
            hedged,
            arrival_times,
            k,
            server_of,
            begin,
            background_jobs=background,
            begin_background=begin_background,
        )
        # A cancelled copy returns no response, so it carries no per-copy
        # client combining overhead.
        received = launched if cancelled is None else launched - cancelled
        config = self.config
        real_extra_s = config.client_extra_copy_s + config.unmeasured_extra_copy_s
        response = (
            (finish_at - arrival_times) + config.client_base_s + real_extra_s * (received - 1)
        )
        return (
            response,
            int(launched.sum()),
            None if cancelled is None else int(cancelled.sum()),
        )

    def _choose_servers(
        self, rng: np.random.Generator, num_requests: int, copies: int
    ) -> np.ndarray:
        if copies == 1:
            return rng.integers(0, self.config.num_servers, size=(num_requests, 1))
        scores = rng.random((num_requests, self.config.num_servers))
        return np.argpartition(scores, copies - 1, axis=1)[:, :copies]

    def sweep(
        self,
        loads: Sequence[float],
        copies_list: Sequence[int] = (1, 2),
        num_requests: int = 50_000,
    ) -> Dict[int, List[MemcachedRunResult]]:
        """Load sweep per copy count, skipping saturated points (Figure 12)."""
        results: Dict[int, List[MemcachedRunResult]] = {}
        for k in copies_list:
            per_copy: List[MemcachedRunResult] = []
            for load in loads:
                try:
                    per_copy.append(self.run(load, copies=k, num_requests=num_requests))
                except CapacityError:
                    continue
            results[int(k)] = per_copy
        return results

    def stub_comparison(
        self, load: float = 0.001, num_requests: int = 50_000
    ) -> Dict[str, MemcachedRunResult]:
        """The Figure 13 comparison: real vs stub builds, 1 vs 2 copies, at low load.

        Returns:
            A dict with keys ``"real_1"``, ``"real_2"``, ``"stub_1"``, ``"stub_2"``.
        """
        return {
            "real_1": self.run(load, copies=1, stub=False, num_requests=num_requests),
            "real_2": self.run(load, copies=2, stub=False, num_requests=num_requests),
            "stub_1": self.run(load, copies=1, stub=True, num_requests=num_requests),
            "stub_2": self.run(load, copies=2, stub=True, num_requests=num_requests),
        }
