"""The Section 2.2 disk-backed database experiment.

A set of storage servers hosts a static collection of files placed by
consistent hashing, with the replica of every file on the successor server.
Open-loop Poisson clients read files chosen uniformly at random; in the
replicated configuration every read is sent to both the primary and the
secondary and the first response wins, at the price of the client processing
two responses.

The experiment driver reproduces the paper's configurations (Figures 5-11) via
named constructors on :class:`DatabaseClusterConfig` and reports the same
quantities the figures plot: mean and 99.9th-percentile response time versus
load, and the response-time CDF at 20% load.

Replication is expressed as a :class:`~repro.core.policy.ReplicationPolicy`:
``run(load, policy="hedge:10ms")`` defers the secondary read until the primary
has been outstanding for 10 ms, while ``copies=k`` (the paper's eager scheme)
stays supported as sugar for ``policy="k<N>"`` and routes through the original
code path byte-for-byte.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.stats import LatencySummary
from repro.cluster import _ckernels
from repro.cluster.cache import LRUByteCache
from repro.cluster.churn import (
    ChurnTimeline,
    epoch_replica_table,
    merge_jobs,
    migration_schedule,
    parse_churn,
    spike_metrics,
)
from repro.cluster.consistent_hash import ConsistentHashRing
from repro.cluster.draws import exact_disk_services, sequential_finish_times
from repro.cluster.lru_kernel import equal_item_capacity, lru_hit_flags
from repro.core.cancellation import simulate_cancelling_arrivals
from repro.core.policy import PolicyLike, resolve_run_policy, run_policy_spec
from repro.metrics import MetricsRegistry
from repro.cluster.disk import DiskModel
from repro.cluster.storage_server import StorageServerModel
from repro.distributions.base import Distribution
from repro.exceptions import CapacityError, ConfigurationError
from repro.sim.rng import substream
from repro.workloads.filesets import FileSet


@dataclass(frozen=True)
class DatabaseClusterConfig:
    """Configuration of the disk-backed database experiment.

    The defaults are the paper's base configuration (Figure 5): 4 servers,
    10 clients, deterministic 4 KB files, cache:data ratio 0.1, dedicated
    hardware.  Named constructors produce the variations of Figures 6-11.

    Attributes:
        num_servers: Number of storage servers.
        num_clients: Number of client nodes (affects only how the aggregate
            arrival rate is split; clients are open-loop).
        num_files: Number of files in the collection (the simulation keeps the
            cache:data *ratio* of the paper rather than its absolute sizes).
        mean_file_bytes: Mean file size.
        file_size_distribution: Distribution of file sizes (``None`` =
            deterministic, the base configuration).
        cache_to_data_ratio: Aggregate cache capacity divided by aggregate
            data-set size (0.1 base, 0.01 in Figure 8, 2 in Figure 11).
        disk: Disk service-time model.
        memory_service_s: Service time of a cache hit.
        noise_probability: Probability of noisy-neighbour interference on a
            disk access (0 on dedicated hardware, > 0 for the EC2 config).
        noise_multiplier_mean: Mean exponential multiplier for interfered
            accesses.
        client_cpu_overhead_s: Fixed client-side CPU/kernel cost per *extra*
            response processed.
        client_bandwidth_bytes_per_s: Client access-link bandwidth, charging
            each extra response's transfer against the client.
        copies: Replication factor when replication is on (the paper uses 2).
        seed: Base random seed.
    """

    num_servers: int = 4
    num_clients: int = 10
    num_files: int = 100_000
    mean_file_bytes: float = 4_000.0
    file_size_distribution: Optional[Distribution] = None
    cache_to_data_ratio: float = 0.1
    disk: DiskModel = field(default_factory=DiskModel)
    memory_service_s: float = 0.0002
    noise_probability: float = 0.0
    noise_multiplier_mean: float = 8.0
    client_cpu_overhead_s: float = 0.00003
    client_bandwidth_bytes_per_s: float = 125e6
    copies: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers < 2:
            raise ConfigurationError("need at least 2 servers for primary/secondary placement")
        if self.num_clients < 1:
            raise ConfigurationError("need at least 1 client")
        if self.num_files < 1:
            raise ConfigurationError("need at least 1 file")
        if self.mean_file_bytes <= 0:
            raise ConfigurationError("mean_file_bytes must be positive")
        if self.cache_to_data_ratio <= 0:
            raise ConfigurationError("cache_to_data_ratio must be positive")
        if self.copies < 1 or self.copies > self.num_servers:
            raise ConfigurationError(
                f"copies must be in [1, {self.num_servers}], got {self.copies!r}"
            )

    # --------------------------- paper configurations --------------------- #

    @classmethod
    def base(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 5: the base configuration."""
        return cls(**overrides)

    @classmethod
    def small_files(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 6: mean file size 0.04 KB instead of 4 KB."""
        return cls(mean_file_bytes=40.0, **overrides)

    @classmethod
    def pareto_files(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 7: Pareto file-size distribution instead of deterministic."""
        from repro.distributions.standard import Pareto

        return cls(file_size_distribution=Pareto(alpha=2.1, mean=1.0), **overrides)

    @classmethod
    def small_cache(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 8: cache:data ratio 0.01 (more accesses hit disk)."""
        return cls(cache_to_data_ratio=0.01, **overrides)

    @classmethod
    def ec2(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 9: shared (EC2-like) servers with noisy-neighbour interference."""
        return cls(noise_probability=0.05, noise_multiplier_mean=8.0, **overrides)

    @classmethod
    def large_files(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 10: mean file size 400 KB (client overhead becomes significant)."""
        return cls(mean_file_bytes=400_000.0, **overrides)

    @classmethod
    def all_cached(cls, **overrides) -> "DatabaseClusterConfig":
        """Figure 11: cache:data ratio 2 (the whole data set fits in memory)."""
        return cls(cache_to_data_ratio=2.0, **overrides)

    # ----------------------------- derived values ------------------------- #

    @property
    def total_data_bytes(self) -> float:
        """Aggregate size of the file collection."""
        return self.num_files * self.mean_file_bytes

    @property
    def cache_bytes_per_server(self) -> float:
        """Per-server page-cache capacity implied by the cache:data ratio."""
        return self.cache_to_data_ratio * self.total_data_bytes / self.num_servers

    def expected_hit_ratio(self, copies: int) -> float:
        """Rough steady-state cache hit ratio for load calibration.

        With uniform popularity and LRU, a server's hit ratio is approximately
        its cache capacity divided by the size of the data it actually serves:
        its primary share when queries are unreplicated, primary plus secondary
        share when every query is replicated.
        """
        served_fraction = min(copies, 2) / self.num_servers
        served_bytes = served_fraction * self.total_data_bytes
        return min(1.0, self.cache_bytes_per_server / served_bytes)

    def expected_service_time(self, copies: int = 1) -> float:
        """Expected per-request service time at the bottleneck resource.

        Used to convert the paper's "load" axis into an arrival rate: load is
        defined as (arrival rate per server) x (expected unreplicated service
        time per request).
        """
        hit = self.expected_hit_ratio(copies)
        miss_service = self.disk.mean_service_time(self.mean_file_bytes) * (
            1.0 + self.noise_probability * self.noise_multiplier_mean
        )
        return hit * self.memory_service_s + (1.0 - hit) * miss_service

    def client_overhead_per_extra_copy(self) -> float:
        """Client-side latency cost of processing one extra response."""
        return (
            self.client_cpu_overhead_s
            + self.mean_file_bytes / self.client_bandwidth_bytes_per_s
        )


@dataclass(frozen=True)
class DatabaseRunResult:
    """Result of one (load, copies) run of the database experiment.

    Attributes:
        load: Offered load (fraction of unreplicated capacity).
        copies: Number of copies each read was sent to.
        response_times: Per-request response times in seconds (warmup removed).
        summary: Latency summary of ``response_times``.
        cache_hit_ratio: Aggregate cache hit ratio observed across servers.
        metrics: Snapshot of the run's metrics registry (``requests``,
            ``cache_hits``, ``cache_misses`` counters and the ``latency``
            summary row).
        policy_spec: Canonical spec of the replication policy used (``None``
            for policies the spec language cannot express).
        copies_launched: Total reads actually dispatched (warmup included);
            smaller than ``copies * num_requests`` under hedging because
            suppressed backups never launch.
        copies_cancelled: Reads cancelled while still queued after another
            copy won (warmup included); ``None`` unless the policy cancels
            on win.
        spike: Before/during/after p99 quantification of the membership-event
            latency spike (see :func:`repro.cluster.churn.spike_metrics`);
            ``None`` unless the run had a churn timeline.
    """

    load: float
    copies: int
    response_times: np.ndarray
    summary: LatencySummary
    cache_hit_ratio: float
    metrics: Optional[Dict[str, object]] = None
    policy_spec: Optional[str] = None
    copies_launched: Optional[int] = None
    copies_cancelled: Optional[int] = None
    spike: Optional[Dict[str, float]] = None

    @property
    def mean(self) -> float:
        """Mean response time in seconds."""
        return self.summary.mean

    @property
    def p999(self) -> float:
        """99.9th percentile response time in seconds."""
        return self.summary.p999


# Consistent-hash placement memo shared across experiment instances, keyed by
# (num_servers, virtual_nodes, num_files).  Entries are read-only.
_PRIMARIES_CACHE: Dict[Tuple[int, int, int], np.ndarray] = {}

# Each server's cache-warm candidates before their seeded shuffle, ascending,
# keyed by the placement's key plus ``copies >= 2``.  Entries are read-only:
# each experiment shuffles its own copy.
_WARM_CANDIDATES_CACHE: Dict[Tuple[int, int, int, bool], Tuple[np.ndarray, ...]] = {}


class DatabaseClusterExperiment:
    """Drives the disk-backed database model across loads and copy counts."""

    def __init__(self, config: DatabaseClusterConfig) -> None:
        """Create an experiment for ``config``."""
        self.config = config
        self._ring = ConsistentHashRing(config.num_servers)
        self._fileset = self._build_fileset()
        self._primaries = self._assign_primaries()
        # Shuffled per-server cache-warm orders, keyed by ``copies >= 2``.
        # They depend only on the placement and the warm substream, so the
        # loads of one sweep share them; they live as long as the instance.
        self._warm_order_memo: Dict[bool, Tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------ #

    def _build_fileset(self) -> FileSet:
        config = self.config
        if config.file_size_distribution is None:
            sizes = np.full(config.num_files, float(config.mean_file_bytes))
        else:
            rng = substream(config.seed, "file-sizes")
            scaled = config.file_size_distribution.scaled_to_mean(config.mean_file_bytes)
            sizes = np.maximum(np.asarray(scaled.sample(rng, config.num_files), dtype=float), 1.0)
        return FileSet(sizes_bytes=sizes)

    def _assign_primaries(self) -> np.ndarray:
        """Primary server of every file, via the consistent-hash ring.

        The placement depends only on the ring geometry and the file count, so
        it is memoised at module level.  A sweep re-creates the experiment per
        point; the ring's shared id-hash table already spares re-hashing the
        file ids, but the ring search over them still costs about 2.4 ms per
        point at 30k files on a 2-vCPU VM, and dropping the memo cut
        ``paper-database-ec2`` sweep throughput by about 6%.
        """
        config = self.config
        key = (config.num_servers, self._ring.virtual_nodes, config.num_files)
        cached = _PRIMARIES_CACHE.get(key)
        if cached is None:
            cached = self._ring.primary_for_many(range(config.num_files))
            _PRIMARIES_CACHE[key] = cached
        return cached

    def _warm_orders(self, copies: int) -> Tuple[np.ndarray, ...]:
        """Per-server file ids to warm each cache with, in insertion order.

        Server ``s``'s entry is every file it stores (its primaries, plus its
        predecessor's when ``copies >= 2``) in a random order drawn from the
        ``cache-warm`` substream, servers in id order.
        """
        replicated = copies >= 2
        orders = self._warm_order_memo.get(replicated)
        if orders is None:
            rng = substream(self.config.seed, "cache-warm")
            built = []
            for candidates in self._warm_candidates(replicated):
                candidates = candidates.copy()
                if candidates.size:
                    rng.shuffle(candidates)
                built.append(candidates)
            orders = self._warm_order_memo[replicated] = tuple(built)
        return orders

    def _warm_candidates(self, replicated: bool) -> Tuple[np.ndarray, ...]:
        """Every file each server stores, ascending, servers in id order:
        its primaries, plus its predecessor's when ``replicated``.

        They depend only on the placement, so every experiment with the same
        one shares them (``_WARM_CANDIDATES_CACHE``); callers must copy an
        entry before changing it.
        """
        num_servers = self.config.num_servers
        key = (num_servers, self._ring.virtual_nodes, self.config.num_files, replicated)
        cached = _WARM_CANDIDATES_CACHE.get(key)
        if cached is None:
            built = []
            for server_id in range(num_servers):
                mask = self._primaries == server_id
                if replicated:
                    mask |= (self._primaries + 1) % num_servers == server_id
                built.append(np.flatnonzero(mask))
            cached = _WARM_CANDIDATES_CACHE[key] = tuple(built)
        return cached

    def _warm_caches(self, servers: List[StorageServerModel], copies: int) -> None:
        """Pre-fill each cache with a random sample of the files it serves.

        Skipping the cold-start transient keeps short runs representative of
        steady state (the paper measures a long-running warmed system).
        ``servers`` are the initial pool, ids ``0 .. num_servers - 1``.  Each
        cache gets its whole warm order in one
        :meth:`~repro.cluster.cache.LRUByteCache.warm_with` call, which keeps
        only the most recent files that fit; with whole-byte file sizes it
        inserts only those files rather than replaying the whole order.
        """
        orders = self._warm_orders(copies)
        sizes = self._fileset.sizes_bytes
        for server in servers:
            candidates = orders[server.server_id]
            server.cache.warm_with(candidates, sizes[candidates])

    # ------------------------------------------------------------------ #

    def run(
        self,
        load: float,
        copies: Optional[int] = None,
        num_requests: int = 40_000,
        warmup_fraction: float = 0.2,
        policy: Optional[PolicyLike] = None,
        churn: Optional[Union[str, ChurnTimeline]] = None,
        migration_rate: float = 50.0,
    ) -> DatabaseRunResult:
        """Simulate the cluster at one load.

        Args:
            load: Offered load as a fraction of unreplicated capacity, in
                ``(0, 1)``; with ``copies`` eager copies the bottleneck
                utilisation is roughly ``copies * load``, so replicated runs
                are only stable below ``1 / copies``.
            copies: Eager copies per request (defaults to the config's value);
                mutually exclusive with ``policy``.
            num_requests: Number of client requests to simulate.
            warmup_fraction: Leading fraction of requests discarded.
            policy: A :class:`~repro.core.policy.ReplicationPolicy` or spec
                string (``"none"``, ``"k2"``, ``"hedge:10ms"``,
                ``"hedge:p95"``).  Eager policies, with or without churn,
                run batched per server (:meth:`_eager_batched`): each server's
                cache, disk draws and disk FIFO over its whole access stream
                at once, byte-identical to serving the copies one at a time.
                Hedging policies defer the secondary read and suppress it
                when the primary answered first, charging client overhead
                only for responses actually processed, and draw per request
                (backup launches depend on earlier completions).
            churn: A membership-event timeline — a
                :class:`~repro.cluster.churn.ChurnTimeline` or spec string
                like ``"remove:2@0.4"`` (times are fractions of the arrival
                horizon).  Keys are re-homed per the live ring each epoch,
                migration reads compete with foreground requests on the
                gaining servers' disks (and warm their LRU caches), and
                servers added mid-run start cold.  Remove and crash are
                identical here (fail-stop, no drain).  A run without churn
                uses the static layout (each file on its primary and the
                next server ids) and has no migration reads; an empty
                timeline is exactly that run.  Only churn runs report
                ``migration_jobs`` and a ``spike``.
            migration_rate: Migration reads per second per gaining server.

        Returns:
            A :class:`DatabaseRunResult`.

        Raises:
            CapacityError: If the replicated load would saturate the disks.
        """
        config = self.config
        hedged, k = resolve_run_policy(policy, copies, default_copies=config.copies)
        if not 1 <= k <= config.num_servers:
            raise ConfigurationError(f"copies must be in [1, {config.num_servers}], got {k!r}")
        if load <= 0:
            raise ConfigurationError(f"load must be positive, got {load!r}")
        if hedged is None:
            effective_load = (
                load * k * config.expected_service_time(k) / config.expected_service_time(1)
            )
        else:
            # Hedged backups launch only for slow requests, so only the
            # unconditional baseline utilisation can be rejected up front.
            effective_load = load
        if effective_load >= 0.98:
            raise CapacityError(
                f"load {load:.2f} with {k} copies gives bottleneck utilisation "
                f"~{effective_load:.2f}; the system has no steady state there"
            )
        if num_requests < 100:
            raise ConfigurationError(f"num_requests must be >= 100, got {num_requests!r}")

        timeline = parse_churn(churn)
        if timeline:
            rings = timeline.epoch_rings(config.num_servers, self._ring.virtual_nodes)
            min_live = min(ring.num_servers for ring in rings)
            if k > min_live:
                raise ConfigurationError(
                    f"copies={k} exceeds the {min_live} servers live in the "
                    f"smallest epoch of churn {timeline.spec()!r}"
                )

        arrivals_rng = substream(config.seed, "arrivals", load)
        keys_rng = substream(config.seed, "keys", load)
        mean_service = config.expected_service_time(1)
        total_rate = config.num_servers * load / mean_service
        arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
        file_ids = keys_rng.integers(0, config.num_files, size=num_requests)
        sizes = self._fileset.sizes_bytes[file_ids]

        migrations = None
        if timeline:
            horizon = float(arrival_times[-1])
            event_times = timeline.event_times(horizon)
            replicas = epoch_replica_table(rings, event_times, arrival_times, file_ids, k)
            migrations = migration_schedule(
                rings, event_times, config.num_files, migration_rate, horizon
            )
            server_ids = timeline.all_servers(config.num_servers)
        else:
            replicas = (self._primaries[file_ids][:, None] + np.arange(k)) % config.num_servers
            server_ids = range(config.num_servers)

        run_seed = (k, hash(round(load, 6)) & 0xFFFF)
        total_cancelled: Optional[int] = None
        if hedged is None:
            best, hits, misses = self._eager_batched(
                k, arrival_times, file_ids, sizes, replicas, server_ids, run_seed, migrations
            )
            response = best + config.client_overhead_per_extra_copy() * (k - 1)
            total_launched = num_requests * k
        else:
            servers = {
                server_id: StorageServerModel(
                    server_id=server_id,
                    cache_bytes=config.cache_bytes_per_server,
                    disk=config.disk,
                    memory_service_s=config.memory_service_s,
                    noise_probability=config.noise_probability,
                    noise_multiplier_mean=config.noise_multiplier_mean,
                    rng=substream(config.seed, "server", server_id, *run_seed),
                )
                for server_id in server_ids
            }
            # Only the initial pool is warm; a server added mid-run earns its
            # cache through migration reads and foreground misses.
            self._warm_caches([servers[s] for s in range(config.num_servers)], k)
            response, total_launched, total_cancelled = self._run_hedged(
                hedged, k, arrival_times, file_ids, sizes, replicas, servers, migrations
            )
            hits = sum(s.cache.hits for s in servers.values())
            misses = sum(s.cache.misses for s in servers.values())

        start = int(num_requests * warmup_fraction)
        retained = response[start:]
        registry = MetricsRegistry("database")
        registry.counter("requests").increment(num_requests)
        registry.counter("copies_launched").increment(total_launched)
        registry.counter("cache_hits").increment(hits)
        registry.counter("cache_misses").increment(misses)
        spike = None
        if timeline:
            registry.counter("migration_jobs").increment(len(migrations[0]))
            spike = spike_metrics(arrival_times[start:], retained, event_times)
        recorder = registry.recorder("latency")
        recorder.record_many(retained)
        accesses = hits + misses
        return DatabaseRunResult(
            load=float(load),
            copies=k,
            response_times=retained,
            summary=recorder.summary(),
            cache_hit_ratio=hits / accesses if accesses else 0.0,
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
        file_ids: np.ndarray,
        sizes: np.ndarray,
        replicas: np.ndarray,
        servers,
        migrations: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, int, Optional[int]]:
        """One hedged run through the FIFO hedging engine.

        Copy ``c`` of request ``r`` reads from server ``replicas[r, c]``;
        ``servers`` maps server ids to their models, which do the
        dispatch-time cache and draw work (:meth:`StorageServerModel.probe`)
        while the engine owns the disk FIFOs.  ``migrations`` are the churn
        migration reads as ``(times, servers, files)`` arrays.

        Returns:
            ``(response_times, copies_launched, copies_cancelled)``, with
            ``copies_cancelled`` ``None`` when the policy never cancels.
        """

        def server_of(request: int, copy: int) -> int:
            return int(replicas[request, copy])

        def begin(request: int, copy: int, at: float):
            return servers[int(replicas[request, copy])].probe(
                at, int(file_ids[request]), float(sizes[request])
            )

        background = begin_background = None
        if migrations is not None:
            mig_times, mig_servers, mig_files = migrations
            mig_sizes = self._fileset.sizes_bytes[mig_files]

            def begin_background(job: int, at: float):
                return servers[int(mig_servers[job])].probe(
                    at, int(mig_files[job]), float(mig_sizes[job])
                )

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
        # A cancelled copy returns no response for the client to combine,
        # so it carries no per-copy client overhead.
        received = launched if cancelled is None else launched - cancelled
        overhead_unit = self.config.client_overhead_per_extra_copy()
        response = (finish_at - arrival_times) + overhead_unit * (received - 1)
        return (
            response,
            int(launched.sum()),
            None if cancelled is None else int(cancelled.sum()),
        )

    def _eager_batched(
        self,
        k: int,
        arrival_times: np.ndarray,
        file_ids: np.ndarray,
        sizes: np.ndarray,
        replicas: np.ndarray,
        server_ids: Sequence[int],
        run_seed: Tuple[int, ...],
        migrations: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[np.ndarray, int, int]:
        """Eager-replication run, byte-identical to the scalar loop.

        The scalar loop (``reference_database_eager`` in
        ``tests/test_fast_paths.py``) serves copies in global ``(request,
        copy)`` order, with a churn run's migration reads
        (``migrations`` as ``(times, servers, files)``) served before the
        first request that arrives at or after them.  Migration reads are
        accesses like any other: they warm the cache, count in the hit
        totals and queue on the disk, but complete no request.  Only the
        initial pool is warmed (each cache with the files its warm order
        leaves in it); a server added mid-run starts cold.

        When the compiled kernels load (:mod:`repro.cluster._ckernels`) and
        every file has the same size, so each cache holds a fixed number of
        items, that loop runs as it is in C: one ``eager_reads`` call per run
        (:meth:`_eager_compiled`).  Otherwise each access touches exactly one
        server, and servers share no state — the cache, the FIFO disk queue
        and the service-time rng are all per server — so grouping accesses
        by server preserves every per-server stream exactly, and each server
        in ``server_ids`` runs three batched kernels:

        * cache warming plus hit/miss classification via
          :func:`~repro.cluster.lru_kernel.lru_hit_flags` (warm inserts are
          prepended to the access stream as virtual accesses — ``warm_with``
          has precisely LRU-insert semantics for distinct keys, so an empty
          cache of ``C`` items ends warm-up holding exactly the last ``C``
          candidates, in order, and only those are prepended), or
          :meth:`~repro.cluster.cache.LRUByteCache.access_many` when file
          sizes are not all equal;
        * disk service times for the misses via
          :func:`~repro.cluster.draws.exact_disk_services`, consuming the
          server substream in the scalar order;
        * the FIFO disk queue via
          :func:`~repro.cluster.draws.sequential_finish_times`.

        Returns:
            ``(best_elapsed, cache_hits, cache_misses)`` where ``best_elapsed``
            is the per-request fastest-copy response time before client
            overhead.
        """
        config = self.config
        capacity = config.cache_bytes_per_server
        item_capacity = (
            equal_item_capacity(capacity, float(config.mean_file_bytes))
            if config.file_size_distribution is None
            else None
        )
        lib = _ckernels.load()
        if lib is not None and item_capacity is not None:
            return self._eager_compiled(
                lib, k, arrival_times, file_ids, replicas, server_ids, run_seed,
                migrations, item_capacity,
            )
        n = len(arrival_times)
        all_sizes = self._fileset.sizes_bytes
        srv_flat = replicas.ravel()
        file_flat = np.repeat(file_ids, k)
        size_flat = np.repeat(sizes, k)
        arr_flat = np.repeat(arrival_times, k)
        copy_at = None
        if migrations is not None and len(migrations[0]):
            mig_times, mig_servers, mig_files = migrations
            copy_at, (srv_flat, file_flat, size_flat, arr_flat) = merge_jobs(
                arrival_times,
                k,
                mig_times,
                (srv_flat, file_flat, size_flat, arr_flat),
                (mig_servers, mig_files, all_sizes[mig_files], mig_times),
            )
        completion_flat = np.empty(len(srv_flat))

        warm_orders = self._warm_orders(k)
        cold = np.empty(0, dtype=np.int64)
        hits_total = 0
        for server_id in server_ids:
            candidates = warm_orders[server_id] if server_id < config.num_servers else cold
            pos = np.flatnonzero(srv_flat == server_id)
            keys = file_flat[pos]
            if item_capacity is not None:
                survivors = candidates[max(0, candidates.size - item_capacity) :]
                stream = np.concatenate([survivors, keys])
                flags = lru_hit_flags(stream, item_capacity)[survivors.size :]
            else:
                cache = LRUByteCache(capacity)
                cache.warm_with(candidates, all_sizes[candidates])
                flags = cache.access_many(keys, size_flat[pos])
            hits_total += int(np.count_nonzero(flags))
            arr = arr_flat[pos]
            completion = np.empty(len(pos))
            miss = ~flags
            if np.any(miss):
                rng = substream(config.seed, "server", server_id, *run_seed)
                services = exact_disk_services(
                    config.disk,
                    size_flat[pos][miss],
                    rng,
                    config.noise_probability,
                    config.noise_multiplier_mean,
                )
                completion[miss] = (
                    sequential_finish_times(arr[miss], services) + config.memory_service_s
                )
            completion[flags] = arr[flags] + config.memory_service_s
            completion_flat[pos] = completion

        if copy_at is not None:
            completion_flat = completion_flat[copy_at]
        elapsed = completion_flat.reshape(n, k) - arrival_times[:, None]
        best = elapsed.min(axis=1)
        return best, hits_total, len(srv_flat) - hits_total

    def _eager_compiled(
        self,
        lib,
        k: int,
        arrival_times: np.ndarray,
        file_ids: np.ndarray,
        replicas: np.ndarray,
        server_ids: Sequence[int],
        run_seed: Tuple[int, ...],
        migrations: Optional[Tuple[np.ndarray, ...]],
        capacity: int,
    ) -> Tuple[np.ndarray, int, int]:
        """:meth:`_eager_batched` as one compiled ``eager_reads`` call.

        Every file is ``mean_file_bytes`` long, so each cache holds
        ``capacity`` items and every read transfers for the same time.
        Each server id in ``server_ids`` gets its substream, created up front
        (creating one draws nothing); the initial pool's caches start with
        the last ``capacity`` files of their warm orders.
        """
        config = self.config
        disk = config.disk
        if migrations is None:
            migrations = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        job_times, job_servers, job_files = (
            np.ascontiguousarray(column, dtype=dtype)
            for column, dtype in zip(migrations, (np.float64, np.int64, np.int64))
        )
        arrivals = np.ascontiguousarray(arrival_times, dtype=np.float64)
        files = np.ascontiguousarray(file_ids, dtype=np.int64)
        replicas = np.ascontiguousarray(replicas, dtype=np.int64)
        warm = [order[max(0, order.size - capacity) :] for order in self._warm_orders(k)]
        warm_keys = np.ascontiguousarray(np.concatenate(warm), dtype=np.int64)
        warm_ends = np.cumsum([order.size for order in warm], dtype=np.int64)
        rngs = [substream(config.seed, "server", server_id, *run_seed) for server_id in server_ids]
        gens = (ctypes.c_void_p * (max(server_ids) + 1))()
        for server_id, rng in zip(server_ids, rngs):
            gens[server_id] = rng.bit_generator.ctypes.bit_generator.value
        best = np.empty(len(arrivals))
        run = _ckernels.EagerRun(
            arrivals=arrivals.ctypes.data,
            files=files.ctypes.data,
            replicas=replicas.ctypes.data,
            requests=len(arrivals),
            copies=k,
            job_times=job_times.ctypes.data,
            job_servers=job_servers.ctypes.data,
            job_files=job_files.ctypes.data,
            jobs=len(job_times),
            gens=ctypes.addressof(gens),
            slots=len(gens),
            keys=config.num_files,
            capacity=capacity,
            warm=warm_keys.ctypes.data,
            warm_ends=warm_ends.ctypes.data,
            warmed=len(warm),
            std_exp=ctypes.cast(lib.std_exponential, ctypes.c_void_p).value,
            disk=_ckernels.Disk(
                disk.min_positioning_s,
                disk.max_positioning_s - disk.min_positioning_s,
                disk.slow_access_probability,
                disk.slow_access_mean_s,
                config.noise_probability,
                config.noise_multiplier_mean,
            ),
            xfer=float(config.mean_file_bytes) / disk.transfer_bytes_per_sec,
            memory_s=config.memory_service_s,
            best=best.ctypes.data,
        )
        with contextlib.ExitStack() as locks:
            # ctypes releases the GIL: hold every generator's lock, as numpy does.
            for rng in rngs:
                locks.enter_context(rng.bit_generator.lock)
            hits = lib.eager_reads(ctypes.byref(run))
        if hits == -1:
            raise MemoryError("eager_reads could not allocate its server state")
        if hits < 0:
            raise ValueError("eager_reads got a server id or file id outside the run")
        return best, hits, len(arrivals) * k + len(job_times) - hits

    def threshold_load(
        self,
        loads: Sequence[float],
        num_requests: int = 30_000,
    ) -> float:
        """Largest probed load at which replication still improves mean latency.

        This mirrors how the paper reads the threshold off Figure 5 (≈30% in
        the base configuration) rather than running a bisection, because each
        cluster simulation point is comparatively expensive.
        """
        best = 0.0
        for load in sorted(loads):
            try:
                baseline = self.run(load, copies=1, num_requests=num_requests)
                replicated = self.run(load, copies=2, num_requests=num_requests)
            except CapacityError:
                break
            if replicated.mean < baseline.mean:
                best = float(load)
            else:
                break
        return best
