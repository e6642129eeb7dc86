"""A single storage server: LRU page cache in front of a FIFO disk.

The model a request sees on one server:

* **Cache hit** — served from memory.  The cost is a small memory/network
  service time; the CPU is never the bottleneck in the paper's experiments, so
  hits do not queue.
* **Cache miss** — the read must go to the disk, which serves misses strictly
  FIFO.  The response time is the queueing delay behind earlier misses plus the
  disk service time (positioning + transfer), and the file then enters the
  cache.

The server optionally applies a multiplicative "noise" factor to disk service
times to model shared/virtualised environments (the EC2 configuration of
Figure 9), where occasional noisy-neighbour interference produces a much
heavier service-time tail than dedicated hardware.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cluster.cache import LRUByteCache
from repro.cluster.disk import DiskModel
from repro.exceptions import ConfigurationError


class StorageServerModel:
    """State of one storage server in the fast (arrival-ordered) simulation.

    The experiment driver processes requests in global arrival order; for each
    copy it calls :meth:`serve`, which returns the completion time of that copy
    on this server, updating the cache and the disk queue as side effects.
    """

    def __init__(
        self,
        server_id: int,
        cache_bytes: float,
        disk: DiskModel,
        memory_service_s: float = 0.0002,
        noise_probability: float = 0.0,
        noise_multiplier_mean: float = 8.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Create a server.

        Args:
            server_id: Index of the server in the cluster.
            cache_bytes: Page-cache capacity in bytes.
            disk: Disk service-time model.
            memory_service_s: Service time of a cache hit (seconds); covers
                memory copy plus the request/response network processing.
            noise_probability: Probability that a disk access experiences
                noisy-neighbour interference (0 on dedicated hardware, > 0 for
                the EC2 configuration).
            noise_multiplier_mean: Mean of the exponential multiplier applied
                to interfered accesses (so the noise is heavy-tailed).
            rng: Random generator for service-time draws.

        Raises:
            ConfigurationError: On non-positive cache size or memory service
                time, or a probability outside [0, 1].
        """
        if memory_service_s <= 0:
            raise ConfigurationError(f"memory_service_s must be positive, got {memory_service_s!r}")
        if not 0.0 <= noise_probability <= 1.0:
            raise ConfigurationError(
                f"noise_probability must be in [0, 1], got {noise_probability!r}"
            )
        if noise_multiplier_mean <= 0:
            raise ConfigurationError(
                f"noise_multiplier_mean must be positive, got {noise_multiplier_mean!r}"
            )
        self.server_id = int(server_id)
        self.cache = LRUByteCache(cache_bytes)
        self.disk = disk
        self.memory_service_s = float(memory_service_s)
        self.noise_probability = float(noise_probability)
        self.noise_multiplier_mean = float(noise_multiplier_mean)
        self._rng = rng if rng is not None else np.random.default_rng(server_id)
        self.disk_free_at = 0.0
        self.requests_served = 0
        self.disk_requests = 0

    def serve(self, arrival_time: float, file_id: object, size_bytes: float) -> Tuple[float, bool]:
        """Serve one copy of a read request arriving at ``arrival_time``.

        Args:
            arrival_time: Absolute time the copy reaches the server.
            file_id: Identity of the requested file (cache key).
            size_bytes: Size of the requested file.

        Returns:
            ``(completion_time, was_cache_hit)``.
        """
        self.requests_served += 1
        hit = self.cache.access(file_id, size_bytes)
        if hit:
            return arrival_time + self.memory_service_s, True

        self.disk_requests += 1
        service = self.disk.sample_service_time(size_bytes, self._rng)
        if self.noise_probability > 0 and self._rng.random() < self.noise_probability:
            service *= 1.0 + self._rng.exponential(self.noise_multiplier_mean)
        start = self.disk_free_at if self.disk_free_at > arrival_time else arrival_time
        finish = start + service
        self.disk_free_at = finish
        return finish + self.memory_service_s, False

    def probe(self, arrival_time: float, file_id: object, size_bytes: float):
        """Dispatch-time work for the FIFO hedging engine (hedged runs).

        Performs exactly the per-copy work :meth:`serve` does at dispatch —
        the cache access and (on a miss) the service-time draw, in the same
        order and from the same generator — but leaves the disk queue to the
        caller: the engine (:mod:`repro.core.cancellation`) owns the FIFO.

        Returns:
            ``("done", completion_time)`` for a cache hit (memory service,
            no queueing), or ``("service", disk_service_s, memory_service_s)``
            for a miss the caller must run through its FIFO.
        """
        self.requests_served += 1
        hit = self.cache.access(file_id, size_bytes)
        if hit:
            return ("done", arrival_time + self.memory_service_s)
        self.disk_requests += 1
        service = self.disk.sample_service_time(size_bytes, self._rng)
        if self.noise_probability > 0 and self._rng.random() < self.noise_probability:
            service *= 1.0 + self._rng.exponential(self.noise_multiplier_mean)
        return ("service", service, self.memory_service_s)

    def expected_miss_service_time(self, mean_file_bytes: float) -> float:
        """Expected disk service time for a miss of the given mean size.

        Includes the expected noise inflation so that load calibration stays
        correct for the EC2 configuration.
        """
        base = self.disk.mean_service_time(mean_file_bytes)
        inflation = 1.0 + self.noise_probability * self.noise_multiplier_mean
        return base * inflation
