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

from typing import Optional

import numpy as np

from repro.cluster.cache import LRUByteCache
from repro.cluster.disk import DiskModel
from repro.exceptions import ConfigurationError


class StorageServerModel:
    """Cache and service-time draws of one storage server in a hedged run.

    The FIFO hedging engine (:mod:`repro.core.cancellation`) owns the disk
    queue and calls :meth:`probe` as it dispatches each copy, in dispatch
    order.  Eager runs do not build servers: they run each server's cache,
    draws and disk FIFO over its whole access stream at once
    (:meth:`repro.cluster.database.DatabaseClusterExperiment._eager_batched`),
    drawing each miss in the order of
    :meth:`~repro.cluster.disk.DiskModel.sample_noisy_service_time`.
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

    def probe(self, arrival_time: float, file_id: object, size_bytes: float):
        """Dispatch-time work for the FIFO hedging engine (hedged runs).

        Performs the per-copy work of a read at dispatch — the cache access
        and, on a miss, the service-time draw
        (:meth:`~repro.cluster.disk.DiskModel.sample_noisy_service_time`) —
        but leaves the disk queue to the caller: the engine
        (:mod:`repro.core.cancellation`) owns the FIFO.

        Returns:
            ``("done", completion_time)`` for a cache hit (memory service,
            no queueing), or ``("service", disk_service_s, memory_service_s)``
            for a miss the caller must run through its FIFO.
        """
        hit = self.cache.access(file_id, size_bytes)
        if hit:
            return ("done", arrival_time + self.memory_service_s)
        service = self.disk.sample_noisy_service_time(
            size_bytes, self._rng, self.noise_probability, self.noise_multiplier_mean
        )
        return ("service", service, self.memory_service_s)
