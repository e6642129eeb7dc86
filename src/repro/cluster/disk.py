"""Disk service-time model.

The paper's servers use 10k RPM disks, and "disk is the bottleneck in the
majority of our experiments"; the dominant cost of a small-file read is
*locating* the file (seek + rotational latency), not transferring it, which is
why Figures 6 and 7 show that the file-size distribution barely matters as
long as files stay small.

:class:`DiskModel` captures that structure plus the tail behaviour real disks
exhibit: a random positioning time (seek + rotation, drawn per request), a
deterministic transfer time proportional to the file size, and an occasional
*slow access* (long seek chains, remapped sectors, filesystem journaling or
background writeback interfering with the read) that produces the
hundred-millisecond outliers visible in the paper's 99th/99.9th percentile
curves.  Those rare slow accesses are precisely what redundancy masks: the
probability that both replicas hit one simultaneously is the square of an
already small number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class DiskModel:
    """Service-time model for a single rotating disk.

    The per-request service time is::

        positioning + size_bytes / transfer_bytes_per_sec [+ slow-access delay]

    where ``positioning`` is drawn uniformly from
    ``[min_positioning_s, max_positioning_s]`` (seek distance and rotational
    phase are effectively uniform for random small-file reads), and with
    probability ``slow_access_probability`` an additional exponential delay of
    mean ``slow_access_mean_s`` models interference from background I/O.

    Default values model a 10k RPM SATA disk: positioning 3-11 ms,
    ~70 MB/s sequential transfer, and ~1.5% of accesses hitting a slow patch
    averaging 60 ms.

    Attributes:
        min_positioning_s: Fastest possible positioning time.
        max_positioning_s: Slowest possible positioning time.
        transfer_bytes_per_sec: Sequential transfer rate.
        slow_access_probability: Probability of a slow access.
        slow_access_mean_s: Mean extra delay of a slow access (exponential).
    """

    min_positioning_s: float = 0.003
    max_positioning_s: float = 0.011
    transfer_bytes_per_sec: float = 70e6
    slow_access_probability: float = 0.015
    slow_access_mean_s: float = 0.060

    def __post_init__(self) -> None:
        if self.min_positioning_s < 0 or self.max_positioning_s <= 0:
            raise ConfigurationError("positioning times must be non-negative / positive")
        if self.max_positioning_s < self.min_positioning_s:
            raise ConfigurationError("max_positioning_s must be >= min_positioning_s")
        if self.transfer_bytes_per_sec <= 0:
            raise ConfigurationError("transfer_bytes_per_sec must be positive")
        if not 0.0 <= self.slow_access_probability <= 1.0:
            raise ConfigurationError("slow_access_probability must be in [0, 1]")
        if self.slow_access_mean_s < 0:
            raise ConfigurationError("slow_access_mean_s must be >= 0")

    @property
    def mean_positioning_s(self) -> float:
        """Mean of the uniform positioning-time distribution."""
        return 0.5 * (self.min_positioning_s + self.max_positioning_s)

    def mean_service_time(self, size_bytes: float) -> float:
        """Expected service time for a read of ``size_bytes`` (slow accesses included)."""
        if size_bytes < 0:
            raise ConfigurationError(f"size_bytes must be >= 0, got {size_bytes!r}")
        return (
            self.mean_positioning_s
            + size_bytes / self.transfer_bytes_per_sec
            + self.slow_access_probability * self.slow_access_mean_s
        )

    def sample_service_time(self, size_bytes: float, rng: np.random.Generator) -> float:
        """Draw one service time for a read of ``size_bytes``."""
        if size_bytes < 0:
            raise ConfigurationError(f"size_bytes must be >= 0, got {size_bytes!r}")
        positioning = rng.uniform(self.min_positioning_s, self.max_positioning_s)
        service = positioning + size_bytes / self.transfer_bytes_per_sec
        if self.slow_access_probability > 0 and rng.random() < self.slow_access_probability:
            service += rng.exponential(self.slow_access_mean_s)
        return float(service)

    def sample_noisy_service_time(
        self,
        size_bytes: float,
        rng: np.random.Generator,
        noise_probability: float,
        noise_multiplier_mean: float,
    ) -> float:
        """Draw one service time under noisy-neighbour interference.

        :meth:`sample_service_time`, then with probability
        ``noise_probability`` a multiplier of ``1 +
        Exp(noise_multiplier_mean)``.  This is a database cache miss's draw
        on every path: per copy in
        :meth:`~repro.cluster.storage_server.StorageServerModel.probe`, and
        per miss stream in :func:`~repro.cluster.draws.exact_disk_services`.
        """
        service = self.sample_service_time(size_bytes, rng)
        if noise_probability > 0 and rng.random() < noise_probability:
            service *= 1.0 + rng.exponential(noise_multiplier_mean)
        return service
