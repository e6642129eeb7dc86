"""Arrival processes.

All of the paper's experiments use open-loop Poisson arrivals ("requests
arrive in the system according to a Poisson process", Section 2.1; "a set of
client nodes generate requests according to identical Poisson processes",
Section 2.2; "flow arrivals are Poisson", Section 2.4).  This module provides
them as arrays of absolute arrival times.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import ConfigurationError


class PoissonArrivals:
    """A homogeneous Poisson arrival process with the given rate.

    It produces fixed-count or fixed-horizon arrays of absolute arrival times
    for the vectorised simulators.
    """

    def __init__(self, rate: float, rng: np.random.Generator, start: float = 0.0) -> None:
        """Create a Poisson process.

        Args:
            rate: Arrival rate in events per second (> 0).
            rng: Random generator supplying the exponential gaps.
            start: Time of the process origin (first arrival occurs after it).
        """
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate!r}")
        self.rate = float(rate)
        self._rng = rng
        self.start = float(start)

    def times_count(self, count: int) -> np.ndarray:
        """Return the first ``count`` arrival times as an array."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count!r}")
        gaps = self._rng.exponential(1.0 / self.rate, count)
        return self.start + np.cumsum(gaps)

    def times_until(self, horizon: float) -> np.ndarray:
        """Return all arrival times in ``(start, horizon]``.

        Generates in blocks sized from the expected count to avoid quadratic
        behaviour for long horizons.
        """
        if horizon < self.start:
            raise ConfigurationError("horizon must be at or after the start time")
        expected = max(16, int((horizon - self.start) * self.rate * 1.1) + 16)
        times: List[np.ndarray] = []
        t = self.start
        while t <= horizon:
            gaps = self._rng.exponential(1.0 / self.rate, expected)
            block = t + np.cumsum(gaps)
            times.append(block)
            t = float(block[-1])
        all_times = np.concatenate(times)
        return all_times[all_times <= horizon]
