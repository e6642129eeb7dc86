"""Latency statistics used to report every experiment.

The paper reports means, medians and high percentiles (95th/99th/99.9th) of
the unreplicated and replicated configurations.  This module summarises raw
response-time samples, or a streaming histogram, into those figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Percentiles included in every :class:`LatencySummary`.
STANDARD_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a set of response-time samples.

    Attributes:
        count: Number of samples.
        mean: Sample mean.
        std: Sample standard deviation.
        minimum: Smallest sample.
        maximum: Largest sample.
        p50: Median.
        p90: 90th percentile.
        p95: 95th percentile.
        p99: 99th percentile.
        p999: 99.9th percentile.
    """

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p95: float
    p99: float
    p999: float

    @classmethod
    def from_histogram(cls, histogram) -> "LatencySummary":
        """Build a summary from a :class:`repro.metrics.Histogram`.

        Count, mean, std, min and max are exact (the histogram tracks them as
        running moments); the percentiles are exact while the histogram is in
        exact mode and bin-resolution estimates once it has spilled to bins.
        This is what makes streaming and exact summaries interchangeable in
        :class:`~repro.analysis.tables.ResultTable` and the benchmarks.

        Raises:
            ConfigurationError: If the histogram is empty.
        """
        if histogram.count == 0:
            raise ConfigurationError("cannot summarise an empty histogram")
        p50, p90, p95, p99, p999 = histogram.percentiles(STANDARD_PERCENTILES)
        return cls(
            count=int(histogram.count),
            mean=float(histogram.mean()),
            std=float(histogram.std()),
            minimum=float(histogram.min()),
            maximum=float(histogram.max()),
            p50=float(p50),
            p90=float(p90),
            p95=float(p95),
            p99=float(p99),
            p999=float(p999),
        )

    def as_row(self) -> dict:
        """The summary as a flat dict, convenient for result tables."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "p99.9": self.p999,
            "max": self.maximum,
        }


def summarize(samples: Sequence[float]) -> LatencySummary:
    """Compute a :class:`LatencySummary` from raw samples.

    Raises:
        ConfigurationError: If ``samples`` is empty or contains negative or
            non-finite values (latencies must be non-negative real numbers).
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ConfigurationError("cannot summarise an empty sample set")
    if not np.all(np.isfinite(data)) or np.any(data < 0):
        raise ConfigurationError("latency samples must be finite and non-negative")
    percentiles = np.percentile(data, STANDARD_PERCENTILES)
    return LatencySummary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std()),
        minimum=float(data.min()),
        maximum=float(data.max()),
        p50=float(percentiles[0]),
        p90=float(percentiles[1]),
        p95=float(percentiles[2]),
        p99=float(percentiles[3]),
        p999=float(percentiles[4]),
    )
