"""Streaming percentile estimation in bounded memory.

A :class:`Histogram` ingests an unbounded stream of non-negative latency
samples and answers percentile queries without retaining the stream.  Two
regimes:

* **exact mode** — while the stream is short (``count <= exact_threshold``)
  every sample is kept and queries delegate to :func:`numpy.percentile`, so
  small experiments lose nothing;
* **binned mode** — past the threshold, samples are folded into fixed-width
  logarithmic bins (``bins_per_decade`` bins per factor of ten, the
  HdrHistogram idea).  Quantile estimates are then nearest-rank flavoured:
  each lands within roughly ``10**(2/bins_per_decade) - 1`` relative error of
  the order statistics bracketing the queried rank (see
  :meth:`Histogram.relative_error_bound`), regardless of how many samples
  arrive.  Note numpy's *interpolated* quantile can sit far from both
  bracketing samples when adjacent order statistics straddle a large gap
  (e.g. bimodal hit/miss latencies), and no binned estimator can track it
  there.

Count, sum, minimum, maximum and the running mean/variance moments (Welford's
algorithm) are tracked exactly in both regimes, so means and standard
deviations are never approximated.  Percentile queries cost O(number of
occupied bins) — independent of the sample count — versus the O(n log n)
sort-per-query of the ad-hoc sample lists this class replaces.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.metrics._quantile import sorted_percentile

#: Resolution of the default binning: ~1.8% per bin (~3.7% worst-case
#: quantile error versus numpy's interpolated quantiles).
DEFAULT_BINS_PER_DECADE = 128

#: Samples kept verbatim before switching to binned mode.
DEFAULT_EXACT_THRESHOLD = 1024


class Histogram:
    """Bounded-memory histogram of a non-negative sample stream.

    Example:
        >>> h = Histogram("latency", exact_threshold=4)
        >>> for v in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]:
        ...     h.record(v)
        >>> h.count
        6
        >>> round(h.mean(), 3)
        0.35
    """

    def __init__(
        self,
        name: str = "histogram",
        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
        bins_per_decade: int = DEFAULT_BINS_PER_DECADE,
    ) -> None:
        """Create an empty histogram.

        Args:
            name: Metric name (used by registries and snapshots).
            exact_threshold: Number of leading samples kept exactly before the
                histogram switches to bins.  ``0`` bins from the first sample.
            bins_per_decade: Log-bin resolution; relative quantile error in
                binned mode is bounded by roughly
                ``10**(2/bins_per_decade) - 1``.

        Raises:
            ConfigurationError: On a negative threshold or non-positive
                resolution.
        """
        if exact_threshold < 0:
            raise ConfigurationError(f"exact_threshold must be >= 0, got {exact_threshold!r}")
        if bins_per_decade < 1:
            raise ConfigurationError(f"bins_per_decade must be >= 1, got {bins_per_decade!r}")
        self.name = str(name)
        self.exact_threshold = int(exact_threshold)
        self.bins_per_decade = int(bins_per_decade)
        self._count = 0
        self._sum = 0.0
        # Welford/Chan accumulators: the naive sum-of-squares formula loses
        # all precision for large-magnitude samples.
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Exact regime.
        self._exact: Optional[List[float]] = []
        self._sorted_cache: Optional[np.ndarray] = None
        # Binned regime: sparse log bins plus a dedicated zero bucket.
        self._bins: Dict[int, int] = {}
        self._zero_count = 0
        self._bin_keys_cache: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record(self, value: float) -> None:
        """Add one sample (finite, >= 0).

        Raises:
            ConfigurationError: If ``value`` is negative or not finite.
        """
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ConfigurationError(f"samples must be finite and >= 0, got {value!r}")
        self._count += 1
        self._sum += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._exact is not None:
            self._exact.append(value)
            self._sorted_cache = None
            if len(self._exact) > self.exact_threshold:
                self._spill_exact()
        else:
            self._bin_one(value)

    def record_many(self, values: Iterable[float]) -> None:
        """Add a batch of samples (vectorised for numpy arrays)."""
        data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
        if data.size == 0:
            return
        if not np.all(np.isfinite(data)) or np.any(data < 0):
            raise ConfigurationError("samples must be finite and >= 0")
        batch_mean = float(data.mean())
        batch_m2 = float(np.square(data - batch_mean).sum())
        self._combine_moments(int(data.size), batch_mean, batch_m2)
        self._sum += float(data.sum())
        self._min = min(self._min, float(data.min()))
        self._max = max(self._max, float(data.max()))
        if self._exact is not None and self._count <= self.exact_threshold:
            self._exact.extend(data.tolist())
            self._sorted_cache = None
            return
        if self._exact is not None:
            self._exact.extend(data.tolist())
            self._spill_exact()
            return
        self._bin_array(data)

    def _combine_moments(self, batch_count: int, batch_mean: float, batch_m2: float) -> None:
        """Fold a batch's (count, mean, M2) into the running moments (Chan et al.)."""
        if batch_count == 0:
            return
        total = self._count + batch_count
        delta = batch_mean - self._mean
        self._mean += delta * batch_count / total
        self._m2 += batch_m2 + delta * delta * self._count * batch_count / total
        self._count = total

    def _spill_exact(self) -> None:
        """Switch from exact to binned mode, folding the retained samples in."""
        assert self._exact is not None
        samples = np.asarray(self._exact, dtype=float)
        self._exact = None
        self._sorted_cache = None
        self._bin_array(samples)

    def _key(self, value: float) -> int:
        """Log-bin index of a positive value."""
        return math.floor(self.bins_per_decade * math.log10(value))

    def _bin_one(self, value: float) -> None:
        if value == 0.0:
            self._zero_count += 1
            return
        key = self._key(value)
        if key not in self._bins:
            self._bin_keys_cache = None
        self._bins[key] = self._bins.get(key, 0) + 1

    def _bin_array(self, data: np.ndarray) -> None:
        zeros = int(np.count_nonzero(data == 0.0))
        self._zero_count += zeros
        positive = data[data > 0.0]
        if positive.size == 0:
            return
        keys = np.floor(self.bins_per_decade * np.log10(positive)).astype(np.int64)
        unique, counts = np.unique(keys, return_counts=True)
        for key, count in zip(unique.tolist(), counts.tolist()):
            if key not in self._bins:
                self._bin_keys_cache = None
            self._bins[key] = self._bins.get(key, 0) + int(count)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    @property
    def is_exact(self) -> bool:
        """Whether the histogram still holds every sample verbatim."""
        return self._exact is not None

    @property
    def occupied_bins(self) -> int:
        """Number of occupied log bins (binned mode memory footprint)."""
        return len(self._bins) + (1 if self._zero_count else 0)

    def min(self) -> float:
        """Smallest sample recorded.

        Raises:
            ConfigurationError: If the histogram is empty.
        """
        self._require_samples()
        return self._min

    def max(self) -> float:
        """Largest sample recorded."""
        self._require_samples()
        return self._max

    def mean(self) -> float:
        """Exact mean of all samples recorded."""
        self._require_samples()
        return self._mean

    def std(self) -> float:
        """Exact population standard deviation of all samples recorded.

        Accumulated with Welford's algorithm (Chan's pairwise combine for
        batches), so it stays accurate even when the samples are large
        numbers with a small spread.
        """
        self._require_samples()
        return math.sqrt(max(0.0, self._m2 / self._count))

    def total(self) -> float:
        """Exact sum of all samples recorded."""
        return self._sum

    def _require_samples(self) -> None:
        if self._count == 0:
            raise ConfigurationError(f"histogram {self.name!r} has no samples yet")

    # ------------------------------------------------------------------ #
    # Quantile queries
    # ------------------------------------------------------------------ #

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the recorded stream.

        Exact (``numpy.percentile`` semantics) while in exact mode; in binned
        mode the answer interpolates within the containing log bin and its
        relative error is bounded by the bin resolution.

        Raises:
            ConfigurationError: If the histogram is empty or ``q`` is out of
                range.
        """
        self._require_samples()
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"q must be in [0, 100], got {q!r}")
        if self._exact is not None:
            if self._sorted_cache is None:
                self._sorted_cache = np.sort(np.asarray(self._exact, dtype=float))
            return sorted_percentile(self._sorted_cache, q)
        return self._percentile_binned(q)

    def percentiles(self, qs: Iterable[float]) -> List[float]:
        """Several percentiles in one call (each an O(occupied bins) walk)."""
        return [self.percentile(q) for q in qs]

    def _percentile_binned(self, q: float) -> float:
        target = q / 100.0 * (self._count - 1)
        # The extreme ranks are known exactly: anchor them to the tracked
        # min/max instead of a bin edge (a singleton tail bin would otherwise
        # report its low edge and understate the max by up to one bin width).
        if target >= self._count - 1:
            return self._max
        if target <= 0.0:
            return self._min
        # Walk the cumulative counts: zero bucket first, then log bins in order.
        if self._bin_keys_cache is None:
            self._bin_keys_cache = sorted(self._bins)
        cumulative = 0
        if self._zero_count:
            cumulative = self._zero_count
            if target < cumulative:
                return 0.0
        for key in self._bin_keys_cache:
            bin_count = self._bins[key]
            if target < cumulative + bin_count:
                low_edge = 10.0 ** (key / self.bins_per_decade)
                high_edge = 10.0 ** ((key + 1) / self.bins_per_decade)
                # Clamp the edges to the observed range so the extreme bins do
                # not over/under-shoot the true min/max.
                low_edge = max(low_edge, self._min)
                high_edge = min(high_edge, self._max)
                if bin_count == 1 or high_edge <= low_edge:
                    return float(min(max(low_edge, self._min), self._max))
                fraction = (target - cumulative) / (bin_count - 1) if bin_count > 1 else 0.0
                return float(low_edge + (high_edge - low_edge) * min(1.0, fraction))
            cumulative += bin_count
        return self._max

    def summary(self):
        """A :class:`~repro.analysis.stats.LatencySummary` of the stream.

        Exact while in exact mode; estimated percentiles (exact mean/std/
        min/max/count) once binned.
        """
        from repro.analysis.stats import LatencySummary

        return LatencySummary.from_histogram(self)

    def relative_error_bound(self) -> float:
        """Approximate worst-case relative error versus the bracketing samples.

        In binned mode an estimate lands within this relative distance of the
        order statistics bracketing the queried rank (a bin spans a
        ``10**(1/bins_per_decade)`` ratio; the two bracketing samples can
        occupy adjacent bins, hence two bins' worth).  It is *not* a bound on
        the distance to :func:`numpy.percentile`'s interpolated quantile: when
        the bracketing samples straddle a large gap (bimodal data), the
        interpolated value lies between modes where no sample — and hence no
        bin — exists.  For unimodal/continuous latency distributions with
        interior ranks the two notions coincide in practice; callers
        comparing against numpy should still leave a small margin.
        """
        return 10.0 ** (2.0 / self.bins_per_decade) - 1.0

    def fraction_greater_than(self, threshold: float) -> float:
        """Estimated fraction of samples strictly greater than ``threshold``.

        Exact in exact mode; in binned mode the bin containing ``threshold``
        is apportioned linearly.
        """
        self._require_samples()
        threshold = float(threshold)
        if self._exact is not None:
            data = np.asarray(self._exact, dtype=float)
            return float(np.mean(data > threshold))
        if threshold < self._min:
            return 1.0
        if threshold >= self._max:
            return 0.0
        above = 0.0
        for key, bin_count in self._bins.items():
            low_edge = 10.0 ** (key / self.bins_per_decade)
            high_edge = 10.0 ** ((key + 1) / self.bins_per_decade)
            # Clamp to the observed range so the extreme bins do not leak mass
            # past the true min/max (mirrors _percentile_binned).
            low_edge = max(low_edge, self._min)
            high_edge = min(high_edge, self._max)
            if threshold <= low_edge:
                above += bin_count
            elif threshold < high_edge:
                above += bin_count * (high_edge - threshold) / (high_edge - low_edge)
        return above / self._count

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        mode = "exact" if self.is_exact else f"binned[{self.occupied_bins}]"
        return f"Histogram({self.name!r}, count={self._count}, mode={mode})"
