"""Streaming percentile estimation in bounded memory.

A :class:`Histogram` ingests an unbounded stream of non-negative latency
samples and answers percentile queries without retaining the stream.  Two
regimes:

* **exact mode** — while the stream is short (``count <= exact_threshold``)
  every sample is kept and queries delegate to :func:`numpy.percentile`, so
  small experiments lose nothing;
* **binned mode** — past the threshold, samples are folded into fixed-width
  logarithmic bins (:data:`BINS_PER_DECADE` = 128 bins per factor of ten,
  the HdrHistogram idea).  Quantile estimates are then nearest-rank
  flavoured: each lands within roughly ``10**(2/128) - 1`` relative error of
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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.metrics._quantile import sorted_percentile

#: Log bins per factor of ten: ~1.8% per bin (~3.7% worst-case quantile
#: error versus numpy's interpolated quantiles).  Every positive double's
#: key then lies in [-41,384, 39,456], so one call's table of keys always
#: fits in 80,841 counts (647 KB).
BINS_PER_DECADE = 128

#: Samples kept verbatim before switching to binned mode.
DEFAULT_EXACT_THRESHOLD = 1024

#: Batches recorded together are checked and binned a block of about this
#: many samples at a time, which bounds the temporaries of a many-batch call.
_BIN_BLOCK = 4096

#: A single sample's bin key is recomputed with numpy's ``log10`` when
#: ``BINS_PER_DECADE * math.log10(sample)`` lies within this distance of an
#: integer.  Since ``|log10(x)| < 324`` for every positive double, that is
#: at least 1e-12 of the scaled value: far more than the two ulps by which
#: ``math.log10`` and numpy's differ, and so narrow that almost no sample
#: needs numpy.
_EDGE = 324e-12 * BINS_PER_DECADE


def as_samples(values: Iterable[float]) -> np.ndarray:
    """``values`` as a flat float array; a flat float array is not copied."""
    data = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    return data if data.ndim == 1 else data.ravel()


def sample_range(data: np.ndarray) -> Tuple[float, float]:
    """``(min, max)`` of a non-empty sample array.

    Raises:
        ConfigurationError: If a sample is negative or not finite (a NaN
            makes both extremes NaN, which fails the checks).
    """
    low, high = float(data.min()), float(data.max())
    if not (low >= 0.0 and high < math.inf):
        raise ConfigurationError("samples must be finite and >= 0")
    return low, high


def _blocks(batches: List[np.ndarray]) -> Iterator[Tuple[List[np.ndarray], int]]:
    """Runs of consecutive batches, each closed once it holds ``_BIN_BLOCK``
    samples, with their sample counts."""
    block: List[np.ndarray] = []
    size = 0
    for batch in batches:
        block.append(batch)
        size += batch.size
        if size >= _BIN_BLOCK:
            yield block, size
            block, size = [], 0
    if block:
        yield block, size


def _fold_numpy(moments: Any, block: List[np.ndarray]) -> None:
    """``fold_moments`` in numpy: each batch's sum, mean and M2 folded into
    ``moments`` in turn (Chan et al.), with the same double operations."""
    for data in block:
        # sum / size is numpy's own mean, bit for bit.
        total = float(data.sum())
        mean = total / data.size
        m2 = float(np.square(data - mean).sum())
        count = moments.count + data.size
        delta = mean - moments.mean
        moments.mean += delta * data.size / count
        moments.m2 += m2 + delta * delta * moments.count * data.size / count
        moments.count = count
        moments.sum += total


class _KeyTable:
    """The bin counts of one recording (``bin_table_t``), for the keys
    ``lo`` to ``lo + size - 1``, widened as keys arrive: :meth:`count`
    counts samples into it, and :meth:`merge_into` adds the counts to a
    histogram's bins.
    """

    def __init__(self, lib: Any) -> None:
        from repro.cluster._ckernels import BinTable

        self._lib = lib
        self._table = BinTable()
        self._counts = np.zeros(0, np.int64)

    def count(self, scaled: np.ndarray) -> None:
        """Count samples given as ``BINS_PER_DECADE * np.log10(sample)``
        (contiguous; a zero sample's is ``-inf``): one ``bin_counts`` call,
        or a second after widening, when the kernels load; otherwise
        ``np.floor`` and ``np.bincount``.

        Raises:
            RuntimeError: If ``bin_counts`` finds a key beyond +-2**62,
                which no finite sample has.
        """
        table = self._table
        if self._lib is None:
            keys = scaled[scaled != -math.inf]
            table.zeros += scaled.size - keys.size
            if keys.size:
                keys = np.floor(keys).astype(np.int64)
                self._fit(int(keys.min()), int(keys.max()))
                self._counts += np.bincount(keys - table.lo, minlength=table.size)
            return
        args = (table, scaled.ctypes.data, scaled.size)
        status = self._lib.bin_counts(*args)
        if status == 1:
            self._fit(table.least, table.most)
            status = self._lib.bin_counts(*args)
        if status != 0:
            raise RuntimeError("bin_counts found a bin key beyond +-2**62")

    def _fit(self, least: int, most: int) -> None:
        """Widen the table to hold the keys ``least`` to ``most`` too."""
        table = self._table
        lo, hi = least, most
        if table.size:
            lo, hi = min(lo, table.lo), max(hi, table.lo + table.size - 1)
        if (lo, hi - lo + 1) != (table.lo, table.size):
            counts = np.zeros(hi - lo + 1, np.int64)
            shift = table.lo - lo
            counts[shift : shift + table.size] = self._counts
            self._counts = counts
            table.lo, table.size, table.counts = lo, counts.size, counts.ctypes.data

    def merge_into(self, histogram: "Histogram") -> None:
        """Add the counts to ``histogram``'s bins and zero bucket."""
        histogram._zero_count += self._table.zeros
        occupied = np.flatnonzero(self._counts)
        keys = (occupied + self._table.lo).tolist()
        bins = histogram._bins
        size = len(bins)
        for key, count in zip(keys, self._counts[occupied].tolist()):
            bins[key] = bins.get(key, 0) + count
        if len(bins) != size:
            histogram._bin_keys_cache = None


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
        self, name: str = "histogram", exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    ) -> None:
        """Create an empty histogram.

        Args:
            name: Metric name (used by registries and snapshots).
            exact_threshold: Number of leading samples kept exactly before the
                histogram switches to bins.  ``0`` bins from the first sample.

        Raises:
            ConfigurationError: On a negative threshold.
        """
        if exact_threshold < 0:
            raise ConfigurationError(f"exact_threshold must be >= 0, got {exact_threshold!r}")
        self.name = str(name)
        self.exact_threshold = int(exact_threshold)
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
        elif value == 0.0:
            self._zero_count += 1
        else:
            scaled = BINS_PER_DECADE * math.log10(value)
            key = math.floor(scaled)
            if not _EDGE < scaled - key < 1.0 - _EDGE:
                # math.log10 and numpy's log10, which bins every batch, can
                # differ in the last ulp, and at a bin edge that picks the
                # neighbouring bin: there, the key is numpy's.
                key = math.floor(BINS_PER_DECADE * np.log10(value))
            if key not in self._bins:
                self._bin_keys_cache = None
            self._bins[key] = self._bins.get(key, 0) + 1

    def record_many(self, values: Iterable[float]) -> None:
        """Add a batch of samples (vectorised for numpy arrays)."""
        self.record_batches([values])

    def record_batches(self, batches: Iterable[Iterable[float]]) -> None:
        """Add several batches of samples, as one :meth:`record_many` per batch would.

        Every batch is checked before any is recorded, so one invalid sample
        records nothing.  Each batch's count, mean, M2 and sum are folded in
        turn, which keeps the moments bit-equal to the per-batch calls.  In
        exact mode a call that leaves the count within the threshold keeps
        its samples; any other call counts every sample by bin key (and
        :meth:`_spill_exact` bins those kept before), which fills the bins
        the per-batch calls fill.

        The batches go a block of about ``_BIN_BLOCK`` samples at a time:
        each block is joined into one buffer and checked, its moments are
        folded, and its ``BINS_PER_DECADE * np.log10`` is counted into a
        table of keys.  Everything is committed once the last block has
        passed its check.  The fold and the count are one ``fold_moments``
        and one ``bin_counts`` call when the compiled kernels load
        (:mod:`repro.cluster._ckernels`), and numpy passes otherwise; both
        give the same state.

        Raises:
            ConfigurationError: If any sample is negative or not finite.
        """
        arrays = [data for data in map(as_samples, batches) if data.size]
        if not arrays:
            return
        # Imported here: ``import repro`` loads this module, and importing
        # repro.cluster would add its whole package to that.
        from repro.cluster import _ckernels

        lib = _ckernels.load()
        sizes = np.fromiter((data.size for data in arrays), np.int64, len(arrays))
        sizes_at = sizes.ctypes.data
        keep = self._exact is not None and self._count + int(sizes.sum()) <= self.exact_threshold
        moments = _ckernels.Moments(self._count, self._mean, self._m2, self._sum)
        table = _KeyTable(lib)
        low, high = self._min, self._max
        # A block's samples are joined in `joined`; `scratch` holds their
        # squared deviations, then their scaled logs.
        joined = scratch = np.empty(0)
        start = 0
        with np.errstate(divide="ignore"):  # np.log10(0.0) is -inf, a zero sample
            for block, size in _blocks(arrays):
                if scratch.size < size:
                    joined, scratch = np.empty(size), np.empty(size)
                    joined_at, scratch_at = joined.ctypes.data, scratch.ctypes.data
                data = np.concatenate(block, out=joined[:size])
                block_low, block_high = sample_range(data)
                low, high = min(low, block_low), max(high, block_high)
                if lib is None:
                    _fold_numpy(moments, block)
                else:
                    lib.fold_moments(
                        moments, joined_at, sizes_at + 8 * start, len(block), scratch_at
                    )
                if not keep:
                    scaled = np.log10(data, out=scratch[:size])
                    table.count(np.multiply(scaled, BINS_PER_DECADE, out=scaled))
                start += len(block)
        self._count, self._mean, self._m2 = moments.count, moments.mean, moments.m2
        self._sum = moments.sum
        self._min, self._max = low, high
        if keep:
            for data in arrays:
                self._exact.extend(data.tolist())
            self._sorted_cache = None
            return
        if self._exact is not None:
            self._spill_exact()
        table.merge_into(self)

    def _spill_exact(self) -> None:
        """Switch from exact to binned mode, binning the retained samples.

        They are counted in numpy, which bins as ``bin_counts`` does: a
        histogram spills once, and :meth:`record` alone should not build
        the compiled kernels.
        """
        assert self._exact is not None
        samples = np.asarray(self._exact, dtype=float)
        self._exact = None
        self._sorted_cache = None
        table = _KeyTable(None)
        with np.errstate(divide="ignore"):
            scaled = BINS_PER_DECADE * np.log10(samples)
        table.count(scaled)
        table.merge_into(self)

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
        cumulative = 0
        if self._zero_count:
            cumulative = self._zero_count
            if target < cumulative:
                return 0.0
        for key in self._sorted_keys():
            bin_count = self._bins[key]
            if target < cumulative + bin_count:
                low_edge = 10.0 ** (key / BINS_PER_DECADE)
                high_edge = 10.0 ** ((key + 1) / BINS_PER_DECADE)
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

    def _sorted_keys(self) -> List[int]:
        """The occupied bins' keys, ascending (cached until a new key arrives)."""
        if self._bin_keys_cache is None:
            self._bin_keys_cache = sorted(self._bins)
        return self._bin_keys_cache

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
        ``10**(1/BINS_PER_DECADE)`` ratio; the two bracketing samples can
        occupy adjacent bins, hence two bins' worth).  It is *not* a bound on
        the distance to :func:`numpy.percentile`'s interpolated quantile: when
        the bracketing samples straddle a large gap (bimodal data), the
        interpolated value lies between modes where no sample — and hence no
        bin — exists.  For unimodal/continuous latency distributions with
        interior ranks the two notions coincide in practice; callers
        comparing against numpy should still leave a small margin.
        """
        return 10.0 ** (2.0 / BINS_PER_DECADE) - 1.0

    def fraction_greater_than(self, threshold: float) -> float:
        """Estimated fraction of samples strictly greater than ``threshold``.

        Exact in exact mode; in binned mode the bin containing ``threshold``
        is apportioned linearly, and the bins are summed in ascending key
        order, so equal bins give equal bits whatever order they were
        filled in.
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
        for key in self._sorted_keys():
            bin_count = self._bins[key]
            low_edge = 10.0 ** (key / BINS_PER_DECADE)
            high_edge = 10.0 ** ((key + 1) / BINS_PER_DECADE)
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
