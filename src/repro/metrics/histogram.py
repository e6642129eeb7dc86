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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.metrics._quantile import sorted_percentile

#: Resolution of the default binning: ~1.8% per bin (~3.7% worst-case
#: quantile error versus numpy's interpolated quantiles).
DEFAULT_BINS_PER_DECADE = 128

#: Samples kept verbatim before switching to binned mode.
DEFAULT_EXACT_THRESHOLD = 1024

#: Batches recorded together are checked and binned a block of about this
#: many samples at a time (one numpy pass each, or one ``fold_moments`` and
#: one ``bin_counts`` call with the compiled kernels), which bounds the
#: temporaries of a many-batch call.
_BIN_BLOCK = 4096

#: A single sample's bin key is recomputed with numpy's ``log10`` when
#: ``bins_per_decade * math.log10(sample)`` lies within this many times
#: ``bins_per_decade`` of an integer.  Since ``|log10(x)| < 324`` for every
#: positive double, that is at least 1e-12 of the scaled value: far more
#: than the two ulps by which ``math.log10`` and numpy's differ, and so
#: narrow that almost no sample needs numpy.
_EDGE_MARGIN = 324e-12

#: The widest range of bin keys the compiled path counts in its dense table
#: (two 64-bit words a key); a call whose keys span more runs in numpy.
_MAX_BIN_SPAN = 1 << 16


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


def _blocks(batches: List[np.ndarray]) -> Iterator[List[np.ndarray]]:
    """Runs of consecutive batches, each closed once it holds ``_BIN_BLOCK`` samples."""
    block: List[np.ndarray] = []
    size = 0
    for batch in batches:
        block.append(batch)
        size += batch.size
        if size >= _BIN_BLOCK:
            yield block
            block, size = [], 0
    if block:
        yield block


class _KeyTable:
    """The compiled path's bin table (``bin_table_t``) over one
    :meth:`Histogram.record_batches` call, widened as keys arrive:
    :meth:`count` counts batches into it, and :meth:`merge_into` adds the
    counts to a histogram's bins.
    """

    def __init__(self, lib: Any) -> None:
        from repro.cluster._ckernels import BinTable

        self._lib = lib
        self._table = BinTable()
        self._counts = self._first = np.zeros(0, np.int64)

    def count(self, scaled_at: int, sizes_at: int, start: int, batches: int) -> bool:
        """Count the call's batches ``start`` to ``start + batches - 1``,
        whose sizes are at address ``sizes_at`` and their samples'
        ``bins_per_decade * np.log10`` at ``scaled_at``; ``False``, counting
        nothing, if the call's keys would span more than ``_MAX_BIN_SPAN``
        bins or one is beyond +-2**62."""
        table = self._table
        args = (table, scaled_at, sizes_at, batches, start)
        status = self._lib.bin_counts(*args)
        if status == 1:
            lo, hi = table.least, table.most
            if table.size:
                lo, hi = min(lo, table.lo), max(hi, table.lo + table.size - 1)
            if hi - lo >= _MAX_BIN_SPAN:
                return False
            self._counts, self._first = (
                _widen(array, table.lo - lo, hi - lo + 1) for array in (self._counts, self._first)
            )
            table.lo, table.size = lo, hi - lo + 1
            table.counts, table.first = self._counts.ctypes.data, self._first.ctypes.data
            status = self._lib.bin_counts(*args)
        return status == 0

    def merge_into(self, histogram: "Histogram") -> None:
        """Add the counts to ``histogram``'s bins and zero bucket, its new
        bins ordered by the batch each first occurs in, then by key."""
        histogram._zero_count += self._table.zeros
        occupied = np.flatnonzero(self._counts)
        keys = (occupied + self._table.lo).tolist()
        bins = histogram._bins
        firsts = self._first[occupied].tolist()
        new = sorted((first, key) for first, key in zip(firsts, keys) if key not in bins)
        if new:
            histogram._bin_keys_cache = None
        for _first, key in new:
            bins[key] = 0
        for key, count in zip(keys, self._counts[occupied].tolist()):
            bins[key] += count


def _widen(array: np.ndarray, shift: int, size: int) -> np.ndarray:
    """``array`` moved ``shift`` places into ``size`` zeros."""
    wide = np.zeros(size, np.int64)
    wide[shift : shift + array.size] = array
    return wide


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
        self._edge = _EDGE_MARGIN * self.bins_per_decade

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
            scaled = self.bins_per_decade * math.log10(value)
            key = math.floor(scaled)
            if not self._edge < scaled - key < 1.0 - self._edge:
                # math.log10 and numpy's log10, which bins every batch, can
                # differ in the last ulp, and at a bin edge that picks the
                # neighbouring bin: there, the key is numpy's.
                key = math.floor(self.bins_per_decade * np.log10(value))
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
        turn, which keeps the moments bit-equal to the per-batch calls.  The
        samples are binned a block of batches at a time; the bins, and the
        order in which new ones enter ``_bins``, match the per-batch calls.

        When the compiled kernels load (:mod:`repro.cluster._ckernels`),
        each block is one ``fold_moments`` and one ``bin_counts`` call, on
        the block's ``bins_per_decade * np.log10`` computed by numpy, into a
        bin table that is merged into ``_bins`` once the last block has
        passed its check.  Without them, and when the keys would span more
        than ``_MAX_BIN_SPAN`` bins, the numpy loop runs.  Both give the
        same state.

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
        if lib is None or not self._record_compiled(lib, arrays):
            self._record_numpy(arrays)

    def _record_compiled(self, lib: Any, arrays: List[np.ndarray]) -> bool:
        """:meth:`record_batches` of non-empty ``arrays`` on the compiled
        kernels; ``False``, recording nothing, if the keys span too many bins.

        Everything is computed into locals, which are committed once the
        last block has passed :func:`sample_range`.  In exact mode the
        batches up to the spill are kept exactly, and :meth:`_spill_exact`
        bins them before the table's bins, which hold the batches after it.
        """
        from repro.cluster._ckernels import Moments

        sizes = np.fromiter((data.size for data in arrays), np.int64, len(arrays))
        sizes_at = sizes.ctypes.data
        ends = np.zeros(len(arrays) + 1, np.int64)  # ends[i]: the samples before batch i
        np.cumsum(sizes, out=ends[1:])
        # The batches before `binned` are kept exactly: in exact mode, those
        # up to the one after which the count first exceeds the threshold
        # (every batch, if none does).
        binned = 0
        if self._exact is not None:
            spill = int(ends[1:].searchsorted(self.exact_threshold - self._count, "right"))
            binned = min(spill + 1, len(arrays))
        moments = Moments(self._count, self._mean, self._m2, self._sum)
        table = _KeyTable(lib)
        low, high = self._min, self._max
        # A block's samples are joined in `joined`; `scratch` holds their
        # squared deviations, then their scaled logs.
        joined = scratch = np.empty(0)
        start = 0
        with np.errstate(divide="ignore"):  # np.log10(0.0) is -inf, a zero sample
            for block in _blocks(arrays):
                stop = start + len(block)
                size = int(ends[stop] - ends[start])
                if scratch.size < size:
                    joined, scratch = np.empty(size), np.empty(size)
                    joined_at, scratch_at = joined.ctypes.data, scratch.ctypes.data
                data = np.concatenate(block, out=joined[:size])
                block_low, block_high = sample_range(data)
                low, high = min(low, block_low), max(high, block_high)
                lib.fold_moments(moments, joined_at, sizes_at + 8 * start, len(block), scratch_at)
                first = max(binned, start)
                if first < stop:
                    scaled = scratch[: int(ends[stop] - ends[first])]
                    np.log10(data[int(ends[first] - ends[start]) :], out=scaled)
                    np.multiply(scaled, self.bins_per_decade, out=scaled)
                    if not table.count(scratch_at, sizes_at + 8 * first, first, stop - first):
                        return False
                start = stop
        self._count, self._mean, self._m2 = moments.count, moments.mean, moments.m2
        self._sum = moments.sum
        self._min, self._max = low, high
        if self._exact is not None:
            for data in arrays[:binned]:
                self._exact.extend(data.tolist())
            self._sorted_cache = None
            if self._count <= self.exact_threshold:
                return True
            self._spill_exact()
        table.merge_into(self)
        return True

    def _record_numpy(self, arrays: List[np.ndarray]) -> None:
        """:meth:`record_batches` of non-empty ``arrays`` in numpy passes."""
        ranges = [
            sample_range(block[0] if len(block) == 1 else np.concatenate(block))
            for block in _blocks(arrays)
        ]
        spill = None
        for index, data in enumerate(arrays):
            # sum / size is numpy's own mean, bit for bit.
            total = float(data.sum())
            batch_mean = total / data.size
            batch_m2 = float(np.square(data - batch_mean).sum())
            self._combine_moments(int(data.size), batch_mean, batch_m2)
            self._sum += total
            if spill is None and self._exact is not None and self._count > self.exact_threshold:
                spill = index
        self._min = min(self._min, min(low for low, _high in ranges))
        self._max = max(self._max, max(high for _low, high in ranges))
        if self._exact is not None:
            kept = len(arrays) if spill is None else spill + 1
            for data in arrays[:kept]:
                self._exact.extend(data.tolist())
            self._sorted_cache = None
            if spill is None:
                return
            self._spill_exact()
            arrays = arrays[kept:]
        self._bin_batches(arrays)

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
        self._bin_batches([samples])

    def _bin_batches(self, batches: List[np.ndarray]) -> None:
        """Bin each batch as if alone, a block of batches per numpy pass.

        A batch alone adds its new bins to ``_bins`` in key order, and
        :meth:`fraction_greater_than` sums the bins in that dict order.  So
        a block adds its new bins ordered by the batch each first occurs
        in, then by key.
        """
        bins = self._bins
        for block in _blocks(batches):
            data = block[0] if len(block) == 1 else np.concatenate(block)
            self._zero_count += int(np.count_nonzero(data == 0.0))
            positive = data > 0.0
            keys = np.floor(self.bins_per_decade * np.log10(data[positive])).astype(np.int64)
            if keys.size == 0:
                continue
            unique, counts = np.unique(keys, return_counts=True)
            new = [key for key in unique.tolist() if key not in bins]
            if len(block) > 1 and len(new) > 1:
                ends = np.cumsum([batch.size for batch in block])
                where = np.flatnonzero(positive)

                def first_batch(key: int) -> Tuple[int, int]:
                    first = where[np.argmax(keys == key)]
                    return int(np.searchsorted(ends, first, side="right")), key

                new.sort(key=first_batch)
            if new:
                self._bin_keys_cache = None
            for key in new:
                bins[key] = 0
            for key, count in zip(unique.tolist(), counts.tolist()):
                bins[key] += count

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
