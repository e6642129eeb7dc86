"""The facade every substrate records latencies through.

A :class:`LatencyRecorder` hides the choice between keeping every sample
(exact summaries, what small experiment runs want) and streaming into a
bounded :class:`~repro.metrics.histogram.Histogram` (what production-scale
runs want), behind one interface that produces
:class:`~repro.analysis.stats.LatencySummary` objects either way — so result
tables and benchmarks cannot tell the difference.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import LatencySummary, summarize
from repro.exceptions import ConfigurationError
from repro.metrics.histogram import Histogram, as_samples, sample_range

#: Recording modes accepted by :class:`LatencyRecorder`.
MODES = ("exact", "streaming")


class LatencyRecorder:
    """Record response times; emit summaries, percentiles and tail fractions.

    Args:
        name: Metric name.
        mode: ``"exact"`` retains every sample and summarises with numpy
            (bit-identical to the pre-metrics ad-hoc paths); ``"streaming"``
            folds samples into a bounded histogram and summarises from it.

    Example:
        >>> r = LatencyRecorder("demo")
        >>> r.record_many([0.1, 0.2, 0.3])
        >>> r.summary().count
        3
    """

    def __init__(self, name: str = "latency", mode: str = "exact") -> None:
        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        self.name = str(name)
        self.mode = mode
        self._chunks: List[np.ndarray] = []
        self._pending: List[float] = []
        self._count = 0
        self._summary_cache: Optional[LatencySummary] = None
        self._histogram: Optional[Histogram] = None
        if mode == "streaming":
            self._histogram = Histogram(name=f"{name}.hist")

    @classmethod
    def from_samples(cls, samples: Sequence[float], name: str = "latency") -> "LatencyRecorder":
        """An exact recorder pre-loaded with ``samples``."""
        recorder = cls(name=name, mode="exact")
        recorder.record_many(samples)
        return recorder

    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        if self.mode == "exact":
            return self._count
        return self._histogram.count

    @property
    def histogram(self) -> Optional[Histogram]:
        """The backing histogram (streaming mode only)."""
        return self._histogram

    def record(self, value: float) -> None:
        """Record one response time (finite, >= 0)."""
        self._summary_cache = None
        if self.mode == "exact":
            value = float(value)
            if not np.isfinite(value) or value < 0:
                raise ConfigurationError(f"samples must be finite and >= 0, got {value!r}")
            self._pending.append(value)
            self._count += 1
        else:
            self._histogram.record(value)

    def record_many(self, values: Iterable[float]) -> None:
        """Record a batch of response times.

        A float numpy array is stored as-is (no copy) — the recorder takes
        ownership of it; do not mutate it afterwards.
        """
        self.record_batches([values])

    def record_batches(self, batches: Iterable[Iterable[float]]) -> None:
        """Record several batches in one call, as one :meth:`record_many` per
        batch would.

        Every batch is checked before any is recorded, so one invalid sample
        records nothing.  Float arrays are taken over as in
        :meth:`record_many`.
        """
        self._summary_cache = None
        if self.mode == "streaming":
            self._histogram.record_batches(batches)
            return
        arrays = [data for data in map(as_samples, batches) if data.size]
        for data in arrays:
            sample_range(data)
        if arrays:
            self._flush_pending()
            self._chunks.extend(arrays)
            self._count += sum(data.size for data in arrays)

    def _flush_pending(self) -> None:
        """Move singly-recorded samples into the chunk list, keeping order."""
        if self._pending:
            self._chunks.append(np.asarray(self._pending, dtype=float))
            self._pending = []

    # ------------------------------------------------------------------ #

    def samples(self) -> np.ndarray:
        """Every recorded sample (exact mode only).

        Raises:
            ConfigurationError: In streaming mode, which does not retain
                samples (use :meth:`summary`/:meth:`percentile` instead).
        """
        if self.mode != "exact":
            raise ConfigurationError("streaming recorders do not retain raw samples")
        self._flush_pending()
        if not self._chunks:
            return np.empty(0, dtype=float)
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    def summary(self) -> LatencySummary:
        """A :class:`LatencySummary` of everything recorded so far.

        Cached between records, so a run that reads its summary several times
        (result object, registry snapshot, tables) sorts the samples once.

        Raises:
            ConfigurationError: If nothing has been recorded.
        """
        if self.mode == "streaming":
            # Not cached: queries are already O(occupied bins), and the
            # backing histogram (the ``histogram`` property) may be recorded
            # into directly.
            return LatencySummary.from_histogram(self._histogram)
        if self._summary_cache is None:
            self._summary_cache = summarize(self.samples())
        return self._summary_cache

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of everything recorded so far."""
        if self.mode == "exact":
            data = self.samples()
            if data.size == 0:
                raise ConfigurationError("no samples recorded yet")
            if not 0.0 <= q <= 100.0:
                raise ConfigurationError(f"q must be in [0, 100], got {q!r}")
            return float(np.percentile(data, q))
        return self._histogram.percentile(q)

    def mean(self) -> float:
        """Mean of everything recorded so far."""
        if self.mode == "exact":
            data = self.samples()
            if data.size == 0:
                raise ConfigurationError("no samples recorded yet")
            return float(data.mean())
        return self._histogram.mean()

    def fraction_later_than(self, threshold: float) -> float:
        """Fraction of recorded samples strictly greater than ``threshold``."""
        if self.mode == "exact":
            data = self.samples()
            if data.size == 0:
                raise ConfigurationError("no samples recorded yet")
            return float(np.mean(data > threshold))
        return self._histogram.fraction_greater_than(threshold)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"LatencyRecorder({self.name!r}, mode={self.mode!r}, count={self.count})"
