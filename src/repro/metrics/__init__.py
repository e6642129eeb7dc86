"""Unified streaming metrics for every substrate.

Every experiment in this repository is judged on latency distributions —
means, medians, p99/p99.9, fraction-late.  This package is the one way those
distributions (and the counters beside them: copies launched, cancellations,
cache hits, dropped packets) are collected:

* :class:`Counter` — monotonic event counts.
* :class:`Histogram` — streaming percentile estimator: exact up to a
  threshold, fixed-resolution log bins beyond it, O(1)-amortised queries at
  any stream length.
* :class:`SlidingWindow` — exact percentiles over the last N samples with an
  incrementally maintained sorted view (the adaptive-hedging hot path).
* :class:`LatencyRecorder` — the facade substrates record through; produces
  :class:`~repro.analysis.stats.LatencySummary` objects in either exact or
  streaming mode, so result tables cannot tell the difference.
* :class:`MetricsRegistry` — a get-or-create namespace of all of the above.
"""

from repro.metrics.counter import Counter
from repro.metrics.histogram import (
    DEFAULT_BINS_PER_DECADE,
    DEFAULT_EXACT_THRESHOLD,
    Histogram,
)
from repro.metrics.recorder import LatencyRecorder
from repro.metrics.registry import MetricsRegistry
from repro.metrics.window import SlidingWindow

__all__ = [
    "Counter",
    "Histogram",
    "SlidingWindow",
    "LatencyRecorder",
    "MetricsRegistry",
    "DEFAULT_BINS_PER_DECADE",
    "DEFAULT_EXACT_THRESHOLD",
]
