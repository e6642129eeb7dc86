"""Exact percentiles over a sliding window of recent samples.

Adaptive policies (hedge-at-the-95th-percentile) need percentiles of the last
``N`` observations, queried after nearly every record.  Re-sorting the window
per query is O(N log N); :class:`SlidingWindow` instead maintains the sorted
view incrementally — one binary-search insertion (and one deletion once the
window is full) per record — making every percentile query an O(1) index
lookup.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Deque, List

from repro.exceptions import ConfigurationError
from repro.metrics._quantile import sorted_percentile


class SlidingWindow:
    """The last ``capacity`` samples, with O(1) exact percentile queries.

    Example:
        >>> w = SlidingWindow(3)
        >>> for v in (1.0, 2.0, 3.0, 4.0):
        ...     w.record(v)
        >>> len(w), w.percentile(0), w.percentile(100)
        (3, 2.0, 4.0)
    """

    def __init__(self, capacity: int) -> None:
        """Track at most ``capacity`` (>= 1) most recent samples."""
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self._order: Deque[float] = deque()
        self._sorted: List[float] = []

    def record(self, value: float) -> None:
        """Add one sample, evicting the oldest once the window is full.

        Raises:
            ConfigurationError: If ``value`` is not finite.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ConfigurationError(f"samples must be finite, got {value!r}")
        self._order.append(value)
        bisect.insort(self._sorted, value)
        if len(self._order) > self.capacity:
            oldest = self._order.popleft()
            del self._sorted[bisect.bisect_left(self._sorted, oldest)]

    def __len__(self) -> int:
        return len(self._order)

    def values(self) -> List[float]:
        """The retained samples in arrival order (oldest first)."""
        return list(self._order)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) with linear interpolation.

        Matches :func:`numpy.percentile` on the retained window, but costs one
        index lookup instead of a sort.

        Raises:
            ConfigurationError: If the window is empty or ``q`` out of range.
        """
        self._require_samples()
        return sorted_percentile(self._sorted, q)

    def _require_samples(self) -> None:
        if not self._order:
            raise ConfigurationError("no samples recorded yet")

    def __repr__(self) -> str:
        return f"SlidingWindow(capacity={self.capacity}, size={len(self._order)})"
