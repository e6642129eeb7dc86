"""A namespace of metrics shared by one experiment or component.

Every substrate creates (or is handed) a :class:`MetricsRegistry` and records
through it, which is what makes cross-substrate comparison tables possible:
the queueing model, the storage cluster, the fat-tree network and the WAN
experiments all expose counters and latency distributions with the same names
and shapes.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Union

from repro.exceptions import ConfigurationError
from repro.metrics.counter import Counter
from repro.metrics.histogram import Histogram
from repro.metrics.recorder import LatencyRecorder

Metric = Union[Counter, Histogram, LatencyRecorder]


class MetricsRegistry:
    """Named counters, histograms and latency recorders.

    Accessors are get-or-create: the first call for a name creates the metric,
    later calls return the same object; asking for an existing name as a
    different kind is an error.  Configuration keyword arguments apply only at
    creation — later calls return the existing metric as configured (except a
    recorder ``mode`` conflict, which raises, because silently returning an
    exact recorder to a caller expecting bounded memory would be a trap).

    Example:
        >>> registry = MetricsRegistry("cluster")
        >>> registry.counter("cache_hits").increment(3)
        >>> registry.counter("cache_hits").value
        3
    """

    def __init__(self, name: str = "metrics") -> None:
        """Create an empty registry named ``name``."""
        self.name = str(name)
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------ #

    def _get_or_create(self, name: str, kind: type, factory) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def histogram(self, name: str, **kwargs) -> Histogram:
        """The histogram called ``name`` (created on first use with ``kwargs``)."""
        return self._get_or_create(name, Histogram, lambda: Histogram(name, **kwargs))

    def recorder(self, name: str, mode: str = "exact", **kwargs) -> LatencyRecorder:
        """The latency recorder called ``name`` (created on first use).

        Raises:
            ConfigurationError: If the recorder exists with a different
                ``mode`` (exact vs streaming have different memory contracts;
                use :meth:`get` to fetch it regardless).
        """
        recorder = self._get_or_create(
            name, LatencyRecorder, lambda: LatencyRecorder(name, mode=mode, **kwargs)
        )
        if recorder.mode != mode:
            raise ConfigurationError(
                f"recorder {name!r} already registered with mode={recorder.mode!r}, "
                f"not {mode!r}"
            )
        return recorder

    # ------------------------------------------------------------------ #

    def get(self, name: str) -> Optional[Metric]:
        """The metric called ``name``, or ``None``."""
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view of every metric, for tables and logging.

        Counters become their integer value; histograms and recorders become
        their summary row (or ``None`` when empty).
        """
        out: Dict[str, object] = {}
        for name in self:
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, (Histogram, LatencyRecorder)):
                out[name] = metric.summary().as_row() if metric.count else None
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({self.name!r}, metrics={len(self._metrics)})"
