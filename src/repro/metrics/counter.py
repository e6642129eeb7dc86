"""Monotonic event counters.

A :class:`Counter` counts things — copies launched, cancellations, cache hits,
dropped packets.  Counters are deliberately minimal: an integer total plus an
increment count, so every substrate exposes the same shape of data in
cross-substrate comparison tables.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError


class Counter:
    """A monotonically increasing counter.

    Example:
        >>> c = Counter("cache_hits")
        >>> c.increment()
        >>> c.increment(4)
        >>> c.value
        5
    """

    def __init__(self, name: str = "counter") -> None:
        """Create a counter named ``name`` starting at zero."""
        self.name = str(name)
        self._value = 0
        self._increments = 0

    @property
    def value(self) -> int:
        """Current total."""
        return self._value

    @property
    def increments(self) -> int:
        """Number of :meth:`increment` calls (regardless of their amount)."""
        return self._increments

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (a non-negative integer) to the counter.

        Raises:
            ConfigurationError: If ``amount`` is negative (counters are
                monotonic; use two counters rather than decrementing one) or
                not an integer (use a histogram for fractional quantities).
        """
        if amount < 0:
            raise ConfigurationError(f"counters are monotonic; got amount {amount!r}")
        if int(amount) != amount:
            raise ConfigurationError(f"counters are integral; got amount {amount!r}")
        self._value += int(amount)
        self._increments += 1

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"
