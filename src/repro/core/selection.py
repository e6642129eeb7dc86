"""Backend selection for :class:`~repro.core.hedging.RedundantClient`.

The client asks a :class:`SelectionStrategy` which backends receive each
request's copies.  The default, :class:`UniformRandom`, is the Section 2.1
placement: ``k`` distinct servers chosen uniformly at random.  The substrates
place copies themselves: the storage cluster by consistent hashing
(:mod:`repro.cluster.consistent_hash`) and the DNS experiment by measured
server ranking (:mod:`repro.wan.dns`).
"""

from __future__ import annotations

import abc
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError


class SelectionStrategy(abc.ABC):
    """Chooses which of ``num_backends`` backends receive the request copies."""

    @abc.abstractmethod
    def choose(self, num_backends: int, copies: int) -> List[int]:
        """Return ``copies`` distinct backend indices for one request.

        Args:
            num_backends: Total number of available backends.
            copies: Number of copies to place (``1 <= copies <= num_backends``).
        """


class UniformRandom(SelectionStrategy):
    """``copies`` distinct backends chosen uniformly at random (Section 2.1)."""

    def __init__(self, seed: Optional[int] = None) -> None:
        """Create the strategy with an optional seed for reproducibility."""
        self._rng = np.random.default_rng(seed)

    def choose(self, num_backends: int, copies: int) -> List[int]:
        if num_backends < 1:
            raise ConfigurationError(f"num_backends must be >= 1, got {num_backends!r}")
        if not 1 <= copies <= num_backends:
            raise ConfigurationError(
                f"copies must be in [1, {num_backends}], got {copies!r}"
            )
        return [int(i) for i in self._rng.choice(num_backends, size=copies, replace=False)]
