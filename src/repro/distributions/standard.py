"""Standard continuous distributions.

All distributions are non-negative; each documents its parameterisation so the
analytic moments used by the queueing approximations are unambiguous.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.distributions.base import ArrayOrFloat, Distribution
from repro.exceptions import DistributionError


class Deterministic(Distribution):
    """A point mass: every sample equals ``value``.

    The paper uses this as the conjectured worst case for replication
    (threshold load ≈ 25.8% under Poisson arrivals).
    """

    def __init__(self, value: float = 1.0) -> None:
        """Create a point mass at ``value`` (> 0)."""
        if value <= 0:
            raise DistributionError(f"value must be positive, got {value!r}")
        self.value = float(value)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayOrFloat:
        if size is None:
            return self.value
        return np.full(size, self.value)

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0


class Exponential(Distribution):
    """Exponential distribution with the given ``mean`` (rate = 1/mean).

    The analytically tractable case of Theorem 1: with exponential service the
    threshold load is exactly 1/3.
    """

    def __init__(self, mean: float = 1.0) -> None:
        """Create an exponential distribution with mean ``mean`` (> 0)."""
        if mean <= 0:
            raise DistributionError(f"mean must be positive, got {mean!r}")
        self._mean = float(mean)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayOrFloat:
        return rng.exponential(self._mean, size)

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._mean**2


class Pareto(Distribution):
    """Pareto (Type I) distribution with tail index ``alpha`` and scale ``xm``.

    ``P(X > x) = (xm / x)^alpha`` for ``x >= xm``.  The mean is finite only
    for ``alpha > 1`` and the variance only for ``alpha > 2``; the paper's
    Figure 1(b) uses ``alpha = 2.1`` (finite but large variance).
    """

    def __init__(self, alpha: float, xm: Optional[float] = None, mean: Optional[float] = None) -> None:
        """Create a Pareto distribution.

        Exactly one of ``xm`` (scale) or ``mean`` must be given; when ``mean``
        is given the scale is derived as ``xm = mean · (alpha - 1) / alpha``.

        Raises:
            DistributionError: If ``alpha <= 1`` (infinite mean) or both/none
                of ``xm`` and ``mean`` are provided.
        """
        if alpha <= 1:
            raise DistributionError(
                f"alpha must be > 1 for a finite mean, got {alpha!r}"
            )
        if (xm is None) == (mean is None):
            raise DistributionError("provide exactly one of xm or mean")
        self.alpha = float(alpha)
        if xm is not None:
            if xm <= 0:
                raise DistributionError(f"xm must be positive, got {xm!r}")
            self.xm = float(xm)
        else:
            assert mean is not None
            if mean <= 0:
                raise DistributionError(f"mean must be positive, got {mean!r}")
            self.xm = float(mean) * (self.alpha - 1.0) / self.alpha

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayOrFloat:
        # numpy's pareto() is the Lomax distribution (Pareto II shifted to 0);
        # (1 + Lomax) * xm is a Pareto I sample with scale xm.
        return (1.0 + rng.pareto(self.alpha, size)) * self.xm

    def mean(self) -> float:
        return self.alpha * self.xm / (self.alpha - 1.0)

    def variance(self) -> float:
        if self.alpha <= 2:
            return math.inf
        a = self.alpha
        return self.xm**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def tail_index(self) -> float:
        """The regular-variation tail index (used by the heavy-tail analytics)."""
        return self.alpha


class Weibull(Distribution):
    """Weibull distribution with shape ``k`` and scale ``lam``.

    ``P(X > x) = exp(-(x/lam)^k)``.  Shapes below 1 are heavy-tailed (in the
    stretched-exponential sense) and are the family used in Figure 2(a).
    """

    def __init__(self, shape: float, scale: float = 1.0) -> None:
        """Create a Weibull distribution with the given shape and scale (> 0)."""
        if shape <= 0 or scale <= 0:
            raise DistributionError(
                f"shape and scale must be positive, got {shape!r}, {scale!r}"
            )
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayOrFloat:
        return self.scale * rng.weibull(self.shape, size)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)


class Erlang(Distribution):
    """Erlang distribution: sum of ``k`` i.i.d. exponentials (low variance).

    Its squared coefficient of variation is ``1/k < 1``, making it the
    standard light-tailed test case for the Myers–Vernon approximation.
    """

    def __init__(self, k: int, mean: float = 1.0) -> None:
        """Create an Erlang-``k`` distribution with the given overall mean."""
        if k < 1 or int(k) != k:
            raise DistributionError(f"k must be a positive integer, got {k!r}")
        if mean <= 0:
            raise DistributionError(f"mean must be positive, got {mean!r}")
        self.k = int(k)
        self._mean = float(mean)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayOrFloat:
        return rng.gamma(self.k, self._mean / self.k, size)

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._mean**2 / self.k


class HyperExponential(Distribution):
    """Mixture of exponentials (high variance, CV^2 > 1).

    With probability ``probs[i]`` a sample is exponential with mean
    ``means[i]``.  Used as the standard light-tailed-but-variable test case.
    """

    def __init__(self, probs: Sequence[float], means: Sequence[float]) -> None:
        """Create a hyperexponential mixture.

        Args:
            probs: Mixture weights (non-negative, summing to 1 within 1e-9).
            means: Branch means, one per weight, all positive.
        """
        if len(probs) != len(means) or not probs:
            raise DistributionError("probs and means must be equal-length, non-empty")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise DistributionError(f"probs must be non-negative and sum to 1, got {probs!r}")
        if any(m <= 0 for m in means):
            raise DistributionError(f"all branch means must be positive, got {means!r}")
        self.probs = np.asarray(probs, dtype=float)
        self.means = np.asarray(means, dtype=float)

    @classmethod
    def from_mean_cv2(cls, mean: float, cv2: float) -> "HyperExponential":
        """Two-branch balanced-means hyperexponential with the given mean and CV^2.

        Requires ``cv2 >= 1`` (a hyperexponential cannot have less variability
        than an exponential).
        """
        if cv2 < 1.0:
            raise DistributionError(f"hyperexponential requires cv2 >= 1, got {cv2!r}")
        if cv2 == 1.0:
            return cls([1.0], [mean])
        p = 0.5 * (1.0 + math.sqrt((cv2 - 1.0) / (cv2 + 1.0)))
        m1 = mean / (2.0 * p)
        m2 = mean / (2.0 * (1.0 - p))
        return cls([p, 1.0 - p], [m1, m2])

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> ArrayOrFloat:
        n = 1 if size is None else int(size)
        branches = rng.choice(len(self.probs), size=n, p=self.probs)
        values = rng.exponential(self.means[branches])
        if size is None:
            return float(values[0])
        return values

    def mean(self) -> float:
        return float(np.dot(self.probs, self.means))

    def variance(self) -> float:
        second = float(np.dot(self.probs, 2.0 * self.means**2))
        return second - self.mean() ** 2
