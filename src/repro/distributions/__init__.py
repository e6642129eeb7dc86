"""Probability distributions for service times, file sizes and flow sizes.

Every distribution implements the small :class:`~repro.distributions.base.Distribution`
interface (sampling plus exact first and second moments where they exist),
which lets the queueing analytics (Pollaczek–Khinchine, Myers–Vernon,
heavy-tail approximations) and the simulators consume the same objects.

The module also provides the three unit-mean *families* the paper sweeps in
Figure 2 (Weibull, Pareto and a two-point discrete family, each parameterised
so variance grows from 0 to infinity along the x-axis), the random unit-mean
discrete distributions of Figure 3, and the datacenter flow-size mix of
Section 2.4.
"""

from repro.distributions.base import Distribution, ScaledDistribution
from repro.distributions.standard import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    Pareto,
    Weibull,
)
from repro.distributions.discrete import (
    DiscreteDistribution,
    TwoPoint,
    random_unit_mean_discrete,
)
from repro.distributions.families import (
    pareto_family,
    two_point_family,
    weibull_family,
)
from repro.distributions.datacenter import DataCenterFlowSizes

__all__ = [
    "Distribution",
    "ScaledDistribution",
    "Deterministic",
    "Exponential",
    "Pareto",
    "Weibull",
    "Erlang",
    "HyperExponential",
    "DiscreteDistribution",
    "TwoPoint",
    "random_unit_mean_discrete",
    "weibull_family",
    "pareto_family",
    "two_point_family",
    "DataCenterFlowSizes",
]
