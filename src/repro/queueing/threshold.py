"""Threshold-load computation.

The *threshold load* is the paper's central metric (Section 2.1): the largest
per-server utilisation below which replicating every request reduces the mean
response time.  Three ways of computing it are provided:

* :func:`threshold_load` — simulation-based search using the model's fast
  path (``run_fast``) with common random numbers across the replicated and
  unreplicated runs.
* :func:`threshold_load_approximation` — the two-moment (Myers–Vernon-style)
  response-time approximation of :mod:`repro.queueing.mg1`, suitable for
  light-tailed service times.
* :func:`repro.queueing.mm1.mm1_threshold_load` — the exact value for
  exponential service (Theorem 1).

The paper's key empirical facts this module reproduces: the threshold is
always in the 25–50% band, approaches 50% for very variable service times,
and is ≈25.8% in the conjectured worst case (deterministic service).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policy import PolicyLike, eager_copies, parse_policy
from repro.distributions.base import Distribution
from repro.exceptions import ConfigurationError
from repro.queueing.mg1 import (
    expected_minimum_response,
    pollaczek_khinchine_wait,
    two_moment_response_survival,
)
from repro.queueing.replication_model import ReplicatedQueueingModel

#: The paper's simulation estimate of the threshold load with deterministic
#: service times (the conjectured worst case), "slightly less than 26% — more
#: precisely, ≈ 25.82%".
DETERMINISTIC_THRESHOLD_ESTIMATE: float = 0.2582

#: No service-time distribution can have a threshold above 50%: beyond that,
#: 2-copy replication would push utilisation past 100%.
THRESHOLD_UPPER_BOUND: float = 0.5


def replication_benefit_at(
    service: Distribution,
    load: float,
    copies: Optional[int] = None,
    num_servers: int = 10,
    num_requests: int = 40_000,
    client_overhead: float = 0.0,
    seed: int = 0,
    policy: Optional[PolicyLike] = None,
) -> float:
    """Mean-latency benefit of replication at one load (positive = helps).

    Runs the fast simulator once without replication and once with the
    replicated configuration — ``copies`` eager copies, or any
    :class:`~repro.core.policy.ReplicationPolicy` via ``policy=`` — sharing
    the arrival stream for a paired comparison, and returns
    ``mean_1copy - mean_replicated``.

    For adaptive policies pass a *spec string* (e.g. ``"hedge:p95"``) rather
    than a policy object: specs are re-parsed per run, so every simulation
    starts from fresh policy state.
    """
    if copies is None and policy is None:
        copies = 2
    baseline_model = ReplicatedQueueingModel(
        service, num_servers=num_servers, copies=1, seed=seed
    )
    replicated_model = ReplicatedQueueingModel(
        service,
        num_servers=num_servers,
        copies=copies,
        client_overhead=client_overhead,
        seed=seed,
        policy=policy,
    )
    baseline = baseline_model.run_fast(load, num_requests=num_requests)
    replicated = replicated_model.run_fast(load, num_requests=num_requests)
    return baseline.mean - replicated.mean


def threshold_load(
    service: Distribution,
    copies: Optional[int] = None,
    num_servers: int = 10,
    num_requests: int = 40_000,
    client_overhead: float = 0.0,
    seed: int = 0,
    tolerance: float = 0.01,
    low: float = 0.02,
    high: Optional[float] = None,
    policy: Optional[PolicyLike] = None,
) -> float:
    """Estimate the threshold load by bisection on simulated mean latencies.

    The benefit of replication is positive at low loads and negative at high
    loads (for every service distribution it eventually turns negative because
    the replicated utilisation approaches 1), so a sign-change bisection on the
    paired benefit estimate converges to the threshold.

    Args:
        service: Service-time distribution.
        copies: Eager replication factor (>= 2); mutually exclusive with
            ``policy`` and defaulting to the paper's 2 when neither is given.
        num_servers: Number of servers in the simulated system.
        num_requests: Requests per simulation run (larger = less noise).
        client_overhead: Fixed client-side overhead added to replicated
            requests (same unit as service times).
        seed: Base seed (paired across the two arms).
        tolerance: Bisection stops when the bracket is narrower than this.
        low: Lowest load probed.
        high: Highest load probed; defaults to just under ``1/max_copies``
            for eager policies (the hard capacity bound) and to just under
            the single-copy capacity for hedging policies, whose backups
            launch only for slow requests.
        policy: A :class:`~repro.core.policy.ReplicationPolicy` or spec
            string whose threshold is sought.  Pass adaptive policies as spec
            strings so each probed load starts from fresh policy state.

    Returns:
        The estimated threshold load.  If replication already hurts at ``low``
        the function returns 0.0; if it still helps at ``high`` it returns
        ``high`` (i.e. the threshold is at least the capacity bound).
    """
    if policy is not None:
        if copies is not None:
            raise ConfigurationError("pass either policy= or copies=, not both")
        resolved = parse_policy(policy)
        if resolved.max_copies < 2:
            raise ConfigurationError(
                f"threshold load needs a policy that replicates; "
                f"{policy!r} launches at most {resolved.max_copies} copy"
            )
        capacity_copies = resolved.max_copies if eager_copies(resolved) else 1
    else:
        copies = 2 if copies is None else copies
        if copies < 2:
            raise ConfigurationError(f"threshold load needs copies >= 2, got {copies!r}")
        capacity_copies = copies
    if high is None:
        high = 1.0 / capacity_copies - 0.02
    if not 0.0 < low < high < 1.0 / capacity_copies:
        raise ConfigurationError(
            f"need 0 < low < high < 1/copies, got low={low!r}, high={high!r}"
        )

    def benefit(load: float) -> float:
        return replication_benefit_at(
            service,
            load,
            copies=copies,
            num_servers=num_servers,
            num_requests=num_requests,
            client_overhead=client_overhead,
            seed=seed,
            policy=policy,
        )

    benefit_low = benefit(low)
    if benefit_low <= 0:
        return 0.0
    benefit_high = benefit(high)
    if benefit_high > 0:
        return high

    lo, hi = low, high
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if benefit(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_load_approximation(
    service: Distribution,
    copies: int = 2,
    client_overhead: float = 0.0,
    tolerance: float = 0.002,
    num_service_samples: int = 20_000,
    seed: int = 20131206,
) -> float:
    """Threshold load under the two-moment response-time approximation.

    Mean response without replication uses the exact Pollaczek–Khinchine
    formula; mean response with ``copies`` copies integrates the approximate
    survival function raised to the ``copies`` power (the independence
    approximation of the paper).  Appropriate for light-tailed service times;
    for heavy tails prefer :func:`threshold_load` (simulation).

    Returns:
        The approximate threshold load in ``[0, 1/copies)``.
    """
    if copies < 2:
        raise ConfigurationError(f"threshold load needs copies >= 2, got {copies!r}")
    mean_service = service.mean()
    rng = np.random.default_rng(seed)
    service_samples = np.asarray(service.sample(rng, num_service_samples), dtype=float)

    def mean_unreplicated(load: float) -> float:
        return pollaczek_khinchine_wait(service, load) + mean_service

    def mean_replicated(load: float) -> float:
        replicated_load = copies * load
        mean_wait = pollaczek_khinchine_wait(service, replicated_load)
        t_max = 40.0 * (mean_service + mean_wait) + 10.0 * float(service_samples.max())

        def survival(t_grid: np.ndarray) -> np.ndarray:
            return two_moment_response_survival(
                service,
                replicated_load,
                t_grid,
                service_samples=service_samples,
            )

        value = expected_minimum_response(survival, copies, t_max)
        return value + client_overhead * (copies - 1)

    def benefit(load: float) -> float:
        return mean_unreplicated(load) - mean_replicated(load)

    low = 1e-3
    high = 1.0 / copies - 1e-3
    if benefit(low) <= 0:
        return 0.0
    if benefit(high) > 0:
        return high
    lo, hi = low, high
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if benefit(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
