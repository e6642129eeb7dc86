"""Simulation of the Section 2.1 replication queueing model.

The model: ``N`` independent identical FIFO servers, Poisson arrivals, ``k``
copies of every arriving request enqueued at ``k`` distinct servers chosen
uniformly at random, request response time = minimum completion time across
its copies (plus any client-side overhead charged for processing the extra
copies).

Two run methods share one set of draws and are cross-validated in the tests:

* :meth:`ReplicatedQueueingModel.run_fast` — the implementation the
  threshold search and the benchmarks use.  Each server is FIFO and copies
  arrive in global arrival order, so for eager policies it groups the copies
  by server and runs the FIFO recursion once per server
  (:func:`repro.cluster.draws.grouped_finish_times`, the pass the cluster
  and pipeline substrates use too), which reproduces the exact sample path.
* :meth:`ReplicatedQueueingModel.run_event_driven` — the same model run
  through the FIFO hedging engine every offline substrate shares
  (:func:`repro.core.cancellation.simulate_cancelling_arrivals`), which
  also honours cancel-on-win.

The ``load`` parameter follows the paper's convention: it is the *base*
utilisation of each server before replication (arrival rate per server times
mean service time).  With ``k`` eager copies each server's actual utilisation
is ``k * load``, so the model refuses ``k * load >= 1``.

Replication is described by a :class:`~repro.core.policy.ReplicationPolicy`
(``policy=``, accepting a policy object or a spec string such as ``"k2"`` or
``"hedge:p95"``); ``copies=k`` remains supported as sugar for the eager
``k``-copies policy and routes through the same grouped pass, so its
results are byte-identical to the historical integer-``copies`` API.
Non-eager (hedging) policies take a generalised pass: each backup copy's
arrival at its server is offset by the policy's launch delay and is
*suppressed* when the request already completed before the delay expired —
the defining property of the hedged request.  The fast path never cancels a
launched copy (its known-completion bookkeeping cannot retract queued
work), so it runs the engine's known-completion pass
(:func:`repro.core.policy.simulate_hedged_arrivals`) directly;
:meth:`ReplicatedQueueingModel.run_event_driven` additionally honours
``cancel_on_win`` by withdrawing still-queued losing copies when the first
copy completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.analysis.stats import LatencySummary
from repro.core.cancellation import simulate_cancelling_arrivals
from repro.core.policy import (
    PolicyLike,
    ReplicationPolicy,
    eager_copies,
    policy_to_spec,
    resolve_policy,
    simulate_hedged_arrivals,
)
from repro.distributions.base import Distribution
from repro.exceptions import CapacityError, ConfigurationError
from repro.metrics import LatencyRecorder
from repro.sim.rng import choose_distinct, substream


@dataclass(frozen=True)
class QueueingResults:
    """Results of one replication-model run.

    Attributes:
        response_times: Per-request response times (seconds), warmup excluded.
        load: Base per-server utilisation of the run.
        copies: Replication factor used (the policy's maximum copy count).
        summary: Precomputed latency summary of ``response_times``.
        policy_spec: Canonical spec of the replication policy the run used
            (``None`` for policies the spec language cannot express).
        copies_launched: Total copies that consumed service across all
            requests (warmup included) — for hedging policies this is smaller
            than ``copies * num_requests`` because suppressed backups never
            launch and cancelled copies are withdrawn before service.
    """

    response_times: np.ndarray
    load: float
    copies: int
    summary: LatencySummary = field(repr=False, default=None)  # type: ignore[assignment]
    policy_spec: Optional[str] = None
    copies_launched: Optional[int] = None

    def __post_init__(self) -> None:
        if self.summary is None:
            recorder = LatencyRecorder.from_samples(self.response_times, name="queueing")
            object.__setattr__(self, "summary", recorder.summary())

    @property
    def mean(self) -> float:
        """Mean response time."""
        return self.summary.mean

    def fraction_later_than(self, threshold: float) -> float:
        """Fraction of requests slower than ``threshold`` seconds."""
        return float(np.mean(self.response_times > threshold))


class ReplicatedQueueingModel:
    """The N-server, k-copy replication model of Section 2.1."""

    def __init__(
        self,
        service: Distribution,
        num_servers: int = 10,
        copies: Optional[int] = None,
        client_overhead: float = 0.0,
        seed: Optional[int] = 0,
        policy: Optional[PolicyLike] = None,
    ) -> None:
        """Configure the model.

        Args:
            service: Service-time distribution (shared by all servers).
            num_servers: Number of servers ``N`` (must be >= the policy's
                maximum copy count).  The paper notes the independence
                approximation is good for ``N >= 10`` with ``k = 2``.
            copies: Replication factor ``k`` >= 1 (1 disables replication).
                Sugar for ``policy=KCopies(k)``; mutually exclusive with
                ``policy``.  Defaults to the paper's eager 2 copies when
                neither is given.
            client_overhead: Extra latency added to every request *per extra
                copy actually launched*, expressed in the same time unit as
                the service distribution (Figure 4 sweeps this as a fraction
                of the mean service time).  For eager ``k``-copies this is the
                historical ``overhead * (copies - 1)``.
            seed: Base seed for reproducible runs (``None`` = fresh entropy).
            policy: A :class:`~repro.core.policy.ReplicationPolicy` or spec
                string (``"none"``, ``"k2"``, ``"hedge:10ms"``,
                ``"hedge:p95"``) governing how each request is replicated.

        Raises:
            ConfigurationError: If the policy's copy count exceeds
                ``num_servers`` or any parameter is invalid.
        """
        if num_servers < 1:
            raise ConfigurationError(f"num_servers must be >= 1, got {num_servers!r}")
        if copies is not None and (copies < 1 or int(copies) != copies):
            raise ConfigurationError(f"copies must be a positive integer, got {copies!r}")
        if client_overhead < 0:
            raise ConfigurationError(f"client_overhead must be >= 0, got {client_overhead!r}")
        self.policy: ReplicationPolicy = resolve_policy(policy, copies, default_copies=2)
        self._eager_k = eager_copies(self.policy)
        self.service = service
        self.num_servers = int(num_servers)
        self.copies = int(self.policy.max_copies)
        if self.copies > num_servers:
            raise ConfigurationError(
                f"copies ({self.copies}) cannot exceed num_servers ({num_servers})"
            )
        self.client_overhead = float(client_overhead)
        self.seed = seed

    @property
    def policy_spec(self) -> Optional[str]:
        """Canonical spec of the model's policy (``None`` if inexpressible)."""
        try:
            return policy_to_spec(self.policy)
        except ConfigurationError:
            return None

    # ------------------------------------------------------------------ #
    # Fast vectorised implementation
    # ------------------------------------------------------------------ #

    def run_fast(
        self,
        load: float,
        num_requests: int = 50_000,
        warmup_fraction: float = 0.1,
        arrival_stream: str = "arrivals",
    ) -> QueueingResults:
        """Simulate ``num_requests`` requests on the fast path.

        Eager policies run the per-server FIFO recursion over copies grouped
        by server; other policies run the known-completion pass of the
        hedging engine, which never cancels a copy.

        Args:
            load: Base per-server utilisation in ``[0, 1/copies)``.
            num_requests: Number of requests to generate.
            warmup_fraction: Fraction of the earliest requests discarded so the
                measurement reflects steady state.
            arrival_stream: Name of the RNG substream for arrivals; runs with
                the same seed and stream names share arrival times and service
                draws, enabling paired (common-random-number) comparisons of
                different ``copies`` values.

        Returns:
            A :class:`QueueingResults` with the retained response times.
        """
        self._validate_run(load, num_requests, warmup_fraction)
        arrival_times, servers, service_times = self._draw(load, num_requests, arrival_stream)
        if self._eager_k is not None:
            # Imported here: ``import repro`` loads this module, and
            # importing repro.cluster would add its whole package to that.
            from repro.cluster.draws import grouped_finish_times

            finish = grouped_finish_times(
                servers.ravel(), np.repeat(arrival_times, self.copies), service_times.ravel()
            )
            response = (finish.reshape(servers.shape) - arrival_times[:, None]).min(axis=1)
            launched = np.full(num_requests, self.copies)
            return self._results(response, launched, load, warmup_fraction)
        # The hedged pass never cancels: backups are suppressed, not withdrawn.
        finish_at, launched = simulate_hedged_arrivals(
            self.policy, arrival_times, self.copies, *self._engine_work(servers, service_times)
        )
        return self._results(finish_at - arrival_times, launched, load, warmup_fraction)

    def _draw(
        self, load: float, num_requests: int, arrival_stream: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(arrival_times, servers, service_times)`` of one run.

        ``servers[r, c]`` and ``service_times[r, c]`` are the server and the
        service draw of copy ``c`` of request ``r``.
        """
        arrivals_rng = substream(self.seed, arrival_stream)
        service_rng = substream(self.seed, "service")
        placement_rng = substream(self.seed, "placement")

        # Aggregate arrival rate so each server sees `load` before replication.
        total_rate = self.num_servers * load / self.service.mean()
        if total_rate <= 0:
            raise ConfigurationError("load must be positive for a simulation run")
        arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
        servers = choose_distinct(placement_rng, self.num_servers, num_requests, self.copies)
        service_times = np.asarray(
            self.service.sample(service_rng, num_requests * self.copies), dtype=float
        ).reshape(num_requests, self.copies)
        return arrival_times, servers, service_times

    @staticmethod
    def _engine_work(
        servers: np.ndarray, service_times: np.ndarray
    ) -> Tuple[Callable[[int, int], int], Callable[[int, int, float], tuple]]:
        """The FIFO hedging engine's ``(server_of, begin)`` callbacks for one run."""
        rows = servers.tolist()
        services = service_times.tolist()

        def server_of(request: int, copy: int) -> int:
            return rows[request][copy]

        def begin(request: int, copy: int, at: float) -> tuple:
            return ("service", services[request][copy], 0.0)

        return server_of, begin

    def _results(
        self,
        response: np.ndarray,
        launched: np.ndarray,
        load: float,
        warmup_fraction: float,
    ) -> QueueingResults:
        """Results with client overhead charged per extra copy that was served."""
        if self.client_overhead > 0:
            response = response + self.client_overhead * (launched - 1)
        start = int(len(response) * warmup_fraction)
        return QueueingResults(
            response_times=response[start:],
            load=load,
            copies=self.copies,
            policy_spec=self.policy_spec,
            copies_launched=int(launched.sum()),
        )

    # ------------------------------------------------------------------ #
    # Event-driven implementation (the shared FIFO hedging engine)
    # ------------------------------------------------------------------ #

    def run_event_driven(
        self,
        load: float,
        num_requests: int = 10_000,
        warmup_fraction: float = 0.1,
    ) -> QueueingResults:
        """Simulate the same model through the shared FIFO hedging engine.

        Runs :func:`~repro.core.cancellation.simulate_cancelling_arrivals`,
        the engine of the cluster and pipeline substrates, on the draws
        :meth:`run_fast` uses.  Unlike :meth:`run_fast` it honours
        ``cancel_on_win``: when the first copy completes, losing copies still
        waiting in a server queue are withdrawn (a copy already in service
        runs to completion), and a withdrawn copy consumes no service and
        costs no client overhead.  Policies that never cancel take the
        engine's known-completion pass, so for them both paths agree; the
        tests check it.

        Raises:
            ConfigurationError: Same parameter validation as :meth:`run_fast`
                (load, ``num_requests >= 10``, ``0 <= warmup_fraction < 1``).
        """
        self._validate_run(load, num_requests, warmup_fraction)
        arrival_times, servers, service_times = self._draw(load, num_requests, "arrivals")
        finish_at, launched, cancelled = simulate_cancelling_arrivals(
            self.policy, arrival_times, self.copies, *self._engine_work(servers, service_times)
        )
        if cancelled is not None:
            launched = launched - cancelled
        return self._results(finish_at - arrival_times, launched, load, warmup_fraction)

    # ------------------------------------------------------------------ #

    def _validate_load(self, load: float) -> None:
        if load <= 0:
            raise ConfigurationError(f"load must be positive, got {load!r}")
        if self._eager_k is not None:
            if self.copies * load >= 1.0:
                raise CapacityError(
                    f"replicated utilisation {self.copies * load:.3f} >= 1: "
                    "the model has no steady state at this load"
                )
        elif load >= 1.0:
            # Hedging launches backups only for slow requests, so the true
            # utilisation lies between `load` and `max_copies * load`; only
            # the unconditional lower bound can be rejected up front.
            raise CapacityError(
                f"base utilisation {load:.3f} >= 1: the system is overloaded "
                "even before any hedged copies are launched"
            )

    def _validate_run(
        self, load: float, num_requests: int, warmup_fraction: float
    ) -> None:
        """Parameter validation shared by the fast and event-driven paths."""
        self._validate_load(load)
        if num_requests < 10:
            raise ConfigurationError(f"num_requests must be >= 10, got {num_requests!r}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}"
            )
