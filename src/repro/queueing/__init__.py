"""The Section 2.1 queueing model of replication.

``N`` identical servers, Poisson arrivals, ``k`` copies of every request sent
to ``k`` distinct servers chosen uniformly at random, response time = the
minimum across copies.  The package provides:

* :mod:`repro.queueing.replication_model` — simulation of the model, both an
  event-driven version (on the shared FIFO hedging engine,
  :func:`repro.core.cancellation.simulate_cancelling_arrivals`) and a fast
  version that runs eager copies through the per-server FIFO pass the
  cluster and pipeline substrates share, cross-validated in the tests.
* :mod:`repro.queueing.mm1` — exact M/M/1 results, including Theorem 1 (the
  threshold load is 1/3 with exponential service).
* :mod:`repro.queueing.mg1` — M/G/1 results (Pollaczek–Khinchine) and the
  two-moment response-time approximation used for Conjecture 1 evidence.
* :mod:`repro.queueing.heavy_tail` — the regularly-varying (heavy-tail)
  approximation and the Theorem 3 lower bound.
* :mod:`repro.queueing.threshold` — threshold-load search (simulated and
  approximation-based).
* :mod:`repro.queueing.client_overhead` — the client-side overhead model of
  Figure 4.
"""

from repro.queueing.mm1 import MM1Queue, mm1_replicated_mean_response, mm1_threshold_load
from repro.queueing.mg1 import MG1Queue, pollaczek_khinchine_wait, two_moment_response_survival
from repro.queueing.heavy_tail import (
    HEAVY_TAIL_ALPHA_LIMIT,
    heavy_tail_threshold_lower_bound,
    heavy_tail_wait_survival,
)
from repro.queueing.replication_model import QueueingResults, ReplicatedQueueingModel
from repro.queueing.threshold import (
    DETERMINISTIC_THRESHOLD_ESTIMATE,
    threshold_load,
    threshold_load_approximation,
)
from repro.queueing.client_overhead import overhead_threshold_curve

__all__ = [
    "MM1Queue",
    "mm1_replicated_mean_response",
    "mm1_threshold_load",
    "MG1Queue",
    "pollaczek_khinchine_wait",
    "two_moment_response_survival",
    "HEAVY_TAIL_ALPHA_LIMIT",
    "heavy_tail_threshold_lower_bound",
    "heavy_tail_wait_survival",
    "ReplicatedQueueingModel",
    "QueueingResults",
    "threshold_load",
    "threshold_load_approximation",
    "DETERMINISTIC_THRESHOLD_ESTIMATE",
    "overhead_threshold_curve",
]
