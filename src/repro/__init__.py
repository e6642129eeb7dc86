"""repro — reproduction of "Low Latency via Redundancy" (Vulimiri et al., CoNEXT 2013).

The package is organised as a core library plus the substrates the paper's
evaluation depends on:

``repro.core``
    The paper's primary contribution: replication/hedging policies, an
    asyncio hedged-request client, threshold-load computation and
    cost-benefit analysis.

``repro.sim``
    The event heap of the fat-tree packet simulator and the seeded
    random-number substreams every substrate draws from.

``repro.distributions``
    Service-time and size distributions used throughout the evaluation.

``repro.workloads``
    Poisson arrival processes and file sets.

``repro.queueing``
    The Section 2.1 queueing model: N servers, Poisson arrivals, k-copy
    replication and threshold-load search, plus the section's analytic
    results (M/M/1, M/G/1, heavy tails), kept as library code that the tests
    check.

``repro.cluster``
    The Section 2.2/2.3 storage substrates: disk-backed database cluster and
    memcached-style in-memory store.

``repro.network``
    The Section 2.4 substrate: packet-level fat-tree datacenter simulator with
    in-network replication of the first packets of each flow.

``repro.wan``
    The Section 3 substrates: TCP handshake completion model and wide-area DNS
    replication experiments.

``repro.metrics``
    The unified streaming metrics layer every substrate records through:
    counters, bounded-memory percentile histograms, sliding windows and the
    :class:`~repro.metrics.LatencyRecorder` facade.

``repro.analysis``
    Latency statistics, CDFs and result tables.

``repro.experiments``
    Declarative scenario sweeps: parameter grids, a tiered scenario registry
    over every substrate (up to the paper-scale runs), a chunked parallel
    sweep runner with derived per-point seeds and resumable streaming
    artifacts, and artifact diffing (``python -m repro.experiments``).

The packages form a strict layer stack — sim → distributions/workloads →
substrates → metrics → experiments → analysis; the README's Architecture
section draws the diagram, and ``EXPERIMENTS.md`` maps every paper figure to
the scenario and command that reproduce it.
"""

from repro._version import __version__
from repro.metrics import (
    Counter,
    Histogram,
    LatencyRecorder,
    MetricsRegistry,
    SlidingWindow,
)
from repro.core.policy import (
    HedgeAfterDelay,
    HedgeOnPercentile,
    KCopies,
    NoReplication,
    ReplicationPolicy,
    RequestPlan,
    parse_policy,
    policy_to_spec,
)
from repro.core.hedging import RedundantClient, first_completed, hedged_call
from repro.core.thresholds import exponential_threshold_load, threshold_load_simulated
from repro.core.costbenefit import CostBenefitAnalysis, DEFAULT_BREAK_EVEN_MS_PER_KB

__all__ = [
    "__version__",
    "Counter",
    "Histogram",
    "SlidingWindow",
    "LatencyRecorder",
    "MetricsRegistry",
    "ReplicationPolicy",
    "NoReplication",
    "KCopies",
    "HedgeAfterDelay",
    "HedgeOnPercentile",
    "RequestPlan",
    "parse_policy",
    "policy_to_spec",
    "first_completed",
    "hedged_call",
    "RedundantClient",
    "exponential_threshold_load",
    "threshold_load_simulated",
    "CostBenefitAnalysis",
    "DEFAULT_BREAK_EVEN_MS_PER_KB",
]
