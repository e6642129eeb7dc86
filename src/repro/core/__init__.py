"""The core redundancy library.

This is the paper's contribution packaged as something a service developer can
use directly:

* :mod:`repro.core.policy` — replication/hedging policies (how many copies,
  launched when).
* :mod:`repro.core.hedging` — the race every live executor runs
  ("initiate an operation multiple times ... use the first result which
  completes"), shared by the serving proxy in :mod:`repro.serve`, and the
  asyncio client that runs it against real awaitables.
* :mod:`repro.core.selection` — which backends the copies go to.
* :mod:`repro.core.thresholds` — when system-wide replication helps (the
  threshold-load results of Section 2.1).
* :mod:`repro.core.costbenefit` — whether the latency saved is worth the bytes
  added (the Section 3 benchmark of 16 ms per KB).
* :mod:`repro.core.advisor` — a decision helper combining all of the above.
"""

from repro.core.policy import (
    HedgeAfterDelay,
    HedgeOnPercentile,
    KCopies,
    NoReplication,
    PolicyDriver,
    ReplicationPolicy,
    RequestPlan,
    canonical_policy_spec,
    parse_policy,
    policy_to_spec,
    resolve_policy,
)
from repro.core.hedging import (
    HedgedResult,
    RedundantClient,
    first_completed,
    hedged_call,
)
from repro.core.selection import (
    PowerOfTwoChoices,
    PrimarySecondary,
    RankedBest,
    SelectionStrategy,
    UniformRandom,
)
from repro.core.thresholds import (
    CONJECTURED_LOWER_BOUND,
    THRESHOLD_UPPER_BOUND,
    exponential_threshold_load,
    threshold_load_simulated,
)
from repro.core.costbenefit import (
    DEFAULT_BREAK_EVEN_MS_PER_KB,
    CostBenefitAnalysis,
    marginal_cost_benefit,
)
from repro.core.advisor import ReplicationAdvice, advise_replication

__all__ = [
    "ReplicationPolicy",
    "NoReplication",
    "KCopies",
    "HedgeAfterDelay",
    "HedgeOnPercentile",
    "RequestPlan",
    "PolicyDriver",
    "parse_policy",
    "policy_to_spec",
    "canonical_policy_spec",
    "resolve_policy",
    "first_completed",
    "hedged_call",
    "HedgedResult",
    "RedundantClient",
    "SelectionStrategy",
    "UniformRandom",
    "RankedBest",
    "PrimarySecondary",
    "PowerOfTwoChoices",
    "exponential_threshold_load",
    "threshold_load_simulated",
    "CONJECTURED_LOWER_BOUND",
    "THRESHOLD_UPPER_BOUND",
    "CostBenefitAnalysis",
    "DEFAULT_BREAK_EVEN_MS_PER_KB",
    "marginal_cost_benefit",
    "ReplicationAdvice",
    "advise_replication",
]
