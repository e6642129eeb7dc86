"""Wide-area substrates for Section 3 (the "individual view").

* :mod:`repro.wan.loss` — the loss-pair measurements the paper cites
  (single-packet loss probability ≈ 0.0048, back-to-back pair loss ≈ 0.0007).
* :mod:`repro.wan.handshake` — the Section 3.1 TCP-handshake completion-time
  model (3 s SYN timeouts, exponential backoff), analytic and Monte-Carlo.
* :mod:`repro.wan.dns` — the Section 3.2 DNS replication experiment: synthetic
  vantage points and public resolvers, the two-stage ranking + replication
  protocol, and the Figures 15-17 metrics.
"""

from repro.wan.loss import PAIR_LOSS_PROBABILITY, SINGLE_LOSS_PROBABILITY
from repro.wan.handshake import (
    HandshakeModel,
    HandshakePolicyResult,
    HandshakeResult,
    handshake_cost_benefit,
)
from repro.wan.dns import (
    DnsExperiment,
    DnsExperimentConfig,
    DnsPolicyResult,
    DnsServerModel,
    VantagePoint,
)

__all__ = [
    "SINGLE_LOSS_PROBABILITY",
    "PAIR_LOSS_PROBABILITY",
    "HandshakeModel",
    "HandshakeResult",
    "HandshakePolicyResult",
    "handshake_cost_benefit",
    "DnsServerModel",
    "VantagePoint",
    "DnsExperimentConfig",
    "DnsPolicyResult",
    "DnsExperiment",
]
