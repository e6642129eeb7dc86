"""The Section 3.1 TCP connection-establishment model.

The paper's back-of-the-envelope analysis, implemented exactly:

* The three handshake packets (SYN, SYN-ACK, ACK) are sent over an idealised
  network: a packet is delivered after RTT/2 with probability ``1 - p`` and
  lost with probability ``p``, independently per transmission attempt.
* ``p`` is 0.0048 when one copy of each packet is sent and 0.0007 when each
  packet is duplicated back-to-back (the measured correlated pair-loss rate).
* Timeouts follow the Linux kernel: 3 seconds initially for SYN and SYN-ACK,
  ``3 x RTT`` for the final ACK, with exponential backoff on each loss.

The model is evaluated both analytically (exact expectation and quantiles of
the geometric retry process) and by Monte Carlo, and the resulting savings are
converted into the paper's ms/KB cost-effectiveness unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costbenefit import CostBenefitAnalysis, DEFAULT_BREAK_EVEN_MS_PER_KB
from repro.core.policy import PolicyLike, eager_copies, parse_policy
from repro.exceptions import ConfigurationError
from repro.metrics import LatencyRecorder
from repro.sim.rng import substream
from repro.wan.loss import PAIR_LOSS_PROBABILITY, SINGLE_LOSS_PROBABILITY

#: Seed of the generator used when a sampling method is called without an
#: explicit ``rng``.  Library entry points never construct *unseeded*
#: generators (the repo-wide determinism contract, lint rule DET001): an
#: omitted ``rng`` means "give me the deterministic default stream", not
#: "give me fresh OS entropy".
DEFAULT_SAMPLING_SEED = 0


@dataclass(frozen=True)
class HandshakeResult:
    """Summary of handshake completion times for one configuration.

    Attributes:
        copies: Number of copies of each handshake packet.
        mean: Mean handshake completion time in seconds.
        p99: 99th-percentile completion time in seconds.
        p999: 99.9th-percentile completion time in seconds.
        loss_probability: Per-packet loss probability used.
    """

    copies: int
    mean: float
    p99: float
    p999: float
    loss_probability: float


class HandshakeModel:
    """Completion time of a TCP three-way handshake under packet loss."""

    def __init__(
        self,
        rtt: float = 0.05,
        syn_timeout: float = 3.0,
        single_loss: float = SINGLE_LOSS_PROBABILITY,
        pair_loss: float = PAIR_LOSS_PROBABILITY,
        max_retries: int = 12,
    ) -> None:
        """Create the model.

        Args:
            rtt: Round-trip time in seconds.
            syn_timeout: Initial retransmission timeout for SYN and SYN-ACK
                (3 s in Linux/Windows, 1 s in OS X; the paper uses 3 s).
            single_loss: Loss probability for a single copy of a packet.
            pair_loss: Loss probability when a packet is sent twice
                back-to-back.
            max_retries: Cap on retransmission attempts per packet (keeps the
                analytic series and the Monte-Carlo bounded; real kernels give
                up far earlier).

        Raises:
            ConfigurationError: On non-positive RTT/timeout or invalid
                probabilities.
        """
        if rtt <= 0 or syn_timeout <= 0:
            raise ConfigurationError("rtt and syn_timeout must be positive")
        if not 0.0 <= pair_loss <= single_loss <= 1.0:
            raise ConfigurationError("need 0 <= pair_loss <= single_loss <= 1")
        if max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        self.rtt = float(rtt)
        self.syn_timeout = float(syn_timeout)
        self.single_loss = float(single_loss)
        self.pair_loss = float(pair_loss)
        self.max_retries = int(max_retries)

    # ------------------------------------------------------------------ #

    def loss_probability(self, copies: int) -> float:
        """Per-packet loss probability when each packet is sent ``copies`` times."""
        if copies < 1:
            raise ConfigurationError(f"copies must be >= 1, got {copies!r}")
        if copies == 1:
            return self.single_loss
        if copies == 2:
            return self.pair_loss
        ratio = self.pair_loss / self.single_loss if self.single_loss else 0.0
        return self.single_loss * ratio ** (copies - 1)

    def _packet_timeouts(self) -> List[float]:
        """Initial timeout of each of the three handshake packets.

        SYN and SYN-ACK use the kernel's fixed initial timeout; the final ACK
        is recovered via the SYN-ACK retransmission path, which the paper
        approximates as a ``3 x RTT`` penalty.
        """
        return [self.syn_timeout, self.syn_timeout, 3.0 * self.rtt]

    def expected_packet_delay(self, initial_timeout: float, loss: float) -> float:
        """Expected completion contribution of one handshake packet.

        The packet is delivered on attempt ``i`` (0-based) with probability
        ``(1 - loss) * loss^i``, having waited the sum of the first ``i``
        exponentially backed-off timeouts — ``initial_timeout * (2^i - 1)`` —
        before the successful attempt, plus RTT/2 for the delivery itself.
        The series is truncated at ``max_retries`` (success is assumed on the
        final attempt, matching the Monte-Carlo truncation).
        """
        expected = self.rtt / 2.0
        for attempt in range(self.max_retries + 1):
            if attempt < self.max_retries:
                probability = (1.0 - loss) * loss**attempt
            else:
                probability = loss**attempt
            waited = initial_timeout * (2.0**attempt - 1.0)
            expected += probability * waited
        return expected

    def expected_completion_time(self, copies: int = 1) -> float:
        """Expected total handshake completion time with ``copies`` copies per packet."""
        loss = self.loss_probability(copies)
        return sum(
            self.expected_packet_delay(timeout, loss) for timeout in self._packet_timeouts()
        )

    def expected_savings(self, copies: int = 2) -> float:
        """Expected saving from duplicating every handshake packet, in seconds.

        The paper's closed form for the mean saving is
        ``(3 + 3 + 3*RTT) * (p1 - p2)`` — each packet's expected retransmission
        wait is (to first order) its initial timeout times its loss
        probability, so duplication saves ``timeout * (p1 - p2)`` per packet.
        The exact expectation computed here includes the higher-order backoff
        terms and is therefore slightly larger.
        """
        return self.expected_completion_time(1) - self.expected_completion_time(copies)

    def first_order_savings(self, copies: int = 2) -> float:
        """The paper's first-order approximation of the mean saving."""
        p1 = self.loss_probability(1)
        pk = self.loss_probability(copies)
        return sum(self._packet_timeouts()) * (p1 - pk)

    # ------------------------------------------------------------------ #

    def sample_completion_times(
        self, copies: int, num_samples: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Monte-Carlo handshake completion times.

        Args:
            copies: Copies of each handshake packet.
            num_samples: Number of handshakes to simulate.
            rng: Random generator; omitted, a deterministic substream seeded
                with :data:`DEFAULT_SAMPLING_SEED` is used, so repeated calls
                return identical samples.
        """
        if num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")
        rng = rng if rng is not None else substream(DEFAULT_SAMPLING_SEED, "wan.handshake")
        loss = self.loss_probability(copies)
        total = np.zeros(num_samples)
        for initial_timeout in self._packet_timeouts():
            attempts = rng.geometric(1.0 - loss, num_samples)  # 1 = first try succeeds
            attempts = np.minimum(attempts, self.max_retries + 1)
            # Wait before the successful attempt: sum of the first (attempts-1)
            # exponentially backed-off timeouts = timeout * (2^(attempts-1) - 1).
            waited = initial_timeout * (np.power(2.0, attempts - 1) - 1.0)
            total += waited + self.rtt / 2.0
        return total

    def result(self, copies: int, num_samples: int = 200_000, seed: int = 0) -> HandshakeResult:
        """Monte-Carlo summary for one copy count."""
        samples = self.sample_completion_times(copies, num_samples, np.random.default_rng(seed))
        summary = LatencyRecorder.from_samples(samples, name="handshake").summary()
        return HandshakeResult(
            copies=copies,
            mean=summary.mean,
            p99=summary.p99,
            p999=summary.p999,
            loss_probability=self.loss_probability(copies),
        )

    # ------------------------------------------------------------------ #
    # Policy-first evaluation (deferred duplication, beyond the paper)
    # ------------------------------------------------------------------ #

    def sample_completion_times_policy(
        self,
        policy: PolicyLike,
        num_samples: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, int]:
        """Monte-Carlo completion times under a replication policy.

        Eager policies delegate to :meth:`sample_completion_times` (identical
        bytes for identical ``rng`` state).  A :class:`HedgeAfterDelay` policy
        models *deferred* duplication: the duplicate of each handshake packet
        is sent only once the packet has gone ``delay`` seconds without a
        response (the sender learns of delivery one RTT after sending), and
        never after the attempt's retransmission timer would fire anyway.
        Because the two copies are separated in time rather than back-to-back,
        their losses are independent (probability ``single_loss`` each) instead
        of correlated (``pair_loss``) — deferred duplication trades added
        recovery delay for escaping burst loss and for sending far fewer
        duplicate packets.

        Args:
            policy: A policy object or spec string; must be static (adaptive
                percentile hedging has no per-handshake latency feedback loop
                at the packet layer).
            num_samples: Number of handshakes to simulate.
            rng: Random generator; omitted, a deterministic substream seeded
                with :data:`DEFAULT_SAMPLING_SEED` is used.

        Returns:
            ``(completion_times, backup_packets_sent)`` — the per-handshake
            completion times and the total number of duplicate packets sent
            across all samples.

        Raises:
            ConfigurationError: For adaptive policies.
        """
        resolved = parse_policy(policy)
        eager = eager_copies(resolved)
        if eager is not None:
            samples = self.sample_completion_times(eager, num_samples, rng)
            return samples, (eager - 1) * 3 * num_samples
        if not resolved.is_static:
            raise ConfigurationError(
                "the handshake model supports static policies only ('none', "
                "'k<N>', 'hedge:<delay>'): packet duplication has no "
                "per-request latency feedback loop"
            )
        if num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")
        rng = rng if rng is not None else substream(DEFAULT_SAMPLING_SEED, "wan.handshake")
        delays = resolved.plan().launch_delays
        loss = self.single_loss
        total = np.zeros(num_samples)
        backups_sent = 0
        for initial_timeout in self._packet_timeouts():
            remaining = np.arange(num_samples)
            waited = np.zeros(num_samples)
            arrival = np.zeros(num_samples)
            for attempt in range(self.max_retries + 1):
                if remaining.size == 0:
                    break
                if attempt == self.max_retries:
                    # Same truncation as the eager Monte-Carlo: the final
                    # attempt is assumed to succeed.
                    arrival[remaining] = waited[remaining] + self.rtt / 2.0
                    break
                timeout_now = initial_timeout * (2.0 ** attempt)
                count = remaining.size
                delivered = rng.random(count) >= loss
                deliver_at = np.where(delivered, self.rtt / 2.0, np.inf)
                response_at = np.where(delivered, self.rtt, np.inf)
                for delay in delays[1:]:
                    # The duplicate goes out only if no response arrived by
                    # its hedge delay and the retransmission timer has not
                    # already taken over.
                    sendable = (response_at > delay) & (delay < timeout_now)
                    backups_sent += int(sendable.sum())
                    delivered_backup = sendable & (rng.random(count) >= loss)
                    deliver_at = np.where(
                        delivered_backup,
                        np.minimum(deliver_at, delay + self.rtt / 2.0),
                        deliver_at,
                    )
                    response_at = np.where(
                        delivered_backup,
                        np.minimum(response_at, delay + self.rtt),
                        response_at,
                    )
                success = np.isfinite(deliver_at)
                done = remaining[success]
                arrival[done] = waited[done] + deliver_at[success]
                failed = remaining[~success]
                waited[failed] += timeout_now
                remaining = failed
            total += arrival
        return total, backups_sent


def handshake_cost_benefit(
    model: Optional[HandshakeModel] = None,
    packet_bytes: float = 50.0,
    copies: int = 2,
    num_samples: int = 200_000,
    seed: int = 0,
) -> dict:
    """The Section 3.1 cost-effectiveness numbers.

    Duplicating the three handshake packets adds ``3 * packet_bytes`` of
    traffic (the paper assumes 50-byte packets, 150 bytes total) and saves the
    difference in completion time; the result reports the mean and
    99.9th-percentile savings and their ms/KB ratios against the 16 ms/KB
    break-even benchmark.

    Returns:
        A dict with keys ``baseline`` and ``replicated`` (:class:`HandshakeResult`),
        ``mean_analysis`` and ``tail_analysis`` (:class:`CostBenefitAnalysis`).
    """
    model = model or HandshakeModel()
    baseline = model.result(1, num_samples=num_samples, seed=seed)
    replicated = model.result(copies, num_samples=num_samples, seed=seed + 1)
    extra_bytes = (copies - 1) * 3 * packet_bytes
    mean_analysis = CostBenefitAnalysis(
        latency_saved_ms=(baseline.mean - replicated.mean) * 1000.0,
        extra_bytes=extra_bytes,
        break_even_ms_per_kb=DEFAULT_BREAK_EVEN_MS_PER_KB,
    )
    # The tail comparison uses the 99th percentile: with the measured loss
    # rates, a handshake loses at least one packet ~1.4% of the time without
    # duplication (so the 99th percentile sits at the 3 s SYN timeout) but only
    # ~0.2% of the time with duplication (so the 99th percentile collapses to a
    # normal round trip).  Exactly at the 99.9th percentile both configurations
    # still contain a timeout, which is why the paper phrases its 880 ms tail
    # number as a lower bound; EXPERIMENTS.md discusses the comparison.
    tail_analysis = CostBenefitAnalysis(
        latency_saved_ms=(baseline.p99 - replicated.p99) * 1000.0,
        extra_bytes=extra_bytes,
        break_even_ms_per_kb=DEFAULT_BREAK_EVEN_MS_PER_KB,
    )
    return {
        "baseline": baseline,
        "replicated": replicated,
        "mean_analysis": mean_analysis,
        "tail_analysis": tail_analysis,
    }
