"""A simplified TCP for the fat-tree simulation.

The Section 2.4 result only depends on a few TCP behaviours, all implemented
here: window-limited transmission with slow start, cumulative ACKs, fast
retransmit on triple duplicate ACKs, and — critically for Figure 14(b) — a
retransmission timeout with the datacenter-typical 10 ms minimum RTO and
exponential backoff.  The 99th-percentile improvement at 70-80% load in the
paper comes almost entirely from replicated copies slipping through an
uncongested path and thereby avoiding that 10 ms timeout.

Simplifications (documented, and irrelevant to the measured quantities):
ACKs return over an uncongested reverse path modelled as a fixed delay
(reverse-path data queueing is negligible because ACKs are 40 bytes), there is
no delayed-ACK timer, and receive windows are unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.exceptions import ConfigurationError
from repro.network.packet import PRIORITY_NORMAL, Packet
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TcpConfig:
    """Transport parameters.

    Attributes:
        mss_bytes: Maximum segment payload size.
        header_bytes: Per-packet header overhead on the wire.
        initial_cwnd_segments: Initial congestion window, in segments.
        initial_ssthresh_segments: Initial slow-start threshold.
        min_rto_s: Minimum retransmission timeout (10 ms, as in the paper).
        max_rto_s: Cap on the backed-off RTO.
        ack_bytes: Size of an acknowledgement on the wire.
    """

    mss_bytes: int = 1460
    header_bytes: int = 40
    initial_cwnd_segments: int = 4
    initial_ssthresh_segments: int = 64
    min_rto_s: float = 0.010
    max_rto_s: float = 1.0
    ack_bytes: int = 40

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0 or self.header_bytes < 0:
            raise ConfigurationError("mss_bytes must be positive and header_bytes >= 0")
        if self.initial_cwnd_segments < 1 or self.initial_ssthresh_segments < 1:
            raise ConfigurationError("initial window parameters must be >= 1")
        if self.min_rto_s <= 0 or self.max_rto_s < self.min_rto_s:
            raise ConfigurationError("need 0 < min_rto_s <= max_rto_s")


class TcpFlow:
    """Sender and receiver state for one flow.

    The surrounding network calls :meth:`start` when the flow begins,
    :meth:`on_data_arrival` when a data packet (original or replica) reaches
    the destination, and :meth:`on_ack_arrival` when an ACK reaches the
    sender.  The flow calls ``send_segment(flow, seq, size_bytes,
    is_retransmission)`` on the network to put packets on the wire and
    ``on_complete(flow)`` once every byte is acknowledged.
    """

    __slots__ = (
        "sim",
        "flow_id",
        "src",
        "dst",
        "size_bytes",
        "start_time",
        "config",
        "_send_segment",
        "_send_ack",
        "_on_complete",
        "total_segments",
        "cwnd",
        "ssthresh",
        "snd_una",
        "snd_next",
        "dup_acks",
        "rto_interval",
        "_rto_token",
        "timeouts",
        "retransmissions",
        "completed",
        "completion_time",
        "rcv_next",
        "_received",
        "duplicate_deliveries",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        src: str,
        dst: str,
        size_bytes: float,
        start_time: float,
        config: TcpConfig,
        send_segment: Callable[["TcpFlow", int, float, bool], None],
        send_ack: Callable[["TcpFlow", int], None],
        on_complete: Callable[["TcpFlow"], None],
    ) -> None:
        """Create a flow (does not start transmitting until :meth:`start`)."""
        if size_bytes <= 0:
            raise ConfigurationError(f"flow size must be positive, got {size_bytes!r}")
        self.sim = sim
        self.flow_id = int(flow_id)
        self.src = src
        self.dst = dst
        self.size_bytes = float(size_bytes)
        self.start_time = float(start_time)
        self.config = config
        self._send_segment = send_segment
        self._send_ack = send_ack
        self._on_complete = on_complete

        self.total_segments = max(1, -(-int(size_bytes) // config.mss_bytes))
        self.cwnd = float(config.initial_cwnd_segments)
        self.ssthresh = float(config.initial_ssthresh_segments)
        self.snd_una = 0           # lowest unacknowledged segment
        self.snd_next = 0          # next new segment to transmit
        self.dup_acks = 0
        self.rto_interval = config.min_rto_s
        # The live retransmission timer's token: a timer that fires with an
        # older one was withdrawn by a later restart or by completion.
        self._rto_token = 0
        self.timeouts = 0
        self.retransmissions = 0
        self.completed = False
        self.completion_time: Optional[float] = None

        # Receiver state.
        self.rcv_next = 0
        self._received: Set[int] = set()
        self.duplicate_deliveries = 0

    # ------------------------------ sender ------------------------------- #

    def start(self) -> None:
        """Begin transmitting (called at the flow's arrival time)."""
        self._try_send()
        self._restart_rto()

    def segment_payload(self, seq: int) -> float:
        """Payload bytes of segment ``seq`` (the last segment may be short)."""
        if seq < self.total_segments - 1:
            return float(self.config.mss_bytes)
        return self.size_bytes - self.config.mss_bytes * (self.total_segments - 1)

    def segment_wire_bytes(self, seq: int) -> float:
        """On-the-wire size of segment ``seq`` including headers."""
        return self.segment_payload(seq) + self.config.header_bytes

    def _try_send(self) -> None:
        while (
            self.snd_next < self.total_segments
            and self.snd_next - self.snd_una < int(self.cwnd)
        ):
            self._send_segment(self, self.snd_next, self.segment_wire_bytes(self.snd_next), False)
            self.snd_next += 1

    def _restart_rto(self) -> None:
        self._rto_token += 1
        if self.completed or self.snd_una >= self.total_segments:
            return
        self.sim.schedule(self.rto_interval, self._on_timeout, self._rto_token)

    def _on_timeout(self, token: int) -> None:
        """Retransmission timeout: go back to the first unacked segment."""
        if token != self._rto_token:
            return
        self.timeouts += 1
        self.retransmissions += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.rto_interval = min(self.rto_interval * 2.0, self.config.max_rto_s)
        self._send_segment(self, self.snd_una, self.segment_wire_bytes(self.snd_una), True)
        # After a timeout, transmission resumes from the first unacked segment.
        self.snd_next = max(self.snd_next, self.snd_una + 1)
        self._restart_rto()

    def on_ack_arrival(self, ack_num: int) -> None:
        """Process a cumulative ACK covering segments ``< ack_num``."""
        if self.completed:
            return
        if ack_num > self.snd_una:
            newly_acked = ack_num - self.snd_una
            self.snd_una = ack_num
            self.dup_acks = 0
            self.rto_interval = self.config.min_rto_s
            for _ in range(newly_acked):
                if self.cwnd < self.ssthresh:
                    self.cwnd += 1.0
                else:
                    self.cwnd += 1.0 / self.cwnd
            if self.snd_una >= self.total_segments:
                self._complete()
                return
            self._try_send()
            self._restart_rto()
        elif ack_num == self.snd_una:
            self.dup_acks += 1
            if self.dup_acks == 3:
                # Fast retransmit / simplified fast recovery.
                self.retransmissions += 1
                self.ssthresh = max(self.cwnd / 2.0, 2.0)
                self.cwnd = self.ssthresh
                self._send_segment(
                    self, self.snd_una, self.segment_wire_bytes(self.snd_una), True
                )
                self._restart_rto()

    def _complete(self) -> None:
        self.completed = True
        self.completion_time = self.sim.now
        self._rto_token += 1
        self._on_complete(self)

    # ----------------------------- receiver ------------------------------ #

    def on_data_arrival(self, packet: Packet) -> None:
        """Process a data packet (original or replica) at the destination.

        Duplicate deliveries (the original and its replica both arriving) are
        counted but acknowledged only once — the receiver "uses the first
        result which completes" and discards the second copy.
        """
        seq = packet.seq
        if seq in self._received:
            self.duplicate_deliveries += 1
        else:
            self._received.add(seq)
            while self.rcv_next in self._received:
                self.rcv_next += 1
        self._send_ack(self, self.rcv_next)

    # ------------------------------ metrics ------------------------------ #

    @property
    def flow_completion_time(self) -> Optional[float]:
        """Flow completion time in seconds (``None`` until completed)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time
