"""Links with serialisation delay, propagation delay and priority queues.

Each *directed* link models the output port of the upstream device: a
strict-priority, drop-tail queue bounded in bytes (225 KB in the paper),
followed by a transmitter that serialises one packet at a time at the link
rate, followed by the propagation delay.  Replicated packets are enqueued at
the lower priority, so they "can never delay the original, unreplicated
traffic".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.exceptions import ConfigurationError
from repro.network.packet import PRIORITY_NORMAL, PRIORITY_REPLICA, Packet
from repro.sim.engine import Simulator


class Link:
    """A directed link between two nodes.

    The output queue is one deque per priority (originals, then replicas)
    sharing one byte budget.  A packet that finds the transmitter busy and
    the budget full first evicts queued replicas, newest first, if it is an
    original; if it still does not fit, it is dropped too.  Every packet the
    link throws away, refused or evicted, goes to ``drop`` exactly once.

    Attributes:
        name: Human-readable ``"src->dst"`` identifier.
        rate_bytes_per_s: Transmission rate in bytes per second.
        propagation_delay_s: One-way propagation delay in seconds.
        buffer_bytes: Output-queue capacity in bytes (``None`` = unbounded).
        deliver: Called as ``deliver(packet)`` when a packet reaches the far
            end.
        drop: Called as ``drop(packet)`` for each packet the queue throws
            away.
        packets_sent: Number of packets fully transmitted.
        bytes_sent: Total bytes transmitted.
    """

    # One Link per directed edge, but every packet passes through the hot
    # per-packet methods below; slotting keeps their attribute reads off the
    # instance-dict path.
    __slots__ = (
        "_sim",
        "name",
        "rate_bytes_per_s",
        "propagation_delay_s",
        "buffer_bytes",
        "deliver",
        "drop",
        "_busy",
        "_queues",
        "_queued_bytes",
        "packets_sent",
        "bytes_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        propagation_delay_s: float,
        buffer_bytes: Optional[float] = 225_000.0,
        *,
        deliver: Callable[[Packet], None],
        drop: Callable[[Packet], None],
    ) -> None:
        """Create a link.

        Args:
            sim: The simulator driving the link.
            name: Identifier, conventionally ``"src->dst"``.
            rate_bps: Link rate in bits per second (> 0).
            propagation_delay_s: Propagation delay in seconds (>= 0).
            buffer_bytes: Output-queue capacity in bytes (``None`` = unbounded);
                the paper uses 225 KB.
            deliver: Arrival callback, run at the arrival time.
            drop: Drop callback, run when the packet is refused or evicted.
        """
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be positive, got {rate_bps!r}")
        if propagation_delay_s < 0:
            raise ConfigurationError(
                f"propagation_delay_s must be >= 0, got {propagation_delay_s!r}"
            )
        if buffer_bytes is not None and buffer_bytes <= 0:
            raise ConfigurationError(
                f"buffer_bytes must be positive or None, got {buffer_bytes!r}"
            )
        self._sim = sim
        self.name = name
        self.rate_bytes_per_s = rate_bps / 8.0
        self.propagation_delay_s = float(propagation_delay_s)
        self.buffer_bytes = buffer_bytes
        self.deliver = deliver
        self.drop = drop
        self._busy = False
        self._queues = (deque(), deque())  # indexed by priority
        self._queued_bytes = 0.0
        self.packets_sent = 0
        self.bytes_sent = 0.0

    def serialization_delay(self, size_bytes: float) -> float:
        """Time to put ``size_bytes`` on the wire at this link's rate."""
        return size_bytes / self.rate_bytes_per_s

    def send(self, packet: Packet) -> None:
        """Offer ``packet`` to the link.

        The packet is transmitted at once if the transmitter is idle, queued
        if it fits the buffer (after evicting replicas, for an original), and
        dropped otherwise.

        Raises:
            ConfigurationError: If a packet to be queued has a priority other
                than ``PRIORITY_NORMAL`` or ``PRIORITY_REPLICA``.
        """
        if not self._busy:
            self._transmit(packet)
            return
        priority = packet.priority
        if priority != PRIORITY_NORMAL and priority != PRIORITY_REPLICA:
            raise ConfigurationError(f"link {self.name} got a packet of priority {priority!r}")
        size = packet.size_bytes
        budget = self.buffer_bytes
        if budget is not None and self._queued_bytes + size > budget:
            if priority == PRIORITY_NORMAL:
                replicas = self._queues[PRIORITY_REPLICA]
                while replicas and self._queued_bytes + size > budget:
                    evicted = replicas.pop()
                    self._queued_bytes -= evicted.size_bytes
                    self.drop(evicted)
            if self._queued_bytes + size > budget:
                self.drop(packet)
                return
        self._queues[priority].append(packet)
        self._queued_bytes += size

    def _transmit(self, packet: Packet) -> None:
        self._busy = True
        delay = self.serialization_delay(packet.size_bytes)
        self._sim.schedule(delay, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self._sim.schedule(self.propagation_delay_s, self.deliver, packet)
        originals, replicas = self._queues
        queue = originals or replicas
        if queue:
            next_packet = queue.popleft()
            self._queued_bytes -= next_packet.size_bytes
            self._transmit(next_packet)
        else:
            self._busy = False
