"""Links with serialisation delay, propagation delay and priority queues.

Each *directed* link models the output port of the upstream device: a
strict-priority, drop-tail queue bounded in bytes (225 KB in the paper),
followed by a transmitter that serialises one packet at a time at the link
rate, followed by the propagation delay.  Replicated packets are enqueued at
the lower priority, so they "can never delay the original, unreplicated
traffic".
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exceptions import ConfigurationError
from repro.network.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.resources import PriorityQueueResource


class Link:
    """A directed link between two nodes.

    Attributes:
        name: Human-readable ``"src->dst"`` identifier.
        rate_bytes_per_s: Transmission rate in bytes per second.
        propagation_delay_s: One-way propagation delay in seconds.
        queue: The strict-priority drop-tail output queue.
        packets_sent: Number of packets fully transmitted.
        bytes_sent: Total bytes transmitted.
    """

    # One Link per directed edge, but every queued packet passes through the
    # slotted (item, size) tuples of PriorityQueueResource and the hot
    # per-packet callbacks below; slotting the Link keeps its attribute
    # reads off the instance-dict path.
    __slots__ = (
        "_sim",
        "name",
        "rate_bytes_per_s",
        "propagation_delay_s",
        "queue",
        "deliver",
        "_busy",
        "packets_sent",
        "bytes_sent",
        "packets_dropped",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        propagation_delay_s: float,
        buffer_bytes: Optional[float] = 225_000.0,
        deliver: Optional[Callable[[Packet, float], None]] = None,
    ) -> None:
        """Create a link.

        Args:
            sim: The simulator driving the link.
            name: Identifier, conventionally ``"src->dst"``.
            rate_bps: Link rate in bits per second (> 0).
            propagation_delay_s: Propagation delay in seconds (>= 0).
            buffer_bytes: Output-queue capacity in bytes (``None`` = unbounded);
                the paper uses 225 KB.
            deliver: Callback invoked as ``deliver(packet, arrival_time)`` when
                a packet reaches the far end; usually set once by the network
                after all links exist.
        """
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be positive, got {rate_bps!r}")
        if propagation_delay_s < 0:
            raise ConfigurationError(
                f"propagation_delay_s must be >= 0, got {propagation_delay_s!r}"
            )
        self._sim = sim
        self.name = name
        self.rate_bytes_per_s = rate_bps / 8.0
        self.propagation_delay_s = float(propagation_delay_s)
        self.queue = PriorityQueueResource(capacity_bytes=buffer_bytes, levels=2)
        self.deliver = deliver
        self._busy = False
        self.packets_sent = 0
        self.bytes_sent = 0.0
        self.packets_dropped = 0

    def serialization_delay(self, size_bytes: float) -> float:
        """Time to put ``size_bytes`` on the wire at this link's rate."""
        return size_bytes / self.rate_bytes_per_s

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        The packet is transmitted immediately if the transmitter is idle,
        queued if there is buffer space, and dropped otherwise.

        Returns:
            ``False`` if the packet was dropped, ``True`` otherwise.
        """
        if self._busy:
            accepted = self.queue.push(packet, packet.size_bytes, packet.priority)
            if not accepted:
                self.packets_dropped += 1
            return accepted
        self._transmit(packet)
        return True

    def _transmit(self, packet: Packet) -> None:
        self._busy = True
        delay = self.serialization_delay(packet.size_bytes)
        self._sim.schedule(delay, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self._sim.schedule(self.propagation_delay_s, self._arrive, packet)
        if self.queue.empty:
            self._busy = False
        else:
            next_packet, _size, _priority = self.queue.pop()
            self._transmit(next_packet)

    def _arrive(self, packet: Packet) -> None:
        if self.deliver is None:
            raise ConfigurationError(f"link {self.name} has no deliver callback")
        self.deliver(packet, self._sim.now)
