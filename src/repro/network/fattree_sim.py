"""The Section 2.4 experiment driver: fat-tree + TCP + in-network replication.

:class:`FatTreeExperiment` wires the substrate together — topology, links with
strict-priority queues, ECMP routing, TCP flows, the replicate-first-packets
mechanism — runs a flow workload with and without replication, and reports the
quantities of Figure 14: completion times of flows smaller than 10 KB (median
and 99th percentile as a function of load, and the full CDF at one load) plus
the sanity check that elephant flows are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import LatencySummary
from repro.distributions.datacenter import DataCenterFlowSizes
from repro.exceptions import ConfigurationError, RoutingError, SimulationError
from repro.metrics import LatencyRecorder, MetricsRegistry
from repro.network.flow_fidelity import flow_level_fcts
from repro.network.flows import FlowSpec, generate_flows
from repro.network.link import Link
from repro.network.packet import PRIORITY_NORMAL, Packet
from repro.network.replication import ReplicationConfig
from repro.network.routing import EcmpRouter
from repro.network.tcp import TcpConfig, TcpFlow
from repro.network.topology import FatTreeTopology
from repro.sim.engine import Simulator
from repro.sim.rng import substream


@dataclass(frozen=True)
class FatTreeExperimentConfig:
    """Configuration of one fat-tree run.

    Attributes:
        k: Fat-tree radix (6 in the paper: 54 hosts, 45 switches).
        link_rate_gbps: Link rate of every link, in Gbit/s (the paper sweeps
            5 and 10).
        per_hop_delay_us: Per-hop propagation delay in microseconds (2 or 6).
        buffer_bytes: Per-output-port buffer, shared across priorities (225 KB).
        load: Offered load as a fraction of access capacity.
        num_flows: Number of flows per run.
        replication: The in-network replication configuration.
        tcp: Transport parameters.
        seed: Base random seed (shared between the replicated and baseline
            runs so they see the same workload).
        max_sim_seconds: Hard cap on simulated time (protects against
            pathological high-load runs that cannot drain).
        fidelity: ``"packet"`` (default) simulates every segment/ACK/queue
            event — the reference fidelity; ``"flow"`` computes FCTs from the
            link-share model in :mod:`repro.network.flow_fidelity` on the
            *identical* workload (same seed substream, flows, and routed
            paths) at a fraction of the cost.  Flow mode is approximate at
            high load — see the delta table in EXPERIMENTS.md.
    """

    k: int = 6
    link_rate_gbps: float = 5.0
    per_hop_delay_us: float = 2.0
    buffer_bytes: float = 225_000.0
    load: float = 0.4
    num_flows: int = 2_000
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    tcp: TcpConfig = field(default_factory=TcpConfig)
    seed: int = 0
    max_sim_seconds: float = 60.0
    fidelity: str = "packet"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.link_rate_gbps) and self.link_rate_gbps > 0):
            raise ConfigurationError(
                f"link_rate_gbps must be finite and positive, got {self.link_rate_gbps!r}"
            )
        if not (math.isfinite(self.per_hop_delay_us) and self.per_hop_delay_us >= 0):
            raise ConfigurationError(
                "per_hop_delay_us must be finite and non-negative, "
                f"got {self.per_hop_delay_us!r}"
            )
        if not (math.isfinite(self.max_sim_seconds) and self.max_sim_seconds > 0):
            raise ConfigurationError(
                f"max_sim_seconds must be finite and positive, got {self.max_sim_seconds!r}"
            )
        if not 0.0 < self.load < 1.0:
            raise ConfigurationError(f"load must be in (0, 1), got {self.load!r}")
        if self.num_flows < 1:
            raise ConfigurationError("num_flows must be >= 1")
        if self.fidelity not in ("packet", "flow"):
            raise ConfigurationError(
                f"fidelity must be 'packet' or 'flow', got {self.fidelity!r}"
            )

    @property
    def link_rate_bps(self) -> float:
        """Link rate in bits per second."""
        return self.link_rate_gbps * 1e9

    @property
    def per_hop_delay_s(self) -> float:
        """Per-hop propagation delay in seconds."""
        return self.per_hop_delay_us * 1e-6


@dataclass(frozen=True)
class FlowRecord:
    """Outcome of one flow.

    Attributes:
        flow_id: Flow id.
        size_bytes: Flow size.
        fct: Flow completion time in seconds (``None`` if it did not finish
            before the simulation horizon).
        timeouts: Number of RTO events the flow suffered.
        retransmissions: Number of retransmitted segments.
        duplicate_deliveries: Data packets whose replica also arrived.
    """

    flow_id: int
    size_bytes: float
    fct: Optional[float]
    timeouts: int
    retransmissions: int
    duplicate_deliveries: int


@dataclass(frozen=True)
class FatTreeRunResult:
    """All flow records of one run plus aggregate drop statistics."""

    config: FatTreeExperimentConfig
    records: List[FlowRecord]
    dropped_packets: int
    dropped_replicas: int

    def completed(self) -> List[FlowRecord]:
        """Records of flows that finished within the horizon."""
        return [r for r in self.records if r.fct is not None]

    def fcts(self, max_size: Optional[float] = None, min_size: Optional[float] = None) -> np.ndarray:
        """Completion times of completed flows within a size band."""
        values = [
            r.fct
            for r in self.records
            if r.fct is not None
            and (max_size is None or r.size_bytes < max_size)
            and (min_size is None or r.size_bytes >= min_size)
        ]
        return np.asarray(values, dtype=float)

    def short_flow_fcts(self) -> np.ndarray:
        """Completion times of flows smaller than 10 KB (the paper's metric)."""
        return self.fcts(max_size=10_000.0)

    def elephant_fcts(self) -> np.ndarray:
        """Completion times of flows of 1 MB or more."""
        return self.fcts(min_size=1_000_000.0)

    def short_flow_recorder(self) -> LatencyRecorder:
        """A recorder over short-flow completion times.

        Raises:
            SimulationError: If no short flows completed.
        """
        fcts = self.short_flow_fcts()
        if fcts.size == 0:
            raise SimulationError("run produced no completed short flows")
        return LatencyRecorder.from_samples(fcts, name="short_flow_fct")

    def short_flow_summary(self) -> LatencySummary:
        """Latency summary of short-flow completion times.

        Raises:
            SimulationError: If no short flows completed.
        """
        return self.short_flow_recorder().summary()


class _PacketNetwork:
    """Owns the links and moves packets along their paths."""

    def __init__(
        self,
        sim: Simulator,
        topology: FatTreeTopology,
        config: FatTreeExperimentConfig,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config
        self.links: Dict[tuple, Link] = {}
        for u, v in topology.graph.edges:
            for a, b in ((u, v), (v, u)):
                self.links[(a, b)] = Link(
                    sim,
                    name=f"{a}->{b}",
                    rate_bps=config.link_rate_bps,
                    propagation_delay_s=config.per_hop_delay_s,
                    buffer_bytes=config.buffer_bytes,
                    deliver=self._on_link_arrival,
                )
        self.flows: Dict[int, TcpFlow] = {}
        self.metrics = MetricsRegistry("fattree")
        # Cached: _count_drop runs per dropped packet, so the per-event cost
        # must stay a bare attribute increment.
        self._dropped_packets = self.metrics.counter("dropped_packets")
        self._dropped_replicas = self.metrics.counter("dropped_replicas")

    @property
    def dropped_packets(self) -> int:
        """Primary data packets dropped at a full buffer."""
        return self._dropped_packets.value

    @property
    def dropped_replicas(self) -> int:
        """Replica packets dropped at a full buffer."""
        return self._dropped_replicas.value

    def links_for_path(self, path: List[str]) -> List[Link]:
        """The directed :class:`Link` objects along a node-name path."""
        try:
            return [self.links[(path[i], path[i + 1])] for i in range(len(path) - 1)]
        except KeyError as exc:
            raise RoutingError(f"path {path!r} uses a link that does not exist") from exc

    def inject(self, packet: Packet, path_links: List[Link]) -> None:
        """Send ``packet`` along ``path_links`` (drop accounting included)."""
        packet.path = path_links
        packet.hop_index = 0
        accepted = path_links[0].send(packet)
        if not accepted:
            self._count_drop(packet)

    def _on_link_arrival(self, packet: Packet, _now: float) -> None:
        packet.hop_index += 1
        if packet.hop_index < len(packet.path):
            accepted = packet.path[packet.hop_index].send(packet)
            if not accepted:
                self._count_drop(packet)
            return
        flow = self.flows.get(packet.flow_id)
        if flow is None:
            return
        flow.on_data_arrival(packet)

    def _count_drop(self, packet: Packet) -> None:
        counter = self._dropped_replicas if packet.is_replica else self._dropped_packets
        counter.increment()


class FatTreeExperiment:
    """Runs the fat-tree workload with and without in-network replication."""

    def __init__(self, config: Optional[FatTreeExperimentConfig] = None) -> None:
        """Create the experiment (default config = the paper's 5 Gbps / 2 us case)."""
        self.config = config or FatTreeExperimentConfig()
        self.topology = FatTreeTopology(self.config.k)

    # ------------------------------------------------------------------ #

    def run(
        self,
        replication: Optional[ReplicationConfig] = None,
        load: Optional[float] = None,
        num_flows: Optional[int] = None,
        fidelity: Optional[str] = None,
    ) -> FatTreeRunResult:
        """Run one simulation.

        Args:
            replication: Override the replication configuration (``None`` uses
                the experiment config's; pass ``ReplicationConfig.disabled()``
                for the baseline).
            load: Override the offered load.
            num_flows: Override the number of flows.
            fidelity: Override the fidelity (``"packet"`` or ``"flow"``).

        Returns:
            A :class:`FatTreeRunResult`.
        """
        config = self.config
        if (
            replication is not None
            or load is not None
            or num_flows is not None
            or fidelity is not None
        ):
            config = replace(
                config,
                replication=replication if replication is not None else config.replication,
                load=load if load is not None else config.load,
                num_flows=num_flows if num_flows is not None else config.num_flows,
                fidelity=fidelity if fidelity is not None else config.fidelity,
            )

        router = EcmpRouter(self.topology, salt=config.seed)
        rng = substream(config.seed, "flows", config.load, config.num_flows)
        flow_specs = generate_flows(
            hosts=self.topology.hosts(),
            load=config.load,
            link_rate_bps=config.link_rate_bps,
            num_flows=config.num_flows,
            rng=rng,
            size_distribution=DataCenterFlowSizes(),
        )

        if config.fidelity == "flow":
            fcts = flow_level_fcts(config, router, flow_specs)
            records = [
                FlowRecord(
                    flow_id=spec.flow_id,
                    size_bytes=spec.size_bytes,
                    fct=fcts[index],
                    timeouts=0,
                    retransmissions=0,
                    duplicate_deliveries=0,
                )
                for index, spec in enumerate(flow_specs)
            ]
            return FatTreeRunResult(
                config=config, records=records, dropped_packets=0, dropped_replicas=0
            )

        sim = Simulator()
        network = _PacketNetwork(sim, self.topology, config)

        completed: List[TcpFlow] = []
        default_links: Dict[int, List[Link]] = {}
        alternate_links: Dict[int, List[Link]] = {}
        ack_delay: Dict[int, float] = {}

        def inject_replica(flow: TcpFlow, packet: Packet) -> None:
            replica = packet.clone_as_replica()
            replica.priority = config.replication.replica_priority()
            network.inject(replica, alternate_links[flow.flow_id])

        def inject_deferred_replica(flow: TcpFlow, packet: Packet) -> None:
            # Hedged duplication: by the time the delay expires the segment
            # may already be acknowledged — then the copy is suppressed and
            # the network never pays for it.
            if flow.completed or flow.snd_una > packet.seq:
                return
            inject_replica(flow, packet)

        def send_segment(flow: TcpFlow, seq: int, wire_bytes: float, retransmission: bool) -> None:
            packet = Packet(
                flow_id=flow.flow_id,
                seq=seq,
                size_bytes=wire_bytes,
                src=flow.src,
                dst=flow.dst,
                priority=PRIORITY_NORMAL,
                created_at=sim.now,
            )
            network.inject(packet, default_links[flow.flow_id])
            if config.replication.should_replicate(seq, retransmission):
                if config.replication.deferred:
                    sim.schedule(
                        config.replication.replica_delay_s,
                        inject_deferred_replica,
                        flow,
                        packet,
                    )
                else:
                    inject_replica(flow, packet)

        def send_ack(flow: TcpFlow, ack_num: int) -> None:
            # ACKs return over an uncongested reverse path: fixed delay.
            sim.schedule(ack_delay[flow.flow_id], flow.on_ack_arrival, ack_num)

        def on_complete(flow: TcpFlow) -> None:
            completed.append(flow)

        for spec in flow_specs:
            flow = TcpFlow(
                sim=sim,
                flow_id=spec.flow_id,
                src=spec.src,
                dst=spec.dst,
                size_bytes=spec.size_bytes,
                start_time=spec.start_time,
                config=config.tcp,
                send_segment=send_segment,
                send_ack=send_ack,
                on_complete=on_complete,
            )
            network.flows[spec.flow_id] = flow
            default_path = router.default_path(spec.flow_id, spec.src, spec.dst)
            alternate_path = router.alternate_path(spec.flow_id, spec.src, spec.dst)
            default_links[spec.flow_id] = network.links_for_path(default_path)
            alternate_links[spec.flow_id] = network.links_for_path(alternate_path)
            hops = len(default_path) - 1
            ack_delay[spec.flow_id] = hops * (
                config.per_hop_delay_s
                + config.tcp.ack_bytes / (config.link_rate_bps / 8.0)
            )
            sim.schedule_at(spec.start_time, flow.start)

        sim.run_until(config.max_sim_seconds)
        # Any flow still incomplete at the horizon keeps fct=None.
        sim.clear()

        records = [
            FlowRecord(
                flow_id=spec.flow_id,
                size_bytes=spec.size_bytes,
                fct=network.flows[spec.flow_id].flow_completion_time,
                timeouts=network.flows[spec.flow_id].timeouts,
                retransmissions=network.flows[spec.flow_id].retransmissions,
                duplicate_deliveries=network.flows[spec.flow_id].duplicate_deliveries,
            )
            for spec in flow_specs
        ]
        return FatTreeRunResult(
            config=config,
            records=records,
            dropped_packets=network.dropped_packets,
            dropped_replicas=network.dropped_replicas,
        )

    # ------------------------------------------------------------------ #

    def compare(
        self,
        load: Optional[float] = None,
        num_flows: Optional[int] = None,
    ) -> Dict[str, FatTreeRunResult]:
        """Run the baseline and the replicated configuration on the same workload.

        Returns:
            ``{"baseline": ..., "replicated": ...}``.
        """
        baseline = self.run(
            replication=ReplicationConfig.disabled(), load=load, num_flows=num_flows
        )
        replicated = self.run(
            replication=self.config.replication
            if self.config.replication.enabled
            else ReplicationConfig(),
            load=load,
            num_flows=num_flows,
        )
        return {"baseline": baseline, "replicated": replicated}

    @staticmethod
    def median_improvement(results: Dict[str, FatTreeRunResult]) -> float:
        """Percent improvement in median short-flow FCT from replication."""
        baseline = np.median(results["baseline"].short_flow_fcts())
        replicated = np.median(results["replicated"].short_flow_fcts())
        if baseline <= 0:
            raise SimulationError("baseline median FCT is zero; run produced no short flows")
        return 100.0 * (baseline - replicated) / baseline

    @staticmethod
    def percentile_fct(result: FatTreeRunResult, percentile: float) -> float:
        """A percentile of the short-flow FCT distribution, in seconds.

        Raises:
            SimulationError: If no short flows completed.
        """
        return result.short_flow_recorder().percentile(percentile)
