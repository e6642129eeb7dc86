"""Tests for links, packets, the replication config and the simplified TCP."""

import pytest

from repro.exceptions import ConfigurationError
from repro.network import Link, Packet, ReplicationConfig
from repro.network.packet import PRIORITY_NORMAL, PRIORITY_REPLICA
from repro.network.tcp import TcpConfig, TcpFlow
from repro.sim import Simulator


def make_packet(seq=0, size=1500.0, priority=PRIORITY_NORMAL, flow_id=1):
    return Packet(flow_id=flow_id, seq=seq, size_bytes=size, src="a", dst="b", priority=priority)


class TestPacket:
    def test_clone_as_replica(self):
        packet = make_packet(seq=3)
        replica = packet.clone_as_replica()
        assert replica.is_replica
        assert replica.priority == PRIORITY_REPLICA
        assert replica.seq == 3
        assert replica.uid != packet.uid


def make_link(sim, deliver, drop=None, rate_bps=8e6, propagation_delay_s=0.0, **kwargs):
    """A link that must not drop unless the test passes a ``drop`` callback."""

    def unexpected_drop(packet):
        raise AssertionError(f"unexpected drop of {packet!r}")

    return Link(sim, "a->b", rate_bps=rate_bps, propagation_delay_s=propagation_delay_s,
                deliver=deliver, drop=drop or unexpected_drop, **kwargs)


class TestLink:
    def test_serialization_and_propagation_delay(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p: arrivals.append(sim.now), propagation_delay_s=0.001)
        link.send(make_packet(size=1000.0))  # 1000 B at 1 MB/s = 1 ms
        sim.run()
        assert arrivals == [pytest.approx(0.002)]

    def test_packets_queue_behind_each_other(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p: arrivals.append((p.seq, sim.now)))
        link.send(make_packet(seq=0, size=1000.0))
        link.send(make_packet(seq=1, size=1000.0))
        sim.run()
        assert arrivals[0] == (0, pytest.approx(0.001))
        assert arrivals[1] == (1, pytest.approx(0.002))

    def test_low_priority_waits_for_high_priority(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, lambda p: arrivals.append(p.priority))
        link.send(make_packet(seq=0))                      # starts transmitting
        link.send(make_packet(seq=1, priority=PRIORITY_REPLICA))
        link.send(make_packet(seq=2))                      # queued after the replica arrives
        sim.run()
        assert arrivals == [PRIORITY_NORMAL, PRIORITY_NORMAL, PRIORITY_REPLICA]

    def test_buffer_overflow_drops(self):
        sim = Simulator()
        arrivals, drops = [], []
        link = make_link(sim, arrivals.append, drops.append, rate_bps=8e3,
                         buffer_bytes=2000.0)
        for i in range(4):
            link.send(make_packet(seq=i, size=1500.0))
        # The first packet transmits at once; the queue fits one more 1500 B
        # packet within 2000 B, and the rest are refused.
        sim.run()
        assert [p.seq for p in arrivals] == [0, 1]
        assert [p.seq for p in drops] == [2, 3]

    def test_an_original_evicts_queued_replicas_newest_first(self):
        sim = Simulator()
        arrivals, drops = [], []
        link = make_link(sim, arrivals.append, drops.append, buffer_bytes=300.0)
        link.send(make_packet(seq=0, size=100.0))          # on the wire
        for seq in (1, 2, 3):
            link.send(make_packet(seq=seq, size=100.0, priority=PRIORITY_REPLICA))
        link.send(make_packet(seq=4, size=200.0))
        sim.run()
        assert [p.seq for p in drops] == [3, 2]
        assert [p.seq for p in arrivals] == [0, 4, 1]

    def test_an_original_that_still_does_not_fit_drops_the_replicas_too(self):
        # Eviction stops only when the replicas run out: an original too big
        # for what is left after the originals queued ahead of it evicts
        # every replica and is then refused as well.
        sim = Simulator()
        arrivals, drops = [], []
        link = make_link(sim, arrivals.append, drops.append, buffer_bytes=300.0)
        link.send(make_packet(seq=0, size=100.0))          # on the wire
        link.send(make_packet(seq=1, size=200.0))
        link.send(make_packet(seq=2, size=50.0, priority=PRIORITY_REPLICA))
        link.send(make_packet(seq=3, size=50.0, priority=PRIORITY_REPLICA))
        link.send(make_packet(seq=4, size=150.0))
        sim.run()
        assert [(p.seq, p.priority) for p in drops] == [
            (3, PRIORITY_REPLICA), (2, PRIORITY_REPLICA), (4, PRIORITY_NORMAL)
        ]
        assert [p.seq for p in arrivals] == [0, 1]

    def test_a_replica_never_evicts_an_original(self):
        sim = Simulator()
        arrivals, drops = [], []
        link = make_link(sim, arrivals.append, drops.append, buffer_bytes=200.0)
        link.send(make_packet(seq=0, size=100.0))
        link.send(make_packet(seq=1, size=100.0))
        link.send(make_packet(seq=2, size=100.0))
        link.send(make_packet(seq=3, size=100.0, priority=PRIORITY_REPLICA))
        sim.run()
        assert [p.seq for p in drops] == [3]
        assert [p.seq for p in arrivals] == [0, 1, 2]

    def test_the_budget_bounds_the_queue_not_the_packet_on_the_wire(self):
        sim = Simulator()
        arrivals, drops = [], []
        link = make_link(sim, arrivals.append, drops.append, buffer_bytes=1000.0)
        link.send(make_packet(seq=0, size=1500.0))         # idle: sent at once
        link.send(make_packet(seq=1, size=1000.0))         # fills the queue
        link.send(make_packet(seq=2, size=1.0))
        sim.run()
        assert [p.seq for p in arrivals] == [0, 1]
        assert [p.seq for p in drops] == [2]

    def test_unbounded_buffer_never_drops(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, arrivals.append, buffer_bytes=None)
        for seq in range(50):
            link.send(make_packet(seq=seq, size=1e6))
        sim.run()
        assert [p.seq for p in arrivals] == list(range(50))

    @pytest.mark.parametrize("priority", [-1, 2])
    def test_queued_packet_of_unknown_priority_rejected(self, priority):
        sim = Simulator()
        link = make_link(sim, lambda p: None)
        link.send(make_packet(seq=0))
        with pytest.raises(ConfigurationError):
            link.send(make_packet(seq=1, priority=priority))

    def test_each_priority_is_served_in_arrival_order(self):
        sim = Simulator()
        arrivals = []
        link = make_link(sim, arrivals.append)
        link.send(make_packet(seq=0))                      # on the wire
        for seq, priority in enumerate(
            [PRIORITY_REPLICA, PRIORITY_NORMAL, PRIORITY_REPLICA, PRIORITY_NORMAL], start=1
        ):
            link.send(make_packet(seq=seq, priority=priority))
        sim.run()
        assert [p.seq for p in arrivals] == [0, 2, 4, 1, 3]

    def test_counters(self):
        sim = Simulator()
        link = make_link(sim, lambda p: None, rate_bps=1e9)
        link.send(make_packet(size=500.0))
        sim.run()
        assert link.packets_sent == 1
        assert link.bytes_sent == 500.0

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            make_link(sim, lambda p: None, rate_bps=0.0)
        with pytest.raises(ConfigurationError):
            make_link(sim, lambda p: None, propagation_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            make_link(sim, lambda p: None, buffer_bytes=0.0)


class TestReplicationConfig:
    def test_first_packets_replicated(self):
        config = ReplicationConfig(first_packets=8)
        assert config.should_replicate(0)
        assert config.should_replicate(7)
        assert not config.should_replicate(8)

    def test_disabled_never_replicates(self):
        config = ReplicationConfig.disabled()
        assert not config.should_replicate(0)

    def test_retransmission_control(self):
        config = ReplicationConfig(replicate_retransmissions=False)
        assert not config.should_replicate(0, is_retransmission=True)
        assert config.should_replicate(0, is_retransmission=False)

    def test_priority_choice(self):
        assert ReplicationConfig(low_priority=True).replica_priority() == PRIORITY_REPLICA
        assert ReplicationConfig(low_priority=False).replica_priority() == PRIORITY_NORMAL

    def test_invalid_first_packets(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(first_packets=-1)


class _Harness:
    """Drives a TcpFlow over a perfect (or lossy) direct channel."""

    def __init__(self, size_bytes, one_way_delay=0.0001, drop_seqs=None, config=None):
        self.sim = Simulator()
        self.drop_seqs = set(drop_seqs or [])
        self.sent = []
        self.completed = []
        self.one_way_delay = one_way_delay
        self.flow = TcpFlow(
            sim=self.sim,
            flow_id=0,
            src="a",
            dst="b",
            size_bytes=size_bytes,
            start_time=0.0,
            config=config or TcpConfig(),
            send_segment=self._send_segment,
            send_ack=self._send_ack,
            on_complete=lambda flow: self.completed.append(flow),
        )

    def _send_segment(self, flow, seq, wire_bytes, retransmission):
        self.sent.append((seq, retransmission))
        if seq in self.drop_seqs:
            self.drop_seqs.discard(seq)  # drop only the first transmission
            return
        self.sim.schedule(self.one_way_delay, flow.on_data_arrival,
                          _FakePacket(flow.flow_id, seq))

    def _send_ack(self, flow, ack_num):
        self.sim.schedule(self.one_way_delay, flow.on_ack_arrival, ack_num)

    def run(self):
        self.flow.start()
        self.sim.run()
        return self.flow


class _FakePacket:
    def __init__(self, flow_id, seq):
        self.flow_id = flow_id
        self.seq = seq
        self.is_replica = False


class TestTcpFlow:
    def test_small_flow_completes_without_loss(self):
        flow = _Harness(size_bytes=4000.0).run()
        assert flow.completed
        assert flow.timeouts == 0
        assert flow.flow_completion_time > 0

    def test_segment_count_and_sizes(self):
        config = TcpConfig()
        harness = _Harness(size_bytes=3000.0, config=config)
        flow = harness.run()
        assert flow.total_segments == 3  # 1460 + 1460 + 80
        assert flow.segment_payload(2) == pytest.approx(80.0)
        assert flow.segment_wire_bytes(0) == pytest.approx(1500.0)

    def test_larger_flow_needs_multiple_windows(self):
        config = TcpConfig(initial_cwnd_segments=2)
        flow = _Harness(size_bytes=20_000.0, config=config).run()
        assert flow.completed
        # Slow start: 2, then growing; completion requires several round trips
        # (a single round trip in this harness is 0.2 ms).
        assert flow.flow_completion_time > 2.5 * 0.0002

    def test_lost_packet_recovered_by_timeout_or_dupacks(self):
        flow = _Harness(size_bytes=20_000.0, drop_seqs=[1]).run()
        assert flow.completed
        assert flow.retransmissions >= 1

    def test_timeout_costs_at_least_min_rto(self):
        # Single-segment flow whose only packet is dropped once: recovery has
        # to come from the retransmission timer.
        flow = _Harness(size_bytes=1000.0, drop_seqs=[0]).run()
        assert flow.completed
        assert flow.timeouts >= 1
        assert flow.flow_completion_time >= TcpConfig().min_rto_s

    def test_restarted_timers_never_fire_on_a_lossless_flow(self):
        # Every ACK restarts the retransmission timer; the timers it replaced,
        # and the last one withdrawn at completion, still fall due later in
        # the run and must do nothing.
        harness = _Harness(size_bytes=30_000.0,
                           config=TcpConfig(min_rto_s=0.0005, max_rto_s=0.001))
        flow = harness.run()
        assert flow.completed
        assert flow.timeouts == 0 and flow.retransmissions == 0
        assert not any(retransmission for _, retransmission in harness.sent)
        assert harness.sim.now > flow.completion_time  # stale timers fired

    def test_a_single_loss_times_out_exactly_once(self):
        harness = _Harness(size_bytes=1000.0, drop_seqs=[0])
        flow = harness.run()
        assert harness.sent == [(0, False), (0, True)]
        assert flow.timeouts == 1 and flow.retransmissions == 1
        assert flow.flow_completion_time == pytest.approx(
            TcpConfig().min_rto_s + 2 * harness.one_way_delay
        )

    def test_duplicate_data_deliveries_are_deduplicated(self):
        harness = _Harness(size_bytes=1000.0)
        flow = harness.flow
        flow.start()
        harness.sim.run()
        before = flow.duplicate_deliveries
        flow_completed_time = flow.completion_time
        flow.on_data_arrival(_FakePacket(0, 0))  # replica arriving late
        assert flow.duplicate_deliveries == before + 1
        assert flow.completion_time == flow_completed_time

    def test_cwnd_grows_in_slow_start(self):
        harness = _Harness(size_bytes=30_000.0)
        flow = harness.run()
        assert flow.cwnd > TcpConfig().initial_cwnd_segments

    def test_invalid_flow_size(self):
        with pytest.raises(ConfigurationError):
            _Harness(size_bytes=0.0)

    def test_invalid_tcp_config(self):
        with pytest.raises(ConfigurationError):
            TcpConfig(mss_bytes=0)
        with pytest.raises(ConfigurationError):
            TcpConfig(min_rto_s=0.0)
        with pytest.raises(ConfigurationError):
            TcpConfig(min_rto_s=2.0, max_rto_s=1.0)
