"""Integration tests for the fat-tree experiment driver (small configurations)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.network import (
    FatTreeExperiment,
    FatTreeExperimentConfig,
    ReplicationConfig,
)
from repro.network.flows import elephant_flows, generate_flows, short_flows


class TestFlowGeneration:
    def test_flow_count_and_ordering(self, rng):
        hosts = [f"h{i}" for i in range(8)]
        flows = generate_flows(hosts, load=0.3, link_rate_bps=1e9, num_flows=500, rng=rng)
        assert len(flows) == 500
        starts = [f.start_time for f in flows]
        assert starts == sorted(starts)

    def test_src_differs_from_dst(self, rng):
        hosts = [f"h{i}" for i in range(4)]
        flows = generate_flows(hosts, load=0.3, link_rate_bps=1e9, num_flows=300, rng=rng)
        assert all(f.src != f.dst for f in flows)

    def test_offered_load_matches_request(self, rng):
        hosts = [f"h{i}" for i in range(10)]
        load, rate = 0.4, 1e9
        flows = generate_flows(hosts, load=load, link_rate_bps=rate, num_flows=20_000, rng=rng)
        duration = flows[-1].start_time
        offered = sum(f.size_bytes for f in flows) / duration
        assert offered == pytest.approx(load * len(hosts) * rate / 8.0, rel=0.1)

    def test_short_and_elephant_filters(self, rng):
        hosts = ["a", "b"]
        flows = generate_flows(hosts, 0.2, 1e9, 5000, rng)
        short = short_flows(flows)
        elephants = elephant_flows(flows)
        assert len(short) > 0.7 * len(flows)
        assert all(f.size_bytes < 10_000 for f in short)
        assert all(f.size_bytes >= 1_000_000 for f in elephants)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ConfigurationError):
            generate_flows(["only-one"], 0.2, 1e9, 10, rng)
        with pytest.raises(ConfigurationError):
            generate_flows(["a", "b"], 0.0, 1e9, 10, rng)


@pytest.fixture(scope="module")
def small_comparison():
    """One baseline-vs-replicated comparison on a small k=4 fat-tree."""
    config = FatTreeExperimentConfig(
        k=4, link_rate_gbps=1.0, per_hop_delay_us=2.0, load=0.4, num_flows=400, seed=7
    )
    return FatTreeExperiment(config).compare()


class TestFatTreeExperiment:
    def test_all_flows_complete(self, small_comparison):
        for result in small_comparison.values():
            assert len(result.completed()) == len(result.records)

    def test_workload_identical_across_configurations(self, small_comparison):
        baseline = small_comparison["baseline"]
        replicated = small_comparison["replicated"]
        assert [r.flow_id for r in baseline.records] == [r.flow_id for r in replicated.records]
        assert [r.size_bytes for r in baseline.records] == [
            r.size_bytes for r in replicated.records
        ]

    def test_replication_produces_duplicate_deliveries(self, small_comparison):
        baseline = small_comparison["baseline"]
        replicated = small_comparison["replicated"]
        assert sum(r.duplicate_deliveries for r in baseline.records) == 0
        assert sum(r.duplicate_deliveries for r in replicated.records) > 0

    def test_replication_does_not_hurt_short_flows(self, small_comparison):
        baseline = np.mean(small_comparison["baseline"].short_flow_fcts())
        replicated = np.mean(small_comparison["replicated"].short_flow_fcts())
        assert replicated <= baseline * 1.05

    def test_replication_does_not_increase_timeouts_materially(self, small_comparison):
        # On this deliberately tiny configuration the counts are small, so a
        # little noise is tolerated; the large-scale timeout-avoidance effect
        # is exercised by benchmarks/bench_fig14_network_replication.py.
        baseline = sum(r.timeouts for r in small_comparison["baseline"].records)
        replicated = sum(r.timeouts for r in small_comparison["replicated"].records)
        assert replicated <= baseline * 1.15 + 2

    def test_fct_bands(self, small_comparison):
        result = small_comparison["baseline"]
        short = result.short_flow_fcts()
        elephants = result.elephant_fcts()
        if len(elephants):
            assert np.median(elephants) > np.median(short)

    def test_percentile_helper(self, small_comparison):
        result = small_comparison["baseline"]
        p50 = FatTreeExperiment.percentile_fct(result, 50)
        p99 = FatTreeExperiment.percentile_fct(result, 99)
        assert p99 >= p50 > 0

    def test_median_improvement_computation(self, small_comparison):
        improvement = FatTreeExperiment.median_improvement(small_comparison)
        assert -50.0 < improvement < 100.0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            FatTreeExperimentConfig(load=0.0)
        with pytest.raises(ConfigurationError):
            FatTreeExperimentConfig(link_rate_gbps=0.0)
        with pytest.raises(ConfigurationError):
            FatTreeExperimentConfig(num_flows=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_link_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigurationError, match="link_rate_gbps"):
            FatTreeExperimentConfig(link_rate_gbps=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_per_hop_delay_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ConfigurationError, match="per_hop_delay_us"):
            FatTreeExperimentConfig(per_hop_delay_us=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_max_sim_seconds_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigurationError, match="max_sim_seconds"):
            FatTreeExperimentConfig(max_sim_seconds=value)
