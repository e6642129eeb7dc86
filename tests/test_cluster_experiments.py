"""Tests for the Section 2.2 / 2.3 cluster experiment drivers.

These are integration-level tests; simulation sizes are kept small so the
whole file runs in a few seconds while still exercising the paper's
qualitative findings.
"""

import numpy as np
import pytest

from repro.cluster import (
    DatabaseClusterConfig,
    DatabaseClusterExperiment,
    MemcachedConfig,
    MemcachedExperiment,
)
from repro.exceptions import CapacityError, ConfigurationError

SMALL = dict(num_files=20_000)
REQUESTS = 12_000


@pytest.fixture(scope="module")
def base_experiment():
    return DatabaseClusterExperiment(DatabaseClusterConfig.base(**SMALL))


class TestDatabaseConfig:
    def test_paper_variations(self):
        assert DatabaseClusterConfig.small_files().mean_file_bytes == 40.0
        assert DatabaseClusterConfig.small_cache().cache_to_data_ratio == 0.01
        assert DatabaseClusterConfig.large_files().mean_file_bytes == 400_000.0
        assert DatabaseClusterConfig.all_cached().cache_to_data_ratio == 2.0
        assert DatabaseClusterConfig.ec2().noise_probability > 0.0
        assert DatabaseClusterConfig.pareto_files().file_size_distribution is not None

    def test_cache_bytes_follow_ratio(self):
        config = DatabaseClusterConfig.base(num_files=1000, mean_file_bytes=1000.0)
        total = config.total_data_bytes
        assert config.cache_bytes_per_server * config.num_servers == pytest.approx(0.1 * total)

    def test_expected_hit_ratio_drops_with_replication(self):
        config = DatabaseClusterConfig.base(**SMALL)
        assert config.expected_hit_ratio(2) < config.expected_hit_ratio(1)

    def test_all_cached_hit_ratio_is_one(self):
        config = DatabaseClusterConfig.all_cached(**SMALL)
        assert config.expected_hit_ratio(1) == pytest.approx(1.0)

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            DatabaseClusterConfig(num_servers=1)
        with pytest.raises(ConfigurationError):
            DatabaseClusterConfig(cache_to_data_ratio=0.0)
        with pytest.raises(ConfigurationError):
            DatabaseClusterConfig(copies=5)


class TestDatabaseExperiment:
    def test_replication_helps_at_low_load(self, base_experiment):
        baseline = base_experiment.run(0.1, copies=1, num_requests=REQUESTS)
        replicated = base_experiment.run(0.1, copies=2, num_requests=REQUESTS)
        assert replicated.mean < baseline.mean
        assert replicated.p999 < baseline.p999

    def test_replication_hurts_at_high_load(self, base_experiment):
        baseline = base_experiment.run(0.45, copies=1, num_requests=REQUESTS)
        replicated = base_experiment.run(0.45, copies=2, num_requests=REQUESTS)
        assert replicated.mean > baseline.mean

    def test_tail_improvement_exceeds_mean_improvement(self, base_experiment):
        baseline = base_experiment.run(0.2, copies=1, num_requests=REQUESTS)
        replicated = base_experiment.run(0.2, copies=2, num_requests=REQUESTS)
        mean_factor = baseline.mean / replicated.mean
        tail_factor = baseline.summary.p99 / replicated.summary.p99
        assert tail_factor > mean_factor > 1.0

    def test_cache_hit_ratio_near_configured_ratio(self, base_experiment):
        result = base_experiment.run(0.2, copies=1, num_requests=REQUESTS)
        assert result.cache_hit_ratio == pytest.approx(0.1, abs=0.05)

    def test_saturating_load_rejected(self, base_experiment):
        with pytest.raises(CapacityError):
            base_experiment.run(0.6, copies=2, num_requests=REQUESTS)

    def test_all_cached_config_removes_benefit(self):
        experiment = DatabaseClusterExperiment(DatabaseClusterConfig.all_cached(**SMALL))
        baseline = experiment.run(0.2, copies=1, num_requests=REQUESTS)
        replicated = experiment.run(0.2, copies=2, num_requests=REQUESTS)
        # With everything in memory the client-side overhead dominates, so
        # replication no longer reduces the mean (Figure 11).
        assert replicated.mean >= baseline.mean * 0.98

    def test_ec2_noise_increases_tail_improvement(self):
        dedicated = DatabaseClusterExperiment(DatabaseClusterConfig.base(**SMALL))
        noisy = DatabaseClusterExperiment(DatabaseClusterConfig.ec2(**SMALL))
        ded_base = dedicated.run(0.2, copies=1, num_requests=REQUESTS)
        ded_repl = dedicated.run(0.2, copies=2, num_requests=REQUESTS)
        ec2_base = noisy.run(0.2, copies=1, num_requests=REQUESTS)
        ec2_repl = noisy.run(0.2, copies=2, num_requests=REQUESTS)
        ded_factor = ded_base.p999 / ded_repl.p999
        ec2_factor = ec2_base.p999 / ec2_repl.p999
        assert ec2_factor > ded_factor

    def test_invalid_run_arguments(self, base_experiment):
        with pytest.raises(ConfigurationError):
            base_experiment.run(0.0, copies=1)
        with pytest.raises(ConfigurationError):
            base_experiment.run(0.1, copies=9)
        with pytest.raises(ConfigurationError):
            base_experiment.run(0.1, copies=1, num_requests=10)


class TestMemcachedExperiment:
    def test_replication_worsens_mean_at_moderate_load(self):
        experiment = MemcachedExperiment()
        baseline = experiment.run(0.3, copies=1, num_requests=30_000)
        replicated = experiment.run(0.3, copies=2, num_requests=30_000)
        assert replicated.mean > baseline.mean

    def test_overhead_fraction_matches_paper(self):
        # The stub measurement in the paper: ~0.016 ms on a ~0.18 ms service,
        # i.e. roughly 9%.
        assert MemcachedConfig().overhead_fraction() == pytest.approx(0.09, abs=0.02)

    def test_stub_runs_are_pure_client_time(self):
        experiment = MemcachedExperiment()
        stub_1 = experiment.run(0.001, copies=1, stub=True, num_requests=10_000)
        stub_2 = experiment.run(0.001, copies=2, stub=True, num_requests=10_000)
        config = experiment.config
        assert stub_1.mean == pytest.approx(config.client_base_s, rel=0.1)
        assert stub_2.mean - stub_1.mean == pytest.approx(config.client_extra_copy_s, rel=0.3)

    def test_stub_comparison_keys(self):
        comparison = MemcachedExperiment().stub_comparison(num_requests=5_000)
        assert set(comparison) == {"real_1", "real_2", "stub_1", "stub_2"}
        assert comparison["stub_1"].mean < comparison["real_1"].mean

    def test_saturation_rejected(self):
        with pytest.raises(CapacityError):
            MemcachedExperiment().run(0.6, copies=2, num_requests=1_000)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            MemcachedConfig(mean_service_s=0.0)
        with pytest.raises(ConfigurationError):
            MemcachedConfig(copies=9)
