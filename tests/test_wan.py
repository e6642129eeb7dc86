"""Tests for the Section 3 wide-area models: loss, handshake and DNS."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wan import (
    PAIR_LOSS_PROBABILITY,
    SINGLE_LOSS_PROBABILITY,
    DnsExperiment,
    DnsExperimentConfig,
    DnsServerModel,
    HandshakeModel,
    VantagePoint,
    handshake_cost_benefit,
)


class TestLossChannel:
    def test_measured_constants(self):
        assert SINGLE_LOSS_PROBABILITY == pytest.approx(0.0048)
        assert PAIR_LOSS_PROBABILITY == pytest.approx(0.0007)


class TestHandshakeModel:
    def test_mean_savings_matches_paper_scale(self):
        # The paper: "at least 25 ms" expected saving per handshake.
        model = HandshakeModel(rtt=0.05)
        assert model.expected_savings(2) >= 0.025
        assert model.first_order_savings(2) == pytest.approx(
            (3.0 + 3.0 + 3 * 0.05) * (0.0048 - 0.0007), rel=1e-6
        )

    def test_savings_increase_with_rtt(self):
        assert HandshakeModel(rtt=0.2).expected_savings() > HandshakeModel(rtt=0.02).expected_savings()

    def test_duplication_reduces_expected_completion(self):
        model = HandshakeModel()
        assert model.expected_completion_time(2) < model.expected_completion_time(1)

    def test_monte_carlo_matches_analytic_mean(self):
        model = HandshakeModel(rtt=0.05)
        samples = model.sample_completion_times(1, 300_000, np.random.default_rng(1))
        assert float(samples.mean()) == pytest.approx(model.expected_completion_time(1), rel=0.05)

    def test_min_completion_is_one_and_a_half_rtt(self):
        model = HandshakeModel(rtt=0.05)
        samples = model.sample_completion_times(2, 10_000, np.random.default_rng(2))
        assert float(samples.min()) == pytest.approx(1.5 * 0.05)

    def test_cost_benefit_exceeds_break_even(self):
        analysis = handshake_cost_benefit(num_samples=100_000)
        # Paper: ~170 ms/KB in the mean, far above the 16 ms/KB break-even.
        assert analysis["mean_analysis"].savings_ms_per_kb > 100.0
        assert analysis["mean_analysis"].worthwhile
        assert analysis["tail_analysis"].worthwhile

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            HandshakeModel(rtt=0.0)
        with pytest.raises(ConfigurationError):
            HandshakeModel(single_loss=0.001, pair_loss=0.01)
        with pytest.raises(ConfigurationError):
            HandshakeModel().sample_completion_times(1, 0)


class TestDnsServerModel:
    def test_samples_capped_at_timeout(self, rng):
        server = DnsServerModel(median_s=0.03, loss_probability=0.5)
        samples = server.sample(rng, 2000, timeout_s=2.0)
        assert samples.max() <= 2.0
        assert np.mean(samples == 2.0) > 0.3

    def test_lower_median_is_faster(self, rng):
        fast = DnsServerModel(median_s=0.01, loss_probability=0.0, congestion_probability=0.0)
        slow = DnsServerModel(median_s=0.1, loss_probability=0.0, congestion_probability=0.0)
        assert fast.true_mean(2.0, rng) < slow.true_mean(2.0, rng)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DnsServerModel(median_s=0.0)
        with pytest.raises(ConfigurationError):
            DnsServerModel(median_s=0.1, loss_probability=1.5)
        with pytest.raises(ConfigurationError):
            VantagePoint(name="x", servers=[])


@pytest.fixture(scope="module")
def dns_results():
    config = DnsExperimentConfig(
        num_vantage_points=6,
        stage1_queries_per_server=150,
        stage2_queries_per_config=800,
        seed=5,
    )
    return DnsExperiment(config).run(copies_list=[1, 2, 5, 10])


class TestDnsExperiment:
    def test_structure(self, dns_results):
        assert set(dns_results.samples_by_copies) == {1, 2, 5, 10}
        assert len(dns_results.best_single_samples) == 6 * 800

    def test_replication_reduces_mean(self, dns_results):
        means = {k: float(v.mean()) for k, v in dns_results.samples_by_copies.items()}
        assert means[2] < means[1]
        assert means[10] < means[2]

    def test_tail_fraction_reduced_substantially(self, dns_results):
        # Paper: >6x fewer responses later than 500 ms with 10 servers, and
        # a much larger reduction at 1.5 s.
        assert dns_results.tail_improvement(0.5, 10) > 3.0
        assert dns_results.fraction_later_than(0.5, 10) <= dns_results.fraction_later_than(0.5, 2)

    def test_reduction_percent_monotone_in_copies(self, dns_results):
        mean_reduction = dns_results.reduction_percent["mean"]
        assert mean_reduction[10] >= mean_reduction[2] > 0

    def test_substantial_reduction_with_two_servers(self, dns_results):
        # "We obtain a substantial reduction with just 2 DNS servers."
        assert dns_results.reduction_percent["mean"][2] > 10.0

    def test_marginal_analysis_shapes(self, dns_results):
        mean_marginal = dns_results.marginal_analysis("mean")
        p99_marginal = dns_results.marginal_analysis("p99")
        assert len(mean_marginal) == 3  # increments between 1,2,5,10
        # The first extra server is clearly worthwhile; by the last increment
        # the marginal mean value has fallen below the first increment.
        assert mean_marginal[0].savings_ms_per_kb > mean_marginal[-1].savings_ms_per_kb
        assert p99_marginal[0].worthwhile

    def test_ranking_prefers_better_servers(self):
        experiment = DnsExperiment(DnsExperimentConfig(num_vantage_points=2, seed=3))
        vantage = experiment.vantage_points[0]
        ranking = experiment.rank_servers(vantage)
        rng = np.random.default_rng(0)
        best_mean = vantage.servers[ranking[0]].true_mean(2.0, rng)
        worst_mean = vantage.servers[ranking[-1]].true_mean(2.0, rng)
        assert best_mean < worst_mean

    def test_invalid_copies_rejected(self):
        experiment = DnsExperiment(DnsExperimentConfig(num_vantage_points=2))
        with pytest.raises(ConfigurationError):
            experiment.run(copies_list=[0])
        with pytest.raises(ConfigurationError):
            experiment.run(copies_list=[99])

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DnsExperimentConfig(num_servers=1)
        with pytest.raises(ConfigurationError):
            DnsExperimentConfig(timeout_s=0.0)
