"""Tests for the cost-benefit analysis and the threshold API."""

import pytest

from repro.core import (
    CONJECTURED_LOWER_BOUND,
    DEFAULT_BREAK_EVEN_MS_PER_KB,
    THRESHOLD_UPPER_BOUND,
    CostBenefitAnalysis,
    exponential_threshold_load,
    marginal_cost_benefit,
    threshold_load_simulated,
)
from repro.core.thresholds import threshold_band
from repro.distributions import Exponential
from repro.exceptions import ConfigurationError


class TestCostBenefit:
    def test_ms_per_kb_computation(self):
        analysis = CostBenefitAnalysis(latency_saved_ms=25.0, extra_bytes=150.0)
        assert analysis.savings_ms_per_kb == pytest.approx(25.0 / 0.15)
        assert analysis.worthwhile

    def test_break_even_boundary(self):
        at_threshold = CostBenefitAnalysis(latency_saved_ms=16.0, extra_bytes=1000.0)
        assert not at_threshold.worthwhile  # strictly greater than required
        above = CostBenefitAnalysis(latency_saved_ms=16.1, extra_bytes=1000.0)
        assert above.worthwhile

    def test_margin_factor(self):
        analysis = CostBenefitAnalysis(latency_saved_ms=160.0, extra_bytes=1000.0)
        assert analysis.margin_factor == pytest.approx(10.0)

    def test_paper_dns_example(self):
        # "0.1 sec / 4500 extra bytes ≈ 23 ms/KB, which is more than twice the
        # break-even latency savings."
        analysis = CostBenefitAnalysis(latency_saved_ms=100.0, extra_bytes=4500.0)
        assert analysis.savings_ms_per_kb == pytest.approx(22.2, abs=0.5)
        assert analysis.margin_factor > 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            CostBenefitAnalysis(latency_saved_ms=1.0, extra_bytes=0.0)
        with pytest.raises(ConfigurationError):
            CostBenefitAnalysis(latency_saved_ms=1.0, extra_bytes=10.0, break_even_ms_per_kb=0.0)

    def test_default_break_even_is_papers(self):
        assert DEFAULT_BREAK_EVEN_MS_PER_KB == 16.0


class TestMarginalAnalysis:
    def test_incremental_savings(self):
        analyses = marginal_cost_benefit([100.0, 60.0, 50.0, 48.0], bytes_per_copy=500.0)
        assert len(analyses) == 3
        assert analyses[0].latency_saved_ms == pytest.approx(40.0)
        assert analyses[0].worthwhile
        assert not analyses[2].worthwhile

    def test_negative_marginal_preserved(self):
        analyses = marginal_cost_benefit([10.0, 12.0], bytes_per_copy=500.0)
        assert analyses[0].latency_saved_ms == pytest.approx(-2.0)
        assert not analyses[0].worthwhile

    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            marginal_cost_benefit([10.0], bytes_per_copy=100.0)


class TestThresholdApi:
    def test_exponential_threshold(self):
        assert exponential_threshold_load() == pytest.approx(1.0 / 3.0)
        assert exponential_threshold_load(3) == pytest.approx(0.25)

    def test_band(self):
        low, high = threshold_band(2)
        assert low == pytest.approx(CONJECTURED_LOWER_BOUND)
        assert high == pytest.approx(THRESHOLD_UPPER_BOUND)
        assert threshold_band(4)[1] == pytest.approx(0.25)

    def test_simulated_wrapper_in_band_for_exponential(self):
        threshold = threshold_load_simulated(
            Exponential(1.0), num_requests=20_000, tolerance=0.02, seed=1
        )
        assert 0.25 <= threshold <= 0.45
