"""Tests for the Section 2.1 replication-model simulator."""

import numpy as np
import pytest

from repro.distributions import Deterministic, Exponential, Pareto
from repro.exceptions import CapacityError, ConfigurationError
from repro.queueing import ReplicatedQueueingModel


class TestModelValidation:
    def test_copies_cannot_exceed_servers(self):
        with pytest.raises(ConfigurationError):
            ReplicatedQueueingModel(Exponential(1.0), num_servers=2, copies=3)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicatedQueueingModel(Exponential(1.0), client_overhead=-0.1)

    def test_saturating_load_rejected(self):
        model = ReplicatedQueueingModel(Exponential(1.0), copies=2)
        with pytest.raises(CapacityError):
            model.run_fast(0.5)

    def test_zero_load_rejected(self):
        model = ReplicatedQueueingModel(Exponential(1.0), copies=1)
        with pytest.raises(ConfigurationError):
            model.run_fast(0.0)

    @pytest.mark.parametrize("run_name", ["run_fast", "run_event_driven"])
    def test_both_paths_reject_tiny_request_counts(self, run_name):
        model = ReplicatedQueueingModel(Exponential(1.0), copies=2)
        with pytest.raises(ConfigurationError):
            getattr(model, run_name)(0.2, num_requests=5)

    @pytest.mark.parametrize("run_name", ["run_fast", "run_event_driven"])
    @pytest.mark.parametrize("warmup_fraction", [-0.1, 1.0, 1.5])
    def test_both_paths_reject_bad_warmup_fraction(self, run_name, warmup_fraction):
        # Before the shared _validate_run helper, run_event_driven silently
        # accepted e.g. warmup_fraction=1.5 and returned an empty result.
        model = ReplicatedQueueingModel(Exponential(1.0), copies=2)
        with pytest.raises(ConfigurationError):
            getattr(model, run_name)(0.2, num_requests=100, warmup_fraction=warmup_fraction)

    def test_event_driven_rejects_saturating_load(self):
        model = ReplicatedQueueingModel(Exponential(1.0), copies=2)
        with pytest.raises(CapacityError):
            model.run_event_driven(0.5, num_requests=100)


class TestAgainstTheory:
    def test_single_copy_matches_mm1_mean(self):
        model = ReplicatedQueueingModel(Exponential(1.0), num_servers=10, copies=1, seed=1)
        result = model.run_fast(0.3, num_requests=60_000)
        assert result.mean == pytest.approx(1.0 / 0.7, rel=0.05)

    def test_two_copies_match_mm1_replicated_mean(self):
        model = ReplicatedQueueingModel(Exponential(1.0), num_servers=10, copies=2, seed=1)
        result = model.run_fast(0.2, num_requests=60_000)
        assert result.mean == pytest.approx(1.0 / (2 * 0.6), rel=0.05)

    def test_replication_helps_exponential_below_third(self):
        baseline, replicated = (
            ReplicatedQueueingModel(Exponential(1.0), num_servers=10, copies=k, seed=2)
            .run_fast(0.25, num_requests=50_000)
            for k in (1, 2)
        )
        assert replicated.mean < baseline.mean

    def test_replication_hurts_exponential_above_third(self):
        baseline, replicated = (
            ReplicatedQueueingModel(Exponential(1.0), num_servers=10, copies=k, seed=2)
            .run_fast(0.42, num_requests=50_000)
            for k in (1, 2)
        )
        assert replicated.mean > baseline.mean

    def test_deterministic_low_load_mean_close_to_service(self):
        model = ReplicatedQueueingModel(Deterministic(1.0), copies=1, seed=0)
        result = model.run_fast(0.05, num_requests=20_000)
        assert result.mean == pytest.approx(1.0, rel=0.05)

    def test_replication_improves_tail_more_than_mean_for_pareto(self):
        service = Pareto(alpha=2.1, mean=1.0)
        baseline = ReplicatedQueueingModel(service, copies=1, seed=3).run_fast(0.2, 40_000)
        replicated = ReplicatedQueueingModel(service, copies=2, seed=3).run_fast(0.2, 40_000)
        mean_factor = baseline.mean / replicated.mean
        tail_factor = baseline.summary.p999 / replicated.summary.p999
        assert mean_factor > 1.0
        assert tail_factor > mean_factor


class TestMechanics:
    def test_response_times_positive_and_at_least_minimum_service(self):
        model = ReplicatedQueueingModel(Deterministic(1.0), copies=2, seed=0)
        result = model.run_fast(0.1, num_requests=5_000)
        assert float(result.response_times.min()) >= 1.0 - 1e-9

    def test_client_overhead_shifts_distribution(self):
        base = ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=5).run_fast(0.1, 20_000)
        shifted = ReplicatedQueueingModel(
            Exponential(1.0), copies=2, client_overhead=0.5, seed=5
        ).run_fast(0.1, 20_000)
        assert shifted.mean == pytest.approx(base.mean + 0.5, rel=0.02)

    def test_overhead_not_charged_without_replication(self):
        base = ReplicatedQueueingModel(Exponential(1.0), copies=1, seed=5).run_fast(0.1, 20_000)
        with_overhead = ReplicatedQueueingModel(
            Exponential(1.0), copies=1, client_overhead=0.5, seed=5
        ).run_fast(0.1, 20_000)
        assert with_overhead.mean == pytest.approx(base.mean)

    def test_same_seed_reproduces_results(self):
        a = ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=9).run_fast(0.2, 10_000)
        b = ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=9).run_fast(0.2, 10_000)
        assert np.array_equal(a.response_times, b.response_times)

    def test_different_seeds_differ(self):
        a = ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=1).run_fast(0.2, 10_000)
        b = ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=2).run_fast(0.2, 10_000)
        assert not np.array_equal(a.response_times, b.response_times)

    def test_copies_placed_on_distinct_servers(self, rng):
        model = ReplicatedQueueingModel(Exponential(1.0), num_servers=5, copies=3, seed=0)
        servers = model._choose_servers(rng, 500)
        assert servers.shape == (500, 3)
        for row in servers:
            assert len(set(row.tolist())) == 3

    def test_event_driven_matches_fast_path(self):
        model = ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=4)
        fast = model.run_fast(0.2, num_requests=4_000)
        event = model.run_event_driven(0.2, num_requests=4_000)
        assert np.array_equal(fast.response_times, event.response_times)
        assert fast.copies_launched == event.copies_launched

    @pytest.mark.parametrize("policy", ["k2", "hedge:500ms:nocancel", "hedge:p95:nocancel"])
    def test_event_driven_matches_fast_path_per_policy(self, policy):
        # Without cancellation both paths run the same known-completion
        # arithmetic (adaptive feedback included), so they agree bit for bit.
        fast = ReplicatedQueueingModel(
            Exponential(1.0), policy=policy, client_overhead=0.1, seed=4
        ).run_fast(0.2, num_requests=4_000)
        event = ReplicatedQueueingModel(
            Exponential(1.0), policy=policy, client_overhead=0.1, seed=4
        ).run_event_driven(0.2, num_requests=4_000)
        assert np.array_equal(fast.response_times, event.response_times)
        assert fast.copies_launched == event.copies_launched

    def test_results_summary_consistency(self):
        model = ReplicatedQueueingModel(Exponential(1.0), num_servers=10, copies=2, seed=0)
        result = model.run_fast(0.2, num_requests=5_000)
        assert result.summary.count == len(result.response_times)
        assert result.fraction_later_than(result.summary.p99) == pytest.approx(0.01, abs=0.005)
