"""Pins the policy-first replication API's two core contracts.

1. **Eager equivalence**: ``policy="k2"`` is byte-identical to the historical
   ``copies=2`` path — per substrate at the model level, and at the sweep
   level (point records, seeds included) through the parameter normalisation
   in :func:`repro.experiments.adapters.normalize_point_params`.
2. **Hedging semantics**: deferred policies launch strictly fewer copies than
   eager replication while still launching backups for slow requests, and the
   whole policy axis is deterministic across worker counts.
"""

import json

import numpy as np
import pytest

from repro.cluster import (
    DatabaseClusterConfig,
    DatabaseClusterExperiment,
    MemcachedConfig,
    MemcachedExperiment,
)
from repro.distributions.standard import Exponential
from repro.exceptions import ConfigurationError
from repro.experiments import ParameterGrid, Scenario, SweepRunner
from repro.experiments.adapters import normalize_point_params
from repro.network.replication import ReplicationConfig
from repro.queueing.replication_model import ReplicatedQueueingModel
from repro.wan import DnsExperiment, DnsExperimentConfig, HandshakeModel


# ---------------------------------------------------------------------------
# Eager equivalence, substrate by substrate
# ---------------------------------------------------------------------------


def test_queueing_policy_k2_matches_copies_2():
    service = Exponential(1.0)
    legacy = ReplicatedQueueingModel(service, copies=2, seed=11)
    policied = ReplicatedQueueingModel(service, policy="k2", seed=11)
    a = legacy.run_fast(0.3, num_requests=2_000)
    b = policied.run_fast(0.3, num_requests=2_000)
    assert np.array_equal(a.response_times, b.response_times)

    a_ev = legacy.run_event_driven(0.3, num_requests=600)
    b_ev = policied.run_event_driven(0.3, num_requests=600)
    assert np.array_equal(a_ev.response_times, b_ev.response_times)


def test_database_policy_k2_matches_copies_2():
    config = DatabaseClusterConfig(num_files=4_000, seed=7)
    a = DatabaseClusterExperiment(config).run(0.2, copies=2, num_requests=1_500)
    b = DatabaseClusterExperiment(config).run(0.2, policy="k2", num_requests=1_500)
    assert np.array_equal(a.response_times, b.response_times)
    assert a.metrics == b.metrics


def test_memcached_policy_k2_matches_copies_2():
    experiment = MemcachedExperiment(MemcachedConfig(seed=5))
    for stub in (False, True):
        a = experiment.run(0.3, copies=2, stub=stub, num_requests=2_000)
        b = experiment.run(0.3, policy="k2", stub=stub, num_requests=2_000)
        assert np.array_equal(a.response_times, b.response_times)


def test_dns_policy_k2_matches_copies_list():
    config = DnsExperimentConfig(
        num_vantage_points=3,
        num_servers=5,
        stage1_queries_per_server=60,
        stage2_queries_per_config=200,
        seed=3,
    )
    experiment = DnsExperiment(config)
    eager = experiment.run(copies_list=[1, 2])
    policied = experiment.run_policy("k2")
    assert np.array_equal(policied.samples, eager.samples_by_copies[2])
    assert np.array_equal(policied.best_single_samples, eager.best_single_samples)
    assert policied.mean_queries_per_trial == 2.0


def test_handshake_policy_k2_matches_copies_2():
    model = HandshakeModel()
    a = model.sample_completion_times(2, 5_000, np.random.default_rng(1))
    b, backups = model.sample_completion_times_policy("k2", 5_000, np.random.default_rng(1))
    assert np.array_equal(a, b)
    assert backups == 3 * 5_000


def test_fattree_policy_mapping():
    assert ReplicationConfig.from_policy("k2") == ReplicationConfig()
    assert ReplicationConfig.from_policy("none") == ReplicationConfig.disabled()
    hedged = ReplicationConfig.from_policy("hedge:100us")
    assert hedged.deferred and hedged.replica_delay_s == pytest.approx(1e-4)
    with pytest.raises(ConfigurationError):
        ReplicationConfig.from_policy("k3")
    with pytest.raises(ConfigurationError):
        ReplicationConfig.from_policy("hedge:p95")


# ---------------------------------------------------------------------------
# Sweep-level equivalence: normalisation makes the policy axis share bytes
# with the legacy axis
# ---------------------------------------------------------------------------


def _point_records(result):
    return [json.dumps(p.__dict__, sort_keys=True, default=repr) for p in result.points]


def test_registry_scenario_policy_axis_matches_copies_axis():
    base = {"distribution": "exponential", "num_requests": 800}
    legacy = Scenario(
        name="equiv",
        entry_point="queueing",
        base_params=dict(base),
        grid=ParameterGrid({"load": [0.2], "copies": [1, 2]}),
    )
    policied = Scenario(
        name="equiv",
        entry_point="queueing",
        base_params=dict(base),
        grid=ParameterGrid({"load": [0.2], "policy": ["none", "k2"]}),
    )
    a = SweepRunner(workers=1).run(legacy)
    b = SweepRunner(workers=1).run(policied)
    assert _point_records(a) == _point_records(b)
    # Same point params => same substream-derived seeds: the strongest form
    # of "policy='k2' reproduces the seed copies=2 artifact".
    assert [p.seed for p in a.points] == [p.seed for p in b.points]


def test_normalize_point_params_rules():
    # Eager specs collapse into the substrate's legacy parameter...
    assert normalize_point_params("queueing", {"policy": "k2", "load": 0.2}) == {
        "copies": 2,
        "load": 0.2,
    }
    assert normalize_point_params("fattree", {"policy": "none"}) == {"replication": False}
    assert normalize_point_params("fattree", {"policy": "k2"}) == {"replication": True}
    # ...non-eager specs are canonicalised in place...
    assert normalize_point_params("dns", {"policy": "hedge:0.05s"}) == {
        "policy": "hedge:50ms"
    }
    # ...an explicit policy overrides a base-param legacy value...
    assert normalize_point_params("queueing", {"policy": "hedge:p95", "copies": 2}) == {
        "policy": "hedge:p95"
    }
    # ...but sweeping both descriptions at once is a configuration error.
    with pytest.raises(ConfigurationError):
        normalize_point_params(
            "queueing", {"policy": "hedge:p95", "copies": 2}, axes={"copies": [1, 2]}
        )
    with pytest.raises(ConfigurationError):
        normalize_point_params("fattree", {"policy": "k4"})
    with pytest.raises(ConfigurationError):
        normalize_point_params("queueing", {"policy": "not-a-spec"})


# ---------------------------------------------------------------------------
# Hedging semantics
# ---------------------------------------------------------------------------


def test_hedging_launches_fewer_copies_than_eager():
    service = Exponential(1.0)
    none = ReplicatedQueueingModel(service, policy="none", seed=1).run_fast(
        0.2, num_requests=2_000
    )
    hedged = ReplicatedQueueingModel(service, policy="hedge:1s", seed=1).run_fast(
        0.2, num_requests=2_000
    )
    eager = ReplicatedQueueingModel(service, policy="k2", seed=1).run_fast(
        0.2, num_requests=2_000
    )
    assert none.copies_launched == 2_000
    assert eager.copies_launched == 4_000
    assert 2_000 < hedged.copies_launched < 4_000
    # At a load below the threshold the deferred hedge recovers part of the
    # eager mean-latency benefit.
    assert eager.mean < hedged.mean < none.mean


def test_event_driven_cancel_on_win_launches_no_more_than_fast_path():
    service = Exponential(1.0)
    fast = ReplicatedQueueingModel(service, policy="hedge:1s", seed=2).run_fast(
        0.3, num_requests=800
    )
    cancelling = ReplicatedQueueingModel(service, policy="hedge:1s", seed=2).run_event_driven(
        0.3, num_requests=800
    )
    assert cancelling.copies_launched <= fast.copies_launched


def test_dns_hedging_sends_fewer_queries_for_most_of_the_benefit():
    config = DnsExperimentConfig(
        num_vantage_points=3,
        num_servers=5,
        stage1_queries_per_server=60,
        stage2_queries_per_config=300,
        seed=9,
    )
    experiment = DnsExperiment(config)
    eager = experiment.run_policy("k2")
    hedged = experiment.run_policy("hedge:50ms")
    assert 1.0 < hedged.mean_queries_per_trial < 2.0
    assert hedged.summary().mean < experiment.run_policy("none").summary().mean


def test_handshake_hedging_sends_tiny_fraction_of_duplicates():
    model = HandshakeModel()
    eager = model.policy_result("k2", num_samples=20_000, seed=4)
    hedged = model.policy_result("hedge:200ms", num_samples=20_000, seed=4)
    baseline = model.policy_result("none", num_samples=20_000, seed=4)
    assert hedged.backup_packets_per_handshake < 0.1 * eager.backup_packets_per_handshake
    assert hedged.mean < baseline.mean
    with pytest.raises(ConfigurationError):
        model.policy_result("hedge:p95")


def test_memcached_hedging_beats_eager_at_load():
    experiment = MemcachedExperiment(MemcachedConfig(seed=5))
    eager = experiment.run(0.3, policy="k2", num_requests=3_000)
    hedged = experiment.run(0.3, policy="hedge:400us", num_requests=3_000)
    assert hedged.copies_launched < eager.copies_launched
    assert hedged.mean < eager.mean


# ---------------------------------------------------------------------------
# Determinism of the policy axis across worker counts
# ---------------------------------------------------------------------------


def test_policy_ablation_scenario_deterministic_across_workers():
    from repro.experiments.registry import get_scenario
    from repro.experiments.runner import SweepRunner

    scenario = get_scenario("standard-queueing-policy-ablation")
    inline = SweepRunner(workers=1).run(scenario, overrides={"num_requests": 300})
    pooled = SweepRunner(workers=2).run(scenario, overrides={"num_requests": 300})
    assert inline == pooled
