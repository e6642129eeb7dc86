"""Byte pins on every offline run that goes through the hedged FIFO engine.

The database, memcached, queueing and pipeline substrates run their hedged
work through the FIFO hedging engines of :mod:`repro.core`
(:func:`~repro.core.cancellation.simulate_cancelling_arrivals` and the
known-completion pass :func:`~repro.core.policy.simulate_hedged_arrivals`).
No registered scenario uses ``nocancel``, so neither the sweep artifacts nor
the ledger digests see those runs; this module pins them directly:

* substrate runs, fingerprinted as the sha256 of the response-time bytes plus
  the exact ``copies_launched`` / ``copies_cancelled`` / ``cache_hit_ratio``
  values, under fixed-delay and adaptive nocancel hedges, static and with
  churn (a join and a removal);
* the queueing model's ``run_event_driven`` under eager, cancelling and
  nocancel policies;
* the checked-in golden artifacts of the engine's scenario consumers
  (``tests/data/golden-*.json``), which CI also re-derives through the CLI.

The values are literals, not re-derived from a reference, so any change to
those engines that moves a single byte fails here.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.cluster import (
    DatabaseClusterConfig,
    DatabaseClusterExperiment,
    MemcachedConfig,
    MemcachedExperiment,
)
from repro.distributions.standard import Exponential
from repro.experiments import SweepRunner, get_scenario
from repro.queueing.replication_model import ReplicatedQueueingModel

DATA = os.path.join(os.path.dirname(__file__), "data")


def fingerprint(result):
    """``(sha256 of the response-time bytes, launched, cancelled, hit ratio)``."""
    times = np.ascontiguousarray(result.response_times, dtype=np.float64)
    return (
        hashlib.sha256(times.tobytes()).hexdigest()[:16],
        result.copies_launched,
        getattr(result, "copies_cancelled", None),
        getattr(result, "cache_hit_ratio", None),
    )


def database_run(policy, churn):
    config = DatabaseClusterConfig.base(num_files=4_000, seed=3)
    return DatabaseClusterExperiment(config).run(
        0.3, policy=policy, num_requests=1_500, churn=churn
    )


def memcached_run(policy, churn):
    experiment = MemcachedExperiment(MemcachedConfig(seed=3))
    return experiment.run(0.4, policy=policy, num_requests=3_000, churn=churn)


def queueing_run(policy):
    model = ReplicatedQueueingModel(
        Exponential(1.0), policy=policy, client_overhead=0.05, seed=3
    )
    return model.run_event_driven(0.3, num_requests=1_500)


DATABASE_PINS = {
    ("hedge:20ms:nocancel", None): ("f15dcb3d9c66b1fe", 1576, None, 0.08565989847715735),
    ("hedge:5ms:nocancel:x2", None): ("36e72ba83971b49f", 4144, None, 0.01447876447876448),
    ("hedge:p95:nocancel", None): ("6383529458d6e935", 1598, None, 0.08197747183979975),
    ("hedge:20ms:nocancel", "add:4@0.4"): ("4ee07a9c54113833", 1643, None, 0.06812985825331504),
    ("hedge:p95:nocancel", "add:4@0.4"): ("46cfbec2a1786ab5", 1636, None, 0.06513761467889909),
    ("hedge:20ms:nocancel", "remove:2@0.4"): ("b69fa2fdba1c9f79", 2301, None, 0.03657362848893166),
    ("hedge:p95:nocancel", "remove:2@0.4"): ("8405d7e05549c1ab", 1805, None, 0.04158718046547119),
    ("hedge:20ms", None): ("3341b9c762017f9b", 1583, 34, 0.08591282375236892),
    ("hedge:20ms", "add:4@0.4"): ("fa96e2478f5c8942", 1629, 56, 0.06764841233317993),
}

MEMCACHED_PINS = {
    ("hedge:400us:nocancel", None): ("0eb5713ff5bf7d99", 3397, None, None),
    ("hedge:p95:nocancel", None): ("d35bd32e4e518bf1", 3150, None, None),
    ("hedge:400us:nocancel", "add:4@0.4"): ("e3774d49f7fb96b1", 3505, None, None),
    ("hedge:p95:nocancel", "add:4@0.4"): ("d69d88ce7a0da311", 3181, None, None),
    ("hedge:400us:nocancel", "remove:2@0.4"): ("3fe30c40ef452788", 4952, None, None),
    ("hedge:p95:nocancel", "remove:2@0.4"): ("d7971dab93b4300e", 4834, None, None),
    ("hedge:400us", None): ("0d08daacd273ada2", 3309, 102, None),
    ("hedge:400us", "remove:2@0.4"): ("7a587586de337c4a", 4929, 1326, None),
}

QUEUEING_PINS = {
    "k2": ("04917fcf70f9c8c9", 3000, None, None),
    "hedge:1s": ("00688f531fe83047", 2039, None, None),
    "hedge:500ms:nocancel": ("4cbdbbeda512c8ae", 2699, None, None),
}

#: Golden artifacts and the ``--set`` overrides CI re-derives them with.
GOLDENS = {
    "standard-db-hedging": {"num_requests": 2_000, "num_files": 4_000},
    "standard-memcached-hedging": {"num_requests": 2_000},
    "standard-db-rebalance": {"num_requests": 600, "num_files": 4_000},
    "standard-pipeline-dag": {"num_jobs": 12},
}


@pytest.mark.parametrize("policy,churn", sorted(DATABASE_PINS, key=repr))
def test_database_runs_keep_their_bytes(policy, churn):
    assert fingerprint(database_run(policy, churn)) == DATABASE_PINS[(policy, churn)]


@pytest.mark.parametrize("policy,churn", sorted(MEMCACHED_PINS, key=repr))
def test_memcached_runs_keep_their_bytes(policy, churn):
    assert fingerprint(memcached_run(policy, churn)) == MEMCACHED_PINS[(policy, churn)]


@pytest.mark.parametrize("policy", sorted(QUEUEING_PINS))
def test_queueing_event_driven_runs_keep_their_bytes(policy):
    assert fingerprint(queueing_run(policy)) == QUEUEING_PINS[policy]


def test_runs_without_cancellation_report_no_cancelled_count():
    assert database_run("hedge:20ms:nocancel", "add:4@0.4").copies_cancelled is None
    assert memcached_run("hedge:400us:nocancel", None).copies_cancelled is None


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_artifact_rederives_byte_for_byte(name):
    fresh = SweepRunner(workers=1).run(get_scenario(name), overrides=GOLDENS[name])
    with open(os.path.join(DATA, f"golden-{name}.json")) as handle:
        assert fresh.to_json() == handle.read()
