"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import EmpiricalCDF, summarize
from repro.cluster import ConsistentHashRing, LRUByteCache
from repro.core.costbenefit import CostBenefitAnalysis
from repro.core.policy import HedgeAfterDelay, KCopies
from repro.core.selection import UniformRandom
from repro.distributions import DiscreteDistribution, TwoPoint
from repro.queueing.mm1 import mm1_replicated_mean_response, mm1_threshold_load
from repro.sim import PriorityQueueResource, Simulator
from repro.sim.rng import substream

# Keep hypothesis runtimes modest: these are invariant checks, not fuzzing.
DEFAULT_SETTINGS = settings(max_examples=60, deadline=None)


@DEFAULT_SETTINGS
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=300))
def test_summary_bounds_and_ordering(samples):
    summary = summarize(samples)
    # Allow one ulp of slack: numpy's pairwise-summation mean of identical
    # values can differ from them in the last bit.
    slack = 1e-12 * max(summary.maximum, 1e-300)
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.p50 <= summary.p90 <= summary.p95 <= summary.p99 <= summary.p999
    assert summary.minimum <= summary.p50
    assert summary.p999 <= summary.maximum


@DEFAULT_SETTINGS
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=300),
       st.floats(min_value=0.0, max_value=1e6))
def test_cdf_ccdf_complement(samples, threshold):
    cdf = EmpiricalCDF(samples)
    assert 0.0 <= cdf.cdf(threshold) <= 1.0
    assert math.isclose(cdf.cdf(threshold) + cdf.ccdf(threshold), 1.0, abs_tol=1e-12)


@DEFAULT_SETTINGS
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
def test_consistent_hash_replicas_distinct_and_in_range(num_servers, num_keys):
    ring = ConsistentHashRing(num_servers, virtual_nodes=16)
    for key_index in range(num_keys):
        copies = min(2, num_servers)
        replicas = ring.replicas_for(f"key-{key_index}", copies=copies)
        assert len(set(replicas)) == copies
        assert all(0 <= r < num_servers for r in replicas)


@DEFAULT_SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.floats(min_value=1.0, max_value=400.0)),
        min_size=1,
        max_size=200,
    )
)
def test_lru_cache_never_exceeds_capacity(accesses):
    cache = LRUByteCache(1000.0)
    for key, size in accesses:
        cache.access(key, size)
        assert cache.used_bytes <= 1000.0 + 1e-9
        assert cache.hits + cache.misses > 0


@DEFAULT_SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1), st.floats(min_value=1.0, max_value=500.0)),
        min_size=1,
        max_size=100,
    )
)
def test_priority_queue_occupancy_invariant(pushes):
    queue = PriorityQueueResource(capacity_bytes=2_000.0, levels=2)
    for priority, size in pushes:
        queue.push(object(), size, priority=priority)
        assert queue.occupancy_bytes <= 2_000.0 + 1e-9
        assert queue.occupancy_bytes >= -1e-9
    popped = 0
    while not queue.empty:
        queue.pop()
        popped += 1
    assert popped <= len(pushes)
    assert abs(queue.occupancy_bytes) < 1e-6


@DEFAULT_SETTINGS
@given(st.floats(min_value=0.01, max_value=0.32), st.integers(min_value=2, max_value=4))
def test_mm1_replication_helps_below_threshold(load, copies):
    if copies * load >= 0.95:
        return
    threshold = mm1_threshold_load(copies)
    baseline = 1.0 / (1.0 - load)
    replicated = mm1_replicated_mean_response(load, copies)
    if load < threshold - 1e-9:
        assert replicated < baseline
    elif load > threshold + 1e-9:
        assert replicated > baseline


@DEFAULT_SETTINGS
@given(st.floats(min_value=0.0, max_value=0.99))
def test_two_point_family_always_unit_mean(p):
    dist = TwoPoint(p) if p > 0 else TwoPoint(0.0)
    assert math.isclose(dist.mean(), 1.0, rel_tol=1e-9)
    assert dist.variance() >= -1e-12


@DEFAULT_SETTINGS
@given(
    st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=20),
)
def test_discrete_distribution_normalisation(values, weights):
    n = min(len(values), len(weights))
    values, weights = values[:n], np.asarray(weights[:n])
    probs = weights / weights.sum()
    dist = DiscreteDistribution(values, probs)
    normalised = dist.normalized()
    assert math.isclose(normalised.mean(), 1.0, rel_tol=1e-9)
    assert normalised.variance() >= -1e-9


@DEFAULT_SETTINGS
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
def test_uniform_selection_distinct(num_backends, copies):
    if copies > num_backends:
        return
    chosen = UniformRandom(seed=0).choose(num_backends, copies)
    assert len(set(chosen)) == copies


@DEFAULT_SETTINGS
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.0, max_value=1.0))
def test_policy_launch_delays_start_at_zero(copies, delay):
    assert KCopies(copies).launch_delays()[0] == 0.0
    hedge = HedgeAfterDelay(delay, extra_copies=copies)
    delays = hedge.launch_delays()
    assert delays[0] == 0.0
    assert delays == sorted(delays)
    assert len(delays) == copies + 1


@DEFAULT_SETTINGS
@given(st.floats(min_value=0.001, max_value=1e4), st.floats(min_value=1.0, max_value=1e6))
def test_cost_benefit_consistency(saved_ms, extra_bytes):
    analysis = CostBenefitAnalysis(latency_saved_ms=saved_ms, extra_bytes=extra_bytes)
    assert analysis.worthwhile == (analysis.savings_ms_per_kb > 16.0)
    assert math.isclose(analysis.margin_factor * 16.0, analysis.savings_ms_per_kb, rel_tol=1e-9)


@DEFAULT_SETTINGS
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_substream_reproducibility(seed):
    a = substream(seed, "x").random(3)
    b = substream(seed, "x").random(3)
    assert (a == b).all()


@DEFAULT_SETTINGS
@given(
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0), st.integers(min_value=0, max_value=5)),
             min_size=1, max_size=50)
)
def test_simulator_processes_events_in_order(events):
    sim = Simulator()
    fired = []
    for delay, priority in events:
        sim.schedule(delay, lambda d=delay: fired.append(d), priority=priority)
    sim.run()
    assert fired == sorted(fired)
    assert sim.events_processed == len(events)
