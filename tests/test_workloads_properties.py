"""Property-based tests for arrival processes and chunk partitioning.

Two groups of invariants:

* Poisson process closure properties — thinning (:func:`thin_arrivals`) and
  superposition (:func:`merge_arrival_times`) stay Poisson at the predicted
  rates, and both are pure functions of their seeds.
* The pipeline chunk partition (:func:`repro.pipeline.partition_chunks`) —
  exact coverage of the job's total work, positivity, substream determinism,
  and permutation-invariance of the fan-in maximum.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.pipeline import WorkerPool, partition_chunks
from repro.pipeline.workers import service_times
from repro.sim.rng import substream
from repro.workloads import PoissonArrivals, merge_arrival_times, thin_arrivals

# Invariant checks, not fuzzing: keep hypothesis runtimes modest.
DEFAULT_SETTINGS = settings(max_examples=50, deadline=None)


class TestThinning:
    @DEFAULT_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        keep=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_kept_times_are_a_sorted_subset(self, seed, keep):
        rng = np.random.default_rng(seed)
        times = PoissonArrivals(rate=50.0, rng=rng).times_count(500)
        kept = thin_arrivals(times, keep, rng)
        assert np.all(np.diff(kept) > 0)
        assert np.all(np.isin(kept, times))

    @DEFAULT_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_thinning_is_a_pure_function_of_the_seed(self, seed):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            times = PoissonArrivals(rate=20.0, rng=rng).times_count(300)
            results.append(thin_arrivals(times, 0.3, rng))
        np.testing.assert_array_equal(results[0], results[1])

    def test_edge_probabilities(self, rng):
        times = PoissonArrivals(rate=10.0, rng=rng).times_count(100)
        assert thin_arrivals(times, 0.0, rng).size == 0
        np.testing.assert_array_equal(thin_arrivals(times, 1.0, rng), times)

    def test_rejects_probability_outside_unit_interval(self, rng):
        times = np.arange(5, dtype=float)
        with pytest.raises(ConfigurationError):
            thin_arrivals(times, -0.1, rng)
        with pytest.raises(ConfigurationError):
            thin_arrivals(times, 1.5, rng)

    def test_thinned_rate_approaches_p_lambda(self, rng):
        # Thinning Poisson(λ) with keep probability p is Poisson(p·λ): the
        # kept count over a long horizon concentrates around p·λ·T.
        rate, keep, horizon = 200.0, 0.25, 100.0
        times = PoissonArrivals(rate=rate, rng=rng).times_until(horizon)
        kept = thin_arrivals(times, keep, rng)
        assert kept.size == pytest.approx(keep * rate * horizon, rel=0.05)
        gaps = np.diff(kept)
        assert float(np.mean(gaps)) == pytest.approx(1.0 / (keep * rate), rel=0.05)


class TestSuperposition:
    @DEFAULT_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_streams=st.integers(min_value=1, max_value=6),
    )
    def test_merge_is_the_sorted_union(self, seed, num_streams):
        rng = np.random.default_rng(seed)
        streams = [
            PoissonArrivals(rate=5.0, rng=rng).times_count(50)
            for _ in range(num_streams)
        ]
        merged = merge_arrival_times(streams)
        assert merged.size == sum(s.size for s in streams)
        assert np.all(np.diff(merged) >= 0)
        np.testing.assert_array_equal(merged, np.sort(np.concatenate(streams)))

    def test_superposed_rate_is_the_sum_of_rates(self, rng):
        # Superposition of independent Poisson processes is Poisson with the
        # summed rate — the aggregate inter-arrival mean is 1/Σλ.
        streams = [
            PoissonArrivals(rate=rate, rng=rng).times_until(200.0)
            for rate in (5.0, 15.0, 30.0)
        ]
        merged = merge_arrival_times(streams)
        assert float(np.mean(np.diff(merged))) == pytest.approx(1.0 / 50.0, rel=0.05)

    def test_thinning_inverts_superposition_in_rate(self, rng):
        # thin(merge(A, B), λA/(λA+λB)) has A's rate: closure both ways.
        a = PoissonArrivals(rate=40.0, rng=rng).times_until(100.0)
        b = PoissonArrivals(rate=10.0, rng=rng).times_until(100.0)
        kept = thin_arrivals(merge_arrival_times([a, b]), 0.8, rng)
        assert kept.size == pytest.approx(40.0 * 100.0, rel=0.07)


class TestPartitionChunks:
    @DEFAULT_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_chunks=st.integers(min_value=1, max_value=200),
        total_work=st.floats(min_value=1e-3, max_value=1e6),
        alpha=st.floats(min_value=0.2, max_value=5.0),
    )
    # A dominant final chunk: the plain remainder rounds and misses the total.
    @example(seed=16, num_chunks=16, total_work=62065.57932168128, alpha=0.8125)
    def test_exact_coverage_and_positivity(self, seed, num_chunks, total_work, alpha):
        sizes = partition_chunks(
            total_work, num_chunks, alpha, np.random.default_rng(seed)
        )
        assert sizes.shape == (num_chunks,)
        assert np.all(sizes > 0)
        # Coverage is exact by construction: the last chunk absorbs the
        # rounding residue, so this sum (in this order) is the total, bitwise.
        assert float(np.sum(sizes[:-1])) + float(sizes[-1]) == float(total_work)

    @DEFAULT_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        job_index=st.integers(min_value=0, max_value=1000),
    )
    def test_substream_determinism(self, seed, job_index):
        draws = [
            partition_chunks(
                100.0, 32, 1.6, substream(seed, "pipeline", "sizes", job_index, 0)
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(draws[0], draws[1])

    @DEFAULT_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_fan_in_max_is_permutation_invariant(self, seed):
        # The job fan-in is a max over chunk completions; relabelling chunks
        # (permuting sizes together with their straggler draws) cannot move
        # it, because service_times is elementwise.
        rng = np.random.default_rng(seed)
        sizes = partition_chunks(50.0, 24, 1.4, rng)
        uniforms = rng.random(24)
        pool = WorkerPool(num_workers=24, straggler_alpha=1.8)
        baseline = service_times(sizes, uniforms, pool)
        order = rng.permutation(24)
        permuted = service_times(sizes[order], uniforms[order], pool)
        assert float(np.max(permuted)) == float(np.max(baseline))
        np.testing.assert_array_equal(np.sort(permuted), np.sort(baseline))
