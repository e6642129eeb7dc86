"""Property-based tests for the pipeline chunk partition.

The invariants of :func:`repro.pipeline.partition_chunks`: exact coverage of
the job's total work, positivity, substream determinism, and
permutation-invariance of the fan-in maximum.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pipeline import WorkerPool, partition_chunks
from repro.pipeline.workers import service_times
from repro.sim.rng import substream

# Invariant checks, not fuzzing: keep hypothesis runtimes modest.
DEFAULT_SETTINGS = settings(max_examples=50, deadline=None)


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
