"""Tests for workload generation: Poisson arrivals and file sets."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workloads import FileSet, PoissonArrivals


class TestPoissonArrivals:
    def test_rate_matches_empirical_count(self, rng):
        process = PoissonArrivals(rate=100.0, rng=rng)
        times = process.times_until(50.0)
        assert len(times) == pytest.approx(5000, rel=0.1)

    def test_times_are_increasing(self, rng):
        times = PoissonArrivals(rate=10.0, rng=rng).times_count(1000)
        assert np.all(np.diff(times) > 0)

    def test_times_count_length(self, rng):
        assert len(PoissonArrivals(5.0, rng).times_count(123)) == 123

    def test_interarrival_mean(self, rng):
        times = PoissonArrivals(rate=4.0, rng=rng).times_count(100_000)
        assert float(np.mean(np.diff(times))) == pytest.approx(0.25, rel=0.03)

    def test_invalid_rate(self, rng):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate=0.0, rng=rng)

    def test_horizon_before_start_rejected(self, rng):
        process = PoissonArrivals(rate=1.0, rng=rng, start=10.0)
        with pytest.raises(ConfigurationError):
            process.times_until(5.0)


class TestFileSets:
    def test_fileset_properties(self):
        files = FileSet(sizes_bytes=np.array([100.0, 300.0]))
        assert files.num_files == 2
        assert files.total_bytes == 400.0
        assert files.mean_file_bytes == 200.0
        assert files.size_of(1) == 300.0

    def test_fileset_rejects_empty_and_nonpositive(self):
        with pytest.raises(ConfigurationError):
            FileSet(sizes_bytes=np.array([]))
        with pytest.raises(ConfigurationError):
            FileSet(sizes_bytes=np.array([0.0, 10.0]))

    def test_fileset_rejects_bad_index(self):
        files = FileSet(sizes_bytes=np.array([1.0]))
        with pytest.raises(ConfigurationError):
            files.size_of(5)
