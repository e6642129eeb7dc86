"""Tests for the unified streaming metrics subsystem (`repro.metrics`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import LatencySummary, summarize
from repro.exceptions import ConfigurationError
from repro.metrics import (
    Counter,
    Histogram,
    LatencyRecorder,
    MetricsRegistry,
    SlidingWindow,
)

latency_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=400,
)


class TestCounter:
    def test_increment_and_value(self):
        counter = Counter("hits")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        assert counter.increments == 2
        assert int(counter) == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter().increment(-1)

    def test_fractional_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter().increment(0.9)


class TestSlidingWindow:
    def test_matches_numpy_percentile(self, rng):
        window = SlidingWindow(500)
        data = rng.lognormal(0.0, 1.0, 500)
        for value in data:
            window.record(float(value))
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert window.percentile(q) == pytest.approx(np.percentile(data, q))

    def test_eviction_keeps_only_recent(self, rng):
        window = SlidingWindow(100)
        data = rng.exponential(1.0, 1000)
        for value in data:
            window.record(float(value))
        recent = data[-100:]
        assert len(window) == 100
        assert window.values() == pytest.approx(list(recent))
        for q in (0, 50, 100):
            assert window.percentile(q) == pytest.approx(np.percentile(recent, q))

    def test_eviction_with_duplicate_values(self):
        window = SlidingWindow(3)
        for value in (1.0, 1.0, 1.0, 2.0, 1.0):
            window.record(value)
        assert sorted(window.values()) == [1.0, 1.0, 2.0]
        assert window.percentile(100) == 2.0

    def test_empty_and_invalid(self):
        with pytest.raises(ConfigurationError):
            SlidingWindow(0)
        window = SlidingWindow(5)
        with pytest.raises(ConfigurationError):
            window.percentile(50)
        window.record(1.0)
        with pytest.raises(ConfigurationError):
            window.percentile(101)
        with pytest.raises(ConfigurationError):
            window.record(float("nan"))


class TestHistogramExactMode:
    def test_exact_mode_matches_numpy_exactly(self, rng):
        data = rng.lognormal(0.0, 1.0, 500)
        histogram = Histogram(exact_threshold=1000)
        histogram.record_many(data)
        assert histogram.is_exact
        for q in (0, 25, 50, 90, 99, 100):
            assert histogram.percentile(q) == pytest.approx(np.percentile(data, q), rel=1e-12)

    def test_record_one_by_one_equals_batch(self, rng):
        data = rng.exponential(1.0, 300)
        one_by_one, batch = Histogram(exact_threshold=50), Histogram(exact_threshold=50)
        for value in data:
            one_by_one.record(float(value))
        batch.record_many(data)
        for q in (1, 50, 99):
            assert one_by_one.percentile(q) == pytest.approx(batch.percentile(q), rel=1e-9)
        assert one_by_one.count == batch.count == 300

    def test_invalid_samples_rejected(self):
        histogram = Histogram()
        with pytest.raises(ConfigurationError):
            histogram.record(-1.0)
        with pytest.raises(ConfigurationError):
            histogram.record(float("inf"))
        with pytest.raises(ConfigurationError):
            histogram.record_many([1.0, -2.0])

    def test_empty_histogram_errors(self):
        histogram = Histogram()
        for query in (histogram.mean, histogram.std, histogram.min, histogram.max):
            with pytest.raises(ConfigurationError):
                query()
        with pytest.raises(ConfigurationError):
            histogram.percentile(50)


class TestHistogramStreaming:
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda rng, n: rng.lognormal(0.0, 1.5, n),
            lambda rng, n: rng.exponential(0.01, n),
            lambda rng, n: rng.uniform(0.0, 5.0, n),
            lambda rng, n: rng.pareto(2.1, n) + 1.0,
            lambda rng, n: np.where(rng.random(n) < 0.01, 2.0, rng.lognormal(-3, 0.5, n)),
        ],
        ids=["lognormal", "exponential", "uniform", "pareto", "timeout-spike"],
    )
    def test_streaming_percentiles_close_to_numpy(self, rng, sampler):
        data = sampler(rng, 50_000)
        histogram = Histogram(exact_threshold=256)
        histogram.record_many(data)
        assert not histogram.is_exact
        tolerance = 1.25 * histogram.relative_error_bound()
        for q in (1, 10, 50, 90, 95, 99, 99.9):
            true = float(np.percentile(data, q))
            est = histogram.percentile(q)
            assert est == pytest.approx(true, rel=tolerance, abs=1e-9), f"q={q}"
        assert histogram.mean() == pytest.approx(data.mean())
        assert histogram.std() == pytest.approx(data.std(), rel=1e-9)
        assert histogram.min() == pytest.approx(data.min())
        assert histogram.max() == pytest.approx(data.max())

    @settings(max_examples=60, deadline=None)
    @given(samples=latency_lists)
    def test_property_random_streams_within_tolerance(self, samples):
        """The estimate lies within bin tolerance of the bracketing order stats.

        numpy interpolates *between* adjacent order statistics; a binned
        estimator can only promise a value (relative-)close to the range they
        span, which collapses to plain closeness whenever the bracketing
        samples agree (i.e. for any stream long enough for the rank to be
        interior).
        """
        data = np.asarray(samples, dtype=float)
        histogram = Histogram(exact_threshold=16)
        histogram.record_many(data)
        tolerance = 1.25 * histogram.relative_error_bound()
        for q in (0, 25, 50, 75, 90, 99, 100):
            lower = float(np.percentile(data, q, method="lower"))
            higher = float(np.percentile(data, q, method="higher"))
            est = histogram.percentile(q)
            assert lower * (1.0 - tolerance) - 1e-9 <= est <= higher * (1.0 + tolerance) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(samples=latency_lists, seed=st.integers(min_value=0, max_value=2**16))
    def test_property_large_streams_close_to_numpy(self, samples, seed):
        """On streams with interior ranks the estimate tracks numpy directly."""
        rng = np.random.default_rng(seed)
        data = np.concatenate([np.asarray(samples, dtype=float), rng.lognormal(0, 1, 2_000)])
        histogram = Histogram(exact_threshold=16)
        histogram.record_many(data)
        tolerance = 1.5 * histogram.relative_error_bound()
        for q in (10, 50, 90):
            true = float(np.percentile(data, q))
            est = histogram.percentile(q)
            assert est == pytest.approx(true, rel=tolerance, abs=1e-6)

    def test_extreme_percentiles_anchor_to_exact_min_max(self, rng):
        histogram = Histogram(exact_threshold=100)
        data = rng.lognormal(0.0, 1.0, 100_000)
        histogram.record_many(data)
        assert not histogram.is_exact
        assert histogram.percentile(100) == histogram.max() == pytest.approx(data.max())
        assert histogram.percentile(0) == histogram.min() == pytest.approx(data.min())

    def test_std_stable_for_large_magnitude_samples(self, rng):
        # Naive sum-of-squares accumulation loses all precision here; the
        # Welford/Chan moments must not.
        data = 1e8 + rng.normal(0.0, 0.5, 5_000)
        for histogram in (Histogram(exact_threshold=100), Histogram(exact_threshold=100_000)):
            histogram.record_many(data)
            assert histogram.std() == pytest.approx(float(data.std()), rel=1e-6)
            assert histogram.mean() == pytest.approx(float(data.mean()))
        one_by_one = Histogram(exact_threshold=100)
        for value in data[:2_000]:
            one_by_one.record(float(value))
        assert one_by_one.std() == pytest.approx(float(data[:2_000].std()), rel=1e-6)

    def test_zero_samples_land_in_zero_bucket(self):
        histogram = Histogram(exact_threshold=0)
        histogram.record_many([0.0] * 90 + [1.0] * 10)
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(99) == pytest.approx(1.0, rel=0.05)

    def test_memory_stays_bounded(self, rng):
        histogram = Histogram(exact_threshold=128)
        histogram.record_many(rng.lognormal(0.0, 2.0, 200_000))
        # ~13 decades of dynamic range at 128 bins/decade would still be <2k bins.
        assert histogram.occupied_bins < 2_000
        assert not histogram.is_exact

    def test_fraction_greater_than(self, rng):
        data = rng.exponential(1.0, 30_000)
        histogram = Histogram(exact_threshold=100)
        histogram.record_many(data)
        for threshold in (0.5, 1.0, 3.0):
            true = float(np.mean(data > threshold))
            assert histogram.fraction_greater_than(threshold) == pytest.approx(
                true, rel=0.1, abs=0.01
            )
        # Outside the observed range the answer is exact, even in binned mode.
        assert histogram.fraction_greater_than(float(data.max())) == 0.0
        assert histogram.fraction_greater_than(data.min() / 2.0) == 1.0

    def test_fraction_greater_than_point_mass(self):
        histogram = Histogram(exact_threshold=0)
        histogram.record_many([5.0] * 1_000)
        assert histogram.fraction_greater_than(5.0) == 0.0
        assert histogram.fraction_greater_than(4.99) == 1.0

    def test_summary_from_histogram(self, rng):
        data = rng.lognormal(0.0, 1.0, 40_000)
        histogram = Histogram(exact_threshold=100)
        histogram.record_many(data)
        streaming = histogram.summary()
        exact = summarize(data)
        assert isinstance(streaming, LatencySummary)
        assert streaming.count == exact.count
        assert streaming.mean == pytest.approx(exact.mean)
        assert streaming.std == pytest.approx(exact.std, rel=1e-9)
        tolerance = 1.25 * histogram.relative_error_bound()
        for attr in ("p50", "p90", "p95", "p99", "p999"):
            assert getattr(streaming, attr) == pytest.approx(getattr(exact, attr), rel=tolerance)


class TestLatencyRecorder:
    def test_exact_summary_identical_to_summarize(self, rng):
        data = rng.lognormal(0.0, 1.0, 5_000)
        recorder = LatencyRecorder()
        recorder.record_many(data)
        assert recorder.summary() == summarize(data)
        assert recorder.percentile(97.0) == pytest.approx(np.percentile(data, 97.0))
        assert recorder.fraction_later_than(1.0) == pytest.approx(float(np.mean(data > 1.0)))

    def test_streaming_interchangeable_with_exact(self, rng):
        data = rng.lognormal(0.0, 1.0, 50_000)
        exact = LatencyRecorder(mode="exact")
        streaming = LatencyRecorder(mode="streaming")
        exact.record_many(data)
        streaming.record_many(data)
        tolerance = 1.25 * streaming.histogram.relative_error_bound()
        exact_summary, streaming_summary = exact.summary(), streaming.summary()
        assert streaming_summary.count == exact_summary.count
        assert streaming_summary.mean == pytest.approx(exact_summary.mean)
        for attr in ("p50", "p90", "p95", "p99", "p999"):
            assert getattr(streaming_summary, attr) == pytest.approx(
                getattr(exact_summary, attr), rel=tolerance
            )
        # Both kinds of summary drop into the same result-table row shape.
        assert set(streaming_summary.as_row()) == set(exact_summary.as_row())

    def test_streaming_does_not_retain_samples(self):
        recorder = LatencyRecorder(mode="streaming")
        recorder.record(1.0)
        with pytest.raises(ConfigurationError):
            recorder.samples()

    def test_single_records_and_batches_mix(self):
        recorder = LatencyRecorder()
        recorder.record(0.5)
        recorder.record_many([1.0, 2.0])
        recorder.record(3.0)
        assert recorder.count == 4
        assert recorder.samples().tolist() == [0.5, 1.0, 2.0, 3.0]
        recorder.record(4.0)
        assert recorder.count == 5
        assert recorder.summary().count == 5

    def test_invalid_mode_and_samples(self):
        with pytest.raises(ConfigurationError):
            LatencyRecorder(mode="bogus")
        with pytest.raises(ConfigurationError):
            LatencyRecorder().record(-0.1)
        with pytest.raises(ConfigurationError):
            LatencyRecorder().summary()


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry("test")
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.recorder("r") is registry.recorder("r")
        assert len(registry) == 3
        assert "a" in registry and "missing" not in registry

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")

    def test_recorder_mode_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.recorder("latency", mode="streaming")
        with pytest.raises(ConfigurationError):
            registry.recorder("latency", mode="exact")
        # get() fetches the existing recorder regardless of mode.
        assert registry.get("latency").mode == "streaming"

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("hits").increment(3)
        registry.recorder("latency").record_many([0.1, 0.2, 0.3])
        registry.histogram("empty")
        snapshot = registry.snapshot()
        assert snapshot["hits"] == 3
        assert snapshot["latency"]["count"] == 3
        assert snapshot["empty"] is None
