"""Recording many batches in one call against one ``record_many`` per batch.

:meth:`Histogram.record_batches` and :meth:`LatencyRecorder.record_batches`
must leave exactly the state that one ``record_many`` call per batch leaves:
count, sum, mean and M2 (so std), min, max, the bins (in dict order too,
which :meth:`Histogram.fraction_greater_than` sums in), the zero bucket and,
in exact mode, the retained samples.  ``reference_record_many`` is the
per-batch ``Histogram.record_many`` that the batch routine replaced, kept
here verbatim so the one-batch case is checked against it as well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.metrics import Histogram, LatencyRecorder


def reference_bin_array(histogram, data):
    zeros = int(np.count_nonzero(data == 0.0))
    histogram._zero_count += zeros
    positive = data[data > 0.0]
    if positive.size == 0:
        return
    keys = np.floor(histogram.bins_per_decade * np.log10(positive)).astype(np.int64)
    unique, counts = np.unique(keys, return_counts=True)
    for key, count in zip(unique.tolist(), counts.tolist()):
        if key not in histogram._bins:
            histogram._bin_keys_cache = None
        histogram._bins[key] = histogram._bins.get(key, 0) + int(count)


def reference_record_many(histogram, values):
    """The former ``Histogram.record_many``."""
    data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if data.size == 0:
        return
    if not np.all(np.isfinite(data)) or np.any(data < 0):
        raise ConfigurationError("samples must be finite and >= 0")
    batch_mean = float(data.mean())
    batch_m2 = float(np.square(data - batch_mean).sum())
    histogram._combine_moments(int(data.size), batch_mean, batch_m2)
    histogram._sum += float(data.sum())
    histogram._min = min(histogram._min, float(data.min()))
    histogram._max = max(histogram._max, float(data.max()))
    if histogram._exact is not None and histogram._count <= histogram.exact_threshold:
        histogram._exact.extend(data.tolist())
        histogram._sorted_cache = None
        return
    if histogram._exact is not None:
        histogram._exact.extend(data.tolist())
        samples = np.asarray(histogram._exact, dtype=float)
        histogram._exact = None
        histogram._sorted_cache = None
        reference_bin_array(histogram, samples)
        return
    reference_bin_array(histogram, data)


def state(histogram):
    return (
        histogram.count,
        histogram.total(),
        histogram._mean,
        histogram._m2,
        histogram._min,
        histogram._max,
        list(histogram._bins.items()),
        histogram._zero_count,
        None if histogram._exact is None else list(histogram._exact),
    )


def three_ways(batches, singles=(), **config):
    """``(reference per batch, record_many per batch, one record_batches)``."""
    histograms = [Histogram(**config) for _ in range(3)]
    for histogram in histograms:
        for value in singles:
            histogram.record(value)
    for batch in batches:
        reference_record_many(histograms[0], batch)
        histograms[1].record_many(batch)
    histograms[2].record_batches(batches)
    return [state(histogram) for histogram in histograms]


samples = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
)
batch_lists = st.lists(st.lists(samples, max_size=40), max_size=30)


@settings(max_examples=150, deadline=None)
@given(
    batches=batch_lists,
    singles=st.lists(samples, max_size=5),
    exact_threshold=st.integers(0, 120),
    bins_per_decade=st.sampled_from([4, 128]),
    as_arrays=st.booleans(),
)
def test_batches_record_as_successive_record_many_calls(
    batches, singles, exact_threshold, bins_per_decade, as_arrays
):
    if as_arrays:
        batches = [np.asarray(batch, dtype=float) for batch in batches]
    reference, one_by_one, batched = three_ways(
        batches, singles, exact_threshold=exact_threshold, bins_per_decade=bins_per_decade
    )
    assert one_by_one == reference
    assert batched == reference


@pytest.mark.parametrize("exact_threshold", [0, 5_000, 1024])
def test_many_blocks_with_zeros_and_empty_batches(exact_threshold):
    """About 30k samples in 400 batches: several bin blocks, a spill partway."""
    rng = np.random.default_rng(11)
    batches = []
    for _ in range(400):
        batch = rng.lognormal(-7.0, 1.5, rng.integers(0, 150))
        batch[rng.random(batch.size) < 0.02] = 0.0
        batches.append(batch)
    batches.insert(200, rng.lognormal(5.0, 0.1, 9_000))  # longer than a block
    reference, one_by_one, batched = three_ways(batches, exact_threshold=exact_threshold)
    assert one_by_one == reference
    assert batched == reference


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 39])
def test_one_invalid_sample_records_nothing(bad, where):
    rng = np.random.default_rng(5)
    batches = [rng.exponential(1.0, 300) for _ in range(40)]
    batches[where] = batches[where].copy()
    batches[where][17] = bad
    histogram = Histogram(exact_threshold=100)
    histogram.record_many([1.0, 2.0])
    before = state(histogram)
    with pytest.raises(ConfigurationError):
        histogram.record_batches(batches)
    assert state(histogram) == before
    for mode in ("exact", "streaming"):
        recorder = LatencyRecorder(mode=mode)
        recorder.record_many([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            recorder.record_batches(batches)
        assert recorder.count == 2


@pytest.mark.parametrize("mode", ["exact", "streaming"])
def test_recorder_batches_equal_per_batch_calls(mode):
    rng = np.random.default_rng(2)
    batches = [rng.exponential(0.01, rng.integers(0, 200)) for _ in range(60)]
    batches[3] = []
    batches[7] = [0.0, 0.5]
    one_by_one, batched = LatencyRecorder(mode=mode), LatencyRecorder(mode=mode)
    for recorder in (one_by_one, batched):
        recorder.record(0.25)
    for batch in batches:
        one_by_one.record_many(batch)
    batched.record_batches(batches)
    assert batched.count == one_by_one.count
    assert batched.summary() == one_by_one.summary()
    if mode == "exact":
        np.testing.assert_array_equal(batched.samples(), one_by_one.samples())
    else:
        assert state(batched.histogram) == state(one_by_one.histogram)


def test_no_batches_record_nothing():
    histogram = Histogram()
    histogram.record_batches([])
    histogram.record_batches([[], np.empty(0)])
    assert state(histogram) == state(Histogram())
