"""Recording many batches in one call against one ``record_many`` per batch.

:meth:`Histogram.record_batches` and :meth:`LatencyRecorder.record_batches`
must leave exactly the state that one ``record_many`` call per batch leaves:
count, sum, mean and M2 (so std), min, max, the bins (as a key-to-count
mapping: nothing reads the order in which keys entered ``_bins``), the zero
bucket and, in exact mode, the retained samples.  ``reference_record_many``
is the per-batch ``Histogram.record_many`` that the batch routine replaced,
kept here verbatim with its moment update (``combine_moments``) so the
one-batch case is checked against it as well.

Every test runs twice: on the compiled ``fold_moments`` and ``bin_counts``
kernels, and with ``REPRO_CKERNELS=0`` on the numpy fold and
``np.bincount``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import _ckernels
from repro.exceptions import ConfigurationError
from repro.metrics import Histogram, LatencyRecorder
from repro.metrics.histogram import _BIN_BLOCK, BINS_PER_DECADE, _KeyTable


@pytest.fixture(autouse=True, params=["compiled", "numpy"])
def kernel_path(request, monkeypatch):
    """Record on the compiled kernels (skipping without a C compiler), then
    with ``REPRO_CKERNELS=0`` on the numpy leaves."""
    if request.param == "numpy":
        monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
    elif _ckernels.load() is None:
        pytest.skip("no C compiler available")
    return request.param


def reference_bin_array(histogram, data):
    zeros = int(np.count_nonzero(data == 0.0))
    histogram._zero_count += zeros
    positive = data[data > 0.0]
    if positive.size == 0:
        return
    keys = np.floor(BINS_PER_DECADE * np.log10(positive)).astype(np.int64)
    unique, counts = np.unique(keys, return_counts=True)
    for key, count in zip(unique.tolist(), counts.tolist()):
        if key not in histogram._bins:
            histogram._bin_keys_cache = None
        histogram._bins[key] = histogram._bins.get(key, 0) + int(count)


def combine_moments(histogram, batch_count, batch_mean, batch_m2):
    """Fold a batch's (count, mean, M2) into the running moments (Chan et al.)."""
    total = histogram._count + batch_count
    delta = batch_mean - histogram._mean
    histogram._mean += delta * batch_count / total
    histogram._m2 += batch_m2 + delta * delta * histogram._count * batch_count / total
    histogram._count = total


def reference_record_many(histogram, values):
    """The former ``Histogram.record_many``."""
    data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if data.size == 0:
        return
    if not np.all(np.isfinite(data)) or np.any(data < 0):
        raise ConfigurationError("samples must be finite and >= 0")
    batch_mean = float(data.mean())
    batch_m2 = float(np.square(data - batch_mean).sum())
    combine_moments(histogram, int(data.size), batch_mean, batch_m2)
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
        dict(histogram._bins),
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
    as_arrays=st.booleans(),
)
def test_batches_record_as_successive_record_many_calls(
    batches, singles, exact_threshold, as_arrays
):
    if as_arrays:
        batches = [np.asarray(batch, dtype=float) for batch in batches]
    reference, one_by_one, batched = three_ways(batches, singles, exact_threshold=exact_threshold)
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


def lognormal_batches(rng, count):
    """``count`` batches of 1 to 199 latency-like samples."""
    return [rng.lognormal(-9.0, 1.2, int(size)) for size in rng.integers(1, 200, count)]


@pytest.mark.parametrize("exact_threshold", [0, 1024, 20 * _BIN_BLOCK + 777])
def test_thirty_blocks_with_the_spill_in_a_later_block(exact_threshold):
    """Over 30 blocks of batches with zeros; the largest threshold spills
    inside about the twenty-first block, after every batch before it was
    kept exactly."""
    rng = np.random.default_rng(21)
    batches = lognormal_batches(rng, 1_300)
    for batch in batches[::17]:
        batch[: batch.size // 9] = 0.0
    assert sum(batch.size for batch in batches) > 30 * _BIN_BLOCK
    reference, one_by_one, batched = three_ways(batches, exact_threshold=exact_threshold)
    assert one_by_one == reference
    assert batched == reference


@pytest.mark.parametrize("exact_threshold", [0, 1024, 1_000_000])
@pytest.mark.parametrize("bad", [math.nan, -1e-9, math.inf])
def test_an_invalid_sample_in_the_last_block_records_nothing(exact_threshold, bad):
    rng = np.random.default_rng(8)
    batches = lognormal_batches(rng, 1_300)
    batches[-1] = np.append(batches[-1], bad)
    histogram = Histogram(exact_threshold=exact_threshold)
    histogram.record_many([1e-4, 0.0])
    before = state(histogram)
    with pytest.raises(ConfigurationError):
        histogram.record_batches(batches)
    assert state(histogram) == before


@pytest.mark.parametrize("kernel_path", ["compiled"], indirect=True)
def test_fold_moments_is_combine_moments():
    """The compiled fold against ``combine_moments``, batch by batch and in
    one call, for sizes on each side of the pairwise sum's 8- and
    128-sample steps and past 8,192 samples."""
    lib = _ckernels.load()
    rng = np.random.default_rng(6)
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 128, 129, 8_193, 20_000]
    batches = [1e6 + rng.standard_normal(n) * np.exp(rng.uniform(-3.0, 3.0, n)) for n in sizes]
    reference = Histogram()
    each = _ckernels.Moments(0, 0.0, 0.0, 0.0)
    scratch = np.empty(max(sizes))
    for batch in batches:
        total = float(batch.sum())
        mean = total / batch.size
        combine_moments(reference, batch.size, mean, float(np.square(batch - mean).sum()))
        reference._sum += total
        size = np.array([batch.size], np.int64)
        lib.fold_moments(each, batch.ctypes.data, size.ctypes.data, 1, scratch.ctypes.data)
        expected = (reference._count, reference._mean, reference._m2, reference._sum)
        assert (each.count, each.mean, each.m2, each.sum) == expected, batch.size
    at_once = _ckernels.Moments(0, 0.0, 0.0, 0.0)
    data, all_sizes = np.concatenate(batches), np.array(sizes, np.int64)
    args = (data.ctypes.data, all_sizes.ctypes.data, len(sizes), scratch.ctypes.data)
    lib.fold_moments(at_once, *args)
    assert (at_once.count, at_once.mean, at_once.m2, at_once.sum) == expected


@pytest.mark.parametrize("kernel_path", ["compiled"], indirect=True)
def test_keys_from_the_least_double_to_1e300_record_alike_on_both_paths(monkeypatch):
    """5e-324, the least positive double, has the least key (-41,384) and
    1e300 the key 38,400, so one call's table spans about 80,000 keys; both
    kernel paths record the state of one reference call per batch."""
    batches = [np.array([1e-3, 5e-324, 0.0]), np.array([1e300, 2.0]), np.array([7e-310, 3e299])]
    reference, one_by_one, compiled = three_ways(batches, exact_threshold=0)
    monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
    _reference, _one_by_one, numpy_leaves = three_ways(batches, exact_threshold=0)
    assert min(compiled[6]) == -41_384 and max(compiled[6]) == 38_400
    assert one_by_one == reference
    assert compiled == reference
    assert numpy_leaves == reference


@pytest.mark.parametrize("kernel_path", ["compiled"], indirect=True)
def test_a_key_beyond_the_kernel_guard_raises_and_counts_nothing():
    """No finite sample's key reaches +-2**62, so ``bin_counts``' guard
    should never fire; if it does, the count raises rather than falling
    back, before counting anything."""
    table = _KeyTable(_ckernels.load())
    table.count(np.array([1.0, -math.inf]))
    with pytest.raises(RuntimeError, match="beyond"):
        table.count(np.array([5.0, 2.0**63, -math.inf]))
    histogram = Histogram(exact_threshold=0)
    table.merge_into(histogram)
    assert histogram._bins == {1: 1} and histogram._zero_count == 1


def test_fraction_greater_than_does_not_depend_on_the_order_bins_were_filled():
    """The same samples recorded in ascending and in descending order fill
    equal bins in opposite orders; every threshold's fraction is bit-equal,
    because the bins are summed in key order."""
    rng = np.random.default_rng(9)
    values = np.sort(rng.lognormal(-7.0, 1.0, 2_000)).tolist()
    ascending, descending = Histogram(exact_threshold=0), Histogram(exact_threshold=0)
    for value in values:
        ascending.record(value)
    for value in reversed(values):
        descending.record(value)
    assert ascending._bins == descending._bins
    assert list(ascending._bins) != list(descending._bins)
    for threshold in np.quantile(values, np.linspace(0.0, 1.0, 401)).tolist():
        up = ascending.fraction_greater_than(threshold)
        assert up == descending.fraction_greater_than(threshold), threshold


def test_record_batches_allocates_little_beyond_its_inputs():
    """About 4,000 batches of about 100 samples, as a serve run's finalize
    passes them (3.2 MB): the call itself allocates under 1 MB at its peak."""
    rng = np.random.default_rng(12)
    batches = [rng.exponential(2e-5, int(size)) for size in rng.integers(50, 150, 4_000)]
    histogram = Histogram()
    tracemalloc.start()
    try:
        histogram.record_batches(batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert histogram.count == sum(batch.size for batch in batches)
    assert peak < 1 << 20


def edge_values(ulps=2):
    """The doubles within ``ulps`` ulps of each bin edge
    ``10 ** (k / BINS_PER_DECADE)`` from 1e-12 up to 1e7."""
    edges = 10.0 ** (np.arange(-12 * BINS_PER_DECADE, 7 * BINS_PER_DECADE) / BINS_PER_DECADE)
    up, down, values = edges, edges, [edges]
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        values += [up, down]
    return np.unique(np.concatenate(values)).tolist()


def test_a_sample_at_a_bin_edge_bins_alike_alone_and_in_a_batch():
    """``record`` keys a sample with ``math.log10`` and a batch is keyed with
    numpy's ``log10``; the two can differ in the last ulp, which moves a
    sample at a bin edge into the neighbouring bin (with numpy 2.4.6 on
    AVX-512 the scan finds 99 such values).  Here 1.0181517217181797e-09 is
    one: -8.9921875 by ``math.log10``, -8.992187500000002 by numpy's."""
    for value in edge_values() + [1.0181517217181797e-09]:
        alone = Histogram(exact_threshold=0)
        batch = Histogram(exact_threshold=0)
        for histogram in (alone, batch):
            histogram.record(1.0)
        alone.record(value)
        batch.record_many([value])
        assert alone._bins == batch._bins, value
