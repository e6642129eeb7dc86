"""Tests for the vectorised hot paths behind the sweep-throughput work.

Byte-identity is the contract: the batched draw and cache paths, the FIFO
finish-time kernel, and the optional compiled kernels must all be bitwise
indistinguishable from the scalar reference implementations they replace.
The flow-level fat-tree fidelity is the one documented approximation, so it
is pinned with delta bounds rather than equality.
"""

import dataclasses
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import _ckernels
from repro.cluster import database as database_module
from repro.cluster.cache import LRUByteCache
from repro.cluster.churn import merge_jobs, migration_schedule, parse_churn, spike_metrics
from repro.cluster.database import DatabaseClusterConfig, DatabaseClusterExperiment
from repro.cluster.disk import DiskModel
from repro.cluster.draws import (
    exact_disk_services,
    grouped_finish_times,
    sequential_finish_times,
)
from repro.cluster.lru_kernel import equal_item_capacity, lru_hit_flags
from repro.cluster.memcached import MemcachedConfig, MemcachedExperiment
from repro.cluster.storage_server import StorageServerModel
from repro.distributions.standard import Deterministic, Exponential, Pareto
from repro.exceptions import ConfigurationError
from repro.network.fattree_sim import FatTreeExperiment, FatTreeExperimentConfig
from repro.network.flow_fidelity import uncontended_fct
from repro.network.tcp import TcpConfig
from repro.pipeline.workers import draw_placements
from repro.queueing.replication_model import ReplicatedQueueingModel
from repro.sim.rng import choose_distinct, substream


def reference_lru_flags(keys, capacity_items):
    """Replay ``keys`` through the reference byte cache with unit items."""
    cache = LRUByteCache(float(capacity_items)) if capacity_items > 0 else None
    flags = np.zeros(len(keys), dtype=bool)
    if cache is None:
        return flags
    for t, key in enumerate(keys):
        flags[t] = cache.access(int(key), 1.0)
    return flags


def use_kernel_path(monkeypatch, path):
    """Pin the compiled kernels (skipping without a C compiler) or, with
    ``REPRO_CKERNELS=0``, the no-compiler path."""
    if path == "numpy":
        monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
    elif _ckernels.load() is None:
        pytest.skip("no C compiler available")


@pytest.fixture(params=["compiled", "numpy"])
def kernel_path(request, monkeypatch):
    """Run a test on the compiled kernels, then with ``REPRO_CKERNELS=0``."""
    use_kernel_path(monkeypatch, request.param)
    return request.param


class TestLruKernel:
    def test_matches_reference_cache_across_regimes(self):
        rng = np.random.default_rng(7)
        for case in range(12):
            n = int(rng.integers(1, 4000))
            num_keys = int(rng.integers(1, 600))
            capacity = int(rng.integers(1, num_keys + 50))
            if rng.random() < 0.5:
                keys = rng.integers(0, num_keys, size=n)
            else:  # skewed stream: hot keys stay cached
                keys = (rng.zipf(1.5, size=n) - 1) % num_keys
            expected = reference_lru_flags(keys, capacity)
            got = lru_hit_flags(keys, capacity)
            assert np.array_equal(got, expected), (case, n, num_keys, capacity)

    def test_edge_cases(self):
        assert lru_hit_flags(np.array([], dtype=np.int64), 10).shape == (0,)
        assert not lru_hit_flags(np.array([1, 1, 1]), 0).any()
        assert np.array_equal(
            lru_hit_flags(np.array([5, 5, 5]), 1), np.array([False, True, True])
        )

    def test_equal_item_capacity(self):
        assert equal_item_capacity(1000.0, 10.0) == 100
        assert equal_item_capacity(999.0, 10.0) == 99
        assert equal_item_capacity(5.0, 10.0) == 0
        assert equal_item_capacity(1000.0, 10.5) is None  # non-integer items
        assert equal_item_capacity(2.0**53, 1.0) is None  # float-exactness lost
        assert equal_item_capacity(1000.0, 0.0) is None


def reference_warm_with(cache, keys_and_sizes):
    """``LRUByteCache.warm_with`` before its closed form: one insert per new key."""
    for key, size in keys_and_sizes:
        if key not in cache._entries:
            cache._insert(key, float(size))


def assert_same_cache(got, expected):
    """Entries (keys, key types, order, sizes), byte total and counters agree."""
    assert list(got._entries.items()) == list(expected._entries.items())
    assert [type(key) for key in got._entries] == [type(key) for key in expected._entries]
    assert got.used_bytes.hex() == expected.used_bytes.hex()
    assert (got.evictions, got.hits, got.misses) == (
        expected.evictions,
        expected.hits,
        expected.misses,
    )


@st.composite
def whole_byte_warm_ups(draw):
    """``(capacity, keys, sizes)`` with distinct keys and whole-byte sizes.

    Distinct int or str keys; sizes mixing items that fit and oversize
    items; capacities that are an exact suffix total, below every size,
    fractional, just under the ``2**53`` exactness limit, or past it (where
    float byte accounting rounds, so only the loop is exact).
    """
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        key = st.integers(min_value=-(2**70), max_value=2**70)
    else:
        key = st.text(max_size=3)
    keys = draw(st.lists(key, min_size=n, max_size=n, unique=True))
    shape = draw(
        st.sampled_from(["mixed", "exact_fit", "below_all", "fractional", "huge", "inexact"])
    )
    if shape == "huge":
        size = st.integers(min_value=2**40, max_value=2**51)
    elif shape == "inexact":
        size = st.one_of(st.integers(1, 3), st.integers(2**52 - 3, 2**52 + 3))
    else:
        size = st.one_of(
            st.integers(min_value=1, max_value=300),
            st.integers(min_value=10**5, max_value=10**6),
        )
    sizes = draw(st.lists(size, min_size=n, max_size=n))
    if shape == "exact_fit":
        start = draw(st.integers(min_value=0, max_value=n - 1))
        capacity = float(sum(sizes[start:]))
    elif shape == "below_all":
        capacity = min(sizes) - 0.5
    elif shape == "fractional":
        capacity = draw(st.integers(min_value=1, max_value=3_000)) + 0.25
    elif shape == "huge":
        capacity = float(draw(st.integers(min_value=2**50, max_value=2**52)))
    elif shape == "inexact":
        capacity = float(draw(st.integers(min_value=2**52, max_value=2**53 + 8)))
    else:
        capacity = float(draw(st.integers(min_value=1, max_value=3_000)))
    return capacity, keys, [float(size) for size in sizes]


class TestWarmWithClosedForm:
    """``LRUByteCache.warm_with`` against the insert loop it replaced.

    Entries, byte total and eviction count must match bitwise, and so must
    the hit flags of accesses that follow the warm-up.
    """

    @staticmethod
    def warm_both(capacity, keys, sizes, prefill=()):
        got, expected = LRUByteCache(capacity), LRUByteCache(capacity)
        for cache in (got, expected):
            for key, size in prefill:
                cache.access(key, size)
        got.warm_with(keys, sizes)
        reference_warm_with(expected, zip(keys, sizes))
        assert_same_cache(got, expected)
        return got, expected

    @settings(max_examples=200, deadline=None)
    @given(inputs=whole_byte_warm_ups(), data=st.data())
    def test_matches_insert_loop(self, inputs, data):
        capacity, keys, sizes = inputs
        got, expected = self.warm_both(capacity, keys, sizes)
        if all(type(key) is int for key in keys):
            stream = data.draw(
                st.lists(st.sampled_from(keys) | st.integers(-50, 50), max_size=30)
            )
            stream_sizes = data.draw(
                st.lists(st.integers(1, 400), min_size=len(stream), max_size=len(stream))
            )
            assert np.array_equal(
                got.access_many(stream, stream_sizes),
                expected.access_many(stream, stream_sizes),
            )
        else:
            for key in data.draw(st.lists(st.sampled_from(keys), max_size=30)):
                assert got.access(key, 7.0) == expected.access(key, 7.0)
        assert_same_cache(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 2**62), min_size=1, max_size=40, unique=True),
        data=st.data(),
    )
    def test_numpy_arrays_store_python_ints(self, keys, data):
        sizes = data.draw(
            st.lists(st.integers(1, 500), min_size=len(keys), max_size=len(keys))
        )
        capacity = float(data.draw(st.integers(1, 4_000)))
        got, expected = LRUByteCache(capacity), LRUByteCache(capacity)
        got.warm_with(np.array(keys, dtype=np.int64), np.array(sizes, dtype=float))
        reference_warm_with(expected, zip(keys, sizes))
        assert_same_cache(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 30), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_loop_only_inputs(self, keys, data):
        """Fractional sizes, repeated keys and pre-filled caches take the loop."""
        n = len(keys)
        fractional = data.draw(st.booleans())
        size = (
            st.floats(min_value=0.01, max_value=300.0)
            if fractional
            else st.integers(min_value=1, max_value=300).map(float)
        )
        sizes = data.draw(st.lists(size, min_size=n, max_size=n))
        prefill = data.draw(
            st.lists(
                st.tuples(st.integers(0, 40), st.floats(min_value=0.5, max_value=300.0)),
                max_size=6,
            )
        )
        capacity = data.draw(st.floats(min_value=1.0, max_value=3_000.0))
        self.warm_both(capacity, keys, sizes, prefill)

    @pytest.mark.parametrize(
        "capacity,keys,sizes,prefill,entries,used",
        [
            # Fractional sizes: the loop's rounded byte total evicts key 1.
            (0.6, [1, 2, 3], [0.1, 0.2, 0.3], (), [2, 3], 0.5),
            # Past 2**53 the loop's byte total rounds.
            (2.0**53 + 2, [1, 2, 3], [2.0**52, 2.0**52 + 1, 2.0**53 - 1], (), [3], 2.0**53 - 2),
            # A negative size shrinks the total instead of evicting.
            (6.0, [1, 2, 3], [5.0, 3.0, -4.0], (), [2, 3], -1.0),
            # A repeated key is skipped while cached, re-inserted once evicted.
            (200.0, [1, 2, 1, 3, 1], [100.0] * 5, (), [3, 1], 200.0),
            # A pre-filled cache keeps its entries ahead of the warm keys.
            (300.0, [1, 2], [100.0, 100.0], [(9, 100.0)], [9, 1, 2], 300.0),
        ],
    )
    def test_inputs_outside_the_closed_form(
        self, capacity, keys, sizes, prefill, entries, used
    ):
        got, _ = self.warm_both(capacity, keys, sizes, prefill)
        assert list(got._entries) == entries
        assert got.used_bytes == used

    def test_closed_form_skips_the_insert_loop(self, monkeypatch):
        def no_insert(self, key, size_bytes):
            raise AssertionError("whole-byte warm-up of an empty cache ran the loop")

        keys = np.arange(10_000)
        expected = LRUByteCache(4_000.0)
        reference_warm_with(expected, ((int(k), 40.0) for k in keys))
        monkeypatch.setattr(LRUByteCache, "_insert", no_insert)
        got = LRUByteCache(4_000.0)
        got.warm_with(keys, np.full(keys.size, 40.0))
        assert_same_cache(got, expected)
        assert len(got) == 100 and got.evictions == 9_900

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUByteCache(100.0).warm_with([1, 2], [10.0])


def scalar_disk_services(disk, sizes, rng, noise_probability, noise_multiplier_mean):
    """The per-miss draw sequence of ``ReferenceServer.serve``, verbatim."""
    out = []
    for size in sizes:
        service = disk.sample_service_time(size, rng)
        if noise_probability > 0 and rng.random() < noise_probability:
            service *= 1.0 + rng.exponential(noise_multiplier_mean)
        out.append(service)
    return np.asarray(out)


class TestExactDiskServices:
    """``exact_disk_services`` against the scalar draws on the compiled path."""

    path = "compiled"

    @pytest.fixture(autouse=True)
    def _pin_path(self, monkeypatch):
        use_kernel_path(monkeypatch, self.path)

    @pytest.mark.parametrize(
        "slow_p,noise_p",
        [
            (0.015, 0.0),
            (0.0, 0.25),
            (0.015, 0.25),
            (0.0, 0.0),
            (0.10, 0.05),
            (1.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
        ],
    )
    def test_bitwise_equal_to_scalar_path(self, slow_p, noise_p):
        disk = DiskModel(slow_access_probability=slow_p)
        rng = np.random.default_rng(42)
        sizes = rng.uniform(1e3, 1e6, size=5000)
        rng_batched = np.random.default_rng(99)
        rng_scalar = np.random.default_rng(99)
        batched = exact_disk_services(disk, sizes, rng_batched, noise_p, 8.0)
        scalar = scalar_disk_services(disk, sizes, rng_scalar, noise_p, 8.0)
        assert np.array_equal(batched, scalar)
        assert rng_batched.bit_generator.state == rng_scalar.bit_generator.state

    def test_generator_parked_at_scalar_position(self):
        # Mid-sweep interchangeability: after the batch the generator must be
        # exactly where the scalar loop would have left it.
        disk = DiskModel()
        sizes = np.full(2000, 1e5)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        exact_disk_services(disk, sizes, rng_a, 0.25, 8.0)
        scalar_disk_services(disk, sizes, rng_b, 0.25, 8.0)
        assert rng_a.random() == rng_b.random()

    def test_empty_stream(self):
        disk = DiskModel()
        out = exact_disk_services(disk, np.empty(0), np.random.default_rng(0), 0.1, 8.0)
        assert out.shape == (0,)


class TestExactDiskServicesNumpyPath(TestExactDiskServices):
    """The same checks with ``REPRO_CKERNELS=0`` (the Python per-miss loop),
    as with no C compiler."""

    path = "numpy"


class TestCompiledDiskServices:
    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_matches_scalar_on_other_bit_generators(self, kernel_path, bit_generator):
        # Both paths draw on any bit generator, MT19937 and SFC64 (which
        # have no ``advance``) included.
        disk = DiskModel(slow_access_probability=0.3)
        sizes = np.random.default_rng(4).uniform(1e3, 1e6, size=3000)
        rng_batched = np.random.Generator(bit_generator(17))
        rng_scalar = np.random.Generator(bit_generator(17))
        batched = exact_disk_services(disk, sizes, rng_batched, 0.5, 8.0)
        scalar = scalar_disk_services(disk, sizes, rng_scalar, 0.5, 8.0)
        assert np.array_equal(batched, scalar)
        assert rng_batched.random() == rng_scalar.random()


def scalar_finish_times(arrivals, services):
    finish = np.empty(len(arrivals))
    free = 0.0
    for i in range(len(arrivals)):
        if free <= arrivals[i]:
            free = arrivals[i]
        free = free + services[i]
        finish[i] = free
    return finish


class TestSequentialFinishTimes:
    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(3)
        arrivals = np.sort(rng.uniform(0, 100, size=10_000))
        services = rng.exponential(0.009, size=10_000)  # util ~0.9: long chains
        got = sequential_finish_times(arrivals, services)
        assert np.array_equal(got, scalar_finish_times(arrivals, services))

    def test_compiled_and_python_paths_bitwise_equal(self, monkeypatch):
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(8)
        arrivals = np.sort(rng.uniform(0, 50, size=4000))
        services = rng.exponential(0.02, size=4000)
        with_c = sequential_finish_times(arrivals, services)
        monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
        assert _ckernels.load() is None
        without_c = sequential_finish_times(arrivals, services)
        assert np.array_equal(with_c, without_c)


def reference_free_at_loop(stations, arrivals, services):
    """Every copy's finish, in input order, with one "free at" clock per station.

    The flat loop of the queueing model's per-request pass that
    ``grouped_finish_times`` replaced.
    """
    free_at = {}
    finish = np.empty(len(stations))
    for i, station in enumerate(stations):
        free = free_at.get(station, 0.0)
        start = free if free > arrivals[i] else arrivals[i]
        finish[i] = free_at[station] = start + services[i]
    return finish


def reference_lindley_pass(num_servers, arrival_times, servers, service_times):
    """The queueing model's eager pass before the grouped one, verbatim.

    Copies in ``(request, copy)`` order against a per-server "free at"
    vector; each request keeps its fastest copy.
    """
    num_requests, copies = servers.shape
    free_at = np.zeros(num_servers)
    response = np.empty(num_requests)
    for i in range(num_requests):
        arrival = arrival_times[i]
        best = np.inf
        for j in range(copies):
            server = servers[i, j]
            start = free_at[server] if free_at[server] > arrival else arrival
            finish = start + service_times[i, j]
            free_at[server] = finish
            elapsed = finish - arrival
            if elapsed < best:
                best = elapsed
        response[i] = best
    return response


@st.composite
def fifo_streams(draw):
    """``(stations, arrivals, services)`` over 1-12 stations.

    Arrivals are non-decreasing with repeated values; services include
    zeros; station ids are spread out by a stride so some exceed 255.
    """
    num_stations = draw(st.integers(min_value=1, max_value=12))
    stride = draw(st.sampled_from([1, 7, 1000]))
    n = draw(st.integers(min_value=0, max_value=60))
    stations = draw(st.lists(st.integers(0, num_stations - 1), min_size=n, max_size=n))
    value = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=4.0)
    gaps = draw(st.lists(value, min_size=n, max_size=n))
    services = draw(st.lists(value, min_size=n, max_size=n))
    return (
        np.array(stations, dtype=np.int64) * stride,
        np.cumsum(np.array(gaps, dtype=float)),
        np.array(services, dtype=float),
    )


class TestGroupedFinishTimes:
    """``grouped_finish_times`` against the flat "free at" loop, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(stream=fifo_streams())
    def test_matches_free_at_loop(self, stream):
        stations, arrivals, services = stream
        expected = reference_free_at_loop(stations.tolist(), arrivals.tolist(), services.tolist())
        for path in ("compiled", "numpy"):
            with pytest.MonkeyPatch.context() as patch:
                if path == "numpy":
                    patch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
                elif _ckernels.load() is None:
                    continue
                got = grouped_finish_times(stations, arrivals, services)
            assert got.tobytes() == expected.tobytes(), path

    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize(
        "service", [Exponential(1.0), Pareto(alpha=2.1, mean=1.0), Deterministic(1.0)]
    )
    def test_run_fast_equals_the_per_request_pass(self, kernel_path, service, copies):
        model = ReplicatedQueueingModel(service, copies=copies, client_overhead=0.05, seed=11)
        arrival_times, servers, service_times = model._draw(0.3, 4_000, "arrivals")
        response = reference_lindley_pass(10, arrival_times, servers, service_times)
        response = response + 0.05 * (copies - 1)
        got = model.run_fast(0.3, num_requests=4_000, warmup_fraction=0.1)
        assert got.response_times.tobytes() == response[400:].tobytes()
        assert got.copies_launched == 4_000 * copies


def reference_placements(num_chunks, copies, num_workers, rng):
    """The per-chunk ``rng.choice`` loop that the compiled placement replaced."""
    placements = np.empty((num_chunks, copies), dtype=np.int64)
    for chunk in range(num_chunks):
        placements[chunk] = rng.choice(num_workers, size=copies, replace=False)
    return placements


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def same_state(a, b):
    """Bit generator states are equal (nested dicts, some values arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def assert_same_placements(num_chunks, copies, num_workers, bit_generator, seed):
    """``draw_placements`` equals the loop, and both leave the generator alike."""
    got_rng = np.random.Generator(bit_generator(seed))
    want_rng = np.random.Generator(bit_generator(seed))
    got = draw_placements(num_chunks, copies, num_workers, got_rng)
    want = reference_placements(num_chunks, copies, num_workers, want_rng)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # The state includes any buffered half of a 64-bit word; the next
    # bounded and double draws must agree too.
    assert same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)
    assert got_rng.integers(0, 7, size=9).tolist() == want_rng.integers(0, 7, size=9).tolist()
    assert got_rng.random() == want_rng.random()


class TestDrawPlacements:
    """Compiled placement against ``Generator.choice``, draw for draw."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize(
        "num_workers,copies",
        [(1, 1), (2, 1), (2, 2), (3, 2), (5, 5), (7, 3), (16, 4), (100, 5), (257, 2),
         (1000, 5), (4096, 3), (9999, 1), (10_000, 5), (10_000, 10_000)],
    )
    def test_matches_choice_loop(self, kernel_path, bit_generator, num_workers, copies):
        assert_same_placements(6, copies, num_workers, bit_generator, 29)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(BIT_GENERATORS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_choice_loop_property(
        self, num_workers, copies, num_chunks, bit_generator, seed
    ):
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        # copies 6 stands for a whole pool: every worker gets a copy.
        copies = num_workers if copies == 6 else min(copies, num_workers)
        assert_same_placements(num_chunks, copies, num_workers, bit_generator, seed)

    @pytest.mark.parametrize("num_workers,copies", [(10_001, 300), (20_000, 500), (20_000, 3)])
    def test_pools_above_ten_thousand_take_the_choice_loop(self, num_workers, copies):
        # numpy shuffles the pool's tail instead of running Floyd's algorithm
        # when the sample is large for a pool this size (the first two
        # cases), so only the choice loop reproduces its draws.
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        assert_same_placements(3, copies, num_workers, np.random.PCG64, 4)

    def test_more_copies_than_workers_raise(self, kernel_path):
        with pytest.raises(ConfigurationError, match="distinct copies"):
            draw_placements(4, 3, 2, np.random.default_rng(0))

    def test_non_integer_pool_fails_as_choice_does(self, kernel_path):
        with pytest.raises(ValueError, match="must be a sequence or an integer"):
            draw_placements(2, 2, 5.0, np.random.default_rng(0))

    def test_no_chunks_draw_nothing(self, kernel_path):
        rng = np.random.default_rng(3)
        assert draw_placements(0, 2, 5, rng).shape == (0, 2)
        assert same_state(rng.bit_generator.state, np.random.default_rng(3).bit_generator.state)


class TestKernelCache:
    """The compiled library is built and loaded only from a private cache."""

    def test_fresh_directory_is_private_and_reused(self, tmp_path):
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        cache = tmp_path / "kernels"
        _ckernels._build(str(cache))
        assert stat.S_IMODE(cache.stat().st_mode) & 0o077 == 0
        (library,) = cache.iterdir()  # no scratch or source file left behind
        built = library.stat().st_mtime_ns
        _ckernels._build(str(cache))  # a later process loads, not rebuilds
        assert library.stat().st_mtime_ns == built

    def test_group_writable_directory_refused(self, tmp_path, monkeypatch):
        cache = tmp_path / "kernels"
        cache.mkdir()
        cache.chmod(0o770)
        with pytest.raises(PermissionError, match="writable"):
            _ckernels._build(str(cache))
        # load() treats the refusal as a failed build: every kernel falls back.
        monkeypatch.setattr(_ckernels, "_cache_dir", lambda: str(cache))
        monkeypatch.setattr(_ckernels, "_tried", False)
        monkeypatch.setattr(_ckernels, "_lib", None)
        assert _ckernels.load() is None

    def test_directory_of_another_user_refused(self, tmp_path, monkeypatch):
        cache = tmp_path / "kernels"
        cache.mkdir(mode=0o700)
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        with pytest.raises(PermissionError, match="owned by"):
            _ckernels._build(str(cache))

    def test_writable_library_refused(self, tmp_path):
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        cache = tmp_path / "kernels"
        _ckernels._build(str(cache))
        (library,) = cache.iterdir()
        library.chmod(0o777)
        with pytest.raises(PermissionError, match="writable"):
            _ckernels._build(str(cache))


class ReferenceServer(StorageServerModel):
    """A storage server that serves one copy at a time, FIFO clock included.

    ``serve`` is the per-copy scalar path the batched eager database runs
    replaced: the cache access, then on a miss the disk draws
    (``scalar_disk_services``' order) and the FIFO disk queue.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.disk_free_at = 0.0

    def serve(self, arrival_time, file_id, size_bytes):
        """``(completion_time, was_cache_hit)`` of one copy."""
        hit = self.cache.access(file_id, size_bytes)
        if hit:
            return arrival_time + self.memory_service_s, True
        service = self.disk.sample_service_time(size_bytes, self._rng)
        if self.noise_probability > 0 and self._rng.random() < self.noise_probability:
            service *= 1.0 + self._rng.exponential(self.noise_multiplier_mean)
        start = self.disk_free_at if self.disk_free_at > arrival_time else arrival_time
        finish = start + service
        self.disk_free_at = finish
        return finish + self.memory_service_s, False


def reference_servers(experiment, server_ids, copies, load):
    """``ReferenceServer``s on the run's substreams; the initial pool warmed."""
    config = experiment.config
    run_seed = (copies, hash(round(load, 6)) & 0xFFFF)
    servers = {
        server_id: ReferenceServer(
            server_id=server_id,
            cache_bytes=config.cache_bytes_per_server,
            disk=config.disk,
            memory_service_s=config.memory_service_s,
            noise_probability=config.noise_probability,
            noise_multiplier_mean=config.noise_multiplier_mean,
            rng=substream(config.seed, "server", server_id, *run_seed),
        )
        for server_id in server_ids
    }
    experiment._warm_caches([servers[s] for s in range(config.num_servers)], copies)
    return servers


def database_arrivals(experiment, load, num_requests):
    """``(arrival_times, file_ids, sizes)`` from the run's substreams."""
    config = experiment.config
    total_rate = config.num_servers * load / config.expected_service_time(1)
    arrivals_rng = substream(config.seed, "arrivals", load)
    arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
    file_ids = substream(config.seed, "keys", load).integers(0, config.num_files, size=num_requests)
    return arrival_times, file_ids, experiment._fileset.sizes_bytes[file_ids]


def reference_database_eager(config, load, copies, num_requests, warmup_fraction=0.2):
    """The per-request scalar loop the batched eager database path replaced.

    Rebuilds the run's arrivals and file ids from the substreams
    ``DatabaseClusterExperiment.run`` draws them from, looks up each file's
    primary on the ring, and serves every copy in ``(request, copy)`` order
    through the experiment's warmed servers, each drawing its disk service
    one miss at a time.

    Returns:
        ``(response_times, cache_hit_ratio)`` with the warm-up removed.
    """
    experiment = DatabaseClusterExperiment(config)
    arrival_times, file_ids, sizes = database_arrivals(experiment, load, num_requests)
    servers = reference_servers(experiment, range(config.num_servers), copies, load)
    overhead = config.client_overhead_per_extra_copy() * (copies - 1)
    response = np.empty(num_requests)
    for i in range(num_requests):
        arrival = arrival_times[i]
        file_id = int(file_ids[i])
        primary = experiment._ring.primary_for(file_id)
        best = np.inf
        for offset in range(copies):
            server = servers[(primary + offset) % config.num_servers]
            completion, _hit = server.serve(arrival, file_id, float(sizes[i]))
            best = min(best, completion - arrival)
        response[i] = best + overhead
    hits = sum(server.cache.hits for server in servers.values())
    misses = sum(server.cache.misses for server in servers.values())
    return response[int(num_requests * warmup_fraction) :], hits / (hits + misses)


def reference_database_churn(
    config, load, copies, num_requests, churn, migration_rate, warmup_fraction=0.2
):
    """The per-request loop eager database churn runs took before batching.

    Requests read from the replica set of the ring live at their arrival;
    each migration read is served, through the same ``ReferenceServer``s,
    before the first request that arrives at or after it.

    Returns:
        ``(response_times, cache_hit_ratio, migration_jobs, spike)`` with
        the warm-up removed.
    """
    experiment = DatabaseClusterExperiment(config)
    timeline = parse_churn(churn)
    rings = timeline.epoch_rings(config.num_servers, experiment._ring.virtual_nodes)
    arrival_times, file_ids, sizes = database_arrivals(experiment, load, num_requests)
    horizon = float(arrival_times[-1])
    event_times = timeline.event_times(horizon)
    epoch_of = np.searchsorted(event_times, arrival_times, side="right")
    servers = reference_servers(
        experiment, timeline.all_servers(config.num_servers), copies, load
    )
    mig_times, mig_servers, mig_files = migration_schedule(
        rings, event_times, config.num_files, migration_rate, horizon
    )
    mig_sizes = experiment._fileset.sizes_bytes[mig_files]
    overhead = config.client_overhead_per_extra_copy() * (copies - 1)
    response = np.empty(num_requests)
    m = 0
    for i in range(num_requests):
        arrival = float(arrival_times[i])
        while m < len(mig_times) and mig_times[m] <= arrival:
            servers[int(mig_servers[m])].serve(
                float(mig_times[m]), int(mig_files[m]), float(mig_sizes[m])
            )
            m += 1
        replicas = rings[epoch_of[i]].replicas_for(int(file_ids[i]), copies)
        best = np.inf
        for server_id in replicas:
            completion, _hit = servers[server_id].serve(arrival, int(file_ids[i]), float(sizes[i]))
            elapsed = completion - arrival
            if elapsed < best:
                best = elapsed
        response[i] = best + overhead
    hits = sum(server.cache.hits for server in servers.values())
    misses = sum(server.cache.misses for server in servers.values())
    start = int(num_requests * warmup_fraction)
    spike = spike_metrics(arrival_times[start:], response[start:], event_times)
    return response[start:], hits / (hits + misses), len(mig_times), spike


def memcached_arrivals(config, load, copies, num_requests):
    """``(arrival_times, service_times)`` from the run's substreams."""
    total_rate = config.num_servers * load / config.expected_service_s()
    arrivals_rng = substream(config.seed, "arrivals", load, copies, False)
    arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
    service_rng = substream(config.seed, "service", load, copies, False)
    service_times = MemcachedExperiment(config)._sample_service(
        service_rng, num_requests * copies
    )
    return arrival_times, service_times.reshape(num_requests, copies)


def reference_memcached_eager(config, load, copies, num_requests, warmup_fraction=0.1):
    """The per-request FIFO loop the per-server memcached recursion replaced.

    Rebuilds arrivals, service times and placements from the substreams
    ``MemcachedExperiment.run`` draws them from, then queues every copy in
    ``(request, copy)`` order behind its server's previous copy.

    Returns:
        The response times with the warm-up removed.
    """
    arrival_times, service_times = memcached_arrivals(config, load, copies, num_requests)
    placement_rng = substream(config.seed, "placement", load, copies, False)
    placements = choose_distinct(placement_rng, config.num_servers, num_requests, copies)
    extra_copy_s = config.client_extra_copy_s + config.unmeasured_extra_copy_s
    client_time = config.client_base_s + extra_copy_s * (copies - 1)
    free_at = np.zeros(config.num_servers)
    response = np.empty(num_requests)
    for i in range(num_requests):
        arrival = arrival_times[i]
        best = np.inf
        for j in range(copies):
            server = placements[i, j]
            start = free_at[server] if free_at[server] > arrival else arrival
            free_at[server] = start + service_times[i, j]
            best = min(best, free_at[server] - arrival)
        response[i] = best + client_time
    return response[int(num_requests * warmup_fraction) :]


def reference_memcached_churn(
    config,
    load,
    copies,
    num_requests,
    churn,
    migration_rate,
    num_keys=20_000,
    cold_penalty_s=0.002,
    warmup_fraction=0.1,
):
    """The per-request loop eager memcached churn runs took before batching.

    GETs queue at the replica set of the ring live at their arrival; each
    migration SET queues before the first request that arrives at or after
    it, and a GET that reaches a server before its key's first migration
    SET there pays ``cold_penalty_s`` outside the queue.

    Returns:
        ``(response_times, migration_jobs, spike)`` with the warm-up removed.
    """
    timeline = parse_churn(churn)
    rings = timeline.epoch_rings(config.num_servers)
    arrival_times, service_times = memcached_arrivals(config, load, copies, num_requests)
    key_ids = substream(config.seed, "keys", load, copies).integers(0, num_keys, size=num_requests)
    horizon = float(arrival_times[-1])
    event_times = timeline.event_times(horizon)
    epoch_of = np.searchsorted(event_times, arrival_times, side="right")
    mig_times, mig_servers, mig_keys = migration_schedule(
        rings, event_times, num_keys, migration_rate, horizon
    )
    mig_services = MemcachedExperiment(config)._sample_service(
        substream(config.seed, "migration", load, copies), len(mig_times)
    )
    migrated_at = {}
    for j in range(len(mig_times)):
        migrated_at.setdefault((int(mig_servers[j]), int(mig_keys[j])), float(mig_times[j]))
    free_at = {server: 0.0 for server in timeline.all_servers(config.num_servers)}
    extra_copy_s = config.client_extra_copy_s + config.unmeasured_extra_copy_s
    client_time = config.client_base_s + extra_copy_s * (copies - 1)
    response = np.empty(num_requests)
    m = 0
    for i in range(num_requests):
        arrival = float(arrival_times[i])
        while m < len(mig_times) and mig_times[m] <= arrival:
            g = int(mig_servers[m])
            start = free_at[g] if free_at[g] > mig_times[m] else float(mig_times[m])
            free_at[g] = start + float(mig_services[m])
            m += 1
        replicas = rings[epoch_of[i]].replicas_for(int(key_ids[i]), copies)
        best = np.inf
        for copy, server in enumerate(replicas):
            start = free_at[server] if free_at[server] > arrival else arrival
            finish = start + float(service_times[i, copy])
            free_at[server] = finish
            when = migrated_at.get((server, int(key_ids[i])))
            cold = cold_penalty_s if when is not None and arrival < when else 0.0
            elapsed = finish - arrival + cold
            if elapsed < best:
                best = elapsed
        response[i] = best + client_time
    start = int(num_requests * warmup_fraction)
    spike = spike_metrics(arrival_times[start:], response[start:], event_times)
    return response[start:], len(mig_times), spike


class TestBatchedDrawsByteIdentity:
    """End-to-end: the batched eager runs equal the scalar loops above."""

    @pytest.mark.parametrize("copies", [1, 2])
    def test_database_response_times_identical(self, kernel_path, copies):
        cfg = DatabaseClusterConfig(num_files=4000, seed=321)
        batched = DatabaseClusterExperiment(cfg).run(0.3, copies=copies, num_requests=2000)
        response, hit_ratio = reference_database_eager(cfg, 0.3, copies, 2000)
        assert np.array_equal(batched.response_times, response)
        assert batched.cache_hit_ratio == hit_ratio

    def test_database_noisy_variant_identical(self, kernel_path):
        cfg = DatabaseClusterConfig(num_files=4000, seed=55)
        cfg = dataclasses.replace(
            cfg,
            noise_probability=0.25,
            disk=dataclasses.replace(cfg.disk, slow_access_probability=0.10),
        )
        batched = DatabaseClusterExperiment(cfg).run(0.3, copies=2, num_requests=2000)
        response, hit_ratio = reference_database_eager(cfg, 0.3, 2, 2000)
        assert np.array_equal(batched.response_times, response)
        assert batched.cache_hit_ratio == hit_ratio

    def test_memcached_response_times_identical(self):
        cfg = MemcachedConfig(seed=77)
        batched = MemcachedExperiment(cfg).run(0.3, copies=2, num_requests=2000)
        reference = reference_memcached_eager(cfg, 0.3, 2, 2000)
        assert np.array_equal(batched.response_times, reference)


class TestMergeJobs:
    """Where migration jobs fall among a run's copies."""

    def test_a_job_goes_before_copies_that_arrive_at_its_time(self):
        arrivals = np.array([1.0, 2.0, 2.0, 3.0])
        jobs = np.array([0.5, 2.0, 2.0, 2.5])
        copies = [f"c{i}" for i in range(8)]  # two copies per request
        copy_at, (stream,) = merge_jobs(
            arrivals, 2, jobs, [np.array(copies)], [np.array(["j0", "j1", "j2", "j3"])]
        )
        assert stream.tolist() == [
            "j0", "c0", "c1", "j1", "j2", "c2", "c3", "c4", "c5", "j3", "c6", "c7"
        ]
        assert stream[copy_at].tolist() == copies

    def test_without_jobs_the_stream_is_the_copies(self):
        copy_at, (stream,) = merge_jobs(
            np.array([1.0, 2.0]), 3, np.empty(0), [np.arange(6)], [np.empty(0, dtype=np.int64)]
        )
        assert copy_at.tolist() == list(range(6))
        assert stream.tolist() == list(range(6))

    def test_a_tied_migration_queues_ahead_of_the_copy(self, kernel_path):
        # One server: a migration SET and a GET both at t = 1.  The SET is
        # served first, so the GET finishes after both services, and the
        # GET is not a cold read: its key arrived with that SET.  A GET at
        # t = 3 that precedes its key's SET pays the cold penalty.
        elapsed = MemcachedExperiment._eager_elapsed(
            np.array([1.0, 3.0]),
            np.array([[0.25], [0.25]]),
            np.array([[0], [0]]),
            (np.array([1.0]), np.array([0]), np.array([0.5])),
            warm_from=np.array([[1.0], [4.0]]),
            cold_penalty_s=2.0,
        )
        assert elapsed.tolist() == [[0.75], [2.25]]


#: Churn timelines the eager churn runs are checked on: a join, a removal,
#: a crash followed by a re-add of the same id, two joins, and a joiner
#: that leaves and comes back (so it gains the same keys twice).
CHURNS = [
    "add:4@0.4",
    "remove:2@0.4",
    "crash:1@0.3,add:1@0.6",
    "add:5@0.2,add:4@0.5",
    "add:4@0.2,remove:4@0.5,add:4@0.8",
]


class TestEagerChurnByteIdentity:
    """Eager churn runs equal the per-request loops they replaced, bit for bit.

    Response bytes, copies launched, hit ratio, migration jobs and the spike
    metrics must all agree, with the compiled kernels and without.
    """

    @pytest.mark.parametrize("churn", CHURNS)
    @pytest.mark.parametrize(
        "variant,copies", [("base", 1), ("base", 2), ("pareto_files", 2), ("ec2", 2)]
    )
    def test_database(self, kernel_path, variant, copies, churn):
        config = getattr(DatabaseClusterConfig, variant)(num_files=3_000, seed=13)
        load = 0.3 if copies == 1 else 0.25
        got = DatabaseClusterExperiment(config).run(
            load, copies=copies, num_requests=1_500, churn=churn, migration_rate=100.0
        )
        response, hit_ratio, jobs, spike = reference_database_churn(
            config, load, copies, 1_500, churn, 100.0
        )
        assert got.response_times.tobytes() == response.tobytes()
        assert got.copies_launched == 1_500 * copies
        assert got.cache_hit_ratio == hit_ratio
        assert got.metrics["migration_jobs"] == jobs > 0
        assert got.spike == spike

    @pytest.mark.parametrize("churn", CHURNS[:3] + CHURNS[4:])
    @pytest.mark.parametrize("copies,rate", [(1, 500.0), (2, 500.0), (2, 4000.0)])
    def test_memcached(self, kernel_path, copies, rate, churn):
        config = MemcachedConfig(seed=13)
        got = MemcachedExperiment(config).run(
            0.3, copies=copies, num_requests=4_000, churn=churn, migration_rate=rate
        )
        response, jobs, spike = reference_memcached_churn(config, 0.3, copies, 4_000, churn, rate)
        assert got.response_times.tobytes() == response.tobytes()
        assert got.copies_launched == 4_000 * copies
        assert got.metrics["migration_jobs"] == jobs > 0
        assert got.spike == spike

    def test_static_runs_report_no_churn_outputs(self):
        database = DatabaseClusterExperiment(DatabaseClusterConfig(num_files=3_000)).run(
            0.2, copies=2, num_requests=500
        )
        memcached = MemcachedExperiment().run(0.2, copies=2, num_requests=500)
        for result in (database, memcached):
            assert result.spike is None
            assert "migration_jobs" not in result.metrics


@st.composite
def eager_database_runs(draw):
    """``(config, load, copies, num_requests, churn)`` of a small eager run.

    2-6 servers (3-4 under churn, so every timeline in ``CHURNS`` applies)
    and 1 to all of them as copies (one fewer under churn, so a removal
    leaves enough).  A few files and caches of 1-3 items, so hits land at
    the head, in the middle and at the tail of a cache's list and evictions
    occur; or a cache of 0 items (every read misses), or one that holds
    every file.  Noise and slow accesses on or off.
    """
    churn = draw(st.none() | st.sampled_from(CHURNS))
    num_servers = draw(st.integers(3, 4) if churn else st.integers(2, 6))
    copies = draw(st.integers(1, num_servers - 1 if churn else num_servers))
    num_files = draw(st.integers(4, 40))
    items = draw(st.sampled_from([0, 1, 2, 3, None]))
    config = DatabaseClusterConfig(
        num_servers=num_servers,
        num_files=num_files,
        # items + 0.5 items' worth of bytes per server holds exactly items.
        cache_to_data_ratio=2.0 if items is None else (items + 0.5) * num_servers / num_files,
        noise_probability=draw(st.sampled_from([0.0, 0.3])),
        disk=DiskModel(slow_access_probability=draw(st.sampled_from([0.0, 0.2]))),
        seed=draw(st.integers(0, 2**16)),
    )
    # The load whose estimated bottleneck utilisation is 0.1 or 0.4.
    load = draw(st.sampled_from([0.1, 0.4])) * config.expected_service_time(1) / (
        copies * config.expected_service_time(copies)
    )
    return config, load, copies, draw(st.integers(100, 300)), churn


def spike_hex(spike):
    """A spike dict with its floats as hex strings (NaN compares equal)."""
    return None if spike is None else {key: float(value).hex() for key, value in spike.items()}


class TestEagerDatabaseProperty:
    """Eager database runs equal the scalar loops bit for bit, on both paths."""

    @settings(max_examples=60, deadline=None)
    @given(run=eager_database_runs())
    def test_run_equals_the_scalar_loop(self, run):
        config, load, copies, num_requests, churn = run
        if churn is None:
            response, hit_ratio = reference_database_eager(config, load, copies, num_requests)
            jobs = spike = None
        else:
            response, hit_ratio, jobs, spike = reference_database_churn(
                config, load, copies, num_requests, churn, 100.0
            )
        for path in ("compiled", "numpy"):
            with pytest.MonkeyPatch.context() as patch:
                if path == "numpy":
                    patch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
                elif _ckernels.load() is None:
                    continue
                got = DatabaseClusterExperiment(config).run(
                    load,
                    copies=copies,
                    num_requests=num_requests,
                    churn=churn,
                    migration_rate=100.0,
                )
            assert got.response_times.tobytes() == response.tobytes(), path
            assert got.cache_hit_ratio == hit_ratio, path
            assert got.metrics.get("migration_jobs") == jobs, path
            assert spike_hex(got.spike) == spike_hex(spike), path


class TestEagerCompiledPass:
    """With the kernels loaded, equal-sized files take ``eager_reads``."""

    @pytest.fixture(autouse=True)
    def _compiled(self, monkeypatch):
        use_kernel_path(monkeypatch, "compiled")

    @pytest.mark.parametrize("churn", [None, "add:4@0.4"])
    def test_equal_sizes_skip_the_per_server_kernels(self, monkeypatch, churn):
        def refuse(*args, **kwargs):
            raise AssertionError("the per-server path ran")

        monkeypatch.setattr(LRUByteCache, "access_many", refuse)
        monkeypatch.setattr(database_module, "exact_disk_services", refuse)
        result = DatabaseClusterExperiment(DatabaseClusterConfig(num_files=2_000)).run(
            0.25, copies=2, num_requests=500, churn=churn
        )
        assert 0.0 < result.cache_hit_ratio < 1.0

    def test_pareto_files_take_the_per_server_path(self, monkeypatch):
        calls = []
        draw = database_module.exact_disk_services

        def counted(*args, **kwargs):
            calls.append(1)
            return draw(*args, **kwargs)

        monkeypatch.setattr(database_module, "exact_disk_services", counted)
        DatabaseClusterExperiment(DatabaseClusterConfig.pareto_files(num_files=2_000)).run(
            0.25, copies=2, num_requests=500
        )
        assert calls

    def test_a_tied_migration_read_queues_ahead_of_the_copy(self, monkeypatch):
        # A cache of 0 items: every read misses and queues on its disk.
        # Server 0 serves the migration read at t = 1 before request 0's
        # copy at t = 1, as merge_jobs orders them on the per-server path;
        # the read at t = 2.5 comes after the last arrival.
        config = DatabaseClusterConfig(num_files=10, cache_to_data_ratio=0.01)
        experiment = DatabaseClusterExperiment(config)
        file_ids = np.array([3, 4])
        migrations = (np.array([0.5, 1.0, 2.5]), np.array([1, 0, 1]), np.array([5, 6, 7]))
        args = (
            2, np.array([1.0, 2.0]), file_ids, experiment._fileset.sizes_bytes[file_ids],
            np.array([[0, 1], [1, 0]]), range(4), (2, 0), migrations,
        )
        best, hits, misses = experiment._eager_batched(*args)
        assert (hits, misses) == (0, 7)
        monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
        per_server_best, *counts = experiment._eager_batched(*args)
        assert best.tobytes() == per_server_best.tobytes()
        assert counts == [0, 7]

    def test_a_server_with_a_large_id_joins(self):
        # Cache state is allocated per server in the run, not per id up to
        # the largest one (a million ids of 2,000 key slots would not fit).
        config = DatabaseClusterConfig(num_files=2_000, seed=3)
        churn = "add:1000000@0.4"
        got = DatabaseClusterExperiment(config).run(
            0.25, copies=2, num_requests=500, churn=churn, migration_rate=100.0
        )
        response, hit_ratio, jobs, spike = reference_database_churn(
            config, 0.25, 2, 500, churn, 100.0
        )
        assert got.response_times.tobytes() == response.tobytes()
        assert got.cache_hit_ratio == hit_ratio
        assert got.metrics["migration_jobs"] == jobs > 0
        assert spike_hex(got.spike) == spike_hex(spike)

    @pytest.mark.parametrize("bad", ["server", "file"])
    def test_a_read_outside_the_run_is_refused(self, bad):
        config = DatabaseClusterConfig(num_files=200)
        experiment = DatabaseClusterExperiment(config)
        arrivals = np.arange(1.0, 11.0)
        files = np.arange(10)
        replicas = (files[:, None] + np.arange(2)) % config.num_servers
        if bad == "server":
            replicas[7, 1] = config.num_servers  # no generator for that id
        else:
            files[7] = config.num_files
        with pytest.raises(ValueError, match="outside the run"):
            experiment._eager_compiled(
                _ckernels.load(), 2, arrivals, files, replicas,
                range(config.num_servers), (2, 0), None, 3,
            )


def servers_reading_oldest_warm_key_first(config, load, copies, num_requests):
    """Servers that read their oldest surviving warm key before their first miss.

    An equal-size cache of ``C`` items ends warm-up holding the last ``C``
    candidates of its warm order.  Until a server's first miss its cache
    holds exactly those, so the oldest of them is a hit only if the whole
    ``C`` were warmed; warming ``C - 1`` would make this read a miss.
    """
    experiment = DatabaseClusterExperiment(config)
    file_ids = substream(config.seed, "keys", load).integers(0, config.num_files, size=num_requests)
    primaries = experiment._primaries[file_ids]
    capacity = equal_item_capacity(config.cache_bytes_per_server, float(config.mean_file_bytes))
    found = []
    for server in range(config.num_servers):
        candidates = experiment._warm_orders(copies)[server]
        if candidates.size <= capacity:
            continue
        oldest = int(candidates[candidates.size - capacity])
        warm = set(candidates[-capacity:].tolist())
        for i, file_id in enumerate(file_ids.tolist()):
            if all((primaries[i] + c) % config.num_servers != server for c in range(copies)):
                continue
            if file_id == oldest:
                found.append(server)
            if file_id == oldest or file_id not in warm:
                break
    return found


class TestWarmPrefix:
    """The eager path's warm prefix keeps every surviving warm key."""

    @pytest.mark.parametrize(
        "num_files,cache_ratio,seed,copies", [(200, 0.8, 2, 1), (40, 0.5, 2, 2)]
    )
    def test_oldest_surviving_warm_key_is_a_hit(
        self, kernel_path, num_files, cache_ratio, seed, copies
    ):
        config = DatabaseClusterConfig(
            num_files=num_files, cache_to_data_ratio=cache_ratio, seed=seed
        )
        # The case this test exists for must occur in the run.
        assert servers_reading_oldest_warm_key_first(config, 0.3, copies, 200)
        batched = DatabaseClusterExperiment(config).run(0.3, copies=copies, num_requests=200)
        response, hit_ratio = reference_database_eager(config, 0.3, copies, 200)
        assert np.array_equal(batched.response_times, response)
        assert batched.cache_hit_ratio == hit_ratio


class TestFlowFidelity:
    def test_uncontended_fct_matches_packet_sim_shape(self):
        # The closed form must reproduce the dominant terms: serialisation of
        # the whole flow plus one propagation round per window growth epoch.
        tcp = TcpConfig()
        rate = 10e9 / 8.0
        small = uncontended_fct(float(tcp.mss_bytes), 6, 10e9, 2e-6, tcp)
        # One segment: 6 store-and-forward hops + the ACK's return path.
        wire = (tcp.mss_bytes + tcp.header_bytes) / rate
        expected = 6 * (wire + 2e-6) + 6 * (2e-6 + tcp.ack_bytes / rate)
        assert small == pytest.approx(expected, rel=1e-12)
        # FCT must be monotone in flow size.
        sizes = [1e3, 1e4, 1e5, 1e6]
        fcts = [uncontended_fct(s, 6, 10e9, 2e-6, tcp) for s in sizes]
        assert all(a < b for a, b in zip(fcts, fcts[1:]))

    def test_flow_fidelity_close_to_packet_at_low_load(self):
        cfg_packet = FatTreeExperimentConfig(k=4, num_flows=300, load=0.2, seed=9)
        cfg_flow = dataclasses.replace(cfg_packet, fidelity="flow")
        packet = FatTreeExperiment(cfg_packet).run()
        flow = FatTreeExperiment(cfg_flow).run()
        # Same flow population (sizes/arrivals are drawn identically) ...
        assert len(packet.records) == len(flow.records)
        assert [r.size_bytes for r in packet.records] == [
            r.size_bytes for r in flow.records
        ]
        # ... and medians agree within the documented approximation band.
        med_packet = float(np.median(packet.fcts()))
        med_flow = float(np.median(flow.fcts()))
        assert med_flow == pytest.approx(med_packet, rel=0.35)


class TestRingDistributionFastPath:
    """The vectorised ConsistentHashRing.distribution() against the
    historical per-key scalar loop — bitwise, including churned rings."""

    @staticmethod
    def scalar_distribution(ring, keys):
        members = list(ring.servers)
        counts = [0] * len(members)
        for key in keys:
            counts[members.index(ring.primary_for(key))] += 1
        return counts

    @pytest.mark.parametrize("num_servers", [1, 2, 5, 8])
    def test_bitwise_equal_to_scalar_loop(self, num_servers):
        from repro.cluster.consistent_hash import ConsistentHashRing

        ring = ConsistentHashRing(num_servers, virtual_nodes=32)
        keys = list(range(4000))
        assert ring.distribution(keys) == self.scalar_distribution(ring, keys)
        assert ring.distribution(np.arange(4000)) == self.scalar_distribution(ring, keys)

    def test_bitwise_equal_after_churn(self):
        from repro.cluster.consistent_hash import ConsistentHashRing

        ring = ConsistentHashRing(6, virtual_nodes=32)
        ring.remove_server(2)
        ring.add_server(9)
        keys = list(range(4000))
        counts = ring.distribution(keys)
        assert counts == self.scalar_distribution(ring, keys)
        # Counts are ordered like ring.servers and cover every key once.
        assert len(counts) == len(ring.servers)
        assert sum(counts) == len(keys)

    def test_empty_keys(self):
        from repro.cluster.consistent_hash import ConsistentHashRing

        assert ConsistentHashRing(4).distribution([]) == [0, 0, 0, 0]
        assert ConsistentHashRing(4).distribution(np.arange(0)) == [0, 0, 0, 0]
