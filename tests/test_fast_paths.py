"""Tests for the vectorised hot paths behind the sweep-throughput work.

Byte-identity is the contract: the batched draw paths, the LRU batch kernel,
the FIFO finish-time kernel, and the optional compiled kernels must all be
bitwise indistinguishable from the scalar reference implementations they
replace.  The flow-level fat-tree fidelity is the one documented
approximation, so it is pinned with delta bounds rather than equality.
"""

import dataclasses
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import _ckernels
from repro.cluster.cache import LRUByteCache
from repro.cluster.database import DatabaseClusterConfig, DatabaseClusterExperiment
from repro.cluster.disk import DiskModel
from repro.cluster.draws import exact_disk_services, sequential_finish_times
from repro.cluster.lru_kernel import (
    equal_item_capacity,
    lru_hit_flags,
    previous_and_next_occurrence,
)
from repro.cluster.memcached import MemcachedConfig, MemcachedExperiment
from repro.exceptions import ConfigurationError
from repro.network.fattree_sim import FatTreeExperiment, FatTreeExperimentConfig
from repro.network.flow_fidelity import uncontended_fct
from repro.network.tcp import TcpConfig
from repro.pipeline.workers import draw_placements
from repro.sim.rng import substream


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
    """Pin the compiled kernels (skipping without a C compiler) or the numpy path."""
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
    def test_matches_reference_cache_across_regimes(self, kernel_path):
        rng = np.random.default_rng(7)
        for case in range(12):
            n = int(rng.integers(1, 4000))
            num_keys = int(rng.integers(1, 600))
            capacity = int(rng.integers(1, num_keys + 50))
            if rng.random() < 0.5:
                keys = rng.integers(0, num_keys, size=n)
            else:  # skewed stream: hot keys exercise the ambiguous band
                keys = (rng.zipf(1.5, size=n) - 1) % num_keys
            expected = reference_lru_flags(keys, capacity)
            got = lru_hit_flags(keys, capacity)
            assert np.array_equal(got, expected), (case, n, num_keys, capacity)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        use_kernel_path(monkeypatch, "numpy")  # the compiled path ignores chunk
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 200, size=3000)
        expected = reference_lru_flags(keys, 64)
        for chunk in (1, 16, 37, 256, 4096):
            assert np.array_equal(lru_hit_flags(keys, 64, chunk=chunk), expected)

    def test_large_stream_triggers_chunk_cap(self, monkeypatch):
        # > 1024 default chunks: exercises the numpy path's boundary-matrix
        # footprint cap.
        use_kernel_path(monkeypatch, "numpy")
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 900, size=300_000)
        got = lru_hit_flags(keys, 500)
        assert np.array_equal(got, reference_lru_flags(keys, 500))

    def test_edge_cases(self):
        assert lru_hit_flags(np.array([], dtype=np.int64), 10).shape == (0,)
        assert not lru_hit_flags(np.array([1, 1, 1]), 0).any()
        assert np.array_equal(
            lru_hit_flags(np.array([5, 5, 5]), 1), np.array([False, True, True])
        )

    def test_negative_key_rejected(self, kernel_path):
        # The compiled path indexes per-key arrays by key, so a negative key
        # must be refused before it reaches C.
        with pytest.raises(ValueError, match="non-negative"):
            lru_hit_flags(np.array([3, -1, 2]), 2)

    def test_previous_and_next_occurrence(self):
        keys = np.array([3, 1, 3, 3, 1, 2])
        prev, nxt = previous_and_next_occurrence(keys)
        assert prev.tolist() == [-1, -1, 0, 2, 1, -1]
        assert nxt.tolist() == [2, 4, 3, 6, 6, 6]

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
    """The per-miss draw sequence of ``StorageServerModel.serve``, verbatim."""
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
    """The same checks on the numpy path, as with no C compiler."""

    path = "numpy"


class TestCompiledDiskServices:
    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_matches_scalar_on_other_bit_generators(self, monkeypatch, bit_generator):
        # The numpy path rewinds with bit_generator.advance, which MT19937
        # and SFC64 lack; the compiled path draws on any bit generator.
        use_kernel_path(monkeypatch, "compiled")
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


class TestCompiledLruKernel:
    def test_compiled_and_python_paths_identical(self, monkeypatch):
        if _ckernels.load() is None:
            pytest.skip("no C compiler available")
        rng = np.random.default_rng(21)
        for _ in range(6):
            keys = (rng.zipf(1.4, size=5000) - 1) % 400
            capacity = int(rng.integers(2, 300))
            with_c = lru_hit_flags(keys, capacity)
            monkeypatch.setenv(_ckernels.CKERNELS_ENV_VAR, "0")
            without_c = lru_hit_flags(keys, capacity)
            monkeypatch.delenv(_ckernels.CKERNELS_ENV_VAR)
            assert np.array_equal(with_c, without_c)
            assert np.array_equal(with_c, reference_lru_flags(keys, capacity))


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
    total_rate = config.num_servers * load / config.expected_service_time(1)
    arrivals_rng = substream(config.seed, "arrivals", load)
    arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
    keys_rng = substream(config.seed, "keys", load)
    file_ids = keys_rng.integers(0, config.num_files, size=num_requests)
    sizes = experiment._fileset.sizes_bytes[file_ids]
    servers = experiment._build_servers(run_seed=(copies, hash(round(load, 6)) & 0xFFFF))
    experiment._warm_caches(servers, copies)
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
    hits = sum(server.cache.hits for server in servers)
    misses = sum(server.cache.misses for server in servers)
    return response[int(num_requests * warmup_fraction) :], hits / (hits + misses)


def reference_memcached_eager(config, load, copies, num_requests, warmup_fraction=0.1):
    """The per-request FIFO loop the per-server memcached recursion replaced.

    Rebuilds arrivals, service times and placements from the substreams
    ``MemcachedExperiment.run`` draws them from, then queues every copy in
    ``(request, copy)`` order behind its server's previous copy.

    Returns:
        The response times with the warm-up removed.
    """
    experiment = MemcachedExperiment(config)
    total_rate = config.num_servers * load / config.expected_service_s()
    arrivals_rng = substream(config.seed, "arrivals", load, copies, False)
    arrival_times = np.cumsum(arrivals_rng.exponential(1.0 / total_rate, num_requests))
    service_rng = substream(config.seed, "service", load, copies, False)
    service_times = experiment._sample_service(service_rng, num_requests * copies)
    service_times = service_times.reshape(num_requests, copies)
    placement_rng = substream(config.seed, "placement", load, copies, False)
    placements = experiment._choose_servers(placement_rng, num_requests, copies)
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


class TestBatchedDrawsByteIdentity:
    """End-to-end: the batched eager runs equal the scalar loops above."""

    @pytest.mark.parametrize("copies", [1, 2])
    def test_database_response_times_identical(self, copies):
        cfg = DatabaseClusterConfig(num_files=4000, seed=321)
        batched = DatabaseClusterExperiment(cfg).run(0.3, copies=copies, num_requests=2000)
        response, hit_ratio = reference_database_eager(cfg, 0.3, copies, 2000)
        assert np.array_equal(batched.response_times, response)
        assert batched.cache_hit_ratio == hit_ratio

    def test_database_noisy_variant_identical(self):
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
