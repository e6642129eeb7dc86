"""Tests for the storage-cluster building blocks (hashing, cache, disk, server)."""

import numpy as np
import pytest

from repro.cluster import ConsistentHashRing, DiskModel, LRUByteCache, StorageServerModel
from repro.exceptions import ConfigurationError


class TestConsistentHashRing:
    def test_primary_is_stable(self):
        ring = ConsistentHashRing(4)
        assert ring.primary_for("file-1") == ring.primary_for("file-1")

    def test_replicas_are_successors(self):
        ring = ConsistentHashRing(5)
        replicas = ring.replicas_for("key", copies=3)
        assert len(replicas) == 3
        assert replicas[1] == (replicas[0] + 1) % 5
        assert replicas[2] == (replicas[0] + 2) % 5

    def test_balance_is_reasonable(self):
        ring = ConsistentHashRing(4, virtual_nodes=128)
        counts = ring.distribution([f"key-{i}" for i in range(8000)])
        assert min(counts) > 0.5 * max(counts)

    def test_copies_bounded_by_servers(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(3).replicas_for("k", copies=4)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(0)
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(3, virtual_nodes=0)

    def test_all_servers_receive_keys(self):
        ring = ConsistentHashRing(6)
        primaries = {ring.primary_for(f"key-{i}") for i in range(2000)}
        assert primaries == set(range(6))


class TestLRUByteCache:
    def test_miss_then_hit(self):
        cache = LRUByteCache(1000)
        assert cache.access("a", 100) is False
        assert cache.access("a", 100) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_of_least_recently_used(self):
        cache = LRUByteCache(250)
        cache.access("a", 100)
        cache.access("b", 100)
        cache.access("a", 100)  # refresh "a"
        cache.access("c", 100)  # evicts "b"
        assert cache.peek("a") and cache.peek("c")
        assert not cache.peek("b")
        assert cache.evictions == 1

    def test_oversized_entry_not_cached(self):
        cache = LRUByteCache(100)
        cache.access("huge", 500)
        assert not cache.peek("huge")
        assert cache.used_bytes == 0

    def test_used_bytes_never_exceeds_capacity(self, rng):
        cache = LRUByteCache(1000)
        for i in range(500):
            cache.access(f"k{i % 50}", float(rng.integers(10, 200)))
            assert cache.used_bytes <= 1000

    def test_warm_with(self):
        cache = LRUByteCache(300)
        cache.warm_with(["a", "b", "c", "d"], np.array([100, 100, 100, 100]))
        assert len(cache) == 3  # capacity bounded
        assert not cache.peek("a")  # the earliest insert is the one evicted
        assert cache.hits == 0 and cache.misses == 0

    def test_hit_ratio(self):
        cache = LRUByteCache(1000)
        cache.access("a", 10)
        cache.access("a", 10)
        cache.access("b", 10)
        assert cache.hit_ratio == pytest.approx(1.0 / 3.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LRUByteCache(0)
        with pytest.raises(ConfigurationError):
            LRUByteCache(10).access("a", 0)


class TestDiskModel:
    def test_mean_service_time_components(self):
        disk = DiskModel(slow_access_probability=0.0)
        expected = disk.mean_positioning_s + 70_000.0 / disk.transfer_bytes_per_sec
        assert disk.mean_service_time(70_000.0) == pytest.approx(expected)

    def test_slow_access_raises_mean(self):
        fast = DiskModel(slow_access_probability=0.0)
        slow = DiskModel(slow_access_probability=0.05, slow_access_mean_s=0.1)
        assert slow.mean_service_time(4000.0) > fast.mean_service_time(4000.0)

    def test_sample_mean_matches_analytic(self, rng):
        disk = DiskModel()
        sizes = np.full(200_000, 4000.0)
        samples = disk.sample_service_times(sizes, rng)
        assert float(samples.mean()) == pytest.approx(disk.mean_service_time(4000.0), rel=0.03)

    def test_larger_files_take_longer(self, rng):
        disk = DiskModel(slow_access_probability=0.0)
        small = disk.sample_service_time(4_000.0, rng)
        large = disk.sample_service_time(4_000_000.0, rng)
        assert large > small

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DiskModel(min_positioning_s=0.02, max_positioning_s=0.01)
        with pytest.raises(ConfigurationError):
            DiskModel(transfer_bytes_per_sec=0.0)
        with pytest.raises(ConfigurationError):
            DiskModel().sample_service_time(-1.0, np.random.default_rng(0))


class TestStorageServerModel:
    def _server(self, **kwargs):
        defaults = dict(
            server_id=0,
            cache_bytes=10_000.0,
            disk=DiskModel(slow_access_probability=0.0),
            memory_service_s=0.0002,
        )
        defaults.update(kwargs)
        return StorageServerModel(rng=np.random.default_rng(0), **defaults)

    def test_cache_hit_is_fast_and_does_not_touch_disk(self):
        server = self._server()
        server.serve(0.0, "f", 4000.0)  # miss populates the cache
        completion, hit = server.serve(10.0, "f", 4000.0)
        assert hit
        assert completion == pytest.approx(10.0 + 0.0002)
        assert server.disk_requests == 1

    def test_cache_miss_pays_disk_service(self):
        server = self._server()
        completion, hit = server.serve(0.0, "f", 4000.0)
        assert not hit
        assert completion >= 0.003  # at least the minimum positioning time

    def test_misses_queue_fifo_behind_each_other(self):
        server = self._server()
        first, _ = server.serve(0.0, "a", 4000.0)
        second, _ = server.serve(0.0, "b", 4000.0)
        assert second > first

    def test_noise_inflates_expected_service(self):
        noisy = self._server(noise_probability=0.5, noise_multiplier_mean=4.0)
        clean = self._server()
        assert noisy.expected_miss_service_time(4000.0) > clean.expected_miss_service_time(4000.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            self._server(memory_service_s=0.0)
        with pytest.raises(ConfigurationError):
            self._server(noise_probability=1.5)
