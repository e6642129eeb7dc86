"""A byte-bounded LRU cache modelling the Linux page cache.

Section 2.2's servers keep "around half the main memory ... available for the
Linux disk cache"; whether a requested file is in that cache is what separates
the fast path (sub-millisecond memory read) from the slow path (disk seek +
transfer), and the ratio of cache capacity to data-set size is the experiment's
main variability knob (Figures 8 and 11).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.exceptions import ConfigurationError


class LRUByteCache:
    """Least-recently-used cache with a capacity measured in bytes.

    Entries are keyed by an opaque hashable id (the file id) and carry a size;
    inserting an entry evicts least-recently-used entries until it fits.  An
    entry larger than the whole cache is simply not cached (matching page
    cache behaviour for huge files under memory pressure).
    """

    def __init__(self, capacity_bytes: float) -> None:
        """Create an empty cache with the given capacity (> 0)."""
        if capacity_bytes <= 0:
            raise ConfigurationError(f"capacity_bytes must be positive, got {capacity_bytes!r}")
        self.capacity_bytes = float(capacity_bytes)
        self._entries: "OrderedDict[object, float]" = OrderedDict()
        self.used_bytes = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def access(self, key: object, size_bytes: float) -> bool:
        """Access ``key``: return ``True`` on a hit, otherwise insert it.

        This is the single call the storage server makes per request: it both
        checks for a hit and, on a miss, brings the object into the cache
        (evicting as needed), exactly as a read through the page cache would.

        Args:
            key: Object id.
            size_bytes: Object size (> 0).

        Raises:
            ConfigurationError: If ``size_bytes`` is not positive.
        """
        if size_bytes <= 0:
            raise ConfigurationError(f"size_bytes must be positive, got {size_bytes!r}")
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._insert(key, float(size_bytes))
        return False

    def access_many(self, keys, sizes) -> "np.ndarray":
        """Access a whole stream of keys, returning the per-access hit flags.

        Semantically identical to calling :meth:`access` once per element
        (same recency updates, evictions, and counters) but with the loop
        overhead hoisted: attribute lookups are bound once and the byte
        accounting runs on local floats.  It is the cache of the eager
        database's per-server path, which runs for unequal file sizes and
        whenever the compiled kernels are off or missing.

        Args:
            keys: Iterable of object ids (converted to ``int``).
            sizes: Matching iterable of positive sizes in bytes.

        Returns:
            Boolean array, ``True`` where the access hit.
        """
        import numpy as np

        keys = [int(k) for k in keys]
        out = np.empty(len(keys), dtype=bool)
        entries = self._entries
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        capacity = self.capacity_bytes
        used = self.used_bytes
        hits = 0
        evictions = 0
        index = 0
        for key, size in zip(keys, sizes):
            if key in entries:
                move_to_end(key)
                hits += 1
                out[index] = True
            else:
                out[index] = False
                size = float(size)
                if size <= capacity:
                    while used + size > capacity and entries:
                        _, evicted_size = popitem(last=False)
                        used -= evicted_size
                        evictions += 1
                    entries[key] = size
                    used += size
            index += 1
        self.used_bytes = used
        self.hits += hits
        self.misses += len(keys) - hits
        self.evictions += evictions
        return out

    def peek(self, key: object) -> bool:
        """Whether ``key`` is cached, without touching recency or counters."""
        return key in self._entries

    def _insert(self, key: object, size_bytes: float) -> None:
        if size_bytes > self.capacity_bytes:
            return
        while self.used_bytes + size_bytes > self.capacity_bytes and self._entries:
            _, evicted_size = self._entries.popitem(last=False)
            self.used_bytes -= evicted_size
            self.evictions += 1
        self._entries[key] = size_bytes
        self.used_bytes += size_bytes

    def warm_with(self, keys, sizes) -> None:
        """Pre-populate the cache (used to skip the cold-start transient).

        The result is always that of inserting ``(keys[i], sizes[i])`` in
        order, skipping keys already cached, without counting hits or misses.
        When the cache is empty, the keys are distinct, every size is a
        positive whole number of bytes and ``capacity + max(size) < 2**53``,
        that insert loop does exact integer byte accounting and its outcome
        has a closed form, built with array operations and per-item Python
        work only for the items kept: the entries are the longest suffix of
        the cacheable keys (size at most the capacity) whose sizes fit, in
        order; ``used_bytes`` is their sum; and every cacheable key before
        that suffix counts as one eviction.  Any other input (fractional
        sizes, repeated keys, a cache already holding entries) runs the
        insert loop.

        Args:
            keys: Sequence of object ids, inserted in order (so later keys
                are the most recently used).  Arrays are read with
                ``tolist()``, so integer ids are stored as Python ``int``.
            sizes: Matching sequence of sizes in bytes.

        Raises:
            ConfigurationError: If ``keys`` and ``sizes`` differ in length.
        """
        import numpy as np

        keys = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        sizes = np.asarray(sizes, dtype=float)
        if len(keys) != len(sizes):
            raise ConfigurationError(
                f"warm_with got {len(keys)} keys but {len(sizes)} sizes"
            )
        if not keys:
            return
        capacity = self.capacity_bytes
        if (
            not self._entries
            and sizes.min() > 0.0
            and capacity + sizes.max() < 2.0**53
            and np.array_equal(sizes, np.floor(sizes))
            and len(set(keys)) == len(keys)
        ):
            cacheable = np.flatnonzero(sizes <= capacity)
            # Suffix sums stay exact integers up to the first one past the
            # capacity, which is all the search below reads.
            suffix_bytes = np.cumsum(sizes[cacheable[::-1]])
            kept = int(np.searchsorted(suffix_bytes, capacity, side="right"))
            tail = cacheable[len(cacheable) - kept :]
            self._entries.update(zip([keys[i] for i in tail.tolist()], sizes[tail].tolist()))
            self.used_bytes = float(suffix_bytes[kept - 1]) if kept else 0.0
            self.evictions += len(cacheable) - kept
            return
        for key, size in zip(keys, sizes.tolist()):
            if key not in self._entries:
                self._insert(key, size)

    @property
    def hit_ratio(self) -> float:
        """Observed hit ratio since creation (0 when no accesses yet)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
