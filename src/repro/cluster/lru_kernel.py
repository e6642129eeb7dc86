"""Item capacity of an LRU byte cache that holds equal-sized items.

When every file has the same size, an
:class:`~repro.cluster.cache.LRUByteCache` holds a fixed number of items
``C``, so a cache can be kept as ``C`` item slots instead of a byte count.
The compiled eager database pass does that (``eager_reads`` in
:mod:`repro.cluster._ckernels`), with ``C`` from :func:`equal_item_capacity`.
:func:`lru_hit_flags` classifies a stream for such a cache by replaying it
through ``LRUByteCache``; no database path calls it, but the ledger
benchmark's tracer (``benchmarks/ledger/trace.py``) looks it up by name.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.cache import LRUByteCache

_MAX_EXACT_FLOAT = float(2**53)


def equal_item_capacity(capacity_bytes: float, item_bytes: float) -> Optional[int]:
    """Item capacity of a byte cache holding equal-sized items, or ``None``.

    Returns the largest ``C`` with ``C * item_bytes <= capacity_bytes`` when
    the byte-level accounting of ``LRUByteCache`` (repeated float addition and
    subtraction of ``item_bytes``) is provably exact, so that counting items
    is equivalent to counting bytes.  Returns ``None`` when the equivalence
    cannot be guaranteed (non-integer item size, or totals large enough for
    float rounding), in which case callers must fall back to the reference
    cache.
    """
    if item_bytes <= 0 or not np.isfinite(capacity_bytes) or capacity_bytes < 0:
        return None
    if item_bytes != int(item_bytes):
        return None
    if capacity_bytes >= _MAX_EXACT_FLOAT:
        return None
    if item_bytes > capacity_bytes:
        return 0
    cap = int(capacity_bytes // item_bytes)
    # Pin down float-boundary cases exactly.
    while (cap + 1) * item_bytes <= capacity_bytes:
        cap += 1
    while cap > 0 and cap * item_bytes > capacity_bytes:
        cap -= 1
    return cap


def lru_hit_flags(keys: np.ndarray, capacity_items: int) -> np.ndarray:
    """Hit/miss flag per access for an LRU cache of ``capacity_items`` items.

    ``flags[t]`` is ``True`` iff access ``t`` hits when ``keys`` are fed, in
    order, through an empty :class:`~repro.cluster.cache.LRUByteCache` with
    one byte per item (``capacity_items <= 0``: every access misses).
    """
    if capacity_items <= 0:
        return np.zeros(len(keys), dtype=bool)
    return LRUByteCache(float(capacity_items)).access_many(keys, [1.0] * len(keys))
