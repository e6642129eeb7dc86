"""Vectorised LRU hit detection for equal-sized cache items.

:class:`~repro.cluster.cache.LRUByteCache` answers one access at a time; at
paper scale the database substrate pushes ~100k accesses per grid point
through it, and the Python-level dict walk dominates the point cost.  When
every item has the same size the cache holds a fixed number of items ``C``,
so :func:`lru_hit_flags` can classify a whole access stream at once.  It is
the database's LRU when the compiled kernels are off or missing; with them,
the eager run keeps its caches inside one compiled pass
(``eager_reads`` in :mod:`repro.cluster._ckernels`).  It is built on a
closed-form batch formulation:

* ``prev[t]`` — the previous access of the same key — is computable for the
  whole stream with one sort.
* An access hits iff its key is among the ``C`` most recently used distinct
  keys, i.e. iff ``prev[t] >= b(t)`` where ``b(t)`` is the position of the
  C-th most recently used distinct key just before access ``t``.
* ``b`` is **monotone non-decreasing**: each step adds a new most-recent
  position and retires at most one older one, so the C-th largest "last
  occurrence" position can only move forward.

Monotonicity is the lever: the kernel computes ``b`` exactly only at chunk
boundaries (cheap, vectorised per boundary), brackets every access's
``b(t)`` between the surrounding boundary values, classifies almost all
accesses with two global comparisons, and resolves the handful of ambiguous
accesses — those whose ``prev`` lands inside the bracket — with an exact
distinct count over the ``next``-occurrence array.  It is bit-equal to
replaying the stream through ``LRUByteCache`` (pinned by tests against the
reference implementation) at a small fraction of the cost.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

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


def previous_and_next_occurrence(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``prev[t]``/``next[t]`` occurrence indices of each key (vectorised).

    ``prev[t]`` is the last index ``< t`` holding the same key (``-1`` if
    none); ``next[t]`` is the next index ``> t`` (``len(keys)`` if none).
    One in-place sort of ``(key << shift) | position`` composites groups each
    key's positions in ascending order without a (much slower) stable
    argsort; shifts and masks in place of multiply/divmod keep the unpacking
    off the slow int64-division path.
    """
    n = len(keys)
    keys = np.asarray(keys, dtype=np.int64)
    shift = max(1, int(n - 1).bit_length()) if n > 1 else 1
    composite = (keys << shift) | np.arange(n, dtype=np.int64)
    composite.sort()
    pos = composite & ((1 << shift) - 1)
    key_sorted = composite >> shift
    prev = np.full(n, -1, dtype=np.int64)
    same = key_sorted[1:] == key_sorted[:-1]
    prev[pos[1:][same]] = pos[:-1][same]
    nxt = np.full(n, n, dtype=np.int64)
    mask = prev >= 0
    nxt[prev[mask]] = np.flatnonzero(mask)
    return prev, nxt


def lru_hit_flags(keys: np.ndarray, capacity_items: int, chunk: int = 256) -> np.ndarray:
    """Hit/miss flag per access for an LRU cache of ``capacity_items`` items.

    Equivalent to feeding ``keys`` through ``LRUByteCache`` with equal item
    sizes: ``flags[t]`` is ``True`` iff access ``t`` is a cache hit.  Keys
    must be non-negative integers.

    Args:
        keys: Access stream (any integer dtype).
        capacity_items: Number of items the cache holds (``<= 0`` = all miss).
        chunk: Boundary sampling interval; affects speed only, not results.

    Raises:
        ValueError: A key is negative.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if keys.min() < 0:
        raise ValueError("lru_hit_flags keys must be non-negative")
    if capacity_items <= 0:
        return np.zeros(n, dtype=bool)
    C = int(capacity_items)
    prev, nxt = previous_and_next_occurrence(keys)

    num_chunks = (n + chunk - 1) // chunk
    if num_chunks > 1024:
        # Cap the boundary-matrix footprint; chunk affects speed only.
        chunk = -(-n // 1024)
        num_chunks = (n + chunk - 1) // chunk
    positions = np.arange(n, dtype=np.int64)

    # boundary[c] = b at time min(c*chunk, n) (-1 while fewer than C
    # distinct keys).  At boundary time tau_c = min((c+1)*chunk, n) the
    # marked (= currently most-recent) positions are exactly
    # {p < tau_c : nxt[p] >= tau_c}, a pure function of nxt — no incremental
    # add/retire bookkeeping is needed.  Bucket every position by
    # (own block, block of its next occurrence) into one histogram; a
    # suffix-cumsum over next-blocks then yields, for every boundary at once,
    # the marked count per block, and a second suffix-cumsum over blocks
    # yields the totals and the block holding the C-th most recent position.
    boundary = np.full(num_chunks + 1, -1, dtype=np.int64)
    # nxt == n must not share a bucket with same-block indices when the last
    # chunk is partial: give it a dedicated final column.
    nxt_block = np.where(nxt == n, num_chunks, nxt // chunk)
    flat = (positions // chunk) * (num_chunks + 1) + nxt_block
    hist = np.bincount(flat, minlength=num_chunks * (num_chunks + 1))
    hist = hist.reshape(num_chunks, num_chunks + 1)
    # marked_per_block[b, c] = #{p in block b : nxt[p] >= (c+1)*chunk}; only
    # the upper triangle (b <= c, i.e. blocks fully before tau_c) is used.
    marked_per_block = np.triu(hist[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:])
    # suffix[b, c] = marked positions at tau_c in blocks >= b.
    suffix = marked_per_block[::-1].cumsum(axis=0)[::-1]
    filled = np.flatnonzero(suffix[0] >= C)  # boundaries with >= C distinct
    blks = (suffix >= C).sum(axis=0) - 1     # block of the C-th most recent
    suffix_pad = np.vstack([suffix, np.zeros((1, num_chunks), dtype=np.int64)])
    for c in filled.tolist():
        blk = int(blks[c])
        rank = C - int(suffix_pad[blk + 1, c])
        blo = blk * chunk
        bhi = min(blo + chunk, n)
        tau = min((c + 1) * chunk, n)
        marked = np.flatnonzero(nxt[blo:bhi] >= tau)
        boundary[c + 1] = blo + int(marked[-rank])

    t_chunk = positions // chunk
    b_lo = boundary[t_chunk]
    b_hi = boundary[t_chunk + 1]
    valid = prev >= 0
    # b(t) is bracketed by the boundary values, so prev >= b_hi is a sure
    # hit and prev < b_lo a sure miss.  b_hi == -1 means the cache is still
    # under-filled throughout the chunk: every repeat access hits.
    hits = valid & ((b_hi >= 0) & (prev >= b_hi) | (b_hi < 0))
    sure_miss = (~valid) | (prev < b_lo)
    ambiguous = np.flatnonzero(valid & ~hits & ~sure_miss)
    for t in ambiguous:
        p = prev[t]
        distinct_between = int(np.count_nonzero(nxt[p + 1 : t] >= t))
        if distinct_between < C:
            hits[t] = True
    return hits
