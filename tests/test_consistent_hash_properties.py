"""Property tests for the consistent-hash ring invariants.

These three invariants — balance within the documented bounds, ~1/n key
movement on pool growth, and distinct ring successors — are what the live
serving layer (``repro.serve``) and the cluster substrates assume when they
place k copies of a request.  The bounds asserted here are the ones
documented on :class:`ConsistentHashRing`.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import consistent_hash
from repro.cluster.consistent_hash import (
    ConsistentHashRing,
    analyze_membership_change,
)

# Keep hypothesis runtimes modest: these are invariant checks, not fuzzing.
DEFAULT_SETTINGS = settings(max_examples=30, deadline=None)

#: One large keyspace shared by every example (hashing it is the slow part).
KEYS = np.arange(8_000)


def blake64(text):
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def reference_hash(key):
    """blake2b-64 of ``repr(key)``, an integer key spelled as a Python int."""
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        key = int(key)
    return blake64(repr(key))


def reference_points(members, virtual_nodes):
    """Every member's vnodes hashed afresh and sorted as ``(hash, server)``."""
    return sorted(
        (blake64(f"server-{server}-vnode-{i}"), server)
        for server in members
        for i in range(virtual_nodes)
    )


def reference_replica_table(ring, keys, copies):
    """The replica table by the formula the ring used before its points and
    key hashes were memoised: each key's hash searched into the sorted
    points, then the primary's successors by position modulo the pool."""
    points = reference_points(ring.servers, ring.virtual_nodes)
    point_hashes = np.array([p[0] for p in points], dtype=np.uint64)
    point_servers = np.array([p[1] for p in points], dtype=np.int64)
    members = np.array(ring.servers, dtype=np.int64)
    hashes = np.array([reference_hash(key) for key in keys], dtype=np.uint64)
    index = np.searchsorted(point_hashes, hashes, side="left")
    index[index == len(point_hashes)] = 0
    positions = np.searchsorted(members, point_servers[index])
    return members[(positions[:, None] + np.arange(copies)) % len(members)]


def churned_ring(data, num_servers, virtual_nodes):
    """A ring after a drawn sequence of legal adds and removes."""
    ring = ConsistentHashRing(num_servers, virtual_nodes=virtual_nodes)
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        if len(ring.servers) > 1 and data.draw(st.booleans()):
            ring.remove_server(data.draw(st.sampled_from(ring.servers)))
        else:
            candidates = [s for s in range(num_servers + 8) if s not in ring.servers]
            ring.add_server(data.draw(st.sampled_from(candidates)))
    return ring


# ---------------------------------------------------------------------------
# Balance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "virtual_nodes,bound",
    # Empirical worst deviations over pools 2..32 are 0.487 / 0.342 / 0.254;
    # the documented bounds leave headroom above those.
    [(64, 0.6), (128, 0.35), (256, 0.3)],
)
@pytest.mark.parametrize("num_servers", [2, 4, 8, 16, 19, 21, 32])
def test_balance_within_documented_bounds(num_servers, virtual_nodes, bound):
    """Every server's primary share stays within the documented deviation
    of the fair share 1/n, tightening as virtual nodes grow."""
    ring = ConsistentHashRing(num_servers, virtual_nodes=virtual_nodes)
    counts = np.bincount(ring.primary_for_many(KEYS), minlength=num_servers)
    fair = len(KEYS) / num_servers
    deviation = np.abs(counts - fair).max() / fair
    assert deviation <= bound, (
        f"n={num_servers} vnodes={virtual_nodes}: worst relative deviation "
        f"{deviation:.3f} exceeds documented bound {bound}"
    )
    # Balance also implies no server is starved entirely.
    assert counts.min() > 0


@DEFAULT_SETTINGS
@given(
    num_servers=st.integers(min_value=2, max_value=24),
    virtual_nodes=st.integers(min_value=64, max_value=256),
)
def test_balance_holds_across_arbitrary_configs(num_servers, virtual_nodes):
    ring = ConsistentHashRing(num_servers, virtual_nodes=virtual_nodes)
    counts = np.bincount(ring.primary_for_many(KEYS), minlength=num_servers)
    fair = len(KEYS) / num_servers
    assert np.abs(counts - fair).max() / fair <= 0.6


# ---------------------------------------------------------------------------
# Minimal key movement on pool growth
# ---------------------------------------------------------------------------

@DEFAULT_SETTINGS
@given(num_servers=st.integers(min_value=2, max_value=24))
def test_growth_moves_about_one_over_n_keys(num_servers):
    """Growing n -> n+1 servers remaps ~1/(n+1) of keys, and every remapped
    key moves *to the new server* — existing servers' ring points are
    identical in both rings, so nothing else can change hands."""
    before = ConsistentHashRing(num_servers, virtual_nodes=64).primary_for_many(KEYS)
    after = ConsistentHashRing(num_servers + 1, virtual_nodes=64).primary_for_many(KEYS)
    moved = before != after
    fraction = float(moved.mean())
    ideal = 1.0 / (num_servers + 1)
    # Within a factor of two of ideal, plus absolute slack for small samples.
    assert fraction <= 2.0 * ideal + 0.02, (
        f"n={num_servers}: moved {fraction:.4f}, ideal {ideal:.4f}"
    )
    assert fraction >= 0.5 * ideal - 0.02
    # Moved keys land only on the newly added server.
    assert set(np.unique(after[moved])) <= {num_servers}


# ---------------------------------------------------------------------------
# Successor distinctness (what k-copies dispatch relies on)
# ---------------------------------------------------------------------------

@DEFAULT_SETTINGS
@given(
    num_servers=st.integers(min_value=1, max_value=32),
    key=st.integers(min_value=0, max_value=2**63),
    data=st.data(),
)
def test_replicas_distinct_and_successor_shaped(num_servers, key, data):
    copies = data.draw(st.integers(min_value=1, max_value=num_servers))
    ring = ConsistentHashRing(num_servers, virtual_nodes=16)
    replicas = ring.replicas_for(key, copies)
    assert len(replicas) == copies
    assert len(set(replicas)) == copies, "k-copies dispatch needs distinct backends"
    assert all(0 <= server < num_servers for server in replicas)
    # The paper's rule: secondary of server n is server n+1 (mod pool size).
    primary = ring.primary_for(key)
    assert replicas == [(primary + offset) % num_servers for offset in range(copies)]


@DEFAULT_SETTINGS
@given(
    keys=st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=50),
    grow=st.integers(min_value=-300, max_value=300),
    picks=st.lists(st.integers(min_value=0, max_value=2**32), max_size=50),
)
def test_primary_for_many_matches_scalar(keys, grow, picks):
    """The vectorised lookup equals the scalar one for every key form: the
    shared id-hash table (``range(0, n)``, which may grow it) and per-key
    hashing for everything else — plain-int lists inside and past the
    table, numpy ``int64`` elements and arrays (hashed as the ints they
    hold; an array inside the table reads it), bools, negative ids and
    ranges not starting at 0.  Only ``range(0, n)`` grows the table."""
    ring = ConsistentHashRing(8, virtual_nodes=32)
    # The table is process-wide, so its size (and ids inside it) are read
    # here rather than drawn.
    n = max(0, len(consistent_hash._INT_KEY_HASHES) + grow)
    by_range = ring.primary_for_many(range(n))
    size = len(consistent_hash._INT_KEY_HASHES)
    assert len(by_range) == n and size >= n
    # Every id the lookup may just have hashed, and a sample of older ones.
    checked = sorted({*range(max(0, n - 300), n), *(pick % n for pick in picks if n)})
    assert [by_range[i] for i in checked] == [ring.primary_for(i) for i in checked]
    inside = [pick % size for pick in picks] if size else []
    int64 = [key for key in keys if key < 2**63]
    for batch in (
        keys,
        inside,
        inside + [size],
        [np.int64(key) for key in int64],
        np.array(int64, dtype=np.int64),
        np.array(inside, dtype=np.int64),
        [True, False] + inside,
        [-1] + inside,
        range(1, 40),
    ):
        vectorised = ring.primary_for_many(batch)
        assert len(consistent_hash._INT_KEY_HASHES) == size
        assert list(vectorised) == [ring.primary_for(key) for key in batch]


# ---------------------------------------------------------------------------
# Live membership (what the churn timeline and repro.serve eviction rely on)
# ---------------------------------------------------------------------------

@DEFAULT_SETTINGS
@given(
    num_servers=st.integers(min_value=3, max_value=24),
    data=st.data(),
)
def test_removal_moves_only_the_removed_servers_keys(num_servers, data):
    """remove_server remaps exactly the keys the removed server owned —
    ~1/n of the keyspace, within the growth bounds — and nothing else."""
    victim = data.draw(st.integers(min_value=0, max_value=num_servers - 1))
    keys = KEYS
    before = ConsistentHashRing(num_servers, virtual_nodes=64)
    owned_before = before.primary_for_many(keys)
    after = ConsistentHashRing(num_servers, virtual_nodes=64)
    after.remove_server(victim)
    owned_after = after.primary_for_many(keys)
    moved = owned_before != owned_after
    # Exactly the victim's keys move: survivors' ring points are identical
    # in both rings, so no other arc can change hands.
    assert set(np.unique(owned_before[moved])) <= {victim}
    assert not np.any(owned_after == victim)
    fraction = float(moved.mean())
    ideal = 1.0 / num_servers
    assert 0.5 * ideal - 0.02 <= fraction <= 2.0 * ideal + 0.02, (
        f"n={num_servers} victim={victim}: moved {fraction:.4f}, ideal {ideal:.4f}"
    )
    # analyze_membership_change agrees with the direct comparison.
    change = analyze_membership_change(before, after, keys)
    assert change["moved_keys"] == int(moved.sum())
    assert change["per_server_delta"][victim] == -int((owned_before == victim).sum())
    assert sum(change["per_server_delta"].values()) == 0
    assert sum(len(v) for v in change["gained"].values()) == change["moved_keys"]


@DEFAULT_SETTINGS
@given(
    num_servers=st.integers(min_value=2, max_value=16),
    data=st.data(),
)
def test_add_after_remove_restores_exact_assignment(num_servers, data):
    """Stable vnode identity: a server's ring points are a pure function of
    its id, so remove-then-re-add (and add-then-remove of a brand-new id)
    restore the exact prior assignment — byte for byte."""
    ring = ConsistentHashRing(num_servers, virtual_nodes=32)
    baseline = ring.primary_for_many(KEYS).copy()
    if num_servers >= 2:
        victim = data.draw(st.integers(min_value=0, max_value=num_servers - 1))
        ring.remove_server(victim)
        ring.add_server(victim)
        assert np.array_equal(ring.primary_for_many(KEYS), baseline)
        assert ring.servers == tuple(range(num_servers))
    newcomer = data.draw(st.integers(min_value=num_servers, max_value=num_servers + 8))
    ring.add_server(newcomer)
    ring.remove_server(newcomer)
    assert np.array_equal(ring.primary_for_many(KEYS), baseline)


@DEFAULT_SETTINGS
@given(
    num_servers=st.integers(min_value=3, max_value=16),
    key=st.integers(min_value=0, max_value=2**63),
    data=st.data(),
)
def test_replicas_stay_distinct_across_churn(num_servers, key, data):
    """After arbitrary add/remove churn (non-contiguous membership),
    replicas_for still returns distinct *live* members, successor-shaped in
    ascending member order, and replica_table matches it row for row."""
    ring = ConsistentHashRing(num_servers, virtual_nodes=16)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        if len(ring.servers) > 2 and data.draw(st.booleans()):
            ring.remove_server(data.draw(st.sampled_from(ring.servers)))
        else:
            candidates = [s for s in range(num_servers + 8) if s not in ring.servers]
            ring.add_server(data.draw(st.sampled_from(candidates)))
    members = list(ring.servers)
    copies = data.draw(st.integers(min_value=1, max_value=len(members)))
    replicas = ring.replicas_for(key, copies)
    assert len(set(replicas)) == copies
    assert set(replicas) <= set(members)
    position = members.index(replicas[0])
    assert replicas == [
        members[(position + offset) % len(members)] for offset in range(copies)
    ]
    table = ring.replica_table([key, key + 1], copies)
    assert table[0].tolist() == replicas
    assert table[1].tolist() == ring.replicas_for(key + 1, copies)


# ---------------------------------------------------------------------------
# Key spellings, and the memoised ring against its from-scratch references
# ---------------------------------------------------------------------------

def test_numpy_integer_keys_place_like_python_ints():
    """A numpy integer key hashes as the Python int it holds, so both
    spellings of a keyspace get the same replicas; a bool is not an int."""
    ring = ConsistentHashRing(4)
    assert np.array_equal(ring.replica_table(np.arange(8), 2), ring.replica_table(range(8), 2))
    assert ring.replicas_for(np.int64(3)) == ring.replicas_for(3)
    assert ring.primary_for(np.uint32(7)) == ring.primary_for(7)
    assert ring.primary_for_many([np.int64(5), 5, True]).tolist() == [
        ring.primary_for(5),
        ring.primary_for(5),
        ring.primary_for(True),
    ]


@DEFAULT_SETTINGS
@given(
    num_servers=st.integers(min_value=1, max_value=12),
    virtual_nodes=st.sampled_from([1, 4, 64]),
    data=st.data(),
)
def test_membership_changes_equal_a_fresh_ring(num_servers, virtual_nodes, data):
    """After any legal adds and removes, a ring's sorted points are every
    member's vnodes hashed afresh, and it places a keyspace as a ring
    built by another path to the same members does."""
    ring = churned_ring(data, num_servers, virtual_nodes)
    members = ring.servers
    fresh = ConsistentHashRing(max(members) + 1, virtual_nodes=virtual_nodes)
    for server in range(max(members) + 1):
        if server not in members:
            fresh.remove_server(server)
    points = reference_points(members, virtual_nodes)
    for built in (ring, fresh):
        assert built._points.tolist() == [p[0] for p in points]
        assert [members[i] for i in built._owners[:-1]] == [p[1] for p in points]
    keys = range(data.draw(st.integers(min_value=0, max_value=3_000)))
    assert np.array_equal(ring.primary_for_many(keys), fresh.primary_for_many(keys))


@DEFAULT_SETTINGS
@given(
    num_servers=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_replica_table_equals_the_reference_formula(num_servers, data):
    """``replica_table`` over a ``range``, a list and an integer array is
    the searchsorted-and-modulo formula on freshly hashed points and keys."""
    ring = churned_ring(data, num_servers, 16)
    copies = data.draw(st.integers(min_value=1, max_value=ring.num_servers))
    size = data.draw(st.integers(min_value=0, max_value=2_000))
    picks = data.draw(st.lists(st.integers(min_value=-50, max_value=2**40), max_size=40))
    for keys in (range(size), picks, np.array(picks, dtype=np.int64), np.arange(size)):
        table = ring.replica_table(keys, copies)
        assert table.dtype == np.int64 and table.shape == (len(keys), copies)
        assert np.array_equal(table, reference_replica_table(ring, keys, copies))


def test_analyze_membership_change_takes_arrays():
    """An empty keyspace, as a list or an array, moves nothing; an array
    reports what the same keys as a list do."""
    before = ConsistentHashRing(4)
    after = ConsistentHashRing(4)
    after.add_server(4)
    for empty in ([], np.arange(0)):
        change = analyze_membership_change(before, after, empty)
        assert change["moved_keys"] == 0 and change["gained"] == {}
        assert change["per_server_delta"] == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    assert analyze_membership_change(before, after, np.arange(100)) == analyze_membership_change(
        before, after, list(range(100))
    )
