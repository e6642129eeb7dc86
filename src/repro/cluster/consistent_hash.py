"""Consistent hashing for object placement.

Section 2.2: "The files are partitioned across servers via consistent hashing,
and two copies are stored of every file: if the primary is stored on server n,
the (replicated) secondary goes to server n + 1."

:class:`ConsistentHashRing` implements a standard virtual-node hash ring; the
``n + 1`` successor rule of the paper corresponds to asking the ring for the
primary's successor in server-index space (``replicas_for``), which is how the
experiment driver uses it.

Membership is mutable: :meth:`ConsistentHashRing.add_server` and
:meth:`ConsistentHashRing.remove_server` change the live server set while
keeping **stable vnode identity** — a server's ring points are a pure function
of its id (``server-{id}-vnode-{i}``), so re-adding a previously removed id
restores the exact prior key assignment, and removing a server only remaps the
keys it owned (~1/n of the keyspace).  :func:`analyze_membership_change`
quantifies a transition between two rings (moved-key fraction, per-server
deltas), which the churn timeline in :mod:`repro.cluster.churn` uses to plan
migration traffic.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


def _hash64(data: str) -> int:
    """Stable 64-bit hash of a string (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big")


# ``_hash64(repr(i))`` for ids ``0 .. len - 1``.  A key's hash never depends
# on ring membership, so every ring in the process shares this one table; it
# holds a pure function of the id, so sharing it changes no result, only how
# long a lookup takes.  It only grows, and only from ``range(0, n)`` lookups,
# so its size is bounded by the largest keyspace a caller enumerates.
_INT_KEY_HASHES = np.empty(0, dtype=np.uint64)


def _key_hashes(keys: Sequence[object]) -> np.ndarray:
    """``_hash64(repr(key))`` for every key, as a ``uint64`` array.

    ``range(0, n)`` reads the shared id table, growing it to ``n`` first if
    needed.  Every other sequence of keys is hashed one by one.
    """
    global _INT_KEY_HASHES
    table = _INT_KEY_HASHES
    if isinstance(keys, range) and keys.start == 0 and keys.step == 1:
        if len(keys) > len(table):
            grown = np.fromiter(
                (_hash64(repr(i)) for i in range(len(table), len(keys))),
                dtype=np.uint64,
                count=len(keys) - len(table),
            )
            table = _INT_KEY_HASHES = np.concatenate([table, grown])
        return table[: len(keys)]
    return np.fromiter((_hash64(repr(key)) for key in keys), dtype=np.uint64, count=len(keys))


class ConsistentHashRing:
    """A consistent-hash ring mapping keys to server ids.

    Invariants the rest of the repository builds on (property-tested in
    ``tests/test_consistent_hash_properties.py``):

    * **Balance.** Over a large keyspace, every server's share of primaries
      stays within a factor of the fair share ``1/n`` that shrinks as
      virtual nodes grow: empirically the relative deviation is at most
      ~0.6 at 64 virtual nodes (the default), ~0.35 at 128 and ~0.3 at
      256, for pool sizes up to 32.
    * **Minimal movement.** Growing the pool from ``n`` to ``n + 1``
      servers remaps approximately ``1/(n + 1)`` of the keyspace — and
      nothing else — because ring points are named by ``(server, vnode)``
      and existing servers' points are identical in both rings.  Dually,
      ``remove_server`` remaps *only* the keys the removed server owned.
    * **Distinct successors.** ``replicas_for(key, k)`` returns ``k``
      *distinct* server ids (the primary and its ``k - 1`` successors
      in sorted-member order), which is what lets the serving layer send
      k-copy requests without ever duplicating a backend.
    * **Stable vnode identity.** ``add_server(s)`` after ``remove_server(s)``
      restores the exact assignment the ring had before the removal.

    The constructor creates servers ``0 .. num_servers - 1``; while
    membership stays contiguous the successor rule is exactly
    ``(primary + offset) % num_servers``, byte-identical to the historical
    immutable ring.

    Attributes:
        num_servers: Number of live servers on the ring.
        virtual_nodes: Number of ring positions per server (more positions =
            smoother balance).
    """

    def __init__(self, num_servers: int, virtual_nodes: int = 64) -> None:
        """Build a ring of servers ``0 .. num_servers - 1``.

        Raises:
            ConfigurationError: If either parameter is not positive.
        """
        if num_servers < 1:
            raise ConfigurationError(f"num_servers must be >= 1, got {num_servers!r}")
        if virtual_nodes < 1:
            raise ConfigurationError(f"virtual_nodes must be >= 1, got {virtual_nodes!r}")
        self.virtual_nodes = int(virtual_nodes)
        self._members: List[int] = list(range(int(num_servers)))
        self._rebuild()

    # -- membership -------------------------------------------------------

    @property
    def num_servers(self) -> int:
        """Number of live servers (kept name-compatible with the static ring)."""
        return len(self._members)

    @property
    def servers(self) -> Tuple[int, ...]:
        """The live server ids, ascending."""
        return tuple(self._members)

    def add_server(self, server_id: int) -> None:
        """Add ``server_id`` to the ring.

        Vnode identity is stable: the new server's ring points depend only on
        its id, so every other server's points — and therefore every key that
        does not land on the new server's arcs — are untouched.

        Raises:
            ConfigurationError: If the id is negative or already a member.
        """
        server_id = int(server_id)
        if server_id < 0:
            raise ConfigurationError(f"server_id must be >= 0, got {server_id!r}")
        if server_id in self._member_set:
            raise ConfigurationError(f"server {server_id} is already on the ring")
        bisect.insort(self._members, server_id)
        self._rebuild()

    def remove_server(self, server_id: int) -> None:
        """Remove ``server_id`` from the ring.

        Only keys whose primary was the removed server move (to the next
        point on the ring); everything else keeps its assignment.

        Raises:
            ConfigurationError: If the id is not a member, or it is the last
                server (an empty ring has no owner for any key).
        """
        server_id = int(server_id)
        if server_id not in self._member_set:
            raise ConfigurationError(f"server {server_id} is not on the ring")
        if len(self._members) == 1:
            raise ConfigurationError("cannot remove the last server from the ring")
        self._members.remove(server_id)
        self._rebuild()

    def _rebuild(self) -> None:
        points: List[Tuple[int, int]] = []
        for server in self._members:
            for replica in range(self.virtual_nodes):
                points.append((_hash64(f"server-{server}-vnode-{replica}"), server))
        points.sort()
        self._ring_hashes = [p[0] for p in points]
        self._ring_servers = [p[1] for p in points]
        self._ring_hashes_np = np.array(self._ring_hashes, dtype=np.uint64)
        self._ring_servers_np = np.array(self._ring_servers, dtype=np.int64)
        self._members_np = np.array(self._members, dtype=np.int64)
        self._member_set = set(self._members)

    # -- lookups ----------------------------------------------------------

    def primary_for(self, key: object) -> int:
        """The server id owning ``key`` (first ring point at or after its hash)."""
        key_hash = _hash64(repr(key))
        index = bisect.bisect_left(self._ring_hashes, key_hash)
        if index == len(self._ring_hashes):
            index = 0
        return self._ring_servers[index]

    def primary_for_many(self, keys: Sequence[object]) -> "np.ndarray":
        """Primary server id of every key, via one vectorised ring lookup.

        Identical to ``[primary_for(key) for key in keys]`` (pinned by tests):
        ``numpy.searchsorted`` with ``side="left"`` is exactly
        ``bisect.bisect_left`` against the sorted ring, including the
        wrap-around of hashes beyond the last ring point.

        Key hashes come from a table shared by every ring in the process
        that holds the hashes of ids ``0 .. n - 1``.  A ``range(0, n)`` of
        keys grows it to ``n`` once, so re-planning migrations or replica
        tables after a membership change re-hashes nothing.  Any other
        keys are hashed one by one.
        """
        hashes = _key_hashes(keys)
        index = np.searchsorted(self._ring_hashes_np, hashes, side="left")
        index[index == len(self._ring_hashes)] = 0
        return self._ring_servers_np[index]

    def replicas_for(self, key: object, copies: int = 2) -> List[int]:
        """Primary plus successors: the paper's "secondary goes to server n + 1".

        Successors advance through the live members in ascending-id order
        (wrapping), which for the contiguous ids the constructor creates is
        exactly ``(primary + offset) % num_servers``.

        Args:
            key: The object key.
            copies: Total number of replicas (primary included), at most the
                number of live servers.

        Returns:
            ``copies`` distinct server ids, primary first.

        Raises:
            ConfigurationError: If ``copies`` exceeds the number of servers.
        """
        if not 1 <= copies <= self.num_servers:
            raise ConfigurationError(
                f"copies must be in [1, {self.num_servers}], got {copies!r}"
            )
        primary = self.primary_for(key)
        position = bisect.bisect_left(self._members, primary)
        n = len(self._members)
        return [self._members[(position + offset) % n] for offset in range(copies)]

    def replica_table(self, keys: Sequence[object], copies: int = 2) -> "np.ndarray":
        """``replicas_for`` for every key at once: a ``(len(keys), copies)`` array.

        Row ``i`` is exactly ``replicas_for(keys[i], copies)`` (primary first),
        computed with one vectorised ring lookup and one member-successor
        gather instead of a per-key Python loop.

        Raises:
            ConfigurationError: If ``copies`` exceeds the number of servers.
        """
        if not 1 <= copies <= self.num_servers:
            raise ConfigurationError(
                f"copies must be in [1, {self.num_servers}], got {copies!r}"
            )
        primaries = self.primary_for_many(keys)
        positions = np.searchsorted(self._members_np, primaries)
        offsets = np.arange(copies, dtype=np.int64)
        return self._members_np[(positions[:, None] + offsets[None, :]) % len(self._members)]

    def distribution(self, keys: Sequence[object]) -> List[int]:
        """Number of keys whose primary lands on each live server.

        Counts are ordered like :attr:`servers` (ascending id), which for the
        contiguous ids the constructor creates means ``counts[s]`` is server
        ``s``'s share — identical to the historical per-key scalar loop
        (pinned bitwise in ``tests/test_fast_paths.py``).
        """
        if not keys:
            return [0] * self.num_servers
        primaries = self.primary_for_many(keys)
        positions = np.searchsorted(self._members_np, primaries)
        return np.bincount(positions, minlength=self.num_servers).tolist()


def analyze_membership_change(
    before: ConsistentHashRing,
    after: ConsistentHashRing,
    keys: Sequence[object],
) -> Dict[str, object]:
    """Quantify a membership transition over a concrete keyspace.

    Args:
        before: The ring prior to the membership event.
        after: The ring after it (typically ``before`` plus/minus one server).
        keys: The keyspace to evaluate (e.g. every file id in the workload).

    Returns:
        A dict with:

        * ``moved_keys`` — number of keys whose primary changed;
        * ``moved_fraction`` — that count over ``len(keys)``;
        * ``per_server_delta`` — ``{server_id: after_count - before_count}``
          for every id live in either ring (negative = lost primaries);
        * ``gained`` — ``{server_id: [key_index, ...]}`` listing, for each
          server that gained keys, the indices into ``keys`` it now owns but
          did not before (ascending) — the migration work list.
    """
    if not keys:
        servers = sorted(set(before.servers) | set(after.servers))
        return {
            "moved_keys": 0,
            "moved_fraction": 0.0,
            "per_server_delta": {s: 0 for s in servers},
            "gained": {},
        }
    old = before.primary_for_many(keys)
    new = after.primary_for_many(keys)
    moved = old != new
    moved_keys = int(np.count_nonzero(moved))
    servers = sorted(set(before.servers) | set(after.servers))
    delta: Dict[int, int] = {}
    for s in servers:
        delta[s] = int(np.count_nonzero(new == s)) - int(np.count_nonzero(old == s))
    gained: Dict[int, List[int]] = {}
    for index in np.nonzero(moved)[0]:
        gained.setdefault(int(new[index]), []).append(int(index))
    return {
        "moved_keys": moved_keys,
        "moved_fraction": moved_keys / len(keys),
        "per_server_delta": delta,
        "gained": gained,
    }
