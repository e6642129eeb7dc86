"""Reproducible random-number streams for simulations.

Every experiment in the repository draws its randomness through this module so
that (a) results are reproducible given a seed and (b) logically independent
parts of a simulation (arrivals, service times, server selection, network
noise, ...) use independent streams.  Independent streams matter for variance
reduction when comparing configurations: the "1 copy" and "2 copies" runs of
an experiment can share the arrival and service streams so that the comparison
is paired rather than independent, exactly as the paper's testbed did by
replaying the same workload.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np


def _stable_key_hash(part: object) -> int:
    """A process-independent 32-bit hash of a key component.

    Python's built-in ``hash`` is salted per process for strings, which would
    make "reproducible" streams differ between runs; hashing the repr with
    BLAKE2 keeps streams stable across processes and platforms.
    """
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def substream(seed: Optional[int], *key: object) -> np.random.Generator:
    """Derive an independent :class:`numpy.random.Generator` from a seed and key.

    The same ``(seed, key)`` pair always yields the same stream, and different
    keys yield streams that are independent for all practical purposes (the
    key is folded into NumPy's ``SeedSequence`` entropy).

    Args:
        seed: Base seed (``None`` draws fresh OS entropy, which makes the run
            non-reproducible — fine for exploratory use, avoided in tests).
        *key: Arbitrary hashable objects identifying the purpose of the
            stream, e.g. ``substream(7, "arrivals", server_id)``.

    Returns:
        A NumPy ``Generator`` seeded deterministically from ``seed`` and ``key``.
    """
    material: list[int] = []
    if seed is not None:
        material.append(int(seed) & 0xFFFFFFFF)
    for part in key:
        material.append(_stable_key_hash(part))
    if seed is None and not material:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence(material))


def choose_distinct(
    rng: np.random.Generator, pool_size: int, rows: int, copies: int
) -> np.ndarray:
    """``copies`` distinct members of ``range(pool_size)`` per row, at random.

    With one copy this is one ``integers`` draw per row.  Otherwise each row
    ranks a row of uniforms: the indices of its ``copies`` smallest scores
    are a uniform random subset of the pool.

    Returns:
        A ``(rows, copies)`` integer array.
    """
    if copies == 1:
        return rng.integers(0, pool_size, size=(rows, 1))
    scores = rng.random((rows, pool_size))
    return np.argpartition(scores, copies - 1, axis=1)[:, :copies]
