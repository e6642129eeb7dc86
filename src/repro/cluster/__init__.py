"""Storage-cluster substrates for Sections 2.2 (disk-backed database) and 2.3 (memcached).

The disk-backed database model (:mod:`repro.cluster.database`) reproduces the
paper's Emulab/EC2 testbed as a discrete-event model: a set of storage servers,
each with a byte-bounded LRU page cache in front of a FIFO disk, files placed
by consistent hashing with the replica on the successor server, and a fleet of
open-loop Poisson clients that optionally send each read to both replicas and
take the first response.

The memcached model (:mod:`repro.cluster.memcached`) is the in-memory
counterpart where the per-copy client-side overhead is a significant fraction
of the (tiny) service time, reproducing the Section 2.3 negative result.

Both load only when first asked for: this package's names resolve on first
access (PEP 562), so importing one submodule, such as the compiled kernels
(:mod:`repro.cluster._ckernels`) that the serving layer and the streaming
histogram call, does not import every substrate.
"""

import importlib
from typing import Any, Dict, List

#: Each public name, and the submodule that defines it.
_EXPORTS: Dict[str, str] = {
    "ConsistentHashRing": "repro.cluster.consistent_hash",
    "LRUByteCache": "repro.cluster.cache",
    "DiskModel": "repro.cluster.disk",
    "StorageServerModel": "repro.cluster.storage_server",
    "DatabaseClusterConfig": "repro.cluster.database",
    "DatabaseClusterExperiment": "repro.cluster.database",
    "DatabaseRunResult": "repro.cluster.database",
    "MemcachedConfig": "repro.cluster.memcached",
    "MemcachedExperiment": "repro.cluster.memcached",
    "MemcachedRunResult": "repro.cluster.memcached",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import the submodule that defines ``name`` and keep the name here."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
