"""What a bare ``import repro`` loads, and what loads after it.

The top-level package re-exports the core library, so importing it pulls in
the core, its metrics, distributions, queueing model and simulation helpers,
and nothing else: the serving layer, the experiments CLI and the other
substrates load only when asked for.  ``repro.cluster`` resolves its names
on first access, so a caller of one of its submodules (the compiled kernels,
the consistent-hash ring, the eager FIFO pass) loads that submodule alone,
not every cluster substrate.  The exact module sets are pinned, so a module
added to or dropped from one of these closures shows up here as a deliberate
change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every ``repro`` module that ``import repro`` loads, sorted.
IMPORT_REPRO_MODULES = [
    "repro",
    "repro._version",
    "repro.analysis",
    "repro.analysis.cdf",
    "repro.analysis.stats",
    "repro.analysis.tables",
    "repro.core",
    "repro.core.cancellation",
    "repro.core.costbenefit",
    "repro.core.hedging",
    "repro.core.policy",
    "repro.core.selection",
    "repro.core.thresholds",
    "repro.distributions",
    "repro.distributions.base",
    "repro.distributions.datacenter",
    "repro.distributions.discrete",
    "repro.distributions.families",
    "repro.distributions.standard",
    "repro.exceptions",
    "repro.metrics",
    "repro.metrics._quantile",
    "repro.metrics.counter",
    "repro.metrics.histogram",
    "repro.metrics.recorder",
    "repro.metrics.registry",
    "repro.metrics.window",
    "repro.queueing",
    "repro.queueing.client_overhead",
    "repro.queueing.heavy_tail",
    "repro.queueing.mg1",
    "repro.queueing.mm1",
    "repro.queueing.replication_model",
    "repro.queueing.threshold",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.rng",
]

#: What ``import repro.serve`` loads beyond ``import repro``, sorted.
IMPORT_SERVE_EXTRA_MODULES = [
    "repro.cluster",
    "repro.cluster._ckernels",
    "repro.cluster.consistent_hash",
    "repro.flags",
    "repro.serve",
    "repro.serve.backends",
    "repro.serve.clock",
    "repro.serve.loadgen",
    "repro.serve.proxy",
    "repro.serve.report",
    "repro.workloads",
    "repro.workloads.arrivals",
    "repro.workloads.filesets",
]

#: What a process that imported ``repro`` loads on its first
#: ``record_many``: the kernel module and the flag registry it reads.
FIRST_RECORD_EXTRA_MODULES = ["repro.cluster", "repro.cluster._ckernels", "repro.flags"]

#: What it loads on its first eager ``run_fast``: the grouped FIFO pass too.
FIRST_RUN_FAST_EXTRA_MODULES = [
    "repro.cluster",
    "repro.cluster._ckernels",
    "repro.cluster.draws",
    "repro.flags",
]

PRINT_LOADED = (
    "import sys, repro; "
    "print('\\n'.join(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.'))))"
)


def loaded_after(statement):
    """The sorted ``repro`` modules a fresh process has loaded after it
    imports ``repro`` and runs ``statement``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro\n{statement}\n{PRINT_LOADED}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return proc.stdout.split()


def test_import_repro_loads_exactly_the_pinned_modules():
    assert loaded_after("pass") == IMPORT_REPRO_MODULES
    assert len(IMPORT_REPRO_MODULES) == 37


def test_import_repro_serve_loads_one_cluster_submodule_beyond_the_kernels():
    assert loaded_after("import repro.serve") == sorted(
        IMPORT_REPRO_MODULES + IMPORT_SERVE_EXTRA_MODULES
    )


def test_the_first_record_many_loads_only_the_kernel_module():
    statement = "from repro.metrics.histogram import Histogram; Histogram().record_many([1.0, 2.0])"
    assert loaded_after(statement) == sorted(IMPORT_REPRO_MODULES + FIRST_RECORD_EXTRA_MODULES)


def test_the_first_eager_run_fast_loads_only_the_fifo_pass_and_kernels():
    statement = (
        "from repro.distributions import Exponential; "
        "from repro.queueing.replication_model import ReplicatedQueueingModel; "
        "ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=0)"
        ".run_fast(0.2, num_requests=200)"
    )
    assert loaded_after(statement) == sorted(IMPORT_REPRO_MODULES + FIRST_RUN_FAST_EXTRA_MODULES)


def test_cluster_names_resolve_on_first_access():
    """``from repro.cluster import X`` still works for every exported name,
    ``__all__`` keeps its names, and an unknown name is an AttributeError."""
    import repro.cluster as cluster
    from repro.cluster import database, memcached

    assert cluster.__all__ == [
        "ConsistentHashRing",
        "LRUByteCache",
        "DiskModel",
        "StorageServerModel",
        "DatabaseClusterConfig",
        "DatabaseClusterExperiment",
        "DatabaseRunResult",
        "MemcachedConfig",
        "MemcachedExperiment",
        "MemcachedRunResult",
    ]
    namespace = {}
    exec("from repro.cluster import *", namespace)
    assert namespace["DatabaseClusterExperiment"] is database.DatabaseClusterExperiment
    assert namespace["MemcachedRunResult"] is memcached.MemcachedRunResult
    assert set(cluster.__all__) <= set(dir(cluster))
    with pytest.raises(AttributeError):
        cluster.NoSuchName
