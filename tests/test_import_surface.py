"""What a bare ``import repro`` loads.

The top-level package re-exports the core library, so importing it pulls in
the core, its metrics, distributions, queueing model and simulation helpers,
and nothing else: the serving layer, the experiments CLI and the other
substrates load only when asked for.  The exact module set is pinned, so a
module added to or dropped from that closure shows up here as a deliberate
change.
"""

import os
import subprocess
import sys
from pathlib import Path

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
    "repro.sim.events",
    "repro.sim.resources",
    "repro.sim.rng",
]

PRINT_LOADED = (
    "import sys, repro; "
    "print('\\n'.join(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.'))))"
)


def test_import_repro_loads_exactly_the_pinned_modules():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRINT_LOADED],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert proc.stdout.split() == IMPORT_REPRO_MODULES
    assert len(IMPORT_REPRO_MODULES) == 39
