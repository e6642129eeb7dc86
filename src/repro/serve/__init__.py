"""Live redundancy-aware serving layer (``repro.serve``).

The offline substrates (PRs 1-7) evaluate "duplicate the request, keep the
first answer, cancel the rest" against *simulated* traces.  ``repro.serve``
composes the same building blocks — the virtual-node consistent-hash ring,
the ``PolicySpec`` mini-language and the streaming latency recorder — into
an *online* asyncio serving loop:

* :mod:`repro.serve.clock` — the injectable :class:`~repro.serve.clock.Clock`
  seam.  Every sleep, timer and timeout in this package goes through it, so
  the entire proxy + load-generator stack runs under a seeded virtual-time
  event loop in tests (byte-reproducible summaries, zero wall-clock reads).
* :mod:`repro.serve.backends` — the backend abstraction:
  :class:`~repro.serve.backends.SimBackend` draws service times from the
  existing substrate distributions on seeded substreams; an optional
  real-socket echo backend lives in :mod:`repro.serve.echo`.
* :mod:`repro.serve.proxy` — :class:`~repro.serve.proxy.RedundancyProxy`,
  which places backends on the ring and applies any ``PolicySpec`` per
  request: eager k-copies to the k distinct ring successors, ``hedge:<d>``
  via clock timers that launch the duplicate copies, ``hedge:p95`` driven
  live by the streaming recorder, cancel-on-win by withdrawing the losing
  copies — with live policy hot-swap.  Its race is
  :class:`repro.core.hedging.Racer`, the one the asyncio client runs.
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.report` — the open-loop
  Poisson load generator and its latency/cost report.
* :mod:`repro.serve.cli` — ``python -m repro.serve run|bench``.
"""

from repro.serve.backends import Backend, BackendError, SimBackend
from repro.serve.clock import Clock, RealClock, VirtualClock
from repro.serve.loadgen import LoadGenConfig, run_load
from repro.serve.proxy import RedundancyProxy
from repro.serve.report import RunReport

__all__ = [
    "Backend",
    "BackendError",
    "Clock",
    "LoadGenConfig",
    "RealClock",
    "RedundancyProxy",
    "RunReport",
    "SimBackend",
    "VirtualClock",
    "run_load",
]
