"""Discrete-event simulation engine.

This subpackage holds the event heap that the Section 2.4 packet-level
fat-tree simulator (:mod:`repro.network`) runs on
(:class:`~repro.sim.engine.Simulator`), and the reproducible random-number
streams (:mod:`repro.sim.rng`) that every substrate and the sweep runner
derive their seeds from.

The engine is callback-first and has one user: links, TCP flows and the
experiment driver schedule plain callables, and each switch output queue is
held by its :class:`repro.network.link.Link`.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import substream

__all__ = [
    "Simulator",
    "substream",
]
