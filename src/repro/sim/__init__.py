"""Discrete-event simulation engine.

This subpackage holds what the Section 2.4 packet-level fat-tree simulator
(:mod:`repro.network`) runs on: a binary-heap event scheduler
(:class:`~repro.sim.engine.Simulator`), cancellable scheduled events
(:class:`~repro.sim.events.Event`) and the strict-priority switch output
queue (:class:`~repro.sim.resources.PriorityQueueResource`).  It also holds
the reproducible random-number streams (:mod:`repro.sim.rng`) that every
substrate and the sweep runner derive their seeds from.

The engine is deliberately small and callback-first: links, TCP flows and
the experiment driver schedule plain callables.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventState
from repro.sim.resources import PriorityQueueResource
from repro.sim.rng import substream

__all__ = [
    "Simulator",
    "Event",
    "EventState",
    "PriorityQueueResource",
    "substream",
]
