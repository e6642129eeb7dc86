"""Workload generation: arrival processes and file sets.

This layer sits beside :mod:`repro.distributions` in the architecture stack
(see the README's Architecture section): the substrates draw *when* requests
arrive from :mod:`repro.workloads.arrivals` (Poisson processes) and hold
*what* is stored in a :class:`~repro.workloads.filesets.FileSet` (the file
collection whose size sets the cache:data ratio, the knob Figures 5-11
turn).  Everything is seeded through :mod:`repro.sim.rng`, so a scenario
sweep regenerates identical workloads at every grid point regardless of
worker count.
"""

from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.filesets import FileSet

__all__ = [
    "PoissonArrivals",
    "FileSet",
]
