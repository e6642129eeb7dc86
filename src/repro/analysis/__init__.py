"""Latency statistics, empirical CDFs and result-table formatting.

The bottom of the architecture stack (see the README's Architecture section):
everything the layers above produce — substrate runs, metrics snapshots,
sweep artifacts — is ultimately rendered here.  :class:`LatencySummary` is
the one summary shape every substrate emits (means, percentiles, tail
fractions); :class:`EmpiricalCDF` backs the figure-style CDF tables; and
:mod:`repro.analysis.tables` provides :class:`ResultTable`,
:func:`comparison_table` and :func:`diff_table` — the last being the
"paper vs measured" renderer behind ``python -m repro.experiments diff``
and the comparison tables of ``EXPERIMENTS.md``.
"""

from repro.analysis.stats import LatencySummary, summarize
from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.tables import ResultTable, comparison_table, diff_table

__all__ = [
    "diff_table",
    "LatencySummary",
    "summarize",
    "EmpiricalCDF",
    "ResultTable",
    "comparison_table",
]
