"""Determinism & seed-discipline static analyzer (``python -m repro.lint``).

The repo's headline guarantee is byte-identical artifacts: same config +
same seed → the same canonical records regardless of worker count, shard
layout, resume boundaries or fast-path flags.  That guarantee only holds
under a handful of code-level disciplines — all randomness flows through
explicitly seeded generators, canonical outputs never read the wall clock,
serialization never depends on hash order, and every ``REPRO_*`` switch is
declared in the central registry.  This package checks those disciplines
statically (stdlib :mod:`ast`, no third-party dependencies) so CI catches a
regression before a sweep ever runs.

Rules are registered in :data:`repro.lint.rules.ALL_RULES`; individual
lines are silenced with a justified pragma::

    t0 = time.perf_counter()  # repro: allow[DET003] timing sidecar only

The shipped tree has no findings, and CI fails on the first one.
"""

from repro.lint.api import LintResult, lint_file, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.pragmas import META_RULE, parse_pragmas
from repro.lint.rules import ALL_RULES, RULE_IDS

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "META_RULE",
    "RULE_IDS",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_pragmas",
]
