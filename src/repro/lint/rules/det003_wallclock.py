"""DET003 — wall-clock reads must not reach canonical code paths.

Canonical artifacts are clock-free by contract: per-point wall-clock goes to
the ``.timing.jsonl`` sidecar, progress/ETA and profiling reports to the
terminal, and the live executors (the serving proxy and the asyncio client)
read real time only through :class:`repro.serve.clock.RealClock`.  Those
sites are the *entire* sanctioned surface, enumerated in :data:`ALLOWLIST`
with a justification each.  Any other ``time.time()`` / ``perf_counter()``
/ ``datetime.now()`` call in ``src/`` is one refactor away from leaking a
timestamp into canonical bytes — a nondeterminism bug the equivalence tests
would only catch after the fact — so it fails the lint at the call site,
before it ships.

New legitimate sites either justify themselves with a per-line pragma
(``# repro: allow[DET003] <reason>``) or, for whole subsystems (a future
live serving loop), get an ALLOWLIST entry in this module, reviewed like
any other code change.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule

#: Wall-clock callables (canonical dotted names, post alias-resolution).
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Sanctioned wall-clock sites: ``(module, scope-prefix, justification)``.
#: A finding is allowlisted when its module matches and its enclosing
#: class/function qualname starts with the scope prefix (an empty prefix
#: sanctions the whole module).
ALLOWLIST: Tuple[Tuple[str, str, str], ...] = (
    (
        "repro/experiments/runner.py",
        "_execute_point",
        "per-point elapsed_s capture: popped into the timing sidecar before "
        "the record reaches the artifact or a PointResult",
    ),
    (
        "repro/experiments/cli.py",
        "_make_progress",
        "progress/ETA display on the terminal; never serialized",
    ),
    (
        "repro/experiments/cli.py",
        "cmd_profile",
        "cProfile wall-clock report printed to stdout; never serialized",
    ),
    (
        "repro/serve/clock.py",
        "RealClock",
        "the Clock seam's real implementation: the ONLY wall-clock surface "
        "of the live executors.  Everything in repro.serve reads time "
        "through an injected Clock, so canonical (virtual-clock) runs never "
        "reach this site; RealClock reports are marked clock=real and are "
        "not canonical artifacts, and the asyncio client's "
        "HedgedResult.elapsed never enters one",
    ),
)


class WallClockRule(Rule):
    """Flag wall-clock reads outside the sanctioned timing/progress/clock sites."""

    rule_id = "DET003"
    title = "wall-clock reads are confined to sidecar/progress/clock sites"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call, name in ctx.calls():
            if name not in WALLCLOCK_CALLS:
                continue
            qualname = ctx.qualname(call)
            allowed = any(
                ctx.module == module and (not prefix or qualname.startswith(prefix))
                for module, prefix, _why in ALLOWLIST
            )
            if allowed:
                continue
            yield self.finding(
                ctx,
                call,
                f"{name}() reads the wall clock outside the sanctioned "
                f"timing-sidecar/progress/clock sites — route timing to the "
                f".timing.jsonl sidecar, or add a justified "
                f"'# repro: allow[DET003] ...' pragma / ALLOWLIST entry",
            )
