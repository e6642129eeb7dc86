#!/usr/bin/env python3
"""Reach audit: which functions under ``src/repro`` does an entry point call?

The script runs the repository's entry points in this one process under a
profile hook (``sys.setprofile`` and ``threading.setprofile``) that records
every Python code object called.  It matches them against a static inventory
of every module-level function and method under ``src/repro`` and writes a
JSON report: each function's file, name, first line, line count and whether
it was reached, plus totals and the entry points that failed.  A function no
entry point reaches is either dead code or code only tests call.

The entry points, by group:

* ``scenarios`` — every registered scenario through ``python -m
  repro.experiments run --workers 1`` (``paper-fattree-k6`` at
  ``num_flows=150``, ``paper-database-ec2`` at ``num_requests=8000``);
* ``cli`` — the experiments CLI's other paths: ``run`` with ``--out``,
  ``--csv``, ``--shard`` and ``--resume``, then ``merge``, ``diff``,
  ``timing-report``, ``profile``, ``show`` and ``list``;
* ``serve`` — ``python -m repro.serve run`` under six policies with
  ``--swap`` and ``--event``, on the virtual and the real clock and on the
  echo backend, plus ``repro.serve bench``;
* ``lint`` — ``python -m repro.lint src/``;
* ``examples`` — every ``examples/*.py``;
* ``plot`` — ``scripts/plot_ablation.py`` in its default, ``--pareto``,
  ``--group-hedges`` and ``--spike`` views of ``scenarios``' artifacts;
* ``benchmarks`` — the figure benchmarks (``benchmarks/bench_*.py``) with
  ``--benchmark-disable``;
* ``ledger`` — the five ledger workloads of ``benchmarks/ledger`` in quick
  mode: ``setup``, one ``run`` and ``check``.

A failing entry point is reported, not fatal: everything it called before
failing still counts as reached.  The hook slows Python code, so a
benchmark's speed-ratio assertion (``bench_metrics_streaming.py`` checks a
10x ratio) can fail under it; such a failure is a timing artefact, not a
fault.  The experiments CLI's ``profile`` command swaps in its own profiler
for the profiled point, so that point's calls are recorded by the other
groups, not by ``cli``.

Every group runs, in the order above: a function counts as unreached only if
no entry point reaches it.  Usage, from the repository root (the audit takes
about 4-5 minutes on 2 vCPUs; entry-point output goes to ``<out>.log``)::

    python3 scripts/reach_audit.py --out /tmp/reach.json
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import json
import os
import runpy
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Base-parameter overrides of the scenarios too large to run as registered.
SCENARIO_OVERRIDES: Dict[str, Dict[str, int]] = {
    "paper-fattree-k6": {"num_flows": 150},
    "paper-database-ec2": {"num_requests": 8000},
}

#: Artifacts of the ``scenarios`` group that ``plot`` charts, per view.
PLOT_VIEWS: List[Tuple[str, List[str]]] = [
    ("standard-db-hedging", []),
    ("standard-pipeline-stragglers", ["--pareto", "wasted_work_fraction"]),
    ("standard-queueing-hedge-grid", ["--group-hedges"]),
    ("standard-db-rebalance", ["--spike"]),
]

#: Virtual-clock serve runs: one per policy, each with a swap and two events.
SERVE_POLICIES = ("none", "k2", "hedge:1ms", "hedge:p95", "hedge:2ms:nocancel", "hedge:1ms:x2")


# --------------------------------------------------------------------------- #
# Static inventory


def inventory() -> List[Dict[str, object]]:
    """Every module-level function and method under ``src/repro``.

    A method is a function defined directly in a class body, at any depth of
    class nesting; functions nested in functions are part of their parent.
    ``line`` is the first line of the definition, decorators included, which
    is what the compiled code object's ``co_firstlineno`` reports.
    """
    entries: List[Dict[str, object]] = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        rel = os.path.relpath(path, REPO_ROOT)

        def visit(body, prefix: str) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    entries.append({
                        "file": rel,
                        "name": prefix + node.name,
                        "line": first,
                        "lines": node.end_lineno - first + 1,
                    })
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, prefix + node.name + ".")

        visit(tree.body, "")
    return entries


# --------------------------------------------------------------------------- #
# The profile hook and output redirection


class Recorder:
    """Collects the code object of every Python call while installed."""

    def __init__(self) -> None:
        self.codes: Set[object] = set()

    def hook(self, frame, event, _arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def reached(self) -> Set[Tuple[str, int]]:
        """``(file relative to the repository, first line)`` of every call."""
        keys = set()
        for code in self.codes:
            path = os.path.realpath(os.path.join(REPO_ROOT, code.co_filename))
            if path.startswith(PACKAGE + os.sep):
                keys.add((os.path.relpath(path, REPO_ROOT), code.co_firstlineno))
        return keys


@contextlib.contextmanager
def redirected(log_path: str) -> Iterator[None]:
    """Send file descriptors 1 and 2 (and so every print) to ``log_path``."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    with open(log_path, "a", encoding="utf-8") as log:
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
        try:
            yield
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])


# --------------------------------------------------------------------------- #
# Entry points.  Each step is (label, callable); a callable's non-zero
# return value or exception is a failure.


Step = Tuple[str, Callable[[], object]]


def _cli(argv: List[str]) -> Step:
    def call() -> object:
        from repro.experiments.cli import main

        return main(argv)

    return "repro.experiments " + " ".join(argv), call


def scenario_steps(work: str) -> List[Step]:
    from repro.experiments import all_scenarios

    steps = []
    for scenario in all_scenarios():
        argv = ["run", scenario.name, "--workers", "1", "--quiet",
                "--out", os.path.join(work, scenario.name + ".jsonl")]
        for key, value in sorted(SCENARIO_OVERRIDES.get(scenario.name, {}).items()):
            argv += ["--set", f"{key}={value}"]
        steps.append(_cli(argv))
    return steps


def cli_steps(work: str) -> List[Step]:
    def path(name: str) -> str:
        return os.path.join(work, name)

    loud = ["queueing-smoke", "--set", "num_requests=300"]
    small = [*loud, "--quiet"]
    return [
        # Without --quiet: the progress line and the result table.
        _cli(["run", *loud, "--out", path("smoke.jsonl"), "--csv", path("smoke.csv")]),
        _cli(["run", *small, "--out", path("smoke.jsonl"), "--resume"]),
        _cli(["run", *small, "--shard", "1/2", "--out", path("shard1.jsonl")]),
        _cli(["run", *small, "--shard", "2/2", "--out", path("shard2.jsonl")]),
        _cli(["merge", path("merged.jsonl"), path("shard2.jsonl"), path("shard1.jsonl")]),
        _cli(["diff", path("smoke.jsonl"), path("merged.jsonl"), "--fail-threshold", "0"]),
        _cli(["timing-report", path("shard1.jsonl.timing.jsonl"),
              path("shard2.jsonl.timing.jsonl")]),
        _cli(["profile", "queueing-smoke", "--point", "1", "--top", "5",
              "--set", "num_requests=300"]),
        _cli(["show", "paper-fattree-k6"]),
        _cli(["list"]),
    ]


def serve_steps(work: str) -> List[Step]:
    def serve(argv: List[str]) -> Step:
        def call() -> object:
            from repro.serve.cli import main

            return main(argv)

        return "repro.serve " + " ".join(argv), call

    steps = []
    for index, policy in enumerate(SERVE_POLICIES):
        # The first run prints the report table; the others are --quiet.
        steps.append(serve([
            "run", "--policy", policy, "--rate", "3000", "--requests", "3000",
            "--swap", "0.5:k2", "--event", "0.3:crash:2", "--event", "0.6:add:2",
            "--seed", str(index), "--json", os.path.join(work, f"serve{index}.json"),
        ] + (["--quiet"] if index else [])))
    steps += [
        serve(["run", "--clock", "real", "--policy", "hedge:1ms", "--rate", "3000",
               "--requests", "600", "--event", "0.1:remove:1", "--quiet"]),
        serve(["run", "--backend", "echo", "--clock", "real", "--policy", "hedge:1ms",
               "--rate", "1000", "--requests", "300", "--quiet"]),
        serve(["bench", "--requests", "5000", "--quiet"]),
    ]
    return steps


def lint_steps(_work: str) -> List[Step]:
    def call() -> object:
        from repro.lint.cli import main

        return main(["src/"])

    return [("repro.lint src/", call)]


def _script(path: str, argv: List[str]) -> Step:
    def call() -> object:
        saved = sys.argv
        sys.argv = [path, *argv]
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as exc:
            return exc.code
        finally:
            sys.argv = saved
        return 0

    return os.path.relpath(path, REPO_ROOT) + " " + " ".join(argv), call


def example_steps(_work: str) -> List[Step]:
    return [_script(path, []) for path in sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))]


def plot_steps(work: str) -> List[Step]:
    script = os.path.join(REPO_ROOT, "scripts", "plot_ablation.py")
    return [_script(script, [os.path.join(work, name + ".jsonl"), *view]) for name, view in PLOT_VIEWS]


class _Failures:
    """A pytest plugin that keeps the ids of failed benchmark tests."""

    def __init__(self) -> None:
        self.failed: List[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.failed.append(report.nodeid)


def benchmark_steps(_work: str) -> List[Step]:
    def call() -> object:
        import pytest

        # Some benchmarks rewrite their committed BENCH_*.json measurements;
        # times taken under the hook mean nothing, so the files are put back.
        committed = {}
        for path in glob.glob(os.path.join(REPO_ROOT, "benchmarks", "BENCH_*.json")):
            with open(path, "rb") as handle:
                committed[path] = handle.read()
        failures = _Failures()
        try:
            code = pytest.main(
                ["-q", "-p", "no:cacheprovider", "-o", "python_files=bench_*.py",
                 "--benchmark-disable", os.path.join(REPO_ROOT, "benchmarks")],
                plugins=[failures],
            )
        finally:
            for path, data in committed.items():
                with open(path, "wb") as handle:
                    handle.write(data)
        return f"exit {int(code)}: failed {failures.failed}" if failures.failed else int(code)

    return [("pytest benchmarks/bench_*.py --benchmark-disable", call)]


def ledger_steps(work: str) -> List[Step]:
    ledger = os.path.join(REPO_ROOT, "benchmarks", "ledger")
    if ledger not in sys.path:
        sys.path.insert(0, ledger)
    from workloads import WORKLOADS

    def one(name: str) -> Step:
        def call() -> object:
            workload = WORKLOADS[name]
            state = workload.setup(0, True, tempfile.mkdtemp(prefix="ledger-", dir=work))
            state["tracer"] = None
            outcome = workload.check(state, workload.run(state))
            return f"failed {outcome.failed}, errors {outcome.errors}" if outcome.failed or outcome.errors else 0

        return "ledger " + name + " (quick)", call

    return [one(name) for name in sorted(WORKLOADS)]


GROUPS: Dict[str, Callable[[str], List[Step]]] = {
    "scenarios": scenario_steps,
    "cli": cli_steps,
    "serve": serve_steps,
    "lint": lint_steps,
    "examples": example_steps,
    "plot": plot_steps,
    "benchmarks": benchmark_steps,
    "ledger": ledger_steps,
}


# --------------------------------------------------------------------------- #


def audit(log_path: str) -> Dict[str, object]:
    recorder = Recorder()
    failures: List[Dict[str, str]] = []
    seconds: Dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as work:
        for group, make_steps in GROUPS.items():
            start = time.perf_counter()
            # Building a group's steps imports its modules; under the hook,
            # so that what they run at import time counts as reached.
            with recorder.installed():
                steps = make_steps(work)
            for label, call in steps:
                with redirected(log_path), recorder.installed():
                    # A failing entry point is a finding to report; the audit goes on.
                    try:
                        result = call()
                    except (Exception, SystemExit) as exc:
                        result = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                if result not in (0, None):
                    failures.append({"group": group, "entry": label, "result": str(result)})
            seconds[group] = round(time.perf_counter() - start, 1)
            print(f"[reach] {group}: {seconds[group]} s", file=sys.stderr, flush=True)

    reached = recorder.reached()
    functions = inventory()
    for entry in functions:
        entry["reached"] = (entry["file"], entry["line"]) in reached
    unreached = [entry for entry in functions if not entry["reached"]]
    return {
        "seconds": seconds,
        "failures": failures,
        "totals": {
            "functions": len(functions),
            "lines": sum(entry["lines"] for entry in functions),
            "unreached_functions": len(unreached),
            "unreached_lines": sum(entry["lines"] for entry in unreached),
        },
        "functions": functions,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON report")
    args = parser.parse_args(argv)

    out = os.path.abspath(args.out)
    os.chdir(REPO_ROOT)
    sys.path.insert(0, SRC)
    log_path = out + ".log"
    open(log_path, "w", encoding="utf-8").close()
    report = audit(log_path)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

    totals = report["totals"]
    print(
        f"{totals['unreached_functions']} of {totals['functions']} functions "
        f"({totals['unreached_lines']} of {totals['lines']} lines) unreached; "
        f"report in {out}, entry-point output in {log_path}"
    )
    for failure in report["failures"]:
        print(f"failed: [{failure['group']}] {failure['entry']}: {failure['result']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
