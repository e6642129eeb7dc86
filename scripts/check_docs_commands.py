#!/usr/bin/env python3
"""Docs-consistency check: smoke-run every documented experiments command.

CI runs this script (``PYTHONPATH=src python scripts/check_docs_commands.py``).
It extracts every ``python -m repro.experiments ...``,
``python -m repro.lint ...`` and ``python -m repro.serve ...`` command from
the fenced code blocks of ``EXPERIMENTS.md`` and ``README.md`` and executes
each one:

* ``list`` / ``show`` commands run exactly as written;
* ``run`` commands are shrunk to smoke size — ``--workers 1``, ``--quiet``,
  artifact paths redirected into a temp directory, and per-entry-point tiny
  overrides (``num_requests=300`` etc.) appended for any base parameter the
  documented command does not set itself; ``--shard I/N`` is preserved, and
  every ``--out`` registers its ``.timing.jsonl`` sidecar too;
* ``diff`` / ``merge`` / ``timing-report`` commands have their artifact (and
  sidecar) arguments resolved against (a) real repository files (the
  checked-in golden artifact) and (b) the redirected artifacts produced by
  earlier documented ``run``/``merge`` commands — so a documented command
  only works if the docs also document producing its inputs;
* ``repro.lint`` commands run as written against the repository (so the
  documented lint invocation really exits 0 on the shipped tree);
* ``repro.serve`` commands are shrunk to smoke size — request counts and
  durations capped, ``--json`` redirected into the temp directory, and the
  documented ``--assert-floor`` (a measured dev-machine number) lowered
  to 1.

It also fails if any registered scenario is missing from ``EXPERIMENTS.md``,
so the catalogue and the reproduction guide cannot drift apart.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("EXPERIMENTS.md", "README.md")
MODULES = ("repro.experiments", "repro.lint", "repro.serve")
MARKERS = tuple(f"-m {module}" for module in MODULES)

#: Tiny base-parameter overrides per adapter entry point, applied to ``run``
#: commands unless the documented command already sets that key itself.
SMOKE_OVERRIDES: Dict[str, Dict[str, object]] = {
    "queueing": {"num_requests": 300},
    "queueing_paired": {"num_requests": 300},
    "database": {"num_requests": 300, "num_files": 2_000},
    "memcached": {"num_requests": 300},
    "fattree": {"k": 4, "num_flows": 40},
    "dns": {"num_vantage_points": 2, "stage1_queries": 20, "stage2_queries": 40},
    "handshake": {"num_samples": 2_000},
    "pipeline": {"num_jobs": 8},
}


def extract_commands(path: str) -> List[str]:
    """All ``python -m repro.*`` commands in ``path``'s code blocks."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    commands: List[str] = []
    in_fence = False
    buffer = ""
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            buffer = ""
            continue
        if not in_fence:
            continue
        if buffer:
            buffer = buffer + " " + stripped.rstrip("\\").strip()
        elif any(marker in stripped for marker in MARKERS) and not stripped.startswith("#"):
            buffer = stripped.rstrip("\\").strip()
        else:
            continue
        if stripped.endswith("\\"):
            continue
        if buffer:
            commands.append(buffer)
            buffer = ""
    return commands


def split_args(command: str) -> Tuple[str, List[str]]:
    """The ``(module, argv)`` after ``-m`` (env prefixes etc. dropped)."""
    tokens = shlex.split(re.sub(r"\s+#.*$", "", command))
    for index in range(len(tokens) - 1):
        if tokens[index] == "-m" and tokens[index + 1] in MODULES:
            return tokens[index + 1], tokens[index + 2 :]
    raise SystemExit(f"cannot locate a known '-m repro.*' module in: {command}")


#: Flags of the experiments CLI that consume a value token.
VALUE_FLAGS = {
    "--workers", "--out", "--csv", "--seed", "--set",
    "--columns", "--keys", "--labels", "--tier", "--fail-threshold",
    "--shard", "--top",
}


def positionals(args: List[str]) -> List[int]:
    """Indices of the positional tokens after the subcommand."""
    found: List[int] = []
    index = 1
    while index < len(args):
        token = args[index]
        if token in VALUE_FLAGS:
            index += 2
            continue
        if token.startswith("-"):
            index += 1
            continue
        found.append(index)
        index += 1
    return found


def documented_set_keys(args: List[str]) -> set:
    keys = set()
    for index, token in enumerate(args):
        if token == "--set" and index + 1 < len(args) and "=" in args[index + 1]:
            keys.add(args[index + 1].split("=", 1)[0])
    return keys


def rewrite_run(args: List[str], tmpdir: str, produced: Dict[str, str]) -> List[str]:
    """Smoke-size a documented ``run`` command."""
    from repro.experiments import get_scenario  # PYTHONPATH=src required

    scenario_name = args[positionals(args)[0]]
    scenario = get_scenario(scenario_name)  # unknown scenario -> loud failure
    out: List[str] = []
    skip = False
    for index, token in enumerate(args):
        if skip:
            skip = False
            continue
        if token == "--workers":
            skip = True
            continue
        if token in ("--out", "--csv"):
            original = args[index + 1]
            redirected = os.path.join(tmpdir, os.path.basename(original))
            produced[os.path.basename(original)] = redirected
            if token == "--out":
                # Every --out run also writes its wall-clock timing sidecar;
                # documented `timing-report` commands resolve against it.
                produced[os.path.basename(original) + ".timing.jsonl"] = (
                    redirected + ".timing.jsonl"
                )
            out += [token, redirected]
            skip = True
            continue
        out.append(token)
    out += ["--workers", "1"]
    if "--quiet" not in out:
        out.append("--quiet")
    already = documented_set_keys(args) | set(scenario.grid.axes)
    for key, value in SMOKE_OVERRIDES.get(scenario.entry_point, {}).items():
        if key not in already:
            out += ["--set", f"{key}={value}"]
    return out


def _resolve_input(token: str, produced: Dict[str, str], command: str) -> str:
    if os.path.exists(os.path.join(REPO_ROOT, token)):
        return os.path.join(REPO_ROOT, token)
    if os.path.basename(token) in produced:
        return produced[os.path.basename(token)]
    raise SystemExit(
        f"{command} example references {token!r}, which is neither a file in "
        f"the repository nor an artifact produced by an earlier documented "
        f"run/merge command"
    )


def rewrite_diff(args: List[str], produced: Dict[str, str]) -> List[str]:
    """Resolve a documented ``diff`` command's artifact paths."""
    out = list(args)
    for index in positionals(args)[:2]:
        out[index] = _resolve_input(out[index], produced, "diff")
    return out


def rewrite_merge(args: List[str], tmpdir: str, produced: Dict[str, str]) -> List[str]:
    """Redirect a ``merge`` output into the temp dir; resolve its shard inputs."""
    out = list(args)
    spots = positionals(args)
    if not spots:
        raise SystemExit(f"merge example has no output path: {args}")
    original = out[spots[0]]
    redirected = os.path.join(tmpdir, os.path.basename(original))
    produced[os.path.basename(original)] = redirected
    out[spots[0]] = redirected
    for index in spots[1:]:
        out[index] = _resolve_input(out[index], produced, "merge")
    return out


def rewrite_timing_report(args: List[str], produced: Dict[str, str]) -> List[str]:
    """Resolve a ``timing-report`` command's sidecar paths."""
    out = list(args)
    for index in positionals(args):
        out[index] = _resolve_input(out[index], produced, "timing-report")
    return out


def rewrite_serve(args: List[str], tmpdir: str) -> List[str]:
    """Smoke-size a documented ``repro.serve`` command.

    ``run`` and ``bench`` requests are capped, ``--duration`` horizons are
    shortened, ``--json`` artifacts are redirected into the temp directory,
    and ``--assert-floor`` is lowered to 1 (the documented floor reflects
    measured dev-machine throughput; docs checking only proves the command
    shape works).
    """
    out: List[str] = []
    skip = False
    for index, token in enumerate(args):
        if skip:
            skip = False
            continue
        if token == "--requests":
            cap = 2_000 if args[0] == "bench" else 500
            out += [token, str(min(int(args[index + 1]), cap))]
            skip = True
            continue
        if token == "--duration":
            out += [token, str(min(float(args[index + 1]), 0.25))]
            skip = True
            continue
        if token == "--json":
            out += [token, os.path.join(tmpdir, os.path.basename(args[index + 1]))]
            skip = True
            continue
        if token == "--assert-floor":
            out += [token, "1"]
            skip = True
            continue
        out.append(token)
    if "--quiet" not in out:
        out.append("--quiet")
    return out


def check_scenarios_documented(experiments_md: str) -> None:
    from repro.experiments import scenario_names

    with open(experiments_md, "r", encoding="utf-8") as handle:
        text = handle.read()
    missing = [name for name in scenario_names() if name not in text]
    if missing:
        raise SystemExit(
            f"EXPERIMENTS.md does not mention registered scenario(s): {missing}"
        )


def main() -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    check_scenarios_documented(os.path.join(REPO_ROOT, "EXPERIMENTS.md"))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    failures = []
    with tempfile.TemporaryDirectory() as tmpdir:
        produced: Dict[str, str] = {}
        for doc in DOCS:
            path = os.path.join(REPO_ROOT, doc)
            for command in extract_commands(path):
                module, args = split_args(command)
                if module == "repro.lint":
                    argv = args
                elif module == "repro.serve":
                    argv = rewrite_serve(args, tmpdir)
                elif args[0] == "run":
                    argv = rewrite_run(args, tmpdir, produced)
                elif args[0] == "diff":
                    argv = rewrite_diff(args, produced)
                elif args[0] == "merge":
                    argv = rewrite_merge(args, tmpdir, produced)
                elif args[0] == "timing-report":
                    argv = rewrite_timing_report(args, produced)
                else:
                    argv = args
                printable = f"python -m {module} " + " ".join(argv)
                print(f"[{doc}] {command}\n    -> {printable}", flush=True)
                proc = subprocess.run(
                    [sys.executable, "-m", module, *argv],
                    cwd=REPO_ROOT,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
                if proc.returncode != 0:
                    failures.append((doc, command, proc.stdout))
    for doc, command, output in failures:
        print(f"\nFAILED [{doc}]: {command}\n{output}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} documented command(s) failed", file=sys.stderr)
        return 1
    print("\nall documented commands ran clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
