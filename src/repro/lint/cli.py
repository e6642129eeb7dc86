"""Command-line interface of the determinism linter.

::

    python -m repro.lint [paths ...] [--format text|json] [--rules]

Paths default to ``src/``.  Exit codes: ``0`` — clean (every finding
suppressed by a justified pragma), ``1`` — at least one finding, ``2`` —
usage error (bad path, undeclared ``REPRO_*`` variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.exceptions import ReproError
from repro.flags import reject_unknown_flags
from repro.lint.api import LintResult, lint_paths
from repro.lint.rules import ALL_RULES


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static analyzer enforcing the repo's determinism contract: "
            "seed discipline (DET001/DET002/DET005), clock-free canonical "
            "paths (DET003), order-stable serialization (DET004/DET006) and "
            "the central REPRO_* flag registry (DET007).  Lint cleanliness "
            "is part of the byte-identity guarantee CI enforces."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro.lint src/\n"
            "  python -m repro.lint src/repro/wan/ --format json\n"
            "  python -m repro.lint --rules\n"
            "suppress a single line with a justified pragma:\n"
            "  ...  # repro: allow[DET003] progress display only, never serialized\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="list the rules and exit",
    )
    return parser


def _print_rules() -> None:
    for rule in ALL_RULES:
        print(f"{rule.rule_id}  {rule.title}")
        doc = (type(rule).__module__ and sys.modules[type(rule).__module__].__doc__) or ""
        summary = doc.strip().splitlines()[0] if doc.strip() else ""
        if summary:
            print(f"        {summary}")


def _report_text(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.render())
    bits = [f"{len(result.findings)} finding(s)"]
    if result.suppressed:
        bits.append(f"{len(result.suppressed)} suppressed by pragma")
    print(f"{', '.join(bits)} across {result.files} file(s)")
    if result.findings:
        print("(fix the findings or add a justified '# repro: allow[...]' pragma)")


def _report_json(result: LintResult) -> None:
    payload = {
        "files": result.files,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [
            {**finding.to_dict(), "reason": reason}
            for finding, reason in result.suppressed
        ],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.rules:
        _print_rules()
        return 0

    paths = args.paths or ["src"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path(s): {missing}", file=sys.stderr)
        return 2

    try:
        reject_unknown_flags()
        result = lint_paths(paths)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        _report_json(result)
    else:
        _report_text(result)
    return 1 if result.findings else 0
