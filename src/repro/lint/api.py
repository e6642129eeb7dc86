"""The lint engine: run every rule over sources, apply pragmas.

This is the programmatic surface (`tests/test_lint.py` drives it directly);
the CLI in :mod:`repro.lint.cli` adds file collection and output
formatting on top.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.lint.context import ModuleContext, normalize_module_path
from repro.lint.findings import Finding
from repro.lint.pragmas import META_RULE, Pragma, parse_pragmas
from repro.lint.rules import ALL_RULES, RULE_IDS


@dataclass
class LintResult:
    """Outcome of linting one or more modules.

    Attributes:
        findings: Active findings (not suppressed by a pragma), sorted.
        suppressed: ``(finding, reason)`` pairs silenced by a pragma.
        files: Number of modules linted.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, str]] = field(default_factory=list)
    files: int = 0

    def extend(self, other: "LintResult") -> None:
        """Fold another result into this one."""
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files += other.files

    def sort(self) -> None:
        """Deterministic report order (module, line, rule)."""
        self.findings.sort()
        self.suppressed.sort(key=lambda pair: pair[0])


def lint_source(source: str, module: str) -> LintResult:
    """Lint one module's source text.

    Args:
        source: Python source.
        module: Normalized module path (drives path-scoped rules: the
            sanctioned RNG site, the experiments/ scope, the flags module).
    """
    result = LintResult(files=1)
    try:
        ctx = ModuleContext(source, module)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                module=module,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule=META_RULE,
                message=f"file does not parse: {exc.msg}",
                code=(exc.text or "").strip(),
            )
        )
        return result

    pragmas, pragma_errors = parse_pragmas(source, module, RULE_IDS - {META_RULE})
    result.findings.extend(pragma_errors)

    for rule in ALL_RULES:
        for finding in rule.check(ctx):
            pragma: Optional[Pragma] = pragmas.get(finding.line)
            if pragma is not None and finding.rule in pragma.rules:
                result.suppressed.append((finding, pragma.reason))
            else:
                result.findings.append(finding)
    result.sort()
    return result


def lint_file(path: str, module: Optional[str] = None) -> LintResult:
    """Lint one file on disk (module identity derived from the path)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, module or normalize_module_path(path))


def collect_files(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if not name.startswith(".") and name != "__pycache__"
            )
            files.extend(
                os.path.join(dirpath, name)
                for name in sorted(filenames)
                if name.endswith(".py")
            )
    return sorted(dict.fromkeys(files))


def lint_paths(paths: List[str]) -> LintResult:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    result = LintResult()
    for path in collect_files(paths):
        result.extend(lint_file(path))
    result.sort()
    return result
