"""The :class:`Finding` record every lint rule emits."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One determinism-contract violation.

    Attributes:
        module: Normalized module path (``repro/wan/loss.py``) — stable
            across checkouts and copies of the tree.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        rule: Rule identifier (``DET001`` ... ``DET007``, ``DET000`` for
            lint-usage errors such as malformed pragmas).
        message: Human explanation, including the remediation hint.
        code: The offending source line, stripped.
    """

    module: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    code: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "code": self.code,
        }

    def render(self) -> str:
        """The two-line text rendering used by ``--format text``."""
        location = f"{self.module}:{self.line}:{self.col}"
        text = f"{location}: {self.rule} {self.message}"
        if self.code:
            text += f"\n    {self.code}"
        return text
