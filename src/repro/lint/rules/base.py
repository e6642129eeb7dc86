"""Base class of the determinism-lint rules."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding


class Rule:
    """One statically-checkable clause of the determinism contract.

    Subclasses set :attr:`rule_id` and :attr:`title` and implement
    :meth:`check`, yielding a :class:`Finding` per violation.  Rules are
    stateless — one instance is shared across every linted module.
    """

    #: ``DET0XX`` identifier used in reports and pragmas.
    rule_id: str = ""

    #: One-line statement of the invariant the rule enforces.
    title: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``ctx``'s module."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        return Finding(
            module=ctx.module,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
            code=ctx.line(lineno),
        )
