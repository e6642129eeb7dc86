"""Per-module AST context shared by every lint rule.

One :class:`ModuleContext` is built per linted file; rules then walk the
parsed tree through it.  The context provides the three things an AST rule
constantly needs and ``ast`` does not give you:

* **Import-alias resolution** — :meth:`ModuleContext.dotted` turns the
  ``func`` of a call into a canonical dotted name (``np.random.default_rng``
  → ``numpy.random.default_rng``; ``from time import perf_counter`` makes a
  bare ``perf_counter()`` resolve to ``time.perf_counter``), so rules match
  on what is *called*, not on how the import happened to be spelled.
* **Parents and enclosing functions** — :meth:`ModuleContext.parent` and
  :meth:`ModuleContext.enclosing_functions` (innermost first), plus
  :meth:`ModuleContext.qualname` for allowlist matching.
* **Normalized module identity** — :func:`normalize_module_path` maps any
  on-disk location of a file to its package-relative path
  (``repro/wan/loss.py``), so allowlists are stable across checkouts,
  ``src/`` prefixes, and CI's copied trees.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple


def normalize_module_path(path: str) -> str:
    """Normalize a file path to a stable, package-relative module path.

    The last ``repro`` directory component anchors the path
    (``/tmp/copy/src/repro/wan/loss.py`` → ``repro/wan/loss.py``); failing
    that, a ``src``/``tests``/``scripts`` component does; otherwise the path
    is returned with forward slashes, as given.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[anchor:])
    for marker in ("src", "tests", "scripts"):
        if marker in parts:
            anchor = len(parts) - 1 - parts[::-1].index(marker)
            trailing = parts[anchor + 1 :] if marker == "src" else parts[anchor:]
            if trailing:
                return "/".join(trailing)
    return "/".join(part for part in parts if part not in (".", ""))


class ModuleContext:
    """Parsed source plus the navigation maps rules need.

    Attributes:
        module: Normalized module path (see :func:`normalize_module_path`).
        source: Raw module source.
        lines: Source split into lines (1-based access via :meth:`line`).
        tree: The parsed :class:`ast.Module`.
    """

    def __init__(self, source: str, module: str) -> None:
        """Parse ``source``; raises :class:`SyntaxError` on unparsable input."""
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
        self._aliases: Dict[str, str] = {}
        self._parents: Dict[int, ast.AST] = {}
        self._functions: Dict[int, List[ast.AST]] = {}
        self._constants: Dict[str, str] = {}
        self._index()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _index(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import — cannot resolve statically
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self._aliases[bound] = f"{node.module}.{alias.name}"
        # Module-level string constants (NAME = "literal"), for resolving
        # env-var names passed by constant reference.
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self._constants[node.targets[0].id] = node.value.value

        def visit(node: ast.AST, stack: List[ast.AST]) -> None:
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
                child_stack = stack
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    child_stack = stack + [child]
                self._functions[id(child)] = child_stack
                visit(child, child_stack)

        visit(self.tree, [])

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The direct parent of ``node`` (``None`` for the module root)."""
        return self._parents.get(id(node))

    def enclosing_functions(self, node: ast.AST) -> List[ast.AST]:
        """Enclosing function defs of ``node``, innermost first."""
        return [
            scope
            for scope in reversed(self._functions.get(id(node), []))
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def qualname(self, node: ast.AST) -> str:
        """Dotted class/function scope chain containing ``node`` (may be '')."""
        return ".".join(scope.name for scope in self._functions.get(id(node), []))

    def line(self, lineno: int) -> str:
        """The stripped source line at 1-based ``lineno``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # ------------------------------------------------------------------ #
    # Name resolution
    # ------------------------------------------------------------------ #

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, or ``None``.

        Resolves through the module's import aliases: with ``import numpy as
        np``, ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng``; with ``from time import perf_counter``,
        the bare name ``perf_counter`` resolves to ``time.perf_counter``.
        Non-name expressions (calls, subscripts, literals) resolve to None.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self._aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def string_value(self, node: ast.AST) -> Optional[str]:
        """A literal string, or a module-level string constant's value."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self._constants.get(node.id)
        return None

    def calls(self) -> Iterator[Tuple[ast.Call, Optional[str]]]:
        """Every call in the module with its resolved dotted callee name."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node, self.dotted(node.func)
