"""DET005 — public entry points that draw randomness expose ``rng``/``seed``.

A public function that constructs its own generator from nothing but
literals (``default_rng()``, ``substream(0, "x")``) hides the randomness
from its caller: the caller can neither thread the experiment's substream
through it nor pair runs via common random numbers.  Public functions and
methods doing so must accept an explicit ``rng``/``seed``-style parameter.

Two shapes pass without a parameter: private ``_helpers`` (their public
callers own the plumbing), and calls whose seed material includes any
non-literal expression — ``substream(config.seed, "arrivals")`` or
``substream(self.seed, "service")`` is caller-controlled seeding through a
config object or instance state, which is exactly the contract this rule
exists to protect.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule
from repro.lint.rules.det001_seedless_rng import SANCTIONED_MODULES

#: Parameter names that count as explicit randomness plumbing.
RNG_PARAMETER_NAMES = frozenset(
    {"rng", "rngs", "seed", "seeds", "base_seed", "streams", "generator", "random_state"}
)

#: Calls that construct generator/seed material.
_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "repro.sim.rng.substream",
    }
)


def _parameter_names(func: ast.AST) -> List[str]:
    args = func.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [arg.arg for arg in named]


def _statically_fixed(call: ast.Call) -> bool:
    """True when every argument is a literal constant.

    A non-literal argument (``config.seed``, ``self.seed``, a local name)
    means the seed material flows in from outside the call site, so the
    caller controls it.
    """
    values = list(call.args) + [kw.value for kw in call.keywords]
    return all(isinstance(value, ast.Constant) for value in values)


class HiddenDefaultRule(Rule):
    """Flag public functions constructing generators without rng/seed params."""

    rule_id = "DET005"
    title = "public functions that draw randomness take an rng/seed parameter"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module in SANCTIONED_MODULES:
            return
        for call, name in ctx.calls():
            if name not in _CONSTRUCTORS:
                continue
            chain = ctx.enclosing_functions(call)
            if not chain:
                continue  # module-level globals are DET001/DET002 territory
            nearest = chain[0]
            if nearest.name.startswith("_"):
                continue  # private helper: its public callers own the plumbing
            if not _statically_fixed(call):
                continue  # seed flows in from outside the call site
            plumbed = any(
                set(_parameter_names(func)) & RNG_PARAMETER_NAMES for func in chain
            )
            if plumbed:
                continue
            short = name.rsplit(".", 1)[-1]
            yield self.finding(
                ctx,
                call,
                f"public function {nearest.name!r} constructs randomness via "
                f"{short}(...) but exposes no rng/seed parameter — callers "
                f"cannot thread the experiment's substream through it; add an "
                f"explicit rng= or seed= parameter",
            )
