"""The determinism-rule registry.

Each rule is one statically-checkable clause of the repo's determinism
contract; :data:`ALL_RULES` is the single authoritative list the engine,
the CLI's ``--rules`` listing and the pragma validator all consume.  Adding
a rule means adding a module here and appending one instance — nothing else
needs to change.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.lint.pragmas import META_RULE
from repro.lint.rules.base import Rule
from repro.lint.rules.det001_seedless_rng import SeedlessRngRule
from repro.lint.rules.det002_global_rng import GlobalRngRule
from repro.lint.rules.det003_wallclock import WallClockRule
from repro.lint.rules.det004_unordered_iteration import UnorderedIterationRule
from repro.lint.rules.det005_hidden_default import HiddenDefaultRule
from repro.lint.rules.det006_json_sort_keys import JsonSortKeysRule
from repro.lint.rules.det007_flag_registry import FlagRegistryRule

#: Every active rule, in report order.
ALL_RULES: Tuple[Rule, ...] = (
    SeedlessRngRule(),
    GlobalRngRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    HiddenDefaultRule(),
    JsonSortKeysRule(),
    FlagRegistryRule(),
)

#: Valid rule identifiers (for pragma validation); DET000 marks lint-usage
#: errors (malformed pragmas, unparsable files) and is intentionally NOT
#: suppressible.
RULE_IDS: FrozenSet[str] = frozenset(rule.rule_id for rule in ALL_RULES) | {META_RULE}
