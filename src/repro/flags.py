"""Central registry of the ``REPRO_*`` environment flags.

Every environment flag the library honours is declared here, once, with a
default, a closed set of accepted values and a docstring — and every read
goes through the declaring :class:`Flag`'s :meth:`Flag.read`.  Two failure
modes this kills:

* **Typo'd flag names.**  ``REPRO_CKERNEL=0`` used to be silently ignored
  (the read site only knew its own spelling); :func:`reject_unknown_flags`
  — called by the CLIs on startup — now fails fast on any ``REPRO_*``
  variable that no flag declares.
* **Typo'd flag values.**  Reads validate against the declared choices, so
  ``REPRO_CKERNELS=yes`` is a loud :class:`~repro.exceptions.ConfigurationError`
  instead of an accidental default.

The declarations below are deliberately *static* — ``declare("REPRO_X",
...)`` calls with a literal name and a ``help=`` string — because the
determinism linter (:mod:`repro.lint`, rule DET007) parses this module's AST
to learn the set of declared flags and then rejects any ``REPRO_*``
environment read anywhere else in ``src/``.  Adding a flag means adding a
declaration here; there is no second place.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError

#: Prefix shared by every environment flag the library honours.
FLAG_PREFIX = "REPRO_"

#: All declared flags, keyed by environment-variable name, in declaration
#: order (dicts preserve insertion order, so listings are stable).
REGISTRY: Dict[str, "Flag"] = {}


@dataclass(frozen=True)
class Flag:
    """One declared ``REPRO_*`` environment flag.

    Attributes:
        name: The environment-variable name (``REPRO_...``).
        default: Value used when the variable is unset.
        choices: The closed set of accepted values.
        help: What the flag selects and who consumes it.
    """

    name: str
    default: str
    choices: Tuple[str, ...]
    help: str = field(repr=False)

    def read(self) -> str:
        """The flag's environment value, or ``default`` when it is unset.

        Raises:
            ConfigurationError: If the value is not one of the declared
                ``choices``.
        """
        value = os.environ.get(self.name, self.default)
        if value not in self.choices:
            raise ConfigurationError(
                f"{self.name} must be one of {self.choices}, got {value!r}"
            )
        return value


def declare(name: str, *, default: str, choices: Tuple[str, ...], help: str) -> Flag:
    """Declare one ``REPRO_*`` flag and register it.

    Args:
        name: Environment-variable name; must start with ``REPRO_`` and be
            unique across the registry.
        default: Value assumed when the variable is unset (must be a choice).
        choices: Closed set of accepted values.
        help: Non-empty human documentation (DET007 enforces its presence).

    Raises:
        ConfigurationError: On a malformed or duplicate declaration.
    """
    if not name.startswith(FLAG_PREFIX):
        raise ConfigurationError(f"flag names must start with {FLAG_PREFIX!r}, got {name!r}")
    if name in REGISTRY:
        raise ConfigurationError(f"flag {name!r} is already declared")
    if default not in choices:
        raise ConfigurationError(f"default {default!r} of {name} is not among {choices}")
    if not help.strip():
        raise ConfigurationError(f"flag {name!r} needs a non-empty help string")
    flag = Flag(name=name, default=default, choices=tuple(choices), help=help)
    REGISTRY[name] = flag
    return flag


def unknown_flags(environ: Optional[Mapping[str, str]] = None) -> List[str]:
    """``REPRO_*`` variables present in ``environ`` but declared nowhere.

    Args:
        environ: Environment mapping to inspect (default ``os.environ``).
    """
    environ = os.environ if environ is None else environ
    return sorted(
        name for name in environ if name.startswith(FLAG_PREFIX) and name not in REGISTRY
    )


def reject_unknown_flags(environ: Optional[Mapping[str, str]] = None) -> None:
    """Fail fast on typo'd ``REPRO_*`` variables.

    The experiments and lint CLIs call this on startup so a misspelled flag
    (``REPRO_CKERNEL=0``) aborts the run instead of silently running the
    default code path.

    Raises:
        ConfigurationError: Naming every unknown ``REPRO_*`` variable.
    """
    unknown = unknown_flags(environ)
    if unknown:
        raise ConfigurationError(
            f"unknown REPRO_* environment variable(s): {unknown}; "
            f"declared flags: {sorted(REGISTRY)} (see repro/flags.py)"
        )


# --------------------------------------------------------------------------- #
# Declarations — the single source of truth for every REPRO_* flag.
# --------------------------------------------------------------------------- #

CKERNELS = declare(
    "REPRO_CKERNELS",
    default="1",
    choices=("0", "1"),
    help=(
        "Whether the optional compiled C kernels (FIFO busy-period recursion, "
        "per-miss disk draws, LRU cache, pipeline placement draws) may be "
        "used: '0' forces the numpy and Python paths.  The two paths are "
        "bitwise identical; "
        "consumed by repro.cluster._ckernels.load()."
    ),
)
