"""Per-point wall-clock timing sidecars (``<out>.timing.jsonl``).

The canonical sweep artifact is a pure function of the scenario — that is
what makes resume, worker-count determinism and shard merging byte-exact —
so wall-clock timing, which varies run to run, can never live inside it.
This module is the out-of-band home for it: whenever the runner streams an
artifact, it also writes a **sidecar** next to it at
:func:`timing_sidecar_path` recording, for every point *executed by that
invocation*, the wall-clock seconds the substrate adapter took.

The sidecar is deliberately not canonical and never merged into artifacts:

* it describes one invocation on one machine (a ``--resume`` rewrites it
  with only the newly executed points — the cached prefix cost nothing);
* the artifact ``cmp``/``diff`` contracts ignore it entirely, so two
  byte-identical artifacts can carry arbitrarily different sidecars;
* its consumers are humans and the ``timing-report`` CLI, which tabulates
  the slowest points and per-shard totals to inform shard-count and
  shard-balance decisions for fleet runs (see ``EXPERIMENTS.md``).

Layout mirrors the artifact: line 1 is a header (schema, scenario, shard
stanza, grid axes), every further line one timing record (grid index, seed,
params, status, ``elapsed_s``).  The loader tolerates a truncated final line
the same way :func:`repro.experiments.artifact.load_partial` does.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.artifact import JsonlWriter, iter_complete_records

#: Version tag of the timing-sidecar layout.
TIMING_SCHEMA = "repro.experiments.sweep-timing/1"

#: Suffix appended to the artifact path to name its sidecar.
TIMING_SUFFIX = ".timing.jsonl"

#: ``kind`` of the sidecar's first line.
KIND_TIMING_HEADER = "timing-header"
#: ``kind`` of every following sidecar line.
KIND_TIMING = "timing"


def timing_sidecar_path(artifact_path: str) -> str:
    """The sidecar path of a streaming artifact: ``<artifact>.timing.jsonl``."""
    return artifact_path + TIMING_SUFFIX


def timing_header(
    *,
    scenario: str,
    axes: List[str],
    shard: Optional[Dict[str, Any]] = None,
    artifact: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the sidecar header record."""
    record: Dict[str, Any] = {
        "kind": KIND_TIMING_HEADER,
        "schema": TIMING_SCHEMA,
        "scenario": scenario,
        "axes": list(axes),
        "shard": shard,
    }
    if artifact is not None:
        record["artifact"] = os.path.basename(artifact)
    return record


class TimingWriter(JsonlWriter):
    """Appends timing records next to a streamed artifact, one per executed point.

    Opened fresh by every invocation: the sidecar answers "what did *this
    run* spend, where", so cached points reused by ``--resume`` do not
    reappear in it.
    """

    def append(self, point: Dict[str, Any], elapsed_s: float) -> None:
        """Record that ``point`` (an executed point record) took ``elapsed_s``."""
        self.write(
            {
                "kind": KIND_TIMING,
                "index": point["index"],
                "seed": point["seed"],
                "params": point["params"],
                "status": point["status"],
                "elapsed_s": float(elapsed_s),
            }
        )


def load_timing(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load a timing sidecar: ``(header, records)``.

    A truncated final line (the write in flight when a run was killed) is
    discarded, mirroring the artifact loader; any other malformed line
    raises.

    Raises:
        ConfigurationError: If the file is missing, empty, does not start
            with a timing header, or holds a malformed non-final line.
    """
    if not os.path.exists(path):
        raise ConfigurationError(
            f"timing sidecar {path!r} does not exist; sidecars are written "
            f"next to streaming artifacts (--out x.jsonl produces "
            f"x.jsonl{TIMING_SUFFIX})"
        )
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    # Same truncation-tolerance rules as the artifact itself: the shared
    # parser discards an unterminated final line and rejects anything else
    # malformed.
    for number, record in iter_complete_records(text, path):
        kind = record.get("kind")
        if number == 1:
            if kind != KIND_TIMING_HEADER or record.get("schema") != TIMING_SCHEMA:
                raise ConfigurationError(
                    f"{path!r} is not a timing sidecar (expected a "
                    f"{TIMING_SCHEMA!r} header, got kind={kind!r}); the "
                    f"canonical artifact itself carries no timing data"
                )
            header = record
        elif kind == KIND_TIMING:
            records.append(record)
        else:
            raise ConfigurationError(
                f"timing sidecar {path!r} line {number} has unexpected kind {kind!r}"
            )
    if header is None:
        raise ConfigurationError(f"timing sidecar {path!r} is empty")
    return header, records


def sidecar_label(header: Dict[str, Any], path: str) -> str:
    """Short display label of one sidecar: its shard stanza, else its filename."""
    stanza = header.get("shard")
    if stanza:
        return f"shard {stanza.get('index')}/{stanza.get('count')}"
    return os.path.basename(path)
