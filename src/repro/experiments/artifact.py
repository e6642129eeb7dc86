"""Streamed JSONL sweep artifacts: append-as-you-go, resume-from-partial.

This is the one on-disk form of a sweep.  The
:class:`~repro.experiments.runner.SweepRunner` writes it point by point
rather than once at the end: a run killed at point 180 of 200 leaves its
completed prefix behind, and a grid too large for one
``ProcessPoolExecutor.map`` call has somewhere to put completed points while
the rest execute.  The layout:

* line 1 is a **header record** identifying the sweep (scenario name, entry
  point, seed, base params, axes, point count);
* every following line is one **point record**, appended the moment the point
  (or its chunk) completes, in grid order.

Every line is canonical JSON (sorted keys, compact separators), so the bytes
of a finished artifact are a pure function of the scenario — independent of
worker count, chunk boundaries, or how many times the run was killed and
resumed.  :func:`load_partial` reads a possibly-truncated artifact back (a
kill mid-write can leave half a line; the trailing fragment is discarded),
returning the completed points keyed by their derived seed so a resumed run
executes only the missing points.

Two invariants keep the bytes pure even across a fleet of machines:

* a **sharded** run (:mod:`repro.experiments.sharding`) writes the same
  point records with the same global grid indices; only the header's
  ``shard`` stanza marks the file as partial, and ``merge`` removes it to
  reconstruct the single-machine artifact byte-for-byte;
* **wall-clock timing never appears in these files** — it is written to the
  ``.timing.jsonl`` sidecar (:mod:`repro.experiments.timing`) so that two
  runs of one scenario stay ``cmp``-equal no matter how long they took.

See ``EXPERIMENTS.md`` for the CLI workflow.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, Optional, Tuple

from repro.exceptions import ConfigurationError

#: Version tag of the streaming (JSONL) artifact layout.
JSONL_SCHEMA = "repro.experiments.sweep-stream/1"

#: ``kind`` value of the first line of an artifact.
KIND_HEADER = "header"
#: ``kind`` value of every subsequent line.
KIND_POINT = "point"


def canonical_json(record: Dict[str, Any]) -> str:
    """One artifact line: canonical JSON (sorted keys, compact) + newline.

    Canonical encoding is what makes finished artifacts byte-identical across
    worker counts and resume histories: a record loaded from a partial file
    and re-encoded produces exactly the bytes a fresh execution would have
    written (floats round-trip exactly through ``json``).
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def header_record(
    *,
    scenario: str,
    entry_point: str,
    description: str,
    seed: int,
    base_params: Dict[str, Any],
    axes: Dict[str, Any],
    num_points: int,
    shard: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the header (first-line) record of a streaming artifact.

    ``num_points`` is always the **full grid** size — it identifies the sweep,
    not the file.  A sharded run (``--shard I/N``) additionally carries a
    ``shard`` stanza (``{"index", "count", "num_points"}``, the last being
    the shard's own point count); the stanza is the *only* header difference
    between a shard artifact and the single-machine artifact, which is what
    lets ``merge`` reconstruct the single-machine header byte-for-byte by
    dropping it.
    """
    record = {
        "kind": KIND_HEADER,
        "schema": JSONL_SCHEMA,
        "scenario": scenario,
        "entry_point": entry_point,
        "description": description,
        "seed": seed,
        "base_params": base_params,
        "axes": axes,
        "num_points": num_points,
    }
    if shard is not None:
        record["shard"] = shard
    return record


def point_record(point: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap one executed point (the ``_execute_point`` dict) as a point record."""
    record = dict(point)
    record["kind"] = KIND_POINT
    return record


def canonicalize(value: Any) -> Any:
    """Normalise ``value`` through a JSON round trip (tuples become lists...).

    Used wherever freshly built Python values are compared against values read
    back from an artifact: the two must compare equal whenever their JSON
    encodings are byte-identical.
    """
    return json.loads(json.dumps(value, sort_keys=True))


class JsonlWriter:
    """Writes canonical JSON lines to a new file, flushing each line.

    The file always starts from scratch (mode ``"w"``) with its header
    record, and each line is flushed as written, so a kill loses at most the
    line in flight.  :class:`ArtifactWriter` and the timing sidecar's
    :class:`~repro.experiments.timing.TimingWriter` both write through it.
    """

    def __init__(self, path: str, header: Dict[str, Any]) -> None:
        """Open ``path`` for writing and emit the header line."""
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self.write(header)

    def write(self, record: Dict[str, Any]) -> None:
        """Append ``record`` as one canonical JSON line and flush it."""
        if self._handle is None:
            raise ConfigurationError(f"writer for {self.path!r} is closed")
        self._handle.write(canonical_json(record))
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ArtifactWriter(JsonlWriter):
    """Appends the point records of a sweep artifact after its header.

    On resume the runner re-emits the cached points it loaded, which costs a
    rewrite of the completed prefix but guarantees the finished file is
    canonical no matter what state the partial file was in (truncated
    trailing line, stale ordering, ...).
    """

    def append_point(self, point: Dict[str, Any]) -> None:
        """Append one completed point record."""
        self.write(point_record(point))


def iter_complete_records(text: str, path: str) -> "list[Tuple[int, Dict[str, Any]]]":
    """Parse the newline-terminated JSON records of a streamed file.

    Returns ``(line_number, record)`` pairs.  A kill mid-write leaves a
    trailing fragment with no newline; everything before the final newline
    was flushed whole, so only the fragment (the last, non-empty,
    unterminated element) is discarded — the write in flight when the run
    died.  Any *other* malformed line raises: the streamed formats (artifact
    and timing sidecar) never produce one.

    Shared by :func:`load_partial` and the timing-sidecar loader so the
    truncation-tolerance rules cannot drift between the two layouts.
    """
    lines = text.split("\n")
    lines.pop()  # trailing fragment; "" when the file ends in a newline
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append((number, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"artifact {path!r} line {number} is not valid JSON ({exc}); "
                f"only the final line of an interrupted artifact may be "
                f"truncated — this file looks corrupted, delete it and rerun"
            ) from None
    return records


def _parse_lines(text: str, path: str) -> Tuple[Optional[Dict[str, Any]], Dict[int, Dict[str, Any]]]:
    header: Optional[Dict[str, Any]] = None
    points: Dict[int, Dict[str, Any]] = {}
    try:
        records = iter_complete_records(text, path)
    except ConfigurationError as damaged:
        # A whole JSON document (a serve report, a pre-stream sweep file)
        # is not a damaged artifact: say what it is instead.
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            raise damaged from None
        schema = document.get("schema") if isinstance(document, dict) else None
        found = "" if schema is None else f" with schema {schema!r}"
        raise ConfigurationError(
            f"{path!r} is a JSON document{found}, not a {JSONL_SCHEMA} "
            f"artifact (a header line, then one line per point)"
        ) from None
    for number, record in records:
        kind = record.get("kind")
        if number == 1:
            if kind != KIND_HEADER:
                raise ConfigurationError(
                    f"{path!r} is not a {JSONL_SCHEMA} artifact: its first "
                    f"record is not a header (kind={kind!r})"
                )
            if record.get("schema") != JSONL_SCHEMA:
                raise ConfigurationError(
                    f"unsupported artifact schema {record.get('schema')!r} in "
                    f"{path!r}; expected {JSONL_SCHEMA!r}"
                )
            header = record
        elif kind == KIND_POINT:
            points[int(record["seed"])] = {k: v for k, v in record.items() if k != "kind"}
        else:
            raise ConfigurationError(
                f"artifact {path!r} line {number} has unexpected kind {kind!r}"
            )
    # Whatever the fragment holds — half a record, or a whole record whose
    # trailing newline never made it to disk — it was the write in flight
    # when the run died, so it is discarded and the point re-executed on
    # resume (which regenerates the identical bytes).
    return header, points


def load_partial(path: str) -> Tuple[Optional[Dict[str, Any]], Dict[int, Dict[str, Any]]]:
    """Load a (possibly interrupted) streaming artifact.

    Returns:
        ``(header, points)`` where ``header`` is the header record (``None``
        when the file is empty or was killed before the header line finished)
        and ``points`` maps each completed point's derived seed to its record.
        A truncated final line — the in-flight write of a killed run — is
        silently discarded; any other malformed line raises.

    Raises:
        ConfigurationError: On a malformed non-final line, an unexpected
            record kind, or an unsupported schema.
    """
    if not os.path.exists(path):
        return None, {}
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not text:
        return None, {}
    return _parse_lines(text, path)


def validate_header(header: Dict[str, Any], expected: Dict[str, Any], path: str) -> None:
    """Check a loaded header describes the same sweep as ``expected``.

    Compares the identity fields (scenario, entry point, seed, base params,
    axes, point count, shard stanza) after JSON canonicalisation, so a
    tuple-vs-list difference between a live scenario and its serialised form
    does not spuriously fail.  The shard stanza is part of the identity: a
    shard artifact only resumes under the same ``--shard I/N`` spec, and a
    full artifact never resumes as a shard.

    Raises:
        ConfigurationError: Naming the first mismatching field.
    """
    for name in ("scenario", "entry_point", "seed", "base_params", "axes", "num_points", "shard"):
        have, want = canonicalize(header.get(name)), canonicalize(expected.get(name))
        if have != want:
            raise ConfigurationError(
                f"cannot resume from {path!r}: artifact {name}={have!r} does not "
                f"match the requested sweep ({name}={want!r}); rerun without "
                f"--resume (or into a fresh --out) to start over"
            )

