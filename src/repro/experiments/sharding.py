"""Sharding one sweep across machines, and merging the shards back.

A paper-tier grid is embarrassingly parallel across *points*, so the natural
fleet unit is a **shard**: a deterministic subset of the grid that one machine
executes end-to-end with the ordinary streaming runner.  The partition is a
pure function of each point's substream-derived seed (:func:`shard_of`), so

* every machine computes the same partition from the scenario alone — no
  coordinator, no work queue, no state to share beyond the scenario name and
  any ``--set`` overrides (which must match across shards, enforced at merge
  time through the artifact header);
* a shard artifact is an ordinary streaming artifact (same schema, same
  canonical bytes per record, global grid indices) whose header carries a
  ``shard`` stanza — each shard resumes independently with ``--resume``;
* :func:`merge_artifacts` recombines any set of shard artifacts covering the
  grid — any shard count, any argument order, overlaps deduplicated — into a
  file **byte-identical** to the single-machine ``--workers 1`` run.  The CI
  shard smoke pins this with ``cmp``.

Merging is a union of point records keyed by seed, with three safety nets:
header identity (same scenario/seed/params/axes on every input), conflict
detection (two byte-different records for one seed is a hard error — the
shards were not run from the same code or configuration), and a completeness
check that names the missing grid indices.  Truncated shard tails (a machine
killed mid-write) are tolerated exactly like ``--resume`` tolerates them: the
in-flight final line is discarded and the point simply counts as missing.

Wall-clock timing never enters these artifacts — it lives in the
:mod:`repro.experiments.timing` sidecar — so merged bytes stay a pure
function of the scenario.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.artifact import ArtifactWriter, canonicalize, load_partial
from repro.experiments.timing import sidecar_label

#: Header fields that identify a sweep; every merged input must agree on all
#: of them (the ``shard`` stanza is the one header field allowed to differ).
IDENTITY_FIELDS = (
    "schema",
    "scenario",
    "entry_point",
    "description",
    "seed",
    "base_params",
    "axes",
    "num_points",
)

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


def parse_shard(text: str) -> Optional[Tuple[int, int]]:
    """Parse a CLI shard spec ``"I/N"`` into ``(index, count)``, 1-based.

    ``"1/1"`` normalises to ``None`` (an unsharded run): a single-shard
    partition *is* the whole grid, and collapsing it keeps the artifact
    header — and therefore the artifact bytes — identical to a run that never
    mentioned sharding.

    Raises:
        ConfigurationError: If the spec is malformed or ``I`` is outside
            ``1..N``.
    """
    match = _SHARD_RE.match(text.strip())
    if not match:
        raise ConfigurationError(
            f"shard spec must look like I/N (e.g. 2/3), got {text!r}"
        )
    index, count = int(match.group(1)), int(match.group(2))
    return normalize_shard((index, count))


def normalize_shard(shard: Optional[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    """Validate a ``(index, count)`` pair; ``(1, 1)`` and ``None`` mean unsharded."""
    if shard is None:
        return None
    index, count = int(shard[0]), int(shard[1])
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise ConfigurationError(
            f"shard index must be in 1..{count}, got {index} (shards are 1-based)"
        )
    if count == 1:
        return None
    return index, count


def shard_of(point_seed: int, count: int) -> int:
    """The 1-based shard owning a point, as a pure function of its seed.

    The derived point seed is already a deterministic hash of the scenario
    seed, name and point parameters, so ``seed % count`` partitions the grid
    evenly-in-expectation with no extra state.  Every machine evaluates the
    same assignment independently; no two shards ever share a point.
    """
    return int(point_seed) % int(count) + 1


def shard_stanza(shard: Tuple[int, int], num_shard_points: int) -> Dict[str, Any]:
    """The header ``shard`` stanza of one shard artifact."""
    return {
        "index": int(shard[0]),
        "count": int(shard[1]),
        "num_points": int(num_shard_points),
    }


def _strip_shard(header: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in header.items() if key != "shard"}


def _input_label(header: Dict[str, Any], path: str) -> str:
    """A merge input's display name: its path plus its ``shard I/N`` stanza.

    Merge errors name the offending inputs; on a fleet the shard identity is
    what the operator greps for (the path is often a scratch filename), so
    sharded inputs are labelled ``'path' (shard I/N)``.
    """
    if header.get("shard"):
        return f"{path!r} ({sidecar_label(header, path)})"
    return repr(path)


def merge_artifacts(out: str, shard_paths: Sequence[str]) -> Dict[str, Any]:
    """Merge shard artifacts into one complete streaming artifact at ``out``.

    The output is byte-identical to the artifact a single-machine run of the
    same scenario would have written: the merged header is the shard headers
    minus their ``shard`` stanza, and the point records — already canonical
    JSON keyed by globally-derived seeds and grid indices — are re-sorted
    into grid order.  Any number of inputs in any order works; inputs may
    overlap (identical duplicate records are deduplicated) and may themselves
    be unsharded artifacts (merging one complete artifact is an exact
    rewrite).  Truncated final lines — shards killed mid-write — are
    discarded exactly as ``--resume`` would discard them.  The merged file
    is written through the runner's :class:`ArtifactWriter`, one flushed
    line per record.

    Args:
        out: Path of the merged ``.jsonl`` artifact to write.
        shard_paths: Paths of the shard artifacts to combine.

    Returns:
        A summary dict: ``inputs``, ``points``, ``duplicates`` (identical
        records seen more than once) and ``scenario``.

    Raises:
        ConfigurationError: If no inputs are given, an input is missing or
            headerless, the inputs disagree on any sweep-identity header
            field, two inputs hold *conflicting* records for the same point,
            or the union does not cover the whole grid (the error names the
            missing grid indices).
    """
    if not shard_paths:
        raise ConfigurationError("merge needs at least one shard artifact")
    reference_header: Optional[Dict[str, Any]] = None
    reference_label = ""
    by_seed: Dict[int, Tuple[Dict[str, Any], str]] = {}
    by_index: Dict[int, int] = {}
    input_labels = []
    duplicates = 0
    for path in shard_paths:
        header, points = load_partial(path)
        if header is None:
            raise ConfigurationError(
                f"cannot merge {path!r}: the file is missing or empty (it has "
                f"no header record, so it was never started as a sweep artifact)"
            )
        label = _input_label(header, path)
        input_labels.append(label)
        if reference_header is None:
            reference_header, reference_label = header, label
        else:
            for name in IDENTITY_FIELDS:
                have = canonicalize(header.get(name))
                want = canonicalize(reference_header.get(name))
                if have != want:
                    raise ConfigurationError(
                        f"cannot merge {label} with {reference_label}: "
                        f"header field {name}={have!r} does not match "
                        f"{name}={want!r} — shards of one sweep must be run "
                        f"with the same scenario, seed and --set overrides"
                    )
        for seed, record in points.items():
            existing = by_seed.get(seed)
            if existing is not None:
                if canonicalize(existing[0]) != canonicalize(record):
                    raise ConfigurationError(
                        f"conflicting records for point seed {seed} "
                        f"(params={record.get('params')!r}) between "
                        f"{existing[1]} and {label}: the same point must "
                        f"produce identical results on every machine — were "
                        f"these shards run from different code versions?"
                    )
                duplicates += 1
                continue
            index = int(record["index"])
            claimed = by_index.get(index)
            if claimed is not None and claimed != seed:
                raise ConfigurationError(
                    f"conflicting records for grid index {index}: seeds "
                    f"{claimed} and {seed} both claim it (latest from "
                    f"{label}) — these artifacts are not shards of one sweep"
                )
            by_seed[seed] = (record, label)
            by_index[index] = seed
    assert reference_header is not None
    num_points = int(reference_header["num_points"])
    missing = sorted(set(range(num_points)) - set(by_index))
    if missing:
        shown = ", ".join(str(i) for i in missing[:20])
        more = f", ... ({len(missing) - 20} more)" if len(missing) > 20 else ""
        raise ConfigurationError(
            f"merge of {len(input_labels)} artifact(s) "
            f"({', '.join(input_labels)}) covers only "
            f"{len(by_index)} of {num_points} grid points; missing grid "
            f"index(es): {shown}{more} — a shard is absent from the merge, or "
            f"was killed mid-run (finish it with --resume and re-merge)"
        )
    # load_partial returns the header verbatim (kind/schema included); only
    # the shard stanza distinguishes it from the single-run header.
    merged_header = _strip_shard(reference_header)
    ordered = [by_seed[by_index[index]][0] for index in range(num_points)]
    writer = ArtifactWriter(out, merged_header)
    try:
        for record in ordered:
            writer.append_point(record)
    finally:
        writer.close()
    return {
        "inputs": len(list(shard_paths)),
        "points": num_points,
        "duplicates": duplicates,
        "scenario": reference_header.get("scenario"),
    }
