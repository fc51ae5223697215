"""Versioned checkpoint files for resumable analysis runs.

A checkpoint is a single JSON document wrapped in an envelope that
records the format name and version, so a reader can fail loudly on
foreign or stale files instead of resuming from garbage:

    {"format": "repro-checkpoint", "version": 2,
     "kind": "stream-engine", "payload": {...}}

Writes are atomic (temp file + ``os.replace``) so a run killed mid-save
never leaves a truncated checkpoint behind -- the previous complete
checkpoint, if any, survives.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Tuple

#: Envelope format marker.
CHECKPOINT_FORMAT = "repro-checkpoint"

#: Current envelope version; bump on incompatible payload changes.
CHECKPOINT_VERSION = 2

#: Top-level payload fields of every known checkpoint kind.  This is
#: the schema contract between writers (``checkpoint_payload`` in
#: ``repro.stream.engine``) and readers: reprolint's REP006 checks
#: that each producer's payload dict matches its entry here.
CHECKPOINT_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "stream-engine": ("seed", "feed_order", "cursors"),
}

#: Fingerprint pinning (CHECKPOINT_VERSION, CHECKPOINT_SCHEMAS).
#: REP006 recomputes this from the declarations above; editing the
#: schema without bumping the version (and re-pinning) fails the lint.
#: Regenerate with ``python -m repro lint --schema-pin``.
CHECKPOINT_SCHEMA_PIN = "v2:48b613aa3ec5"


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be read or validated."""


def write_checkpoint(path: str, kind: str, payload: Dict[str, Any]) -> None:
    """Atomically write *payload* as a *kind* checkpoint at *path*."""
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "payload": payload,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, separators=(",", ":"))
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_checkpoint(path: str, kind: str) -> Dict[str, Any]:
    """Read and validate a *kind* checkpoint; returns its payload."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not a checkpoint file: {exc}") from exc
    if not isinstance(envelope, dict):
        raise CheckpointError(f"{path}: checkpoint envelope must be an object")
    if envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: unrecognized format {envelope.get('format')!r}"
        )
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if envelope.get("kind") != kind:
        raise CheckpointError(
            f"{path}: checkpoint kind {envelope.get('kind')!r} does not "
            f"match expected {kind!r}"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint payload must be an object")
    return payload
