"""Atomic on-disk checkpoint files.

A checkpoint is one JSON document written with the same crash-safety
discipline as the campaign result cache: serialise to a temporary file
in the target directory, ``fsync``, then ``os.replace`` into place.  A
reader therefore sees either a complete checkpoint or none at all —
never a torn write — even if the writing process is SIGKILLed
mid-checkpoint.

File names embed the cycle and a content hash
(``ckpt-<cycle>-<hash12>.json``), so a re-written checkpoint of
identical state lands on the same name, and :meth:`CheckpointStore.load`
re-hashes a file so named and refuses one whose content or ``cycle``
disagrees with its name (an edit, a corruption, a rename).

Every load failure — missing file, unreadable JSON, wrong format
version, a content hash or cycle that contradicts the file name, or a
config fingerprint that does not match the run being resumed — raises :class:`CheckpointError`, a ``ValueError`` subclass so
the CLI's existing bad-input handling (print ``error:`` and exit 2)
applies unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Optional

#: On-disk format version; bump on incompatible layout changes.
CHECKPOINT_FORMAT = 3


#: The names :meth:`CheckpointStore.save` gives: cycle, then the first
#: twelve hex digits of the document's SHA-256.
_NAME = re.compile(r"ckpt-(\d+)-([0-9a-f]{12})\.json")


class CheckpointError(ValueError):
    """A checkpoint could not be loaded or does not match this run."""


def canonical_dumps(value) -> str:
    """Canonical JSON: sorted keys, no whitespace (stable hashes)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def fingerprint_of(config: dict) -> str:
    """SHA-256 over the canonical JSON of a run's configuration.

    A resume is only valid against the exact run that wrote the
    checkpoint; the fingerprint pins every input that shapes behaviour
    (topology, seeds, workload knobs).
    """
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()


class CheckpointStore:
    """Reads and writes checkpoints for one run in one directory."""

    def __init__(self, directory, kind: str, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.kind = kind
        self.fingerprint = fingerprint

    # -- writing ----------------------------------------------------------

    def save(self, cycle: int, state: dict) -> Path:
        """Atomically write one checkpoint; returns its path."""
        document = canonical_dumps({
            "format": CHECKPOINT_FORMAT,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "cycle": cycle,
            "state": state,
        })
        digest = _digest(document)
        path = self.directory / f"ckpt-{cycle}-{digest}.json"
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".ckpt-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(document)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- reading ----------------------------------------------------------

    def load(self, path) -> dict:
        """Load and validate one checkpoint file.

        Returns the full document (``cycle`` and ``state`` keys).
        Raises :class:`CheckpointError` on any problem, among them a
        file named ``ckpt-<cycle>-<hash12>.json`` whose content does
        not hash to ``hash12`` or whose ``cycle`` is another.
        """
        path = Path(path)
        if not path.is_file():
            raise CheckpointError(f"checkpoint not found: {path}")
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path}: {exc}"
            ) from exc
        if not isinstance(document, dict) or "state" not in document:
            raise CheckpointError(f"corrupt checkpoint {path}: not a "
                                  "checkpoint document")
        if document.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {path} has format "
                f"{document.get('format')!r}, expected {CHECKPOINT_FORMAT}"
            )
        if document.get("kind") != self.kind:
            raise CheckpointError(
                f"checkpoint {path} is a {document.get('kind')!r} "
                f"checkpoint, expected {self.kind!r}"
            )
        if document.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written by a different run "
                "configuration (fingerprint mismatch) — refusing to resume"
            )
        named = _NAME.fullmatch(path.name)
        if named is not None:
            cycle, digest = named.groups()
            if _digest(canonical_dumps(document)) != digest:
                raise CheckpointError(
                    f"corrupt checkpoint {path}: its content does not "
                    "hash to the digest in its name")
            if document.get("cycle") != int(cycle):
                raise CheckpointError(
                    f"corrupt checkpoint {path}: it holds cycle "
                    f"{document.get('cycle')!r}, its name says {cycle}")
        return document

    def latest(self) -> Optional[Path]:
        """The newest complete checkpoint in the directory, if any."""
        if not self.directory.is_dir():
            return None
        best: Optional[tuple[int, Path]] = None
        for path in self.directory.glob("ckpt-*.json"):
            try:
                cycle = int(path.name.split("-")[1])
            except (IndexError, ValueError):
                continue
            if best is None or cycle > best[0]:
                best = (cycle, path)
        return None if best is None else best[1]

    def clear(self) -> None:
        """Delete this run's checkpoints (after a successful finish)."""
        clear_checkpoints(self.directory)


def _digest(document: str) -> str:
    """The content hash a checkpoint's file name carries."""
    return hashlib.sha256(document.encode()).hexdigest()[:12]


def clear_checkpoints(directory) -> None:
    """Best-effort deletion of every checkpoint file in a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in directory.glob("ckpt-*.json"):
        try:
            path.unlink()
        except OSError:
            pass
