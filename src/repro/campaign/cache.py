"""On-disk campaign result cache: one JSONL shard per run.

The cache is content-addressed: a shard's filename is the run config's
content hash, so identical configs share results across campaigns and
a changed config can never pick up a stale shard.  Each shard holds two
canonical JSONL records (written via :func:`repro.reporting.export
.write_jsonl` with ``canonical=True``)::

    {"hash": H, "kind": "config", "config": {...}}
    {"hash": H, "kind": "result", "stats": {...}}

Shards are written to a temp file and moved into place with
``os.replace``, so a reader (or a resumed campaign) only ever sees
complete shards — a worker or parent killed mid-write leaves nothing
behind that :meth:`ResultCache.load` would accept.  Corrupt, partial or
mismatched shards are treated as cache misses, never as errors.

Failures are recorded beside the shard as ``<hash>.error.json`` (for
quarantine reporting) and are cleared by the next successful store.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Optional

from repro.campaign.spec import RunConfig, canonical_dumps
from repro.reporting.export import read_jsonl, write_jsonl

#: Shard filename suffix.
SHARD_SUFFIX = ".jsonl"
#: Failure-record filename suffix.
ERROR_SUFFIX = ".error.json"


class ResultCache:
    """Content-addressed store of campaign run results."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)

    def _temp_file(self, config_hash: str) -> pathlib.Path:
        # The first write creates the directory, so a campaign that is
        # refused at intake leaves none behind.
        self.root.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{config_hash[:16]}-", suffix=".tmp")
        os.close(handle)
        return pathlib.Path(tmp_name)

    # -- paths -------------------------------------------------------------

    def shard_path(self, config_hash: str) -> pathlib.Path:
        return self.root / f"{config_hash}{SHARD_SUFFIX}"

    def error_path(self, config_hash: str) -> pathlib.Path:
        return self.root / f"{config_hash}{ERROR_SUFFIX}"

    # -- results -----------------------------------------------------------

    def store(self, config: RunConfig, stats: dict) -> pathlib.Path:
        """Atomically write one run's shard; clears any failure record."""
        config_hash = config.content_hash()
        records = [
            {"hash": config_hash, "kind": "config",
             "config": config.to_dict()},
            {"hash": config_hash, "kind": "result", "stats": stats},
        ]
        final = self.shard_path(config_hash)
        tmp = self._temp_file(config_hash)
        try:
            write_jsonl(tmp, records, canonical=True)
            os.replace(tmp, final)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.clear_error(config_hash)
        return final

    def load(self, config: RunConfig) -> Optional[dict]:
        """This config's cached stats, or ``None`` on any miss.

        A shard only counts when it parses, carries the expected
        record kinds, and its recorded config matches the requested
        one byte for byte — anything else is a miss.
        """
        loaded = self.load_hash(config.content_hash())
        if loaded is None:
            return None
        config_dict, stats = loaded
        if canonical_dumps(config_dict) != config.canonical_json():
            return None
        return stats

    def load_hash(self, config_hash: str
                  ) -> Optional[tuple[dict, dict]]:
        """Raw ``(config dict, stats dict)`` for a hash, or ``None``."""
        path = self.shard_path(config_hash)
        try:
            records = read_jsonl(path)
        except (OSError, json.JSONDecodeError):
            return None
        if len(records) != 2:
            return None
        config_rec, result_rec = records
        if (not isinstance(config_rec, dict)
                or not isinstance(result_rec, dict)
                or config_rec.get("kind") != "config"
                or result_rec.get("kind") != "result"
                or config_rec.get("hash") != config_hash
                or result_rec.get("hash") != config_hash):
            return None
        config_dict = config_rec.get("config")
        stats = result_rec.get("stats")
        if not isinstance(config_dict, dict) or not isinstance(stats, dict):
            return None
        return config_dict, stats

    def has(self, config: RunConfig) -> bool:
        return self.load(config) is not None

    def hashes(self) -> list[str]:
        """Hashes of every shard file present (validity not checked)."""
        return sorted(path.name[:-len(SHARD_SUFFIX)]
                      for path in self.root.glob(f"*{SHARD_SUFFIX}"))

    def evict(self, config_hash: str) -> None:
        """Drop one shard (and its failure record) if present."""
        self.shard_path(config_hash).unlink(missing_ok=True)
        self.clear_error(config_hash)

    # -- failure records ---------------------------------------------------

    def store_error(self, config_hash: str, info: dict) -> pathlib.Path:
        path = self.error_path(config_hash)
        tmp = self._temp_file(config_hash)
        try:
            tmp.write_text(canonical_dumps(info) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def load_error(self, config_hash: str) -> Optional[dict]:
        try:
            data = json.loads(self.error_path(config_hash).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def clear_error(self, config_hash: str) -> None:
        self.error_path(config_hash).unlink(missing_ok=True)
