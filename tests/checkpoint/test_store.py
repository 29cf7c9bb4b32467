"""Tests for the atomic checkpoint store."""

import json
import os

import pytest

from repro.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointStore,
    clear_checkpoints,
    fingerprint_of,
)

FP = fingerprint_of({"workload": "test", "seed": 1})


def make_store(tmp_path, kind="test", fingerprint=FP):
    return CheckpointStore(tmp_path / "ckpts", kind, fingerprint)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        state = {"cycle": 500, "nested": {"rng": [1, 2, 3]}}
        path = store.save(500, state)
        assert path.is_file()
        document = store.load(path)
        assert document["cycle"] == 500
        assert document["state"] == state
        assert document["format"] == CHECKPOINT_FORMAT
        assert document["fingerprint"] == FP

    def test_filename_embeds_cycle_and_hash(self, tmp_path):
        store = make_store(tmp_path)
        path = store.save(1200, {"a": 1})
        prefix, cycle, digest = path.stem.split("-")
        assert prefix == "ckpt"
        assert int(cycle) == 1200
        assert len(digest) == 12
        assert path.suffix == ".json"

    def test_identical_state_lands_on_same_name(self, tmp_path):
        store = make_store(tmp_path)
        first = store.save(100, {"a": 1})
        second = store.save(100, {"a": 1})
        assert first == second
        assert len(list(store.directory.glob("ckpt-*.json"))) == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        store = make_store(tmp_path)
        for cycle in (100, 200, 300):
            store.save(cycle, {"cycle": cycle})
        assert not list(store.directory.glob("*.tmp"))
        assert not list(store.directory.glob(".ckpt-*"))

    def test_document_is_canonical_json(self, tmp_path):
        store = make_store(tmp_path)
        path = store.save(1, {"b": 2, "a": 1})
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(CheckpointError, match="not found"):
            store.load(tmp_path / "ckpts" / "ckpt-5-abc.json")

    def test_corrupt_json(self, tmp_path):
        store = make_store(tmp_path)
        bad = tmp_path / "ckpts" / "ckpt-5-abc.json"
        bad.parent.mkdir(parents=True)
        bad.write_text('{"format": 1, "truncated mid-wri')
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load(bad)

    def test_json_but_not_a_checkpoint(self, tmp_path):
        store = make_store(tmp_path)
        bad = tmp_path / "ckpts" / "ckpt-5-abc.json"
        bad.parent.mkdir(parents=True)
        bad.write_text('[1, 2, 3]')
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load(bad)

    def test_format_mismatch(self, tmp_path):
        store = make_store(tmp_path)
        path = store.save(5, {"a": 1})
        document = json.loads(path.read_text())
        document["format"] = CHECKPOINT_FORMAT + 1
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="format"):
            store.load(path)

    def test_kind_mismatch(self, tmp_path):
        path = make_store(tmp_path, kind="chaos").save(5, {"a": 1})
        store = make_store(tmp_path, kind="random")
        with pytest.raises(CheckpointError, match="'chaos'"):
            store.load(path)

    def test_fingerprint_mismatch(self, tmp_path):
        path = make_store(tmp_path, fingerprint=FP).save(5, {"a": 1})
        other = make_store(
            tmp_path, fingerprint=fingerprint_of({"seed": 2}))
        with pytest.raises(CheckpointError, match="fingerprint"):
            other.load(path)


    def test_content_or_cycle_contradicting_the_name(self, tmp_path):
        # A checkpoint edited to another cycle and state, or renamed to
        # another one's name, is refused: the name carries the hash.
        store = make_store(tmp_path)
        path = store.save(100, {"a": 1})
        document = json.loads(path.read_text())
        document["cycle"], document["state"] = 5, {"a": 2}
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="hash"):
            store.load(path)
        other = store.save(200, {"a": 1})
        renamed = other.with_name(other.name.replace("-200-", "-300-"))
        other.rename(renamed)
        with pytest.raises(CheckpointError, match="cycle 200"):
            store.load(renamed)
        # A name of another form is not checked against its content.
        free = tmp_path / "mine.json"
        free.write_text(store.save(7, {"b": 1}).read_text())
        assert store.load(free)["cycle"] == 7


class TestLatestAndClear:
    def test_latest_none_when_empty(self, tmp_path):
        assert make_store(tmp_path).latest() is None

    def test_latest_picks_highest_cycle(self, tmp_path):
        store = make_store(tmp_path)
        store.save(100, {"a": 1})
        store.save(900, {"a": 2})
        store.save(500, {"a": 3})
        latest = store.latest()
        assert latest is not None
        assert store.load(latest)["cycle"] == 900

    def test_latest_ignores_unrelated_files(self, tmp_path):
        store = make_store(tmp_path)
        store.save(100, {"a": 1})
        (store.directory / "ckpt-garbage.json").write_text("{}")
        (store.directory / "notes.txt").write_text("hi")
        latest = store.latest()
        assert store.load(latest)["cycle"] == 100

    def test_clear_removes_checkpoints_only(self, tmp_path):
        store = make_store(tmp_path)
        store.save(100, {"a": 1})
        store.save(200, {"a": 2})
        keep = store.directory / "notes.txt"
        keep.write_text("hi")
        store.clear()
        assert not list(store.directory.glob("ckpt-*.json"))
        assert keep.exists()

    def test_clear_checkpoints_missing_directory_is_noop(self, tmp_path):
        clear_checkpoints(tmp_path / "nope")


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert (fingerprint_of({"a": 1, "b": 2})
                == fingerprint_of({"b": 2, "a": 1}))

    def test_differs_on_any_value(self):
        assert (fingerprint_of({"seed": 1})
                != fingerprint_of({"seed": 2}))


class TestCrashConsistency:
    def test_torn_write_is_invisible(self, tmp_path):
        """A reader never observes a half-written checkpoint: the
        temporary file is not a ``ckpt-*.json`` and the rename is
        atomic, so ``latest()`` only ever returns complete files."""
        store = make_store(tmp_path)
        store.save(100, {"a": 1})
        # Simulate a crash mid-write: a stranded temp file.
        stranded = store.directory / ".ckpt-stranded.tmp"
        stranded.write_text('{"format": 1, "cycle": 200, "state"')
        latest = store.latest()
        assert store.load(latest)["cycle"] == 100

    def test_save_failure_cleans_temp(self, tmp_path, monkeypatch):
        store = make_store(tmp_path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            store.save(100, {"a": 1})
        monkeypatch.undo()
        assert not list(store.directory.glob("*.tmp"))
