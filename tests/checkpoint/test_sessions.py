"""In-process tests for the checkpointable sessions.

Byte-identical resume equivalence is proven cross-process in
``test_resume_equivalence.py`` (two runs in one process draw different
process-global packet ids); these tests cover the
session mechanics — checkpoint cadence, fingerprints, open-or-resume,
invariant plumbing — where same-process comparisons are valid.
"""

import pytest

from repro.checkpoint import (
    ChaosSession,
    CheckpointError,
    CheckpointStore,
    Execution,
    RandomWorkloadSession,
)
from repro.faults import ChaosConfig

CONFIG = ChaosConfig(cycles=2000, settle_cycles=500)


def chaos_store(tmp_path, config=CONFIG):
    return CheckpointStore(tmp_path / "ckpts", "chaos",
                           ChaosSession.fingerprint_for(config))


def random_store(tmp_path, seed=9):
    return CheckpointStore(
        tmp_path / "ckpts", "random",
        RandomWorkloadSession.fingerprint_for(3, 3, 4, 40, seed))


def into(store, interval):
    return Execution(checkpoint_dir=str(store.directory),
                     checkpoint_interval=interval)


class TestLabels:
    def test_a_run_made_twice_records_the_same_labels(self):
        # Automatic labels are numbered per channel manager, so an
        # earlier run in the same process cannot shift them.
        labels = []
        for __ in range(2):
            session = RandomWorkloadSession.open(6, 6, 40, 200, 3)
            session.run()
            labels.append([record.connection_label
                           for record in session.network.log.records])
        assert labels[0] == labels[1]
        assert "channel-0" in labels[0]


class TestCheckpointCadence:
    def test_chaos_checkpoints_on_interval_multiples(self, tmp_path):
        store = chaos_store(tmp_path)
        ChaosSession.open(CONFIG, execution=into(store, 400)).run()
        cycles = sorted(int(p.name.split("-")[1])
                        for p in store.directory.glob("ckpt-*.json"))
        assert cycles
        assert all(c % 400 == 0 for c in cycles)
        # Checkpoints span the run, including the settle phase.
        assert cycles[-1] >= CONFIG.cycles

    def test_random_checkpoints_on_interval_multiples(self, tmp_path):
        store = random_store(tmp_path)
        RandomWorkloadSession.open(3, 3, 4, 40, 9,
                                   execution=into(store, 160)).run()
        cycles = sorted(int(p.name.split("-")[1])
                        for p in store.directory.glob("ckpt-*.json"))
        assert cycles
        assert all(c % 160 == 0 for c in cycles)

    def test_no_store_means_no_files(self, tmp_path):
        RandomWorkloadSession(3, 3, 4, 20, 9).run()
        assert not list(tmp_path.rglob("ckpt-*.json"))

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            RandomWorkloadSession.open(
                3, 3, 4, 20, 9, execution=into(random_store(tmp_path), 0))


class TestFingerprints:
    def test_chaos_fingerprint_pins_config(self):
        base = ChaosSession.fingerprint_for(CONFIG)
        assert base == ChaosSession.fingerprint_for(CONFIG)
        bumped = ChaosConfig(cycles=2000, settle_cycles=500, seed=99)
        assert base != ChaosSession.fingerprint_for(bumped)

    def test_random_fingerprint_pins_every_knob(self):
        base = RandomWorkloadSession.fingerprint_for(3, 3, 4, 40, 9)
        assert base == RandomWorkloadSession.fingerprint_for(3, 3, 4, 40, 9)
        for other in [(4, 3, 4, 40, 9), (3, 3, 5, 40, 9),
                      (3, 3, 4, 41, 9), (3, 3, 4, 40, 10)]:
            assert base != RandomWorkloadSession.fingerprint_for(*other)

    def test_kinds_do_not_collide(self, tmp_path):
        random_path = random_store(tmp_path).save(0, {"x": 1})
        with pytest.raises(CheckpointError):
            chaos_store(tmp_path).load(random_path)


class TestOpenOrResume:
    def test_open_random_fresh_when_empty(self, tmp_path):
        session = RandomWorkloadSession.open(
            3, 3, 4, 40, 9, execution=into(random_store(tmp_path), 160))
        assert session.network.cycle == 0
        assert session.phase == "main"

    def test_open_random_resumes_latest(self, tmp_path):
        store = random_store(tmp_path)
        RandomWorkloadSession.open(3, 3, 4, 40, 9,
                                   execution=into(store, 160)).run()
        latest_cycle = store.load(store.latest())["cycle"]
        session = RandomWorkloadSession.open(3, 3, 4, 40, 9,
                                             execution=into(store, 160))
        assert session.network.cycle == latest_cycle
        # Finishing the resumed session completes the workload.
        net = session.run()
        assert session.phase == "done"
        assert net.log.records

    def test_open_chaos_resumes_latest(self, tmp_path):
        store = chaos_store(tmp_path)
        ChaosSession.open(CONFIG, execution=into(store, 400)).run()
        latest_cycle = store.load(store.latest())["cycle"]
        session = ChaosSession.open(CONFIG, execution=into(store, 400))
        assert session.network.cycle == latest_cycle
        report = session.run()
        assert report.cycles == CONFIG.cycles + CONFIG.settle_cycles

    def test_restore_rejects_unknown_channel_label(self, tmp_path):
        store = chaos_store(tmp_path)
        ChaosSession.open(CONFIG, execution=into(store, 400)).run()
        document = store.load(store.latest())
        document["state"]["channel_labels"].append("no-such-channel")
        with pytest.raises(CheckpointError, match="no-such-channel"):
            ChaosSession.restore(CONFIG, document["state"])


class TestInvariantPlumbing:
    def test_healthy_run_reports_no_failures(self):
        session = RandomWorkloadSession(
            3, 3, 4, 40, 9, execution=Execution(check_every=50))
        session.run()
        assert session.invariant_failures == []

    def test_restore_checks_once(self, tmp_path, monkeypatch):
        store = random_store(tmp_path)
        RandomWorkloadSession.open(3, 3, 4, 40, 9,
                                   execution=into(store, 160)).run()
        document = store.load(store.latest())
        calls = []
        monkeypatch.setattr(
            RandomWorkloadSession, "_check_invariants",
            lambda self: calls.append(self.network.cycle))
        RandomWorkloadSession.restore(
            3, 3, 4, 40, 9, document["state"],
            execution=Execution(check_every=50))
        assert len(calls) == 1
        # Without the flag, no check runs on restore.
        calls.clear()
        RandomWorkloadSession.restore(3, 3, 4, 40, 9, document["state"])
        assert calls == []

    def test_chaos_report_carries_failures(self, tmp_path, monkeypatch):
        session = ChaosSession(CONFIG,
                               execution=Execution(check_every=500))
        session.invariant_failures.append("cycle 0 (0, 0): planted")
        report = session.run()
        assert "cycle 0 (0, 0): planted" in report.invariant_failures
