"""Churn determinism: one config, one SLOReport, byte for byte.

The service layer's reporting contract is that a
:class:`~repro.service.ServiceRunConfig` maps to a byte-identical
:class:`~repro.service.SLOReport` however it executes — fresh in this
process, resumed from a mid-run checkpoint, or inside a spawned
campaign worker interpreter.  These tests pin all three paths against
each other; if any diverges, the campaign cache and the CLI's
``--repeat`` signature check stop being trustworthy.
"""

import dataclasses
import json
import subprocess
import sys

from repro.campaign import ResultCache, RunConfig, run_and_store
from repro.campaign.spec import canonical_dumps
from repro.checkpoint import Execution
from repro.service import (
    ServiceRunConfig,
    ServiceSession,
    run_service,
)

#: Small but real: several concurrent flows, both classes, teardowns.
CONFIG = ServiceRunConfig(seed=20260808, width=3, height=3,
                          requests=40, arrival_period_ticks=3,
                          hold_ticks=80)


def report_bytes(report):
    return canonical_dumps(report.as_dict()).encode()


class TestFreshRuns:
    def test_byte_identical_reports(self):
        first = run_service(CONFIG)
        second = run_service(CONFIG)
        assert report_bytes(first) == report_bytes(second)
        assert first.signature() == second.signature()
        assert first.requests_total == 40  # a real run, not a stub

    def test_seed_actually_matters(self):
        other = dataclasses.replace(CONFIG, seed=CONFIG.seed + 1)
        assert run_service(CONFIG).signature() != \
            run_service(other).signature()

    def test_threshold_changes_report(self):
        other = dataclasses.replace(CONFIG, util_threshold_pct=30,
                                    queue_limit=4)
        assert run_service(CONFIG).signature() != \
            run_service(other).signature()


class TestResumedRuns:
    @staticmethod
    def how(tmp_path):
        return Execution(checkpoint_dir=str(tmp_path / "ckpts"),
                         checkpoint_interval=4000)

    def test_resume_from_mid_run_checkpoint_is_identical(self, tmp_path):
        reference = run_service(CONFIG)
        checkpointed = run_service(CONFIG, execution=self.how(tmp_path))
        assert report_bytes(checkpointed) == report_bytes(reference)

        checkpoints = sorted(
            (tmp_path / "ckpts").glob("ckpt-*.json"),
            key=lambda p: int(p.name.split("-")[1]))
        assert len(checkpoints) >= 2, "run too short to test resume"
        # Resume from the *first* checkpoint — the maximal replay.
        document = json.loads(checkpoints[0].read_text())
        session = ServiceSession.restore(CONFIG, document["state"])
        resumed = session.run()
        assert report_bytes(resumed) == report_bytes(reference)

    def test_open_session_resumes_from_latest(self, tmp_path):
        reference = run_service(CONFIG)
        run_service(CONFIG, execution=self.how(tmp_path))
        session = ServiceSession.open(CONFIG, execution=self.how(tmp_path))
        assert session.network.cycle > 0  # genuinely restored
        resumed = session.run()
        assert report_bytes(resumed) == report_bytes(reference)


class TestSpawnedWorker:
    CAMPAIGN_CONFIG = RunConfig(
        workload="churn", width=3, height=3, requests=40,
        arrival_period_ticks=3, hold_ticks=80, seed=20260808)

    def shard_bytes(self, tmp_path, name, config):
        cache = ResultCache(tmp_path / name)
        run_and_store(config, cache)
        return cache.shard_path(config.content_hash()).read_bytes()

    def test_spawned_interpreter_bytes_identical(self, tmp_path):
        local = self.shard_bytes(tmp_path, "local", self.CAMPAIGN_CONFIG)
        remote_cache = tmp_path / "remote"
        script = (
            "import json, sys\n"
            "from repro.campaign import ResultCache, RunConfig, "
            "run_and_store\n"
            "config = RunConfig.from_dict(json.loads(sys.argv[1]))\n"
            "run_and_store(config, ResultCache(sys.argv[2]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script,
             self.CAMPAIGN_CONFIG.canonical_json(), str(remote_cache)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        remote = (remote_cache
                  / f"{self.CAMPAIGN_CONFIG.content_hash()}.jsonl"
                  ).read_bytes()
        assert remote == local

    def test_campaign_stats_embed_the_slo_report(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_and_store(self.CAMPAIGN_CONFIG, cache)
        shard = cache.shard_path(
            self.CAMPAIGN_CONFIG.content_hash()).read_text()
        stats = json.loads(shard.splitlines()[-1])["stats"]
        assert stats["workload"] == "churn"
        assert stats["signature"] == run_service(CONFIG).signature()
        assert stats["slo"]["ok"] is True
