"""Tests for the campaign runner: pool, cache reuse, retry, quarantine.

Executors handed to worker processes live at module level (and as
picklable callable classes) so they survive both fork and spawn start
methods.
"""

import os
import pathlib
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultCache,
    execute_run,
)


def small_spec(replicas=3, master_seed=11):
    return CampaignSpec(
        name="t", master_seed=master_seed, mode="grid",
        base={"workload": "random", "width": 2, "height": 2,
              "channels": 2, "ticks": 10},
        axes={"replica": list(range(replicas))},
    )


class CrashOnReplica:
    """Raises for one replica, runs everything else normally."""

    def __init__(self, replica):
        self.replica = replica

    def __call__(self, config, execution):
        if config.replica == self.replica:
            raise RuntimeError("poisoned config")
        return execute_run(config, execution)


class DieHardOnReplica:
    """Simulates a segfault/OOM kill: exits without a traceback."""

    def __init__(self, replica):
        self.replica = replica

    def __call__(self, config, execution):
        if config.replica == self.replica:
            os._exit(3)
        return execute_run(config, execution)


class FlakyFirstAttempt:
    """Fails each config's first attempt, succeeds after (via marker
    files on shared disk, visible across worker processes)."""

    def __init__(self, marker_dir):
        self.marker_dir = str(marker_dir)

    def __call__(self, config, execution):
        marker = pathlib.Path(self.marker_dir) / config.content_hash()
        if not marker.exists():
            marker.write_text("seen")
            raise RuntimeError("flaky first attempt")
        return execute_run(config, execution)


class SleepForever:
    def __call__(self, config, execution):
        time.sleep(60)
        return execute_run(config, execution)


def run_campaign(tmp_path, spec=None, **kwargs):
    spec = spec or small_spec()
    kwargs.setdefault("backoff_base", 0.01)
    runner = CampaignRunner(spec, ResultCache(tmp_path / "cache"),
                            **kwargs)
    return runner, runner.run()


class TestHappyPath:
    def test_parallel_run_completes(self, tmp_path):
        progress = []
        runner, report = run_campaign(tmp_path, workers=2,
                                      progress=progress.append)
        assert report.ok
        assert report.total == 3
        assert len(report.executed) == 3
        assert report.cached == []
        assert report.quarantined == []
        assert sorted(report.results) == sorted(report.configs)
        assert len(progress) == 3
        assert progress[-1].startswith("[3/3] ")
        assert runner.metrics.counter("campaign.executed").value == 3

    def test_resume_runs_nothing(self, tmp_path):
        _, first = run_campaign(tmp_path, workers=2)
        _, second = run_campaign(tmp_path, workers=1)
        assert second.executed == []
        assert len(second.cached) == 3
        assert second.signature() == first.signature()

    def test_rerun_ignores_cache(self, tmp_path):
        _, first = run_campaign(tmp_path)
        _, again = run_campaign(tmp_path, reuse_cache=False)
        assert len(again.executed) == 3
        assert again.signature() == first.signature()

    def test_worker_count_does_not_change_results(self, tmp_path):
        _, serial = run_campaign(tmp_path / "w1", workers=1)
        _, parallel = run_campaign(tmp_path / "w2", workers=3)
        assert serial.signature() == parallel.signature()

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_campaign(tmp_path, workers=0)
        with pytest.raises(ValueError):
            run_campaign(tmp_path, max_attempts=0)


class TestFailureHandling:
    def test_poisoned_config_quarantined_rest_completes(self, tmp_path):
        runner, report = run_campaign(
            tmp_path, workers=2, max_attempts=3,
            executor=CrashOnReplica(1))
        assert not report.ok
        assert len(report.executed) == 2
        assert len(report.quarantined) == 1
        bad = report.quarantined[0]
        assert bad.config["replica"] == 1
        assert bad.attempts == 3
        assert "poisoned config" in bad.error
        assert report.retries == 2
        assert runner.metrics.counter("campaign.quarantined").value == 1
        text = "\n".join(report.summary_lines())
        assert "QUARANTINED" in text
        assert bad.config_hash[:8] in text

    def test_hard_death_quarantined_with_exit_code(self, tmp_path):
        _, report = run_campaign(
            tmp_path, max_attempts=2, executor=DieHardOnReplica(0))
        assert len(report.quarantined) == 1
        assert "exited with code 3" in report.quarantined[0].error
        assert len(report.executed) == 2

    def test_flaky_config_retried_to_success(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        _, report = run_campaign(
            tmp_path, workers=2, max_attempts=3,
            executor=FlakyFirstAttempt(markers))
        assert report.ok
        assert report.retries == 3  # each config failed exactly once
        assert len(report.executed) == 3

    def test_timeout_kills_and_quarantines(self, tmp_path):
        spec = small_spec(replicas=1)
        started = time.monotonic()
        _, report = run_campaign(
            tmp_path, spec=spec, max_attempts=1,
            timeout_seconds=0.3, executor=SleepForever())
        assert time.monotonic() - started < 30
        assert len(report.quarantined) == 1
        assert "timed out" in report.quarantined[0].error

    def test_quarantine_does_not_poison_cache(self, tmp_path):
        # After a quarantine, a plain re-run executes the missing
        # config and heals the campaign.
        run_campaign(tmp_path, max_attempts=1,
                     executor=CrashOnReplica(2))
        _, healed = run_campaign(tmp_path, workers=2)
        assert healed.ok
        assert len(healed.cached) == 2
        assert len(healed.executed) == 1
