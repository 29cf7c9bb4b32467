"""``Execution`` says how a run is executed, never what it is.

Three things follow, each checked through the real code path: a
campaign worker that dies hard resumes from its own checkpoints and
still writes the uninterrupted run's shard; a campaign told to run the
oracle really runs it in every worker, and gets the event campaign's
records; and no identity — fingerprint, content hash, derived seed,
checkpoint cycle, report signature — depends on an ``Execution`` value.
"""

import dataclasses
import inspect
import json
import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultCache,
    RunConfig,
    execute_run,
)
from repro.checkpoint import (
    ChaosSession,
    CheckpointStore,
    Execution,
    RandomWorkloadSession,
)
from repro.faults import ChaosConfig
from repro.network.network import MeshNetwork
from repro.service import ServiceSession
from tests.reference import assert_oracle_ran

CHAOS_CELL = {"workload": "chaos", "cycles": 1500, "settle_cycles": 500,
              "cuts": 1, "flaps": 1, "corruptions": 1, "drops": 1,
              "babblers": 1}

#: One cell per workload.
FIVE_CELLS = CampaignSpec(
    name="five", master_seed=21, mode="list",
    base={"width": 4, "height": 4, "channels": 5, "ticks": 100},
    runs=[{"workload": "random"},
          {"workload": "adversarial"},
          CHAOS_CELL,
          {"workload": "chaos-tightness", "seed": 1, "cuts": 1,
           "flaps": 1, "corruptions": 1, "drops": 1},
          {"workload": "churn", "requests": 40,
           "arrival_period_ticks": 3, "hold_ticks": 80}])


def checkpoint_cycles(directory):
    return sorted(int(path.name.split("-")[1])
                  for path in pathlib.Path(directory).glob("ckpt-*.json"))


class DieAfterSecondCheckpoint:
    """First attempt: ``os._exit`` as soon as the run's second
    checkpoint is on disk.  The retry records the cycle its session
    opened at (marker file: visible across worker processes)."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __call__(self, config, execution):
        marker = pathlib.Path(self.marker)
        if not marker.exists():
            marker.write_text("died")
            save, saved = CheckpointStore.save, []

            def save_then_die(store, cycle, state):
                path = save(store, cycle, state)
                saved.append(cycle)
                if len(saved) == 2:
                    os._exit(9)
                return path

            CheckpointStore.save = save_then_die  # this worker only
        else:
            opened = ChaosSession.open.__func__

            def recording_open(cls, *spec, execution):
                session = opened(cls, *spec, execution=execution)
                marker.write_text(str(session.network.cycle))
                return session

            ChaosSession.open = classmethod(recording_open)
        return execute_run(config, execution)


class TestWorkerRecovery:
    SPEC = CampaignSpec(name="recovery", master_seed=5, base=CHAOS_CELL)

    def test_a_killed_worker_resumes_and_writes_the_same_shard(
            self, tmp_path):
        (config,) = self.SPEC.expand()
        shard = f"{config.content_hash()}.jsonl"
        how = Execution(checkpoint_interval=500)

        plain = CampaignRunner(self.SPEC, ResultCache(tmp_path / "plain"),
                               execution=how).run()
        assert plain.ok and plain.retries == 0

        marker = tmp_path / "marker"
        cache = ResultCache(tmp_path / "killed")
        report = CampaignRunner(
            self.SPEC, cache, execution=how, max_attempts=2,
            backoff_base=0.01,
            executor=DieAfterSecondCheckpoint(marker)).run()
        assert report.ok and report.retries == 1
        # The retry started at the second checkpoint, not at cycle 0 ...
        assert marker.read_text() == "1000"
        # ... finished the uninterrupted run's shard, byte for byte ...
        assert ((cache.root / shard).read_bytes()
                == (tmp_path / "plain" / shard).read_bytes())
        # ... and its checkpoints went once the shard was stored.
        directory = cache.root / "checkpoints" / config.content_hash()
        assert directory.is_dir()
        assert checkpoint_cycles(directory) == []

    def test_a_runner_has_no_single_file_to_resume(self, tmp_path):
        with pytest.raises(ValueError, match="resume_from"):
            CampaignRunner(self.SPEC, ResultCache(tmp_path / "cache"),
                           execution=Execution(resume_from="ckpt-1.json"))


class AssertOracleRan:
    """``execute_run`` that fails its worker unless every network the
    workload ran was stepped by the bare per-cycle loop."""

    def __call__(self, config, execution):
        built, init = [], MeshNetwork.__init__

        def recording_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            built.append(net)

        MeshNetwork.__init__ = recording_init  # this worker only
        stats = execute_run(config, execution)
        ran = [net for net in built if net.cycle]
        assert ran, "the workload ran no network"
        for net in ran:
            assert_oracle_ran(net.engine)
        return stats


class TestOracleCampaign:
    def test_every_worker_runs_the_oracle_and_records_agree(self, tmp_path):
        event = CampaignRunner(
            FIVE_CELLS, ResultCache(tmp_path / "event"), workers=2).run()
        exact = CampaignRunner(
            FIVE_CELLS, ResultCache(tmp_path / "exact"), workers=2,
            execution=Execution(engine="exact"), max_attempts=1,
            executor=AssertOracleRan()).run()
        assert event.ok and exact.ok, exact.summary_lines()
        assert sorted(exact.results) == sorted(event.results)
        assert len(exact.executed) == 5

        signed_mode = {"adversarial": "tightness",
                       "chaos-tightness": "fault_tightness"}
        for config_hash, theirs in event.results.items():
            ours = json.loads(json.dumps(exact.results[config_hash]))
            theirs = json.loads(json.dumps(theirs))
            block = signed_mode.get(ours["workload"])
            if block is not None:
                # The two measure_* reports record and sign their mode
                # (the frozen benchmark hashes that signature): the one
                # place a run's stats still name how it was executed.
                assert ours.pop("signature") != theirs.pop("signature")
                assert ours[block].pop("engine") == "exact"
                assert theirs[block].pop("engine") == "event"
            assert ours == theirs, ours["workload"]


CHAOS = ChaosConfig(seed=11, cycles=1200, settle_cycles=600)
RUN = RunConfig(workload="chaos", cycles=1200, settle_cycles=600, seed=11,
                cuts=1, corruptions=1)
INTERVAL = 400
_reference = {}


def reference():
    """One default-``Execution`` run of each subject, computed once."""
    if not _reference:
        session = ChaosSession(CHAOS)
        _reference.update(
            signature=session.run().signature(),
            fingerprint=session.fingerprint(),
            cycles=list(range(INTERVAL, CHAOS.cycles
                              + CHAOS.settle_cycles + 1, INTERVAL)),
            stats=execute_run(RUN))
    return _reference


class TestNothingDependsOnExecution:
    @settings(max_examples=8, deadline=None)
    @given(engine=st.sampled_from(["event", "exact"]),
           cadence=st.sampled_from([None, 0, 50]),
           checkpointing=st.booleans(),
           resume_at=st.integers(min_value=0, max_value=99))
    def test_identities_and_signatures(self, tmp_path_factory, engine,
                                       cadence, checkpointing, resume_at):
        expected = reference()
        directory = tmp_path_factory.mktemp("ckpts")
        how = Execution(
            engine=engine, check_every=cadence,
            checkpoint_dir=str(directory) if checkpointing else None,
            checkpoint_interval=INTERVAL)

        session = ChaosSession.open(CHAOS, execution=how)
        assert session.network.engine.mode == engine
        assert session.run().signature() == expected["signature"]
        assert session.fingerprint() == expected["fingerprint"]
        assert session.invariant_failures == []
        if checkpointing:
            # The digest in a file name covers effort counters and the
            # next invariant check, which are how; the cycles are what.
            assert checkpoint_cycles(directory) == expected["cycles"]
            written = sorted(directory.glob("ckpt-*.json"))
            resumed = ChaosSession.open(CHAOS, execution=dataclasses.replace(
                how, resume_from=str(written[resume_at % len(written)])))
            assert resumed.network.cycle > 0
            assert resumed.run().signature() == expected["signature"]
            assert checkpoint_cycles(directory) == expected["cycles"]

        stats = execute_run(RUN, dataclasses.replace(how,
                                                     checkpoint_dir=None))
        assert stats == expected["stats"]
        assert stats["config_hash"] == RUN.content_hash()

    def test_no_identity_takes_an_execution(self):
        # Shown by absence: nothing that hashes has a parameter through
        # which a mode, a cadence or a directory could reach it.
        for hashed in (RunConfig.content_hash, RunConfig.canonical_json,
                       RunConfig.to_dict, CampaignSpec.expand,
                       ChaosSession.fingerprint_for,
                       RandomWorkloadSession.fingerprint_for,
                       ServiceSession.fingerprint_for):
            assert "execution" not in inspect.signature(hashed).parameters
        for config in (ChaosConfig, RunConfig):
            assert "engine" not in {
                field.name for field in dataclasses.fields(config)}
