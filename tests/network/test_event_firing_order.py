"""Deterministic same-cycle firing order in the event scheduler.

When several components are due on the same cycle, the event scheduler
must step them in *registration order* — exactly the order the oracle's
per-cycle loop uses.  That order must be reproducible across
fresh runs, across a checkpoint/resume (the scheduler queue is rebuilt
from component state, never serialized), and across interpreter
processes (no set/dict iteration order or hash seed may leak into it).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.network.engine import SynchronousEngine
from tests.reference import assert_ran_as


class _Recorder:
    """Fires every ``period`` cycles and logs (cycle, name) on fire."""

    def __init__(self, name, period, log):
        self.name = name
        self.period = period
        self.log = log
        self.fired = 0

    def step(self, cycle):
        if cycle % self.period == 0:
            self.fired += 1
            self.log.append((cycle, self.name))

    def next_event_cycle(self, cycle):
        if cycle % self.period == 0:
            return cycle
        return cycle + (self.period - cycle % self.period)

    def state(self):
        return {"fired": self.fired}

    def load_state(self, state):
        self.fired = int(state["fired"])


NAMES = ("delta", "alpha", "charlie", "bravo")  # not sorted on purpose


def _build(log, mode="event"):
    engine = SynchronousEngine(mode=mode)
    recorders = {}
    for name in NAMES:
        recorder = _Recorder(name, 10, log)
        engine.add_component(recorder)
        recorders[name] = recorder
    return engine, recorders


def _run_log(cycles, mode="event"):
    log = []
    engine, _ = _build(log, mode)
    engine.run(cycles)
    assert_ran_as(engine, mode)
    return log


class _Churner:
    """At its trigger cycle, removes a recorder and re-registers it."""

    def __init__(self, engine, target, trigger):
        self.engine = engine
        self.target = target
        self.trigger = trigger
        self.done = False

    def step(self, cycle):
        if not self.done and cycle >= self.trigger:
            self.done = True
            self.engine.remove_component(self.target)
            self.engine.add_component(self.target)
            self.engine.wake(self.target)

    def next_event_cycle(self, cycle):
        if self.done:
            return None
        return max(cycle, self.trigger)


def _run_churn_log(mode):
    log = []
    engine, recorders = _build(log, mode)
    churner = _Churner(engine, recorders["delta"], trigger=13)
    engine.add_component(churner)
    engine.run(100)
    assert_ran_as(engine, mode)
    return log


class TestFiringOrder:
    def test_same_cycle_order_is_registration_order(self):
        log = _run_log(100)
        assert log, "recorders never fired"
        for start in range(0, len(log), len(NAMES)):
            burst = log[start:start + len(NAMES)]
            cycles = {cycle for cycle, _ in burst}
            assert len(cycles) == 1  # all due the same cycle
            assert tuple(name for _, name in burst) == NAMES

    def test_matches_exact_mode_order(self):
        assert _run_log(500, "event") == _run_log(500, "exact")

    def test_stable_across_fresh_runs(self):
        assert _run_log(500) == _run_log(500)

    def test_stable_across_checkpoint_resume(self):
        whole = _run_log(400)

        log = []
        engine, recorders = _build(log)
        engine.run(200)
        snapshot = {"engine": engine.state(),
                    "recorders": {name: recorder.state()
                                  for name, recorder in
                                  recorders.items()}}
        snapshot = json.loads(json.dumps(snapshot))  # a real round-trip

        resumed_log = []
        resumed, resumed_recorders = _build(resumed_log)
        for name, recorder in resumed_recorders.items():
            recorder.load_state(snapshot["recorders"][name])
        resumed.load_state(snapshot["engine"])
        resumed.run(200)
        assert log + resumed_log == whole

    def test_removed_then_readded_component_fires_at_new_order(self):
        # "delta" is removed and immediately re-registered at cycle 13
        # — inside the run, so the scheduler queue is never rebuilt.  Its old heap entry (queued for cycle
        # 20 under the old registration index) must not survive: a
        # stale entry matching the re-scheduled cycle would fire delta
        # first instead of last.
        log = _run_churn_log("event")
        burst = [name for cycle, name in log if cycle == 20]
        assert burst == ["alpha", "charlie", "bravo", "delta"]

    def test_churn_remove_readd_matches_exact_mode(self):
        assert _run_churn_log("event") == _run_churn_log("exact")

    def test_stable_across_interpreters(self, tmp_path):
        # A spawned interpreter gets a different hash seed; if the
        # scheduler's tie-break leaked through a set or dict ordering,
        # this would flake.  The driver re-runs this module's scenario
        # and prints the firing log as JSON.
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent("""\
            import json, sys
            sys.path[:0] = sys.argv[1:]
            from tests.network.test_event_firing_order import _run_log
            print(json.dumps(_run_log(500)))
        """))
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONHASHSEED="")
        logs = []
        for _ in range(2):
            output = subprocess.run(
                [sys.executable, str(driver), str(root / "src"),
                 str(root)],
                check=True, capture_output=True, text=True, env=env)
            logs.append(json.loads(output.stdout))
        local = [list(entry) for entry in _run_log(500)]
        assert logs[0] == logs[1] == local
