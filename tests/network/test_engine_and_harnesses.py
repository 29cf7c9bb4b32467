"""Tests for the synchronous engine and the experiment harnesses."""

import pytest

from repro.network import LinkConnection, SingleLinkHarness, SynchronousEngine
from repro.network.loopback import LoopbackHarness


class Ticker:
    def __init__(self):
        self.cycles = []

    def step(self, cycle):
        self.cycles.append(cycle)


class TestEngine:
    def test_components_step_in_order(self):
        engine = SynchronousEngine()
        a, b = Ticker(), Ticker()
        engine.add_component(a)
        engine.add_component(b)
        engine.run(3)
        assert a.cycles == b.cycles == [0, 1, 2]
        assert engine.cycle == 3

    def test_wiring_runs_each_cycle(self):
        engine = SynchronousEngine()
        copies = []
        engine.add_wiring(lambda: copies.append(True))
        engine.run(5)
        assert len(copies) == 5

    def test_run_until(self):
        engine = SynchronousEngine()
        ticker = Ticker()
        engine.add_component(ticker)
        engine.run_until(lambda: len(ticker.cycles) >= 4)
        assert engine.cycle == 4

    def test_run_until_timeout(self):
        engine = SynchronousEngine()
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=10)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            SynchronousEngine().run(-1)

    def test_remove_component(self):
        engine = SynchronousEngine()
        a, b = Ticker(), Ticker()
        engine.add_component(a)
        engine.add_component(b)
        engine.run(2)
        engine.remove_component(a)
        engine.run(2)
        assert a.cycles == [0, 1]
        assert b.cycles == [0, 1, 2, 3]

    def test_remove_unknown_component_rejected(self):
        engine = SynchronousEngine()
        with pytest.raises(ValueError, match="not registered"):
            engine.remove_component(Ticker())


class Alarm:
    """Skippable component (has ``next_event_cycle``) firing at fixed
    cycles."""

    def __init__(self, fire_cycles):
        self.fire_cycles = sorted(fire_cycles)
        self.fired = []

    def step(self, cycle):
        if cycle in self.fire_cycles:
            self.fired.append(cycle)

    def next_event_cycle(self, cycle):
        for fire in self.fire_cycles:
            if fire >= cycle:
                return fire
        return None


class TestRunUntilSemantics:
    def test_true_predicate_advances_zero_cycles(self):
        engine = SynchronousEngine()
        engine.add_component(Ticker())
        assert engine.run_until(lambda: True) == 0
        assert engine.cycle == 0

    def test_returns_first_cycle_predicate_holds_post_step(self):
        engine = SynchronousEngine()
        ticker = Ticker()
        engine.add_component(ticker)
        # After the step of cycle 0 the list is [0]; cycle is already 1.
        assert engine.run_until(lambda: ticker.cycles == [0]) == 1

    def test_predicate_sees_wiring_effects(self):
        engine = SynchronousEngine()
        engine.add_component(Ticker())
        copied = []
        engine.add_wiring(lambda: copied.append(engine.cycle))
        assert engine.run_until(lambda: len(copied) >= 3) == 3

    def test_timeout_counts_actual_cycles_advanced(self):
        engine = SynchronousEngine()
        engine.add_component(Ticker())
        start = engine.cycle
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=10)
        assert engine.cycle == start + 10

    def test_timeout_counts_fast_forwarded_cycles(self):
        engine = SynchronousEngine()
        engine.add_component(Alarm([]))  # fully quiescent fabric
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=1000)
        assert engine.cycle == 1000
        assert engine.cycles_fast_forwarded == 1000
        assert engine.cycles_stepped == 0

    def test_negative_max_cycles_rejected(self):
        with pytest.raises(ValueError):
            SynchronousEngine().run_until(lambda: True, max_cycles=-1)

    def test_state_predicate_sees_same_cycle_with_fast_forward(self):
        """A state-based predicate observes its first-true cycle
        identically on the oracle loop and across scheduler jumps."""
        def first_true(mode):
            engine = SynchronousEngine(mode=mode)
            alarm = Alarm([25])
            engine.add_component(alarm)
            return engine.run_until(lambda: bool(alarm.fired))

        assert first_true("exact") == first_true("event") == 26


class RemoveDuringStep:
    """Removes target components from inside its own step."""

    def __init__(self, engine, remove_at, targets):
        self.engine = engine
        self.remove_at = remove_at
        self.targets = targets
        self.cycles = []

    def step(self, cycle):
        self.cycles.append(cycle)
        if cycle == self.remove_at:
            for target in self.targets:
                self.engine.remove_component(target)


class TestRemoveComponentDuringStep:
    """Snapshot semantics, on the oracle loop and the scheduler alike."""

    @staticmethod
    def _engines():
        return [SynchronousEngine(mode=mode) for mode in ("exact", "event")]

    def test_self_removal_does_not_skip_neighbours(self):
        for engine in self._engines():
            before = Ticker()
            remover = RemoveDuringStep(engine, remove_at=2, targets=())
            remover.targets = (remover,)
            after = Ticker()
            engine.add_component(before)
            engine.add_component(remover)
            engine.add_component(after)
            engine.run(5)
            # The neighbour registered after the remover still stepped
            # on the removal cycle, exactly once.
            assert before.cycles == [0, 1, 2, 3, 4]
            assert after.cycles == [0, 1, 2, 3, 4]
            # The remover finished its own removal cycle, then stopped.
            assert remover.cycles == [0, 1, 2]

    def test_removing_later_neighbour_still_steps_it_this_cycle(self):
        for engine in self._engines():
            victim = Ticker()
            remover = RemoveDuringStep(engine, remove_at=1,
                                       targets=(victim,))
            engine.add_component(remover)
            engine.add_component(victim)
            engine.run(4)
            # Snapshot semantics: the victim was already in this
            # cycle's snapshot, so removal takes effect at the next
            # cycle boundary.
            assert victim.cycles == [0, 1]
            assert remover.cycles == [0, 1, 2, 3]

    def test_removing_earlier_neighbour_never_double_steps(self):
        for engine in self._engines():
            victim = Ticker()
            remover = RemoveDuringStep(engine, remove_at=1,
                                       targets=(victim,))
            engine.add_component(victim)
            engine.add_component(remover)
            engine.run(4)
            assert victim.cycles == [0, 1]
            assert remover.cycles == [0, 1, 2, 3]


class TestFastForward:
    def test_skips_idle_spans_and_fires_alarms_exactly(self):
        engine = SynchronousEngine()
        alarm = Alarm([10, 50])
        engine.add_component(alarm)
        engine.run(100)
        assert alarm.fired == [10, 50]
        assert engine.cycle == 100
        assert engine.cycles_stepped + engine.cycles_fast_forwarded == 100
        assert engine.cycles_fast_forwarded > 90

    def test_equivalent_to_per_cycle_loop(self):
        def run(mode):
            engine = SynchronousEngine(mode=mode)
            alarm = Alarm([3, 7, 64, 65, 900])
            engine.add_component(alarm)
            engine.run(1000)
            return alarm.fired, engine.cycle

        assert run("exact") == run("event")

    def test_legacy_component_pins_per_cycle_loop(self):
        engine = SynchronousEngine()
        ticker = Ticker()           # no next_event_cycle
        engine.add_component(ticker)
        engine.add_component(Alarm([]))
        engine.run(50)
        assert engine.cycles_fast_forwarded == 0
        assert ticker.cycles == list(range(50))

    def test_wiring_without_idle_check_pins_per_cycle_loop(self):
        engine = SynchronousEngine()
        engine.add_component(Alarm([]))
        runs = []
        engine.add_wiring(lambda: runs.append(True))
        engine.run(20)
        assert engine.cycles_fast_forwarded == 0
        assert len(runs) == 20

    def test_busy_wiring_idle_check_blocks_skipping(self):
        engine = SynchronousEngine()
        engine.add_component(Alarm([]))
        runs = []
        engine.add_wiring(lambda: runs.append(True),
                          idle_check=lambda: False)
        engine.run(20)
        assert engine.cycles_fast_forwarded == 0
        assert len(runs) == 20

    def test_idle_wiring_is_skipped(self):
        engine = SynchronousEngine()
        engine.add_component(Alarm([5]))
        runs = []
        engine.add_wiring(lambda: runs.append(True),
                          idle_check=lambda: True)
        engine.run(20)
        assert engine.cycles_fast_forwarded > 0
        # Wiring only ran on the cycles that actually stepped.
        assert len(runs) == engine.cycles_stepped

    def test_disabled_fast_forward_steps_every_cycle(self):
        engine = SynchronousEngine(mode="exact")
        engine.add_component(Alarm([]))
        engine.run(30)
        assert engine.cycles_stepped == 30
        assert engine.cycles_fast_forwarded == 0


class TestLoopbackHarness:
    def test_rejects_header_only_packet(self):
        with pytest.raises(ValueError):
            LoopbackHarness().send_best_effort(4)

    def test_timeout_reported(self):
        harness = LoopbackHarness()
        with pytest.raises(TimeoutError):
            # Never step enough cycles for delivery.
            harness.measure_latency(64, max_cycles=5)


class TestSingleLinkHarness:
    def test_validates_connection_count(self):
        connections = [LinkConnection(f"c{i}", 4, 4, 1) for i in range(5)]
        with pytest.raises(ValueError):
            SingleLinkHarness(connections)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            LinkConnection("bad", delay=0, i_min=4, packets=1)

    def test_single_connection_full_service(self):
        harness = SingleLinkHarness(
            [LinkConnection("only", delay=4, i_min=4, packets=50)],
            best_effort_backlog=False,
        )
        harness.run(4_000)  # 200 ticks -> 50 packets of 20 bytes
        assert harness.service_bytes("only") == 1000
        assert harness.deadline_misses == 0

    def test_best_effort_disabled(self):
        harness = SingleLinkHarness(
            [LinkConnection("only", delay=8, i_min=8, packets=10)],
            best_effort_backlog=False,
        )
        harness.run(2_000)
        assert harness.service_bytes("best-effort") == 0

    def test_horizon_irrelevant_for_on_time_arrivals(self):
        """The harness feeds packets exactly at their logical arrival
        time, so they are never early and the horizon cannot change
        anything — a useful control for the horizon experiments."""
        def finish_time(horizon):
            harness = SingleLinkHarness(
                [LinkConnection("c", delay=16, i_min=16, packets=5)],
                horizon=horizon, best_effort_backlog=False,
            )
            harness.run(3_000)
            series = harness.trace.series.get("c", [])
            return series[-1][0] if series else None

        assert finish_time(horizon=64) == finish_time(horizon=0)

    def test_service_table_rows(self):
        harness = SingleLinkHarness(
            [LinkConnection("c", delay=4, i_min=4, packets=100)],
        )
        harness.run(3_000)
        rows = harness.service_table(sample_every=1000)
        assert len(rows) == 3
        assert rows[-1]["cycle"] == 3000
        assert rows[0]["c"] <= rows[1]["c"] <= rows[2]["c"]
