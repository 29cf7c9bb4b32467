"""Tests for periodic metrics snapshots (engine cadence + FF)."""

import pytest

from repro.network.engine import SynchronousEngine
from repro.observability import MetricsRegistry, SnapshotEmitter


class _IdleComponent:
    """A component with no work ever (lets the engine fast-forward)."""

    def step(self, cycle):
        pass

    def next_event_cycle(self, cycle):
        return None


class TestEmitter:
    def test_fires_on_exact_period_grid(self):
        registry = MetricsRegistry()
        emitter = SnapshotEmitter(registry, period=10)
        for cycle in range(35):
            emitter.step(cycle)
        assert [s["cycle"] for s in emitter.snapshots] == [10, 20, 30]

    def test_stall_yields_one_catchup_not_a_burst(self):
        registry = MetricsRegistry()
        emitter = SnapshotEmitter(registry, period=10)
        emitter.step(47)  # stepped next at cycle 47, three periods late
        assert [s["cycle"] for s in emitter.snapshots] == [47]
        assert emitter.next_due_cycle == 50  # back on the grid

    def test_snapshot_content_and_sink(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        seen = []
        emitter = SnapshotEmitter(registry, period=5, sink=seen.append)
        emitter.step(5)
        assert emitter.latest()["hits"] == 3
        assert emitter.latest()["cycle"] == 5
        assert seen == emitter.snapshots

    def test_keep_bounds_history(self):
        emitter = SnapshotEmitter(MetricsRegistry(), period=1, keep=2)
        for cycle in range(1, 6):
            emitter.step(cycle)
        assert [s["cycle"] for s in emitter.snapshots] == [4, 5]

    def test_start_cycle_offsets_first_snapshot(self):
        emitter = SnapshotEmitter(MetricsRegistry(), period=10,
                                  start_cycle=25)
        assert emitter.next_due_cycle == 35

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SnapshotEmitter(MetricsRegistry(), period=0)
        with pytest.raises(ValueError):
            SnapshotEmitter(MetricsRegistry(), period=1, keep=0)

    def test_latest_empty(self):
        assert SnapshotEmitter(MetricsRegistry(), period=1).latest() is None


class TestEngineIntegration:
    def test_fast_forward_stops_on_snapshot_cycles(self):
        """An otherwise idle engine still snapshots on the exact grid."""
        registry = MetricsRegistry()
        engine = SynchronousEngine()
        engine.add_component(_IdleComponent())
        emitter = SnapshotEmitter(registry, period=100)
        engine.add_component(emitter)
        engine.run(1000)
        # run(1000) advances to cycle 1000 without stepping it, so the
        # last snapshot lands at 900 in both engine modes.
        assert [s["cycle"] for s in emitter.snapshots] == [
            100, 200, 300, 400, 500, 600, 700, 800, 900,
        ]
        # The idle spans between snapshots were skipped, not stepped.
        assert engine.cycles_fast_forwarded > 0
        assert engine.cycles_stepped + engine.cycles_fast_forwarded == 1000

    def test_cadence_identical_with_and_without_fast_forward(self):
        def cycles(mode):
            engine = SynchronousEngine(mode=mode)
            engine.add_component(_IdleComponent())
            emitter = SnapshotEmitter(MetricsRegistry(), period=37)
            engine.add_component(emitter)
            engine.run(500)
            return [s["cycle"] for s in emitter.snapshots]

        assert cycles("event") == cycles("exact")
