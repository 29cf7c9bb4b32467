"""Cycle accounting: stepped + skipped == advanced.

``cycles_stepped`` and ``cycles_fast_forwarded`` partition the cycles
the engine advances; their sum must equal ``engine.cycle`` exactly —
on the event scheduler, where whole spans are jumped even while parts
of the fabric are loaded, and on the oracle loop, which never skips.
"""

import pytest

from repro.network.engine import SynchronousEngine


class _Idle:
    def step(self, cycle):
        pass

    def next_event_cycle(self, cycle):
        return None


class _Periodic:
    """Has work every ``period`` cycles (lets spans fast-forward)."""

    def __init__(self, period):
        self.period = period
        self.fired = 0

    def step(self, cycle):
        if cycle % self.period == 0:
            self.fired += 1

    def next_event_cycle(self, cycle):
        if cycle % self.period == 0:
            return cycle
        return cycle + (self.period - cycle % self.period)


class _BusyUntil:
    """Claims work every cycle until ``until``, then goes idle."""

    def __init__(self, until):
        self.until = until

    def step(self, cycle):
        pass

    def next_event_cycle(self, cycle):
        return cycle if cycle < self.until else None


def _check(engine):
    assert engine.cycles_stepped + engine.cycles_fast_forwarded \
        == engine.cycle


class TestAccounting:
    """The default engine (the event scheduler) and the oracle loop."""

    def test_default_mode_is_event(self):
        assert SynchronousEngine().mode == "event"

    def test_pure_idle_run(self):
        engine = SynchronousEngine()
        engine.add_component(_Idle())
        engine.run(10_000)
        assert engine.cycle == 10_000
        assert engine.cycles_stepped == 0
        assert engine.cycles_fast_forwarded == 10_000
        _check(engine)

    def test_periodic_work(self):
        engine = SynchronousEngine()
        component = _Periodic(100)
        engine.add_component(component)
        engine.run(1_000)
        _check(engine)
        assert component.fired == 10  # cycles 0, 100, ..., 900
        assert engine.cycles_fast_forwarded > 0

    def test_alternating_busy_idle_phases(self):
        engine = SynchronousEngine()
        engine.add_component(_Periodic(7))
        engine.add_component(_BusyUntil(100))
        for _ in range(20):
            engine.run(137)
            _check(engine)
        assert engine.cycle == 20 * 137

    def test_run_until_accounting(self):
        engine = SynchronousEngine()
        component = _Periodic(50)
        engine.add_component(component)
        engine.run_until(lambda: component.fired >= 5, max_cycles=10_000)
        _check(engine)

    def test_component_churn_mid_run(self):
        # The oracle steps every cycle whatever is registered.
        engine = SynchronousEngine(mode="exact")
        engine.add_component(_Idle())
        busy = _BusyUntil(10**9)
        engine.add_component(busy)
        engine.run(100)
        assert engine.cycles_stepped == 100
        engine.remove_component(busy)
        engine.run(1_000)
        _check(engine)
        assert engine.cycles_stepped == 1_100
        assert engine.cycles_fast_forwarded == 0

    def test_legacy_component_disables_fast_forward(self):
        # A component without next_event_cycle is refused on both loops,
        # so it can no longer pin the engine to stepping every cycle.
        class Legacy:  # no next_event_cycle
            def step(self, cycle):
                pass

        for mode in ("exact", "event"):
            engine = SynchronousEngine(mode=mode)
            with pytest.raises(TypeError, match="next_event_cycle"):
                engine.add_component(Legacy())
            engine.add_component(_Idle())
            engine.run(500)
            assert engine.cycle == 500
            _check(engine)
        assert engine.cycles_fast_forwarded == 500

    def test_fast_forward_disabled_engine(self):
        engine = SynchronousEngine(mode="exact")
        engine.add_component(_Idle())
        engine.run(500)
        assert engine.cycles_stepped == 500
        assert engine.cycles_fast_forwarded == 0
        _check(engine)

    def test_wake_is_a_noop_on_the_oracle(self):
        # Only the scheduler consumes wakes; the oracle loop must not
        # accumulate them (it would grow without bound).
        engine = SynchronousEngine(mode="exact")
        component = _Idle()
        engine.add_component(component)
        for _ in range(3):
            engine.wake(component)
            engine.run(10)
        assert not engine._pending_wakes
        scheduler = SynchronousEngine(mode="event")
        scheduler.add_component(component)
        scheduler.wake(component)
        assert scheduler._pending_wakes == {component}


class TestEventModeAccounting:
    """The scheduler's jumps do not need whole-fabric quiescence."""

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SynchronousEngine(mode="approximate")

    def test_pure_idle_run(self):
        engine = SynchronousEngine(mode="event")
        engine.add_component(_Idle())
        engine.run(10_000)
        assert engine.cycle == 10_000
        assert engine.cycles_stepped == 0
        assert engine.cycles_fast_forwarded == 10_000
        _check(engine)

    def test_periodic_work(self):
        engine = SynchronousEngine(mode="event")
        component = _Periodic(100)
        engine.add_component(component)
        engine.run(1_000)
        _check(engine)
        assert component.fired == 10  # cycles 0, 100, ..., 900
        # Exactly the firing cycles were executed.
        assert engine.cycles_stepped == 10
        assert engine.cycles_fast_forwarded == 990

    def test_jumps_despite_busy_component(self):
        # One busy component does not pin the scheduler to the
        # per-cycle loop — only the busy component's cycles execute.
        engine = SynchronousEngine(mode="event")
        engine.add_component(_Periodic(3))
        engine.add_component(_Periodic(1_000))
        engine.run(3_000)
        _check(engine)
        assert engine.cycles_fast_forwarded > 0

    def test_component_churn_mid_run(self):
        engine = SynchronousEngine(mode="event")
        engine.add_component(_Idle())
        busy = _BusyUntil(10**9)
        engine.add_component(busy)
        engine.run(100)
        assert engine.cycles_stepped == 100
        engine.remove_component(busy)
        engine.run(1_000)
        _check(engine)
        assert engine.cycle == 1_100
        assert engine.cycles_stepped == 100

    def test_legacy_component_steps_every_cycle(self):
        # Refused, a component without next_event_cycle is never stepped.
        class Legacy:  # no next_event_cycle
            def __init__(self):
                self.steps = 0

            def step(self, cycle):
                self.steps += 1

        engine = SynchronousEngine(mode="event")
        component = Legacy()
        with pytest.raises(TypeError, match="next_event_cycle"):
            engine.add_component(component)
        engine.add_component(_Idle())
        engine.run(500)
        assert component.steps == 0
        assert engine.cycles_stepped == 0
        _check(engine)

    def test_uncontracted_wiring_pins_per_cycle(self):
        # A wiring with neither idle_check nor source is refused, so it
        # cannot pin the scheduler to the per-cycle loop.
        engine = SynchronousEngine(mode="event")
        engine.add_component(_Idle())
        with pytest.raises(ValueError, match="exactly one"):
            engine.add_wiring(lambda: None)
        engine.run(200)
        assert engine.cycles_stepped == 0
        _check(engine)

    def test_run_until_parity_with_exact(self):
        results = {}
        for mode in ("exact", "event"):
            engine = SynchronousEngine(mode=mode)
            component = _Periodic(50)
            engine.add_component(component)
            stop = engine.run_until(lambda: component.fired >= 5,
                                    max_cycles=10_000)
            _check(engine)
            results[mode] = (stop, engine.cycle, component.fired)
        assert results["exact"] == results["event"]

    def test_run_until_timeout_parity_with_exact(self):
        for mode in ("exact", "event"):
            engine = SynchronousEngine(mode=mode)
            engine.add_component(_Periodic(7))
            with pytest.raises(TimeoutError):
                engine.run_until(lambda: False, max_cycles=300)
            # The deadline bounds actual cycles advanced identically.
            assert engine.cycle == 300
            _check(engine)

    def test_run_until_true_predicate_advances_nothing(self):
        for mode in ("exact", "event"):
            engine = SynchronousEngine(mode=mode)
            engine.add_component(_Periodic(5))
            assert engine.run_until(lambda: True, max_cycles=10) == 0
            assert engine.cycle == 0

    def test_segmented_runs_match_one_run(self):
        whole = SynchronousEngine(mode="event")
        a = _Periodic(7)
        whole.add_component(a)
        whole.run(1_000)
        split = SynchronousEngine(mode="event")
        b = _Periodic(7)
        split.add_component(b)
        for _ in range(10):
            split.run(100)
        assert a.fired == b.fired
        assert whole.cycle == split.cycle
        _check(whole)
        _check(split)
