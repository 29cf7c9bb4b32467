"""The event scheduler's kept queue, due-list and wiring-return contract.

The queue survives from one ``run`` to the next; a run entry re-reads
only woken components and watchers, and a full rebuild happens only
after ``add_component`` / ``load_state``.  Components that answer
"now" sit on a due-list, later wake-ups on the heap; the two merge
into one registration-ordered batch.  A wiring may return the
components it wrote, and only those are requeried.
"""

import pytest

from repro.network.engine import SynchronousEngine
from repro.network.network import MeshNetwork
from tests.oracle import assert_oracle_ran, assert_scheduler_skipped


class _Timer:
    """Fires (logs) on every cycle in ``fire_at``; local contract."""

    def __init__(self, name, fire_at, log):
        self.name = name
        self.fire_at = sorted(fire_at)
        self.log = log

    def step(self, cycle):
        if cycle in self.fire_at:
            self.log.append((cycle, self.name))

    def next_event_cycle(self, cycle):
        for when in self.fire_at:
            if when >= cycle:
                return when
        return None


class _Inbox:
    """Quiescent until something is put in ``pending``; then consumes
    one item per step and logs it."""

    def __init__(self, name, log):
        self.name = name
        self.log = log
        self.pending = 0
        self.queries = 0

    def step(self, cycle):
        if self.pending:
            self.pending -= 1
            self.log.append((cycle, self.name))

    def next_event_cycle(self, cycle):
        self.queries += 1
        return cycle if self.pending else None


class TestKeptQueue:
    def test_run_entry_does_not_requery_untouched_components(self):
        engine = SynchronousEngine()
        idle = _Inbox("idle", [])
        engine.add_component(idle, local=True)
        engine.run(10)
        asked = idle.queries
        for _ in range(50):
            engine.run(10)
        assert idle.queries == asked

    def test_wake_between_runs_is_honoured(self):
        log = []
        engine = SynchronousEngine()
        inbox = _Inbox("inbox", log)
        engine.add_component(inbox, local=True)
        engine.run(10)
        inbox.pending = 1
        engine.wake(inbox)
        assert engine.audit_schedule() == []
        engine.run(10)
        assert log == [(10, "inbox")]

    def test_unwoken_mutation_is_reported_stale(self):
        engine = SynchronousEngine()
        inbox = _Inbox("inbox", [])
        engine.add_component(inbox, local=True)
        engine.run(10)
        inbox.pending = 1  # behind the scheduler's back
        stale = engine.audit_schedule()
        assert len(stale) == 1 and "_Inbox #0" in stale[0]

    def test_audit_has_nothing_to_say_without_a_kept_queue(self):
        oracle = SynchronousEngine(mode="exact")
        unbuilt = SynchronousEngine()
        for engine in (oracle, unbuilt):
            inbox = _Inbox("inbox", [])
            inbox.pending = 1
            engine.add_component(inbox, local=True)
            assert engine.audit_schedule() == []

    def test_local_component_added_between_runs_is_asked(self):
        log = []
        engine = SynchronousEngine()
        engine.add_component(_Timer("first", [5], log), local=True)
        engine.run(10)
        engine.add_component(_Timer("late", [15], log), local=True)
        engine.run(10)
        assert log == [(5, "first"), (15, "late")]

    def test_load_state_invalidates_the_queue(self):
        log = []
        engine = SynchronousEngine()
        engine.add_component(_Timer("timer", [5, 12], log), local=True)
        engine.run(8)  # queued for 12 now
        engine.load_state({"cycle": 0, "cycles_stepped": 0,
                           "cycles_fast_forwarded": 0})
        assert engine.audit_schedule() == []
        engine.run(8)
        assert log == [(5, "timer"), (5, "timer")]

    def test_watchers_are_reread_at_every_entry(self):
        # A watcher's answer may depend on state nobody wakes it for.
        log = []
        engine = SynchronousEngine()
        watcher = _Inbox("watcher", log)
        engine.add_component(watcher)  # not local
        engine.run(10)
        watcher.pending = 1
        assert engine.audit_schedule() == []  # exempt: re-read anyway
        engine.run(10)
        assert log == [(10, "watcher")]

    def test_thousand_single_cycle_entries_equal_one_run(self):
        def build(mode):
            log = []
            engine = SynchronousEngine(mode=mode)
            engine.add_component(_Timer("a", range(0, 1000, 7), log),
                                 local=True)
            engine.add_component(_Timer("b", range(3, 1000, 90), log))
            engine.add_component(_Timer("c", [0, 999], log), local=True)
            return engine, log

        split, split_log = build("event")
        for _ in range(1000):
            split.run(1)
            assert (split.cycles_stepped + split.cycles_fast_forwarded
                    == split.cycle)
        whole, whole_log = build("event")
        whole.run(1000)
        oracle, oracle_log = build("exact")
        oracle.run(1000)
        assert_oracle_ran(oracle)
        assert_scheduler_skipped(whole)
        assert split_log == whole_log == oracle_log
        assert (split.cycle, split.cycles_stepped,
                split.cycles_fast_forwarded) == (
            whole.cycle, whole.cycles_stepped,
            whole.cycles_fast_forwarded)


class _RaisesOnce:
    """Due at ``when``; its first step there raises."""

    def __init__(self, when):
        self.when = when
        self.raised = False

    def step(self, cycle):
        if cycle == self.when and not self.raised:
            self.raised = True
            raise RuntimeError("boom")

    def next_event_cycle(self, cycle):
        return self.when if cycle <= self.when else None


class TestFailedCycle:
    def test_peers_of_a_raising_component_still_fire_afterwards(self):
        # The batch leaves the queue before it is stepped; a step that
        # raises must not take its batch-mates' schedule with it.
        log = []
        engine = SynchronousEngine()
        engine.add_component(_Timer("before", [10, 11], log), local=True)
        engine.add_component(_RaisesOnce(10), local=True)
        engine.add_component(_Timer("after", [10, 30], log), local=True)
        engine.run(5)  # the queue is built and kept
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(20)
        assert engine.cycle == 10
        engine.run(30)
        assert log == [(10, "before"), (10, "before"), (10, "after"),
                       (11, "before"), (30, "after")]
        assert engine.audit_schedule() == []


class _Feeder:
    """At ``when``, hands one item to each inbox in ``targets``."""

    def __init__(self, name, when, targets, log):
        self.name = name
        self.when = when
        self.targets = targets
        self.log = log

    def step(self, cycle):
        if cycle == self.when:
            self.log.append((cycle, self.name))
            for target in self.targets:
                target.pending += 1

    def next_event_cycle(self, cycle):
        return self.when if cycle <= self.when else None


class TestDueListAndHeap:
    def test_batch_merges_due_list_and_heap_in_registration_order(self):
        # At cycle 20: "heap" was queued long ago (a later wake-up that
        # has come), "due" answered "now" at the end of cycle 19.
        log = []
        engine = SynchronousEngine()
        engine.add_component(_Timer("due", [19, 20], log), local=True)
        engine.add_component(_Timer("heap", [20], log), local=True)
        engine.add_component(_Timer("due-too", [19, 20], log), local=True)
        engine.run(30)
        assert [name for cycle, name in log if cycle == 20] == [
            "due", "heap", "due-too"]

    def test_cascaded_peer_is_inserted_mid_batch_in_order(self):
        # feeder (order 0) hands work to its peer inbox (order 2) while
        # "between" (order 1) and "after" (order 3) are already in the
        # batch: the peer fires this same cycle, between the two.
        log = []
        engine = SynchronousEngine()
        inbox = _Inbox("peer", log)
        feeder = _Feeder("feeder", 10, [inbox], log)
        engine.add_component(feeder, local=True)
        engine.add_component(_Timer("between", [10], log), local=True)
        engine.add_component(inbox, local=True)
        engine.add_component(_Timer("after", [10], log), local=True)
        engine.bind_peers(feeder, inbox)
        engine.run(20)
        assert log == [(10, "feeder"), (10, "between"), (10, "peer"),
                       (10, "after")]

    def test_cascade_matches_the_oracle(self):
        def run(mode):
            log = []
            engine = SynchronousEngine(mode=mode)
            early = _Inbox("early-peer", log)
            late = _Inbox("late-peer", log)
            feeder = _Feeder("feeder", 10, [early, late], log)
            engine.add_component(early, local=True)
            engine.add_component(feeder, local=True)
            engine.add_component(late, local=True)
            engine.bind_peers(feeder, early)
            engine.bind_peers(feeder, late)
            engine.run(20)
            return log

        # The later peer fires the same cycle, the earlier one (its
        # slot already passed) the next — in both modes.
        assert run("event") == run("exact") == [
            (10, "feeder"), (10, "late-peer"), (11, "early-peer")]

    def test_component_due_now_with_a_later_heap_entry(self):
        # The timer sits in the heap for cycle 50; a wake at cycle 10
        # makes it answer "now" as well.  It fires at 10, once, and the
        # superseded heap entry neither fires it early nor twice.
        log = []
        engine = SynchronousEngine()
        timer = _Timer("timer", [50], log)
        engine.add_component(timer, local=True)
        engine.run(10)
        timer.fire_at = [10, 50]
        engine.wake(timer)
        engine.run(90)
        assert log == [(10, "timer"), (50, "timer")]
        assert engine.cycles_stepped == 2

    def test_removed_peer_is_no_longer_cascaded_to(self):
        log = []
        engine = SynchronousEngine()
        inbox = _Inbox("peer", log)
        feeder = _Feeder("feeder", 10, [inbox], log)
        engine.add_component(feeder, local=True)
        engine.add_component(inbox, local=True)
        engine.bind_peers(feeder, inbox)
        engine.remove_component(inbox)
        engine.run(20)
        assert log == [(10, "feeder")]


class TestWiringReturnContract:
    def _build(self, returns):
        log = []
        engine = SynchronousEngine()
        source = _Timer("source", [5], log)
        left, right = _Inbox("left", log), _Inbox("right", log)
        for component in (source, left, right):
            engine.add_component(component, local=True)

        def transfer():
            if engine.cycle == 5:
                left.pending += 1
                right.pending += 1
            return returns(left, right)

        engine.add_wiring(transfer, source=source)
        engine.run(20)
        return log

    def test_everything_written_and_reported_is_requeried(self):
        log = self._build(lambda left, right: [left, right])
        assert log == [(5, "source"), (6, "left"), (6, "right")]

    def test_a_returned_list_names_the_only_sinks_requeried(self):
        # "right" was written too but not reported: nobody asks it.
        log = self._build(lambda left, right: [left])
        assert log == [(5, "source"), (6, "left")]

    def test_nothing_reported_requeries_nobody(self):
        for nothing in ([], None):
            log = self._build(lambda left, right: nothing)
            assert log == [(5, "source")]


class TestDeliveryWake:
    """A router that puts a packet at its host's reception port tells
    the scheduler so (``delivery_hook``); nobody asks the host after
    router steps that delivered nothing."""

    @staticmethod
    def _storm(engine="event"):
        net = MeshNetwork(4, 4, engine=engine)
        nodes = list(net.mesh.nodes())
        for index in range(24):
            source = nodes[(5 * index) % 16]
            destination = nodes[(5 * index + 3 + index % 7) % 16]
            if source != destination:
                net.send_best_effort(source, destination,
                                     bytes([index]) * (9 + 13 * (index % 5)))
        return net

    def test_a_delivery_wakes_the_host_in_the_cycle_it_happens(self):
        event, oracle = MeshNetwork(3, 1), MeshNetwork(3, 1, engine="exact")
        for net in (event, oracle):
            net.send_best_effort((0, 0), (2, 0), b"wake me")
        router, host = event.routers[(2, 0)], event.hosts[(2, 0)]
        asked = []
        probe = event.engine._probes[host]
        event.engine._probes[host] = lambda cycle: (
            asked.append(cycle), probe(cycle))[1]
        while not router.delivered:
            event.run(1)
            oracle.run(1)
        # The packet landed in the cycle that just ended: the host was
        # asked at this boundary (and only now: it was never a peer of
        # the router's steps), is due, and drains it next cycle.
        assert router.delivered[0].meta.delivered_cycle == event.cycle - 1
        assert asked == [0, event.cycle]
        assert event.engine.audit_schedule() == []
        assert event.log.be_delivered == oracle.log.be_delivered == 0
        event.run(1)
        oracle.run(1)
        assert event.log.be_delivered == oracle.log.be_delivered == 1
        assert router.delivered == []
        assert_oracle_ran(oracle.engine)

    def test_the_schedule_stays_exact_under_best_effort_load(self):
        event, oracle = self._storm(), self._storm("exact")
        while event.cycle < 1_500:
            assert event.engine.audit_schedule() == []
            event.run(13)
            oracle.run(13)
        assert event.log.be_delivered == oracle.log.be_delivered >= 20
        assert ([(r.source, r.destination, r.delivered_cycle)
                 for r in event.log.records]
                == [(r.source, r.destination, r.delivered_cycle)
                    for r in oracle.log.records])
        assert_scheduler_skipped(event.engine)

    def test_without_the_wake_a_delivery_goes_unnoticed(self):
        # The mutation: a router that delivers silently.  The audit
        # names the host, and the packet is never logged.
        net = MeshNetwork(3, 1)
        for router in net.routers.values():
            router.delivery_hook = None
        net.send_best_effort((0, 0), (2, 0), b"lost on the doorstep")
        net.run(400)
        assert len(net.routers[(2, 0)].delivered) == 1
        assert net.log.be_delivered == 0
        stale = net.engine.audit_schedule()
        assert len(stale) == 1 and "HostNode" in stale[0]
