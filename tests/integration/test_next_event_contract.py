"""The ``next_event_cycle`` contract, cross-checked against reality.

Every engine component advertises its next busy cycle (or ``None``)
through ``next_event_cycle``; both fast-forward jumps and the event
scheduler trust that answer completely.  The one way the contract can
break a simulation is a *stale* answer — claiming quiescence while a
step would still change state (work silently delayed or lost across a
skipped span).  These tests replay loaded, randomized runs one cycle
at a time and, for every component that claims quiescence, snapshot
its checkpoint state before and after its step: the two must be
byte-identical.

The audit repeats in the two historically bug-prone situations —
immediately after a ``load_state`` resume (memoised answers surviving
the overlay) and after ``remove_component`` churn (answers cached
against departed peers).

A router *remembers* its quiescence verdict between the entry points
that can change it; the same audit asserts, on every router at every
cycle and right after each of those entry points, that the remembered
answer equals a fresh recomputation.

The scheduler *keeps* its queue between runs; ``TestKeptSchedule``
drives loaded runs as many short ``run`` calls with mutations through
every public path in between, and at every run entry asserts
``audit_schedule()`` — the kept queue is exactly what a full requery
would build.
"""

import json

from repro import TrafficSpec
from repro.checkpoint.codec import LoadContext, SaveContext
from repro.core.ports import EAST, NORTH
from repro.faults import FaultInjector
from repro.faults.plan import CUT, REPAIR, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork
from tests.reference import (
    FabricPair,
    compare,
    loaded_mesh,
    restore,
    save,
)
from tests.sends import poisson

import random as random_module


def _snap(component):
    """Checkpoint-grade snapshot of one component, or ``None`` if it
    exposes no state.  The router's quiescent fast path still advances
    its local cycle counter — a benign, documented mutation — so that
    one key is normalized out."""
    state_fn = getattr(component, "state", None)
    if state_fn is None:
        # The snapshot emitter has no checkpoint state; its observable
        # state is the recorded snapshots and the next due point.
        if hasattr(component, "snapshots"):
            return repr((component.snapshots, component.next_due_cycle))
        return None
    ctx = SaveContext()
    try:
        raw = state_fn(ctx)
    except TypeError:
        raw = state_fn()
    if isinstance(raw, dict):
        counters = raw.get("counters")
        if isinstance(counters, dict):
            counters = dict(counters)
            counters.pop("cycle", None)
            raw = dict(raw, counters=counters)
    return json.dumps({"state": raw, "metas": ctx.metas_state()},
                      sort_keys=True, default=repr)


def _assert_remembered_quiescence(routers, where):
    """Every router's remembered verdict equals a fresh recomputation.

    Reading ``quiescent`` also (re)populates the memo, so a missing
    invalidation between two calls shows up at the second one."""
    for router in routers:
        fresh = router._holds_nothing()
        assert router.quiescent == fresh, (
            f"router {router.router_id} remembers quiescent="
            f"{router.quiescent} {where} but recomputation says {fresh}")


def _audited_cycle(net):
    """One cycle of the exact engine's loop, with the contract checked
    component by component.  Returns the number of quiescence claims
    that were audited this cycle."""
    engine = net.engine
    cycle = engine.cycle
    audited = 0
    for component in tuple(engine._components):
        probe = getattr(component, "next_event_cycle", None)
        claim = probe(cycle) if probe is not None else cycle
        assert claim is None or claim >= cycle, (
            f"{type(component).__name__} answered a past cycle "
            f"({claim} at cycle {cycle})")
        quiescent = claim is None or claim > cycle
        before = _snap(component) if quiescent else None
        component.step(cycle)
        if quiescent:
            audited += 1
            assert _snap(component) == before, (
                f"{type(component).__name__} claimed quiescence at "
                f"cycle {cycle} (next={claim}) but stepping changed "
                "its state")
    for transfer in engine._wiring:
        transfer()
    engine.cycle += 1
    engine.cycles_stepped += 1
    _assert_remembered_quiescence(net.routers.values(),
                                  f"after cycle {cycle}")
    return audited


def _audit_span(traffic, channels, cycles, rng):
    """Audit ``cycles`` cycles, stirring randomized sends into the
    scenario's own so the claims are exercised against a genuinely
    loaded, shifting fabric."""
    net = traffic.net
    audited = 0
    nodes = list(net.mesh.nodes())
    for _ in range(cycles):
        cycle = net.engine.cycle
        roll = rng.random()
        if roll < 0.02:
            source, destination = rng.sample(nodes, 2)
            net.send_best_effort(source, destination,
                                 bytes([rng.randrange(256)]) * 8)
        elif roll < 0.04:
            net.send_message(rng.choice(channels), b"\xa5" * 4)
        traffic.send_due()
        _assert_remembered_quiescence(net.routers.values(),
                                      f"after the sends of cycle {cycle}")
        audited += _audited_cycle(net)
    return audited


class TestNextEventContract:
    def test_fresh_loaded_run(self):
        traffic = loaded_mesh()
        injector, channels = traffic.injector, traffic.channels
        net = traffic.net
        audited = _audit_span(traffic, channels, 1_200,
                              random_module.Random(7))
        # The audit saw quiescence claims, real deliveries and the
        # planned cut/repair pair firing on their exact cycles.
        assert audited > 0
        assert len(net.log.records) > 0
        assert [event.cycle for event in injector.fired] == [300, 900]

    def test_the_loaded_run_equals_the_reference_chip(self):
        # What the claims let the scheduler skip, and what the routers'
        # savings skip inside a step, changes nothing read of the mesh
        # (tests/reference.py) across the cut, the repair and the
        # watchdog's detection.
        pair = FabricPair(loaded_mesh)
        counts = compare(pair, range(1, 1_200))
        assert [event.cycle for event in pair.runs[0].injector.fired] == [
            300, 900]
        assert counts["lagging"] > 0 and counts["asleep"] > 0

    def test_after_checkpoint_resume(self):
        # Stale memoised answers surviving a load_state overlay were
        # the historical failure mode; audit from the resume point.
        traffic = loaded_mesh()
        net = traffic.net
        traffic.run(1_500)

        resuming = loaded_mesh()
        resumed = restore(resuming.net, save(net))
        assert resumed.engine.cycle == 1_500
        _assert_remembered_quiescence(resumed.routers.values(),
                                      "after load_state")
        audited = _audit_span(resuming, resuming.channels, 600,
                              random_module.Random(11))
        assert audited > 0

    def test_after_component_churn(self):
        # remove_component must not leave neighbours answering for a
        # departed peer: detach the fault-tolerance pair and the
        # snapshot emitter mid-run, then keep auditing.
        traffic = loaded_mesh()
        tolerance, channels = traffic.tolerance, traffic.channels
        net = traffic.net
        rng = random_module.Random(13)
        _audit_span(traffic, channels, 400, rng)
        tolerance.detach()
        net.disable_snapshots()
        _assert_remembered_quiescence(net.routers.values(),
                                      "after remove_component")
        audited = _audit_span(traffic, channels, 500, rng)
        assert audited > 0
        assert net.engine.cycle == 900


def _enter(net, cycles, traffic=None):
    """One audited run entry (that pushes ``traffic``'s sends, if
    given)."""
    stale = net.engine.audit_schedule()
    assert stale == [], f"cycle {net.cycle}: {stale}"
    (traffic or net).run(cycles)


def _final(net):
    """What a run left behind: every delivery plus engine accounting."""
    engine = net.engine
    return ([(r.traffic_class, r.connection_label, r.sequence, r.source,
              r.injected_cycle, r.delivered_cycle, r.delivered_node)
             for r in net.log.records],
            engine.cycle, engine.cycles_stepped,
            engine.cycles_fast_forwarded)


class _Alarm:
    """A component with one self-scheduled firing."""

    def __init__(self, when):
        self.when = when
        self.fired_at = None

    def step(self, cycle):
        if cycle == self.when:
            self.fired_at = cycle

    def next_event_cycle(self, cycle):
        return self.when if cycle <= self.when else None


class TestKeptSchedule:
    def test_public_mutations_between_runs(self):
        # The full stack, run as ~200 short spans; every public way of
        # touching the fabric is used between two of them at least once.
        def script(engine):
            traffic = loaded_mesh(engine)
            injector, channels = traffic.injector, traffic.channels
            net = traffic.net
            rng = random_module.Random(17)
            nodes = list(net.mesh.nodes())
            alarm = None
            span = 0
            while net.cycle < 2_400:
                roll = rng.random()
                if roll < 0.15:
                    source, destination = rng.sample(nodes, 2)
                    net.send_best_effort(source, destination,
                                         bytes([rng.randrange(256)]) * 8)
                elif roll < 0.3:
                    net.send_message(rng.choice(channels), b"\xa5" * 4)
                span += 1
                if span == 5:
                    traffic.add(poisson((0, 3), [(2, 1)], 0.02, seed=5,
                                        start=net.cycle))
                elif span == 10:
                    channels.append(net.establish_channel(
                        (0, 1), (3, 2), TrafficSpec(i_min=16), deadline=32,
                        label="contract-extra"))
                elif span == 15:
                    net.disable_snapshots()
                elif span == 20:
                    net.enable_snapshots(300)
                elif span == 25:
                    alarm = _Alarm(net.cycle + 40)
                    net.engine.add_component(alarm)
                elif span == 30:
                    net.fail_link((3, 1), NORTH)  # announced: c0's path
                elif span == 60:
                    net.repair_link((3, 1), NORTH)
                elif span == 150:
                    net.teardown_channel(channels.pop())
                _enter(net, rng.randrange(1, 25), traffic)
            assert span > 150
            assert alarm.fired_at == alarm.when
            assert [event.cycle for event in injector.fired] == [
                300, 900, 1_700]
            return net

        net, oracle = script("event"), script("exact")
        labels = {record.connection_label for record in net.log.records}
        assert {"contract-c0", "contract-c1", "contract-extra"} <= labels
        assert any(record.source == (0, 3) for record in net.log.records)
        faults = net.fault_stats  # the announced failure was acted on
        assert faults.channels_rerouted + faults.channels_degraded >= 1
        assert _final(net)[:2] == _final(oracle)[:2]

    def test_manual_recovery_between_runs(self):
        # No fault-tolerance stack: the test is the recovery software,
        # calling the link and channel API between runs.
        def script(engine):
            net = MeshNetwork(4, 4, engine=engine)
            net.establish_channel((0, 0), (3, 0), TrafficSpec(i_min=8),
                                  deadline=24, label="manual")
            for router in net.routers.values():
                router.drop_unroutable = True
            rng = random_module.Random(23)
            for step in range(120):
                if step % 4 == 0:
                    net.send_message(net.manager.find("manual"))
                if step % 3 == 0:
                    net.send_best_effort((0, 0), (3, 0), b"be" * 20)
                if step == 30:
                    net.fail_link((1, 0), EAST, announce=False)
                elif step == 40:
                    net.set_link_draining((1, 0), EAST)
                    net.recover_channel(net.manager.find("manual"))
                elif step == 80:
                    net.repair_link((1, 0), EAST)
                _enter(net, rng.randrange(5, 30))
            _enter(net, 2_000)
            return net

        net, oracle = script("event"), script("exact")
        assert net.engine.audit_schedule() == []
        assert net.link_monitors[((1, 0), EAST)].bytes_drained > 0
        labels = [r.connection_label for r in net.log.records]
        assert labels.count("manual") > 10 and labels.count(None) > 4
        assert _final(net)[:2] == _final(oracle)[:2]

    def test_raised_horizon_wakes_a_dormant_router(self):
        # A router's answer depends on its horizon registers once it
        # can be dormant: raising one brings the deadline forward, so
        # write_horizon forgets the verdict and the mesh wakes the
        # router — between runs, and from a component's step mid-run.
        from repro.core.ports import RECEPTION, port_mask

        class RaiseAt:
            """A component that reprograms a router mid-run."""

            def __init__(self, when, control):
                self.when, self.control = when, control

            def step(self, cycle):
                if cycle == self.when:
                    self.control.write_horizon(port_mask(EAST), 30)

            def next_event_cycle(self, cycle):
                return self.when if cycle <= self.when else None

        def script(engine):
            # Four hops with 30 ticks of slack each and horizon 0: the
            # packet would sit at (1, 0) until cycle 600 and at (2, 0)
            # until 1,200.  The last hop delivers on arrival.
            net = MeshNetwork(4, 1, engine=engine)
            channel = net.establish_channel(
                (0, 0), (3, 0), TrafficSpec(i_min=200), deadline=120,
                label="held")
            net.routers[(3, 0)].control.write_horizon(
                port_mask(RECEPTION), 100)
            net.send_message(channel)
            second, third = net.routers[(1, 0)], net.routers[(2, 0)]
            _enter(net, 200)
            assert second.next_event_cycle(net.cycle) == 600
            second.control.write_horizon(port_mask(EAST), 10)
            assert second.next_event_cycle(net.cycle) == 400
            _enter(net, 300)
            assert second.quiescent
            assert third.next_event_cycle(net.cycle) == 1_200
            net.engine.add_component(
                RaiseAt(net.cycle + 60, third.control))
            for _ in range(10):
                _enter(net, 100)
            return net

        net, oracle = script("event"), script("exact")
        assert net.engine.audit_schedule() == []
        assert net.log.tc_delivered == 1
        assert _final(net)[:2] == _final(oracle)[:2]
        # Had either write gone unnoticed it would have arrived after
        # cycle 1,200 (or 800).
        assert net.log.records[0].delivered_cycle < 700

    def test_host_entry_points_wake_between_runs(self):
        net = MeshNetwork(3, 3)
        channel = net.establish_channel((0, 0), (2, 1), TrafficSpec(i_min=8),
                                        deadline=16, label="direct")
        net.run(50)
        host = net.hosts[(0, 0)]
        packets, _, release = channel.make_message(b"tc", net.current_tick)
        host.queue_tc(packets, release)
        net.send_best_effort((0, 0), (1, 2), b"be")
        _enter(net, 1_000)
        assert (net.log.tc_delivered, net.log.be_delivered) == (1, 1)

    def test_restore_onto_a_network_that_already_ran(self):
        # load_state must throw the kept queue away: this engine's is
        # valid, and describes a different moment of a different run.
        uninterrupted = loaded_mesh()
        reference = uninterrupted.net
        uninterrupted.run(1_500)
        state = save(reference)
        uninterrupted.run(600)

        resuming = loaded_mesh()
        resumed = resuming.net
        resuming.run(700)
        restore(resumed, state)
        for _ in range(6):
            _enter(resumed, 100, resuming)
        assert _final(resumed) == _final(reference)

    def test_deliveries_wake_their_hosts_under_best_effort_load(self):
        # Routers are not asked-after peers of their hosts: the only
        # thing that gets a delivery logged is the router's own wake.
        # Worms converge on two hosts while short spans audit the queue.
        def script(engine):
            net = MeshNetwork(4, 4, engine=engine)
            rng = random_module.Random(29)
            nodes = list(net.mesh.nodes())
            sent = 0
            while net.cycle < 4_000:
                if net.cycle < 900:
                    for target in ((1, 2), (3, 0)):
                        source = rng.choice(nodes)
                        if source != target:
                            net.send_best_effort(
                                source, target,
                                bytes([sent & 0xFF]) * rng.randrange(4, 70))
                            sent += 1
                _enter(net, rng.randrange(1, 40))
            assert sent > 40
            assert net.log.be_delivered == sent
            return net

        net, oracle = script("event"), script("exact")
        assert net.engine.audit_schedule() == []
        assert _final(net)[:2] == _final(oracle)[:2]

    def test_bare_injection_without_a_wake_is_reported(self):
        from repro.core.packet import BestEffortPacket

        net = MeshNetwork(3, 3)
        net.run(10)
        router = net.routers[(1, 1)]
        # Below the entry points (``inject_be`` wakes the router itself).
        router.inputs.be_inject_queue.append(
            BestEffortPacket(x_offset=1, y_offset=0, payload=b"zz"))
        router._forget()
        stale = net.engine.audit_schedule()
        assert len(stale) == 1 and "RealTimeRouter" in stale[0]
        # ...and that is what direct writers must do about it.
        net.engine.wake(router)
        _enter(net, 500)
        assert net.log.be_delivered == 1

    def test_session_cadence_audits_the_schedule(self):
        from repro.checkpoint import Execution, RandomWorkloadSession
        from repro.core.packet import BestEffortPacket

        session = RandomWorkloadSession(
            3, 3, 2, 6, 1, execution=Execution(check_every=50))
        session.run()
        assert session.invariant_failures == []
        # Below the entry points (``inject_be`` wakes the router itself).
        router = session.network.routers[(0, 0)]
        router.inputs.be_inject_queue.append(
            BestEffortPacket(x_offset=1, y_offset=0, payload=b"zz"))
        router._forget()
        session._check_invariants()
        assert len(session.invariant_failures) == 1
        assert "schedule: RealTimeRouter" in session.invariant_failures[0]


class TestPerImplementationAnswers:
    """Targeted answer checks for each ``next_event_cycle``
    implementation: the exact cycles each component self-schedules,
    not just the no-silent-mutation property the audit above proves."""

    def test_snapshot_emitter_schedule(self):
        net = MeshNetwork(2, 2)
        emitter = net.enable_snapshots(400)
        # First snapshot one full period out; the claim is exact.
        assert emitter.next_event_cycle(0) == 400
        assert emitter.next_event_cycle(399) == 400
        assert emitter.next_event_cycle(400) == 400  # due right now
        emitter.step(400)
        assert len(emitter.snapshots) == 1
        assert emitter.next_event_cycle(400) == 800
        # A stall past several due points yields one catch-up snapshot
        # and a next-due strictly in the future, on the original grid.
        emitter.step(1_650)
        assert len(emitter.snapshots) == 2
        assert emitter.next_event_cycle(1_650) == 2_000

    def test_fault_injector_schedule(self):
        net = MeshNetwork(2, 2)
        plan = FaultPlan(events=[
            FaultEvent(cycle=100, kind=CUT, node=(0, 0), direction=EAST),
            FaultEvent(cycle=250, kind=REPAIR, node=(0, 0),
                       direction=EAST),
        ])
        injector = FaultInjector(net, plan)
        assert injector.next_event_cycle(0) == 100
        injector.step(99)
        assert not injector.fired
        injector.step(100)
        assert [event.cycle for event in injector.fired] == [100]
        assert injector.next_event_cycle(100) == 250
        # Never a past cycle, even when queried beyond the next event.
        assert injector.next_event_cycle(260) == 260
        injector.step(260)
        assert injector.exhausted
        assert injector.next_event_cycle(261) is None

    def test_host_node_schedule(self):
        net = MeshNetwork(2, 2)
        host = net.hosts[(0, 0)]
        slot = net.params.slot_cycles
        # A fresh host with an empty release heap has no
        # self-scheduled work at all.
        assert host.next_event_cycle(0) is None
        # A queued release claims its exact release cycle, then "now"
        # once due.
        channel = net.establish_channel((0, 0), (1, 1),
                                        TrafficSpec(i_min=16),
                                        deadline=64, label="nec-h0")
        net.send_message(channel)
        claim = host.next_event_cycle(0)
        assert claim is not None and claim % slot == 0
        assert host.next_event_cycle(claim) == claim

    def test_router_quiescence(self):
        from repro.core.packet import BestEffortPacket, phits_of
        from repro.core.params import RouterParams
        from repro.core.router import LinkSignal, RealTimeRouter

        params = RouterParams()
        router = RealTimeRouter(params, router_id="nec")
        assert router.next_event_cycle(0) is None
        # A phit arriving on a link is work *now*, and stays work on
        # every cycle until the worm has fully drained through.
        phits = phits_of(BestEffortPacket(x_offset=0, y_offset=0,
                                          payload=b"zz"), params)
        cycle = 0
        for phit in phits:
            router.link_in[NORTH] = LinkSignal(phit=phit)
            assert router.next_event_cycle(cycle) == cycle
            router.step()
            cycle += 1
        while not router.delivered:
            assert router.next_event_cycle(cycle) == cycle
            router.step()
            cycle += 1
            assert cycle < 200, "the worm never arrived"
        # An undrained reception port is still the host's work to do...
        assert router.next_event_cycle(cycle) == cycle
        router.delivered.clear()
        while router.next_event_cycle(cycle) is not None:
            router.step()
            cycle += 1
            assert cycle < 400, "router never went quiescent"
        # ...and once drained, the claim settles on None.
        assert router.next_event_cycle(cycle) is None

    def test_router_forgets_at_its_entry_points(self):
        # Each call below can flip the verdict, and every check reads
        # (so re-populates) the memo first: a missing invalidation
        # leaves a stale answer for the next check to trip over.
        from repro.core.packet import (BestEffortPacket,
                                       TimeConstrainedPacket)
        from repro.core.params import RouterParams
        from repro.core.ports import RECEPTION, port_mask
        from repro.core.router import RealTimeRouter

        router = RealTimeRouter(RouterParams(), router_id="memo")
        router.control.program_connection(
            incoming_id=1, outgoing_id=1, delay=4,
            port_mask=port_mask(RECEPTION))

        def check(where, expected):
            _assert_remembered_quiescence([router], where)
            assert router.quiescent is expected, where

        def snapshot():
            ctx = SaveContext()
            state = router.state(ctx)
            return json.loads(json.dumps([state, ctx.metas_state()]))

        def deliver_one():
            for _ in range(400):
                router.step()
                _assert_remembered_quiescence([router], "mid-run")
            assert len(router.delivered) == 1
            check("with an undrained reception port", False)
            router.take_delivered()
            check("after take_delivered", True)

        check("when fresh", True)
        blank = snapshot()
        router.inject_be(BestEffortPacket(x_offset=0, y_offset=0,
                                          payload=b"zz"))
        check("after inject_be", False)
        busy = snapshot()
        deliver_one()
        router.inject_tc(TimeConstrainedPacket(connection_id=1,
                                               header_deadline=0))
        check("after inject_tc", False)
        deliver_one()
        # load_state over a populated memo, in both directions.
        for (state, metas), expected in ((busy, False), (blank, True)):
            router.load_state(state, LoadContext(metas))
            check(f"after load_state (quiescent={expected})", expected)

    def test_recovery_controller_timer(self):
        traffic = loaded_mesh()
        tolerance = traffic.tolerance
        net = traffic.net
        controller = tolerance.controller
        # Nothing tracked: nothing scheduled.
        assert controller.next_event_cycle(net.cycle) is None
        traffic.run(700)  # past the first cut: retransmit timers armed
        claim = controller.next_event_cycle(net.cycle)
        assert claim is None or claim >= net.cycle
