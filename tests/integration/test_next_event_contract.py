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
from repro.faults import FaultInjector, install_fault_tolerance
from repro.faults.plan import CUT, REPAIR, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork
from repro.traffic.generators import (
    BurstySource,
    PeriodicSource,
    PoissonBestEffortSource,
)

import random as random_module


def _build(engine="event"):
    """A loaded 4x4 mesh with every component kind registered: hosts,
    routers, watchdog, recovery controller, fault injector and the
    periodic snapshot emitter."""
    net = MeshNetwork(4, 4, engine=engine)
    slot = net.params.slot_cycles
    c0 = net.establish_channel((0, 0), (3, 3), TrafficSpec(i_min=64),
                               deadline=24, label="contract-c0")
    net.attach_source((0, 0), PeriodicSource(c0, period=64,
                                             slot_cycles=slot))
    c1 = net.establish_channel((3, 0), (0, 3), TrafficSpec(i_min=96),
                               deadline=24, label="contract-c1")
    net.attach_source((3, 0), BurstySource(c1, period=96, burst=2,
                                           slot_cycles=slot))
    net.attach_source((1, 1), PoissonBestEffortSource(
        destinations=[(2, 2), (3, 1)], rate=0.01, seed=31))
    tolerance = install_fault_tolerance(net)
    plan = FaultPlan(events=[
        FaultEvent(cycle=300, kind=CUT, node=(1, 0), direction=EAST),
        FaultEvent(cycle=900, kind=REPAIR, node=(1, 0), direction=EAST),
        FaultEvent(cycle=1_700, kind=CUT, node=(2, 2), direction=NORTH),
    ])
    injector = FaultInjector(net, plan)
    net.engine.add_component(injector)
    net.enable_snapshots(400)
    return net, tolerance, injector, [c0, c1]


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


def _audit_span(net, channels, cycles, rng):
    """Audit ``cycles`` cycles, stirring in randomized traffic so the
    claims are exercised against a genuinely loaded, shifting fabric."""
    audited = 0
    nodes = list(net.mesh.nodes())
    for _ in range(cycles):
        cycle = net.engine.cycle
        roll = rng.random()
        if roll < 0.02:
            source, destination = rng.sample(nodes, 2)
            net.send_best_effort(source, destination,
                                 bytes([rng.randrange(256)]) * 8,
                                 at_cycle=cycle)
        elif roll < 0.04:
            net.send_message(rng.choice(channels), b"\xa5" * 4,
                             at_cycle=cycle)
        _assert_remembered_quiescence(net.routers.values(),
                                      f"after the sends of cycle {cycle}")
        audited += _audited_cycle(net)
    return audited


class TestNextEventContract:
    def test_fresh_loaded_run(self):
        net, _, injector, channels = _build()
        audited = _audit_span(net, channels, 1_200,
                              random_module.Random(7))
        # The audit saw quiescence claims, real deliveries and the
        # planned cut/repair pair firing on their exact cycles.
        assert audited > 0
        assert len(net.log.records) > 0
        assert [event.cycle for event in injector.fired] == [300, 900]

    def test_after_checkpoint_resume(self):
        # Stale memoised answers surviving a load_state overlay were
        # the historical failure mode; audit from the resume point.
        net, _, _, channels = _build()
        net.run(1_500)
        ctx = SaveContext()
        state = net.state(ctx)
        state = {"network": state, "metas": ctx.metas_state()}
        state = json.loads(json.dumps(state))  # a real round-trip

        resumed, _, _, resumed_channels = _build()
        resumed.load_state(state["network"],
                           LoadContext(state["metas"]))
        assert resumed.engine.cycle == 1_500
        _assert_remembered_quiescence(resumed.routers.values(),
                                      "after load_state")
        audited = _audit_span(resumed, resumed_channels, 600,
                              random_module.Random(11))
        assert audited > 0

    def test_after_component_churn(self):
        # remove_component must not leave neighbours answering for a
        # departed peer: detach the fault-tolerance pair and the
        # snapshot emitter mid-run, then keep auditing.
        net, tolerance, _, channels = _build()
        rng = random_module.Random(13)
        _audit_span(net, channels, 400, rng)
        tolerance.detach()
        net.disable_snapshots()
        _assert_remembered_quiescence(net.routers.values(),
                                      "after remove_component")
        audited = _audit_span(net, channels, 500, rng)
        assert audited > 0
        assert net.engine.cycle == 900


def _enter(net, cycles):
    """One audited run entry."""
    stale = net.engine.audit_schedule()
    assert stale == [], f"cycle {net.cycle}: {stale}"
    net.run(cycles)


def _final(net):
    """What a run left behind: every delivery plus engine accounting."""
    engine = net.engine
    return ([(r.traffic_class, r.connection_label, r.sequence, r.source,
              r.injected_cycle, r.delivered_cycle, r.delivered_node)
             for r in net.log.records],
            engine.cycle, engine.cycles_stepped,
            engine.cycles_fast_forwarded)


class _LocalAlarm:
    """A *local* component with one self-scheduled firing."""

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
            net, _, injector, channels = _build(engine)
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
                    net.attach_source((0, 3), PoissonBestEffortSource(
                        destinations=[(2, 1)], rate=0.02, seed=5))
                elif span == 10:
                    channels.append(net.establish_channel(
                        (0, 1), (3, 2), TrafficSpec(i_min=16), deadline=32,
                        label="contract-extra"))
                elif span == 15:
                    net.disable_snapshots()
                elif span == 20:
                    net.enable_snapshots(300)
                elif span == 25:
                    alarm = _LocalAlarm(net.cycle + 40)
                    net.engine.add_component(alarm, local=True)
                elif span == 30:
                    net.fail_link((3, 1), NORTH)  # announced: c0's path
                elif span == 60:
                    net.repair_link((3, 1), NORTH)
                elif span == 150:
                    net.teardown_channel(channels.pop())
                _enter(net, rng.randrange(1, 25))
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
            """A local component that reprograms a router mid-run."""

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
                RaiseAt(net.cycle + 60, third.control), local=True)
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

    def test_source_attached_after_the_first_run_fires(self):
        # The hole the run-entry rebuild used to hide: nothing woke the
        # host, so with a kept queue the source never fired.
        def run(engine):
            net = MeshNetwork(3, 3, engine=engine)
            net.run(10)
            net.attach_source((0, 0), PoissonBestEffortSource(
                destinations=[(2, 2)], rate=0.05, seed=3))
            net.run(2_000)
            return net

        net, oracle = run("event"), run("exact")
        assert net.log.be_delivered > 0
        assert _final(net)[:2] == _final(oracle)[:2]

    def test_host_entry_points_wake_between_runs(self):
        from repro.core.packet import BestEffortPacket

        net = MeshNetwork(3, 3)
        channel = net.establish_channel((0, 0), (2, 1), TrafficSpec(i_min=8),
                                        deadline=16, label="direct")
        net.run(50)
        host = net.hosts[(0, 0)]
        packets, _, release = channel.make_message(b"tc", net.current_tick)
        host.queue_tc(packets, release)
        x_offset, y_offset = net.mesh.offsets((0, 0), (1, 2))
        host.send_be(BestEffortPacket(x_offset=x_offset, y_offset=y_offset,
                                      payload=b"be"), net.cycle)
        _enter(net, 1_000)
        assert (net.log.tc_delivered, net.log.be_delivered) == (1, 1)

    def test_restore_onto_a_network_that_already_ran(self):
        # load_state must throw the kept queue away: this engine's is
        # valid, and describes a different moment of a different run.
        reference, _, _, _ = _build()
        reference.run(1_500)
        ctx = SaveContext()
        state = {"network": reference.state(ctx),
                 "metas": ctx.metas_state()}
        state = json.loads(json.dumps(state))
        reference.run(600)

        resumed, _, _, _ = _build()
        resumed.run(700)
        resumed.load_state(state["network"], LoadContext(state["metas"]))
        for _ in range(6):
            _enter(resumed, 100)
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
        router.inject_be(BestEffortPacket(x_offset=1, y_offset=0,
                                          payload=b"zz"))
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
        session.network.routers[(0, 0)].inject_be(
            BestEffortPacket(x_offset=1, y_offset=0, payload=b"zz"))
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
        # A fresh host with no sources and an empty release heap has
        # no self-scheduled work at all.
        assert host.next_event_cycle(0) is None
        # A queued release claims its exact release cycle, then "now"
        # once due.
        channel = net.establish_channel((0, 0), (1, 1),
                                        TrafficSpec(i_min=16),
                                        deadline=64, label="nec-h0")
        net.send_message(channel, at_cycle=0)
        claim = host.next_event_cycle(0)
        assert claim is not None and claim % slot == 0
        assert host.next_event_cycle(claim) == claim
        # A source without next_fire_cycle keeps the host polling
        # every cycle (the legacy exactness guarantee)...
        legacy = net.hosts[(1, 0)]
        legacy.attach_source(lambda cycle: [])
        assert legacy.next_event_cycle(123) == 123
        # ...while a schedule-aware source advertises its next firing.
        aware = net.hosts[(0, 1)]
        source = PeriodicSource(channel, period=64, slot_cycles=slot)
        aware.attach_source(source)
        assert aware.next_event_cycle(1) == source.next_fire_cycle(1)

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
        net, tolerance, _, channels = _build()
        controller = tolerance.controller
        # Nothing tracked: nothing scheduled.
        assert controller.next_event_cycle(net.cycle) is None
        net.run(700)  # past the first cut: retransmit timers armed
        claim = controller.next_event_cycle(net.cycle)
        assert claim is None or claim >= net.cycle
