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


def _build():
    """A loaded 4x4 mesh with every component kind registered: hosts,
    routers, watchdog, recovery controller, fault injector and the
    periodic snapshot emitter."""
    net = MeshNetwork(4, 4)
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
        fresh = not router._pipeline_busy() and router.idle
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
