"""The reference chip, and the one comparison every effort saving is
checked against.

The model saves effort wherever the chip's cycle-by-cycle definition
(paper §3–§4) allows it: dormant routers, frames in flight, phase
guards and a remembered activity answer (docs/performance.md).
:class:`ReferenceRouter` under the ``exact`` engine is the chip with all
of them off.  :func:`compare` runs a scenario on both side by side and
checks, between cycles and mid-cycle, delivery records,
``output_service``, fault counters, every router document through one
normaliser (:func:`document`) and the router invariants;
:func:`resume_everywhere` resumes checkpoints on either engine, with
invariants on, to the reference run.  A new saving joins with one
override in :class:`ReferenceRouter`.  This module is the only place
that swaps the router class ``MeshNetwork`` builds.
"""

import copy
import functools
import json
import random
from collections import Counter, deque
from contextlib import contextmanager

from repro import TrafficSpec
from repro.checkpoint import Execution
from repro.checkpoint.codec import LoadContext, SaveContext
from repro.core import (
    BestEffortPacket,
    RouterParams,
    TimeConstrainedPacket,
    port_mask,
)
from repro.core.clock import RolloverClock
from repro.core.comparator_tree import SchedulerPipeline
from repro.core.invariants import check_router_invariants
from repro.core.packet import FrameRun, phits_of
from repro.core.params import MESH_LINKS, OUTPUT_PORTS
from repro.core.ports import EAST, NORTH, RECEPTION, SOUTH, WEST
from repro.core.router import LinkSignal, RealTimeRouter
from repro.faults import FaultInjector, install_fault_tolerance
from repro.faults.plan import CUT, REPAIR, FaultEvent, FaultPlan
from repro.network import network as network_module
from repro.network.network import MeshNetwork
from repro.network.node import HostNode
from tests.sends import Traffic, bursty, periodic, poisson


# ----------------------------------------------------------------------
# Which loop ran
# ----------------------------------------------------------------------

def assert_oracle_ran(engine):
    """``engine`` ran the bare per-cycle loop from cycle 0 (the default
    engine is the scheduler: a reference built from defaults would
    compare event with event)."""
    assert engine.mode == "exact"
    assert engine.cycles_fast_forwarded == 0
    assert engine.cycles_stepped == engine.cycle


def assert_scheduler_skipped(engine):
    """``engine`` ran the event scheduler and jumped over idle spans."""
    assert engine.mode == "event"
    assert engine.cycles_fast_forwarded > 0
    assert (engine.cycles_stepped + engine.cycles_fast_forwarded
            == engine.cycle)


def assert_ran_as(engine, mode):
    """``engine`` ran in ``mode``; the oracle, additionally, never
    skipped (for suites parametrised over both modes)."""
    assert engine.mode == mode
    if mode == "exact":
        assert_oracle_ran(engine)


# ----------------------------------------------------------------------
# The reference chip
# ----------------------------------------------------------------------

class ReferenceRouter(RealTimeRouter):
    """The chip with every effort saving off: never dormant, every byte
    stepped, every phase entered on every working cycle, no activity
    answer remembered."""

    _every_phase = True

    def _dormancy_deadline(self):
        return 0

    @property
    def frame_links(self):
        return None

    @frame_links.setter
    def frame_links(self, links):
        pass

    @property
    def _work_at(self):
        return None

    @_work_at.setter
    def _work_at(self, answer):
        pass

    @property
    def quiescent(self):
        return self._holds_nothing()


@contextmanager
def _building(router, host):
    built = network_module.RealTimeRouter, network_module.HostNode
    network_module.RealTimeRouter, network_module.HostNode = router, host
    try:
        yield
    finally:
        network_module.RealTimeRouter, network_module.HostNode = built


def build(scenario, engine="event", *, reference=False, host=HostNode):
    """``scenario(engine)`` on the shipped chip, or on the reference
    chip under the exact engine; its hosts are built as ``host``."""
    with _building(ReferenceRouter if reference else RealTimeRouter, host):
        return scenario("exact" if reference else engine)


# ----------------------------------------------------------------------
# What is read, and the one normaliser
# ----------------------------------------------------------------------

def records(net):
    return [(r.traffic_class, r.connection_label, r.sequence, r.source,
             r.destination, r.injected_cycle, r.delivered_cycle,
             r.delivered_node, r.deadline_met)
            for r in net.log.records]


def document(router):
    """A router's document as the reference holds it where the router
    is read (it settles first).  Left out: packet ids (a process-wide
    counter) and the tree's key cache and its two counters (simulator
    effort).  Brought forward to the read point: a dormant router's
    lagging pipeline, replayed on a copy with the tournaments and bus
    cycles that stands for, its clock and cycle, and the cycle of a
    quiescent router the scheduler does not step."""
    point, _ = router.settle()
    ctx = SaveContext()
    state = router.state(ctx)
    tree = state["tree"]
    for key in ("keys_computed", "keys_reused", "key_cache"):
        del tree[key]
    lag = router._pipeline_lag
    if lag is not None:
        pipeline = SchedulerPipeline(router.params, tree=None)
        pipeline.load_state(state["pipeline"])
        tree["evaluations"] += pipeline.replay(
            lag, point, router.outputs.eligible_ports())
        state["pipeline"] = pipeline.state()
        state["bus"]["total_cycles"] += point - lag
        state["pipeline_lag"] = None
        state["clock"] = RolloverClock(
            bits=router.params.clock_bits,
            now=(point - 1) // router.params.slot_cycles
            + router.clock_skew_ticks).state()
    if lag is not None or router._holds_nothing():
        state["counters"]["cycle"] = point
    metas = [{key: value for key, value in meta.items()
              if key != "packet_id"} for meta in ctx.metas_state()]
    return [state, metas]


def documents(net):
    return [document(net.routers[node]) for node in net.mesh.nodes()]


def service(net):
    """Bytes each output port has sent, every router (``output_service``
    settles first)."""
    return [net.routers[node].output_service(port)
            for node in net.mesh.nodes() for port in range(OUTPUT_PORTS)]


def framed(net):
    """The output ports whose stream crosses as one arrival."""
    return [(node, port) for node, router in net.routers.items()
            for port, output in enumerate(router.outputs.ports)
            if output.tc_stream is not None
            and output.tc_stream.base is not None]


def awake_in_flight(net):
    """Routers stepping this cycle while a frame crosses them: a framed
    stream, a run in a synchroniser or a host packet fed as one."""
    return sum(
        router._asleep is None and (
            router.outputs.framing()
            or any(entry.__class__ is FrameRun
                   for port in router.inputs.ports for _, entry in port.sync)
            or router.inputs.tc_inject is not None)
        for router in net.routers.values())


def check_invariants(net):
    """``check_router_invariants`` on every router, and no missed
    transfer on a link a frame may cross (the argument for framing
    under a watchdog)."""
    for router in net.routers.values():
        check_router_invariants(router)
    for (node, direction), monitor in net.link_monitors.items():
        if net.routers[node].frame_links[direction]:
            assert monitor.missed_transfers == 0, (node, direction)


def save(net):
    ctx = SaveContext()
    state = {"network": net.state(ctx), "metas": ctx.metas_state()}
    return json.loads(json.dumps(state))  # a real round-trip


def restore(net, state):
    net.load_state(state["network"], LoadContext(state["metas"]))
    return net


# ----------------------------------------------------------------------
# The one comparison
# ----------------------------------------------------------------------

def compare(pair, cycles):
    """At each of ``cycles`` (ascending), run both sides of ``pair`` to
    it and check that what is read of them is equal, then the shipped
    side's invariants; returns ``pair.counts``, what the shipped side
    was seen doing (the proof a saving was really exercised)."""
    for cycle in cycles:
        pair.advance(cycle)
        shipped, reference = pair.observe()
        for key, value in shipped.items():
            assert value == reference[key], f"{key} differ at cycle {cycle}"
        pair.check()
    return pair.counts


class _Reader:
    """Registered after every router: inside each ``every``-th cycle,
    after the routers' slots, reads every ``output_service`` and, on
    each ``documents_every``-th, every router document."""

    def __init__(self, net, every, documents_every):
        self.net, self.every = net, every
        self.documents_every = documents_every
        self.taken = []
        self.reads = self.mid_frame = 0

    def next_event_cycle(self, cycle):
        return cycle + (-cycle) % self.every

    def step(self, cycle):
        if cycle % self.every == 0:
            net = self.net
            self.reads += 1
            self.mid_frame += bool(framed(net))
            self.taken.append((
                cycle, service(net),
                documents(net) if cycle % self.documents_every == 0
                else None))


class FabricPair:
    """A scenario built on the shipped chip (under ``engine``) and on
    the reference, each with a mid-cycle reader (``every``: the service
    and the document cadence) and a log of every link event published
    (``(kind, link, cycle)``: announcements, detections, repairs)."""

    def __init__(self, scenario, engine="event", *, every=(7, 7),
                 host=HostNode):
        self.runs = (build(scenario, engine, host=host),
                     build(scenario, reference=True, host=host))
        self.nets = tuple(traffic.net for traffic in self.runs)
        self.readers = tuple(_Reader(net, *every) for net in self.nets)
        self.link_events = ([], [])
        for net, reader, seen in zip(self.nets, self.readers,
                                     self.link_events):
            net.engine.add_component(reader)
            net.events.subscribe(lambda event, seen=seen: seen.append(
                (event.kind, event.link, event.cycle)))
        self.counts = Counter()

    def advance(self, cycle):
        for traffic in self.runs:
            traffic.run_to(cycle)
        net, counts = self.nets[0], self.counts
        counts["asleep"] += sum(router._asleep is not None
                                for router in net.routers.values())
        counts["mid_frame"] += bool(framed(net))
        counts["awake_in_flight"] += awake_in_flight(net)
        counts["lagging"] += sum(router._pipeline_lag is not None
                                 for router in net.routers.values())

    def observe(self):
        reads = []
        for net, reader, seen in zip(self.nets, self.readers,
                                     self.link_events):
            taken, reader.taken = reader.taken, []
            reads.append({"records": records(net),
                          "documents": documents(net),
                          "service": service(net),
                          "faults": net.fault_counters().as_dict(),
                          "detected": list(seen),
                          "mid-cycle reads": taken})
        shipped = self.readers[0]
        self.counts["mid_cycle_reads"] = shipped.reads
        self.counts["mid_frame_reads"] = shipped.mid_frame
        return reads

    def check(self):
        check_invariants(self.nets[0])


class ChipPair:
    """One standalone router each, shipped and reference, built with
    ``options`` and set up by ``program``, fed one upstream ``script``
    (:class:`Upstream`): its link signals and injections before each
    step, its deliveries collected after it.  Both answer
    ``next_event_cycle`` alike, except that where the shipped chip
    waits for a deadline the reference, which never waits, answers
    the present."""

    def __init__(self, script, program, **options):
        params = RouterParams()
        self.routers = tuple(
            cls(params, router_id="dut", on_memory_full="drop", **options)
            for cls in (RealTimeRouter, ReferenceRouter))
        for router in self.routers:
            program(router)
        self.script = script
        self.cycle = 0
        self.taken = ([], [])
        self.counts = Counter()

    def advance(self, until):
        shipped, reference = self.routers
        counts = self.counts
        while self.cycle < until:
            cycle = self.cycle
            signals, injections, collect = self.script.offer(cycle)
            claim = shipped.next_event_cycle(cycle)
            lagged = shipped._pipeline_lag is not None
            if claim is not None and claim > cycle:
                counts["dormant"] += 1
                counts["woken by byte"] += any(
                    phits[0] is not None for phits, _ in signals)
                counts["woken by ack"] += any(ack for _, ack in signals)
                counts["woken by injection"] += bool(injections)
            elif claim == cycle and lagged:
                counts["woken by deadline"] += 1
            for twin, router in enumerate(self.routers):
                for link, (phits, ack) in enumerate(signals):
                    if phits[twin] is not None or ack:
                        router.link_in[link] = LinkSignal(phit=phits[twin],
                                                          ack=ack)
                for packets in injections:
                    packet = packets[twin]
                    if isinstance(packet, TimeConstrainedPacket):
                        router.inject_tc(packet)
                    else:
                        router.inject_be(packet)
            answers = (shipped.next_event_cycle(cycle),
                       reference.next_event_cycle(cycle))
            assert answers[0] == answers[1] or (
                answers[0] is not None
                and answers[0] > cycle == answers[1]), (cycle, answers)
            for router, taken in zip(self.routers, self.taken):
                router.step()
                if collect:
                    taken += [(type(p).__name__, p.meta.delivered_cycle,
                               bytes(p.payload))
                              for p in router.take_delivered()]
            counts["replays"] += lagged and shipped._pipeline_lag is None
            self.script.observe(shipped)
            self.cycle += 1

    def observe(self):
        return [{"records": taken, "documents": document(router),
                 "service": [router.output_service(port)
                             for port in range(OUTPUT_PORTS)]}
                for router, taken in zip(self.routers, self.taken)]

    def check(self):
        check_router_invariants(self.routers[0])


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

@functools.cache
def _reference_end(scenario, cycles):
    traffic = build(scenario, reference=True)
    traffic.run_to(cycles)
    assert_oracle_ran(traffic.net.engine)
    return records(traffic.net), documents(traffic.net)


#: Cycles between invariant checks after a restore.
CHECK_EVERY = 50


def resume_everywhere(scenario, writer, reader, stops, cycles, *,
                      mid_frame_only=False):
    """Checkpoint ``scenario`` run under ``writer`` at each of ``stops``
    (with a frame in flight only, if ``mid_frame_only``), restore it
    under ``reader`` and run it to ``cycles`` with the router invariants
    checked at the restore and every :data:`CHECK_EVERY` cycles after;
    the records and documents must be the reference run's.  Returns how
    many restores had a frame in flight."""
    expected = _reference_end(scenario, cycles)
    writing = build(scenario, writer)
    first = writing.net
    mid_frame = 0
    for stop in stops:
        writing.run_to(stop)
        if mid_frame_only and not framed(first):
            continue
        mid_frame += bool(framed(first))
        resuming = build(scenario, reader)
        resumed = restore(resuming.net, save(first))
        assert documents(resumed) == documents(first), stop
        for at in range(stop, cycles, CHECK_EVERY):
            resuming.run_to(at)
            check_invariants(resumed)
        resuming.run_to(cycles)
        assert (records(resumed), documents(resumed)) == expected, stop
        assert resumed.engine.audit_schedule() == []
    return mid_frame


def reference_session(cls, *spec):
    """``cls.open(*spec)`` on the reference chip under the exact
    engine, run to its end."""
    with _building(ReferenceRouter, HostNode):
        session = cls.open(*spec, execution=Execution(engine="exact"))
    session.run()
    assert_oracle_ran(session.network.engine)
    return session


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def chain(engine="event", *, cut_through=False, best_effort=True):
    """A 5x1 chain: two channels end to end and one short one, sparse
    enough that most cycles move nothing but frames."""
    net = MeshNetwork(5, 1, engine=engine, cut_through=cut_through)
    slot = net.params.slot_cycles
    east = net.establish_channel((0, 0), (4, 0), TrafficSpec(i_min=6),
                                 deadline=40, label="east")
    west = net.establish_channel((4, 0), (0, 0), TrafficSpec(i_min=9),
                                 deadline=60, label="west")
    local = net.establish_channel((2, 0), (3, 0), TrafficSpec(i_min=7),
                                  deadline=20, label="local")
    streams = [periodic(east, 6, slot=slot, payload=b"e" * 18),
               bursty(west, 9, slot=slot, burst=2),
               periodic(local, 7, slot=slot, start_tick=3)]
    if best_effort:
        streams.append(poisson((1, 0), [(4, 0), (0, 0)], 0.002, seed=5))
    return Traffic(net, *streams)


def busy_mesh(engine="event"):
    """A 4x2 mesh: two channels and a multicast east along the bottom
    row, one channel west, best-effort worms both ways on the same
    links; the multicast branches at (2, 0) to its reception port and
    to (2, 1)."""
    net = MeshNetwork(4, 2, engine=engine)
    slot = net.params.slot_cycles
    east = net.establish_channel((0, 0), (3, 0), TrafficSpec(i_min=3),
                                 deadline=40, label="east")
    near = net.establish_channel((1, 0), (3, 0), TrafficSpec(i_min=5),
                                 deadline=40, label="near")
    fan = net.establish_channel((0, 0), [(2, 0), (2, 1)],
                                TrafficSpec(i_min=5), deadline=40,
                                label="fan")
    west = net.establish_channel((3, 0), (0, 0), TrafficSpec(i_min=3),
                                 deadline=40, label="west")
    return Traffic(
        net,
        bursty(east, 6, slot=slot, burst=2, payload=b"e" * 18),
        periodic(near, 5, slot=slot, start_tick=1),
        periodic(fan, 5, slot=slot, start_tick=2, payload=b"f"),
        periodic(west, 3, slot=slot),
        poisson((0, 0), [(3, 0), (3, 1)], 0.01, seed=3),
        poisson((3, 0), [(0, 0)], 0.008, seed=4))


def loaded_mesh(engine="event"):
    """A loaded 4x4 mesh with every component kind registered: hosts,
    routers, watchdog, recovery controller, fault injector and the
    periodic snapshot emitter; its :class:`Traffic` carries the
    fault-tolerance stack, the injector and the channels."""
    net = MeshNetwork(4, 4, engine=engine)
    slot = net.params.slot_cycles
    c0 = net.establish_channel((0, 0), (3, 3), TrafficSpec(i_min=64),
                               deadline=24, label="contract-c0")
    c1 = net.establish_channel((3, 0), (0, 3), TrafficSpec(i_min=96),
                               deadline=24, label="contract-c1")
    traffic = Traffic(net, periodic(c0, 64, slot=slot),
                      bursty(c1, 96, slot=slot, burst=2),
                      poisson((1, 1), [(2, 2), (3, 1)], 0.01, seed=31))
    traffic.tolerance = install_fault_tolerance(net)
    plan = FaultPlan(events=[
        FaultEvent(cycle=300, kind=CUT, node=(1, 0), direction=EAST),
        FaultEvent(cycle=900, kind=REPAIR, node=(1, 0), direction=EAST),
        FaultEvent(cycle=1_700, kind=CUT, node=(2, 2), direction=NORTH),
    ])
    traffic.injector = FaultInjector(net, plan)
    net.engine.add_component(traffic.injector)
    net.enable_snapshots(400)
    traffic.channels = [c0, c1]
    return traffic


def chaos_chain(engine="event", *, events=()):
    """The chain with the fault-tolerance stack installed and
    ``events`` planned."""
    traffic = chain(engine)
    install_fault_tolerance(traffic.net)
    traffic.net.engine.add_component(
        FaultInjector(traffic.net, FaultPlan(events=list(events))))
    return traffic


class Upstream:
    """What the four neighbours and the host offer one router: bytes of
    whole packets per link (best-effort ones under credit flow
    control), acknowledgements for best-effort bytes the router sent,
    and host injections — one seeded script, played to both routers.
    Loaded for most of the run, then drained, so the quiescent fast
    path and the way back out of it are covered."""

    #: Per cycle: a packet starts on a link, the host injects one, an
    #: owed acknowledgement is returned.
    LINK_RATE, INJECT_RATE, ACK_RATE = 0.03, 0.03, 0.8

    def __init__(self, seed, params=RouterParams()):
        self.rng = random.Random(seed)
        self.params = params
        self.tc = [deque() for _ in range(MESH_LINKS)]
        self.be = [deque() for _ in range(MESH_LINKS)]
        self.credits = [params.flit_buffer_bytes] * MESH_LINKS
        self.owed_acks = [0] * MESH_LINKS

    def _packet(self):
        """A packet and its twin (same id, separate metadata object):
        one for each router."""
        rng = self.rng
        if rng.random() < 0.5:
            packet = TimeConstrainedPacket(
                rng.choice([0, 1, 2, 3]),
                header_deadline=rng.randrange(0, 40))
        else:
            packet = BestEffortPacket(rng.choice([-1, 0, 0, 1]),
                                      rng.choice([-1, 0, 1]),
                                      payload=bytes(rng.randrange(0, 40)))
        return packet, copy.deepcopy(packet)

    def offer(self, cycle):
        return self._offer(cycle < 1_800 and cycle % 600 < 450)

    def _offer(self, busy):
        """This cycle's link signals and host calls, as plain data;
        every phit and packet comes as a (router, twin) pair."""
        rng = self.rng
        signals, injections = [], []
        for link in range(MESH_LINKS):
            if busy and rng.random() < self.LINK_RATE:
                packet, twin = self._packet()
                queue = (self.tc if isinstance(
                    packet, TimeConstrainedPacket) else self.be)[link]
                queue.extend(zip(phits_of(packet, self.params),
                                 phits_of(twin, self.params)))
            phit = (None, None)
            if self.tc[link] and (not self.be[link] or rng.random() < 0.7):
                phit = self.tc[link].popleft()
            elif self.be[link] and self.credits[link] > 0:
                phit = self.be[link].popleft()
                self.credits[link] -= 1
            ack = self.owed_acks[link] > 0 and rng.random() < self.ACK_RATE
            if ack:
                self.owed_acks[link] -= 1
            signals.append((phit, ack))
        if busy and rng.random() < self.INJECT_RATE:
            injections.append(self._packet())
        return signals, injections, rng.random() < 0.3

    def observe(self, router):
        for link in range(MESH_LINKS):
            out = router.link_out[link]
            if out.ack:
                self.credits[link] += 1
            if out.phit is not None and out.phit.vc == "BE":
                self.owed_acks[link] += 1


class SparseUpstream(Upstream):
    """The same upstream made sparse: bursts of whole packets on the
    links (best-effort under credit flow control, acks trickling back
    late), host injections, and long silences in which only early
    time-constrained packets are left inside."""

    LINK_RATE, INJECT_RATE, ACK_RATE = 0.0015, 0.002, 0.25

    def __init__(self, seed, params=RouterParams(), skew=0):
        super().__init__(seed, params)
        self.skew = self.tick = skew

    def _packet(self):
        rng = self.rng
        if rng.random() < 0.7:
            # Logical arrival around the router's own idea of now,
            # mostly ahead of it: early packets, held in Queue 3.
            packet = TimeConstrainedPacket(
                rng.choice([0, 1, 1, 2, 3]),
                header_deadline=(self.tick + rng.randrange(-4, 30)) % 256)
        else:
            packet = BestEffortPacket(rng.choice([-1, 0, 0, 1]),
                                      rng.choice([-1, 0, 1]),
                                      payload=bytes(rng.randrange(0, 30)))
        return packet, copy.deepcopy(packet)

    def offer(self, cycle):
        self.tick = cycle // self.params.slot_cycles + self.skew
        return self._offer(True)


def program(router, *, horizons=False):
    """Four connections, one a multicast; with ``horizons``, horizon 0
    (hold until on time) on EAST and SOUTH and positive, different ones
    elsewhere: a multicast leaf wakes for its widest port."""
    control = router.control
    control.program_connection(0, 0, delay=20, port_mask=port_mask(RECEPTION))
    control.program_connection(1, 1, delay=10, port_mask=port_mask(EAST))
    control.program_connection(
        2, 2, delay=15, port_mask=port_mask(NORTH, WEST, RECEPTION))
    control.program_connection(3, 3, delay=6, port_mask=port_mask(SOUTH))
    if horizons:
        control.write_horizon(port_mask(NORTH), 3)
        control.write_horizon(port_mask(WEST), 1)
        control.write_horizon(port_mask(RECEPTION), 6)
