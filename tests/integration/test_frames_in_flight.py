"""Frames in flight against the router that steps every byte.

A committed time-constrained stream whose bytes are all staged is one
arrival: its sender hands the link every byte but the last, each with
the cycle it matures in the neighbour's synchroniser, and both routers
sleep until the frame's next event (``OutputSide.frame``,
``RealTimeRouter._frame_wake``).  ``_PerByteRouter`` is the behaviour
that replaces — every byte stepped across every link — and on a sparse
time-constrained chain the two must deliver the same packets on the
same cycles and, read at any point (between cycles, or mid-cycle after
the routers' slots), hold byte-identical documents: a router that slept
settles when it is read.  Checkpoints taken mid-frame resume under both
engines, and a fault that strikes a link mid-frame puts the frame back
on the wire byte by byte.
"""

import json
from contextlib import contextmanager

import pytest

from repro import TrafficSpec
from repro.checkpoint.codec import LoadContext, SaveContext
from repro.core.invariants import check_router_invariants
from repro.core.params import OUTPUT_PORTS
from repro.core.ports import EAST, WEST
from repro.core.router import RealTimeRouter
from repro.faults.injector import BitFlipCorruptor
from repro.faults.watchdog import LinkWatchdog
from repro.network import network as network_module
from repro.network.network import MeshNetwork
from repro.network.node import HostNode
from tests.oracle import assert_oracle_ran
from tests.sends import Traffic, bursty, periodic, poisson


class _PerByteRouter(RealTimeRouter):
    """Every byte steps: no port frames, nothing sleeps on a frame."""

    @property
    def frame_links(self):
        return None

    @frame_links.setter
    def frame_links(self, links):
        pass


@contextmanager
def _built_as(name, cls):
    built = getattr(network_module, name)
    setattr(network_module, name, cls)
    try:
        yield
    finally:
        setattr(network_module, name, built)


def _routers(cls):
    return _built_as("RealTimeRouter", cls)


def _hosts(cls):
    return _built_as("HostNode", cls)


def build(engine="event", *, per_byte=False, cut_through=False,
          best_effort=True):
    """A 5x1 chain: two channels end to end and one short one, sparse
    enough that most cycles move nothing but frames."""
    with _routers(_PerByteRouter if per_byte else RealTimeRouter):
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


def records(net):
    return [(r.traffic_class, r.connection_label, r.sequence, r.source,
             r.injected_cycle, r.delivered_cycle, r.delivered_node,
             r.deadline_met)
            for r in net.log.records]


def documents(net):
    """Every router's document, in node order (``state`` settles);
    packet ids left out (a process-wide counter: two chains run side
    by side draw different ones)."""
    out = []
    for node in net.mesh.nodes():
        ctx = SaveContext()
        document = net.routers[node].state(ctx)
        metas = [{key: value for key, value in meta.items()
                  if key != "packet_id"} for meta in ctx.metas_state()]
        out.append(json.dumps([document, metas], sort_keys=True))
    return out


class _MidCycleReader:
    """Registered after every router: reads all their documents inside
    each cycle it is due, after the routers' slots."""

    def __init__(self, net, every):
        self.net, self.every, self.taken = net, every, []

    def next_event_cycle(self, cycle):
        return cycle + (-cycle) % self.every

    def step(self, cycle):
        if cycle % self.every == 0:
            self.taken.append((cycle, documents(self.net)))


def service(net):
    """Bytes each output port has sent, every router (``output_service``
    settles first)."""
    return [net.routers[node].output_service(port)
            for node in net.mesh.nodes() for port in range(OUTPUT_PORTS)]


class _ServiceReader:
    """Registered after every router: reads all their
    ``output_service`` inside each cycle, after the routers' slots."""

    def __init__(self, net):
        self.net, self.taken = net, []

    def next_event_cycle(self, cycle):
        return cycle

    def step(self, cycle):
        self.taken.append((cycle, service(self.net)))


def asleep(net):
    return sum(router._asleep is not None for router in net.routers.values())


def framed(net):
    return [(node, port) for node, router in net.routers.items()
            for port, output in enumerate(router.outputs.ports)
            if output.tc_stream is not None
            and output.tc_stream.base is not None]


CYCLES = 1_500


@pytest.mark.parametrize("cut_through", [False, True])
def test_frames_equal_the_router_that_steps_every_byte(cut_through):
    shipped = build(cut_through=cut_through)
    reference = build(per_byte=True, cut_through=cut_through)
    readers = [_MidCycleReader(traffic.net, 7)
               for traffic in (shipped, reference)]
    for traffic, reader in zip((shipped, reference), readers):
        traffic.net.engine.add_component(reader)
    slept = mid_frame = 0
    for cycle in range(1, CYCLES):
        for traffic in (shipped, reference):
            traffic.run_to(cycle)
        net, twin = shipped.net, reference.net
        slept += asleep(net)
        mid_frame += bool(framed(net))
        assert records(net) == records(twin), cycle
        assert documents(net) == documents(twin), cycle
        for router in net.routers.values():
            check_router_invariants(router)
    assert readers[0].taken == readers[1].taken
    assert len(readers[0].taken) > CYCLES // 8
    net, twin = shipped.net, reference.net
    assert len(records(net)) > CYCLES // 75
    assert cut_through == any(router.cut_through_count
                              for router in net.routers.values())
    # The frames really slept (a cut-through router's inputs step per
    # byte: the frame they cut through is never staged whole).
    assert mid_frame > CYCLES // 4
    assert slept > (CYCLES // 40 if cut_through else CYCLES // 3)
    stepped = sum(r.bus.total_cycles for r in net.routers.values())
    assert stepped == sum(r.bus.total_cycles for r in twin.routers.values())
    assert net.engine.cycles_stepped <= twin.engine.cycles_stepped
    if not cut_through:
        assert net.engine.cycles_stepped < twin.engine.cycles_stepped


def test_output_service_read_mid_cycle_is_the_per_byte_count():
    # A framed stream's byte count moves at its last byte; a reader
    # inside a cycle, after the routers' slots, sees the per-byte one.
    class Reader(_ServiceReader):
        mid_frame = 0

        def step(self, cycle):
            self.mid_frame += bool(framed(self.net))
            super().step(cycle)

    runs = [build(), build(per_byte=True)]
    readers = [Reader(traffic.net) for traffic in runs]
    for traffic, reader in zip(runs, readers):
        traffic.net.engine.add_component(reader)
        traffic.run(CYCLES // 3)
    assert readers[0].taken == readers[1].taken
    assert len(readers[0].taken) == CYCLES // 3
    assert readers[0].mid_frame > CYCLES // 10


def test_the_oracle_loop_runs_frames_the_same():
    runs = [build("exact"), build("event"), build("exact", per_byte=True)]
    for traffic in runs:
        traffic.run(CYCLES)
    oracle, event, per_byte = (traffic.net for traffic in runs)
    assert_oracle_ran(oracle.engine)
    assert_oracle_ran(per_byte.engine)
    assert records(oracle) == records(event) == records(per_byte)
    # (Documents only loop to loop: the scheduler does not step a
    # quiescent router, whose cycle counter then stands still.)
    assert documents(oracle) == documents(per_byte)


def save(net):
    ctx = SaveContext()
    state = {"network": net.state(ctx), "metas": ctx.metas_state()}
    return json.loads(json.dumps(state))  # a real round-trip


@pytest.mark.parametrize("writer,reader", [
    ("event", "event"), ("event", "exact"), ("exact", "event")])
def test_a_checkpoint_taken_mid_frame_resumes(writer, reader):
    reference = build(reader)
    reference.run(CYCLES)
    writing = build(writer)
    first = writing.net
    resumed_mid_frame = 0
    for stop in range(97, CYCLES, 211):
        writing.run_to(stop)
        if not framed(first):
            continue
        resumed_mid_frame += 1
        state = save(first)
        resuming = build(reader)
        resumed = resuming.net
        resumed.load_state(state["network"], LoadContext(state["metas"]))
        assert documents(resumed) == documents(first), stop
        resuming.run_to(CYCLES)
        assert records(resumed) == records(reference.net), stop
        assert documents(resumed) == documents(reference.net), stop
        assert resumed.engine.audit_schedule() == []
    assert resumed_mid_frame >= 3


class _Strike:
    """A component registered after the routers that does something to
    the network inside one cycle, as the fault injector does."""

    def __init__(self, at, action):
        self.at, self.action = at, action

    def next_event_cycle(self, cycle):
        return self.at if cycle <= self.at else None

    def step(self, cycle):
        if cycle == self.at:
            self.action()


class _StrikingHost(HostNode):
    """The host of the frame's sender, registered just before it: does
    ``strike`` = (cycle, action) inside that cycle, before the sender's
    slot and the receiver's."""

    strike = None

    def _mine(self):
        return self.strike is not None and self.node == (1, 0)

    def next_event_cycle(self, cycle):
        due = super().next_event_cycle(cycle)
        if self._mine() and cycle <= self.strike[0]:
            return self.strike[0] if due is None else min(due,
                                                          self.strike[0])
        return due

    def step(self, cycle):
        if self._mine() and cycle == self.strike[0]:
            self.strike[1](self.network)
        super().step(cycle)


def _strike_mid_frame(action, where):
    """Run shipped and per-byte chains to a cycle where a frame crosses
    (1,0) -> (2,0), strike between cycles, inside the cycle after the
    routers' slots or before the sender's, and check they stay equal."""
    probe = build(best_effort=False)
    sender = probe.net.routers[(1, 0)].outputs.ports[EAST]
    for at in range(200, CYCLES):
        probe.run_to(at)
        if ((1, 0), EAST) in framed(probe.net) and sender.tc_stream.sent > 4:
            break
    assert probe.net.routers[(1, 0)]._asleep is not None
    _StrikingHost.strike = (at, action) if where == "before" else None
    try:
        with _hosts(_StrikingHost):
            runs = [build(best_effort=False),
                    build(per_byte=True, best_effort=False)]
        for traffic in runs:
            net = traffic.net
            if where == "after":
                net.engine.add_component(
                    _Strike(at, lambda net=net: action(net)))
            if where == "between":
                traffic.run_to(at)
                action(net)
            else:
                traffic.run_to(at + 1)
    finally:
        _StrikingHost.strike = None
    shipped, reference = (traffic.net for traffic in runs)
    assert documents(shipped) == documents(reference)
    for traffic in runs:
        traffic.run_to(at + 600)
    assert records(shipped) == records(reference)
    assert documents(shipped) == documents(reference)
    assert (shipped.fault_counters().as_dict()
            == reference.fault_counters().as_dict())
    assert shipped.engine.audit_schedule() == []
    return shipped


WHERE = ["between", "after", "before"]


@pytest.mark.parametrize("where", WHERE)
def test_a_link_cut_mid_frame_puts_it_back_on_the_wire(where):
    net = _strike_mid_frame(
        lambda net: net.fail_link((1, 0), EAST, announce=False), where)
    assert net.link_monitors[((1, 0), EAST)].bytes_lost > 0


@pytest.mark.parametrize("where", WHERE)
def test_a_corruptor_installed_mid_frame_sees_every_byte(where):
    net = _strike_mid_frame(
        lambda net: net.set_link_corruptor((1, 0), EAST,
                                           BitFlipCorruptor(packets=1)),
        where)
    assert net.fault_counters().link_bytes_corrupted > 0


def test_a_watchdog_installed_mid_frame_leaves_frames_framed():
    # The watchdog reads only missed transfers, which no framed link
    # counts: installing it changes no port's framing.
    seen = []

    def install(net):
        def framing():
            return ([router.frame_links and list(router.frame_links)
                     for router in net.routers.values()], framed(net))
        before = framing()
        LinkWatchdog(net)
        seen.append((before, framing()))

    net = _strike_mid_frame(install, "between")
    (shipped_before, shipped_after), (per_byte_before, per_byte_after) = seen
    assert shipped_before == shipped_after
    assert per_byte_before == per_byte_after
    assert ((1, 0), EAST) in shipped_after[1]
    assert net.monitor_reader is not None


def test_the_reception_port_and_the_injection_port_frame_too():
    traffic = build(best_effort=False)
    net = traffic.net
    reception = injection = 0
    for cycle in range(1, 600):
        traffic.run_to(cycle)
        reception += any(
            router.outputs.ports[-1].tc_stream is not None
            and router.outputs.ports[-1].tc_stream.base is not None
            for router in net.routers.values())
        injection += any(router.inputs.tc_inject is not None
                         and router.inputs.tc_inject.ready is not None
                         and router._asleep is not None
                         for router in net.routers.values())
    assert reception > 50 and injection > 20
    assert net.routers[(0, 0)].frame_links == [True, False, False, False,
                                               True]
    assert net.routers[(2, 0)].frame_links[WEST]
