"""Frames crossing routers that are awake, against per-byte stepping.

``tests/integration/test_frames_in_flight.py`` pins frames on a chain
sparse enough that the routers they cross mostly sleep.  On a loaded
mesh (the ``dense_tc`` benchmark) they do not: a router steps every
cycle for other work while a committed frame crosses it, and the frame
still moves as one record — its sender moves ``sent``, ``staging`` and
``tc_bytes`` only at its last byte or when read, the receiver's
synchroniser holds its bytes as one run that ``capture`` takes whole
once the last of them matures, and the injection port feeds a host
packet whole at its last byte.  Here back-to-back time-constrained
packets and best-effort worms share links, and a multicast leaves one
router on two ports; against ``_PerByteRouter`` the delivery records,
every router document and the bytes each output has sent must be equal
at every cycle, between cycles and mid-cycle, and a checkpoint taken
mid-run resumes under both engines.
"""

import json

import pytest

from repro import TrafficSpec
from repro.checkpoint.codec import LoadContext
from repro.core.invariants import check_router_invariants
from repro.core.packet import FrameRun
from repro.core.router import RealTimeRouter
from repro.network.network import MeshNetwork
from tests.integration.test_frames_in_flight import (
    _MidCycleReader,
    _PerByteRouter,
    _routers,
    _ServiceReader,
    documents,
    framed,
    records,
    save,
    service,
)
from tests.sends import Traffic, bursty, periodic, poisson


def build(engine="event", *, per_byte=False):
    """A 4x2 mesh: two channels and a multicast east along the bottom
    row, one channel west, best-effort worms both ways on the same
    links; the multicast branches at (2, 0) to its reception port and
    to (2, 1)."""
    with _routers(_PerByteRouter if per_byte else RealTimeRouter):
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


def awake_in_flight(net):
    """Routers stepping this cycle while a frame crosses them: a framed
    stream, a run in a synchroniser or a host packet fed as one."""
    return sum(
        router._asleep is None and (
            any(output.tc_stream is not None
                and output.tc_stream.base is not None
                for output in router.outputs.ports)
            or any(entry.__class__ is FrameRun
                   for port in router.inputs.ports for _, entry in port.sync)
            or router.inputs.tc_inject is not None)
        for router in net.routers.values())


def across_engines(net):
    """Every router document, a quiescent router's cycle counter left
    out: the oracle loop steps it on, the scheduler does not."""
    out = []
    for node, document in zip(net.mesh.nodes(), documents(net)):
        if net.routers[node].quiescent:
            document = json.loads(document)
            del document[0]["counters"]["cycle"]
            document = json.dumps(document, sort_keys=True)
        out.append(document)
    return out


CYCLES = 1_200


def test_awake_frames_equal_the_router_that_steps_every_byte():
    shipped, reference = build(), build(per_byte=True)
    readers = [(_MidCycleReader(traffic.net, 5),
                _ServiceReader(traffic.net))
               for traffic in (shipped, reference)]
    for traffic, pair in zip((shipped, reference), readers):
        for reader in pair:
            traffic.net.engine.add_component(reader)
    awake = 0
    for cycle in range(1, CYCLES):
        for traffic in (shipped, reference):
            traffic.run_to(cycle)
        net, twin = shipped.net, reference.net
        awake += awake_in_flight(net)
        assert records(net) == records(twin), cycle
        assert documents(net) == documents(twin), cycle
        assert service(net) == service(twin), cycle
        for router in net.routers.values():
            check_router_invariants(router)
    for mine, theirs in zip(*readers):
        assert mine.taken == theirs.taken
    net, twin = shipped.net, reference.net
    assert len(readers[0][1].taken) == CYCLES - 1
    # Busy: both classes delivered, the multicast on both branches, and
    # frames crossing awake routers on most cycles.
    kinds = {(record.traffic_class, record.connection_label,
              record.delivered_node) for record in net.log.records}
    assert {("TC", "fan", (2, 0)), ("TC", "fan", (2, 1))} <= kinds
    assert sum(record.traffic_class == "BE"
               for record in net.log.records) > 10
    assert len(records(net)) > CYCLES // 20
    assert awake > CYCLES
    assert (sum(r.bus.total_cycles for r in net.routers.values())
            == sum(r.bus.total_cycles for r in twin.routers.values()))


@pytest.mark.parametrize("writer,reader", [
    ("event", "event"), ("event", "exact"), ("exact", "event")])
def test_a_busy_checkpoint_resumes(writer, reader):
    reference = build(reader)
    reference.run(CYCLES)
    writing = build(writer)
    first = writing.net
    resumed_mid_frame = 0
    for stop in range(131, CYCLES, 257):
        writing.run_to(stop)
        resumed_mid_frame += bool(framed(first))
        state = save(first)
        resuming = build(reader)
        resumed = resuming.net
        resumed.load_state(state["network"], LoadContext(state["metas"]))
        assert documents(resumed) == documents(first), stop
        resuming.run_to(CYCLES)
        assert records(resumed) == records(reference.net), stop
        assert (across_engines(resumed)
                == across_engines(reference.net)), stop
        assert resumed.engine.audit_schedule() == []
    assert resumed_mid_frame >= 2


def test_a_restored_host_packet_is_one_run_again():
    # A document lists the host packet's unfed bytes one phit each; a
    # restore compacts them into one run again, placed in time by the
    # first feed, and refuses a list that is not one packet's bytes.
    writing = build()
    net = writing.net
    for stop in range(1, CYCLES):
        writing.run_to(stop)
        feeding = [node for node, router in net.routers.items()
                   if router.inputs.tc_inject is not None
                   and 0 < router.inputs.tc_inject.index]
        if feeding:
            break
    node = feeding[0]
    run = net.routers[node].inputs.tc_inject
    state = save(net)
    restored = build().net
    restored.load_state(state["network"], LoadContext(state["metas"]))
    again = restored.routers[node].inputs.tc_inject
    assert (again.ready, again.data, again.index, again.ends) == (
        None, run.data, run.index, True)
    assert documents(restored) == documents(net)
    document = next(document for document in state["network"]["routers"]
                    if document["tc_inject_phits"])
    del document["tc_inject_phits"][1]  # a byte missing
    with pytest.raises(ValueError, match="tc_inject_phits"):
        build().net.load_state(state["network"],
                               LoadContext(state["metas"]))
