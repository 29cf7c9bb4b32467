"""Frames under a watchdog, against the router that steps every byte.

The link watchdog reads one thing, a ``LinkMonitor``'s
``missed_transfers``, which only a failed link raises, and a failed
link is never framed.  So frames cross every live, uncorrupted link as
one arrival whether or not fault tolerance is installed.  Here the
``_PerByteRouter`` chain of ``test_frames_in_flight.py`` runs a fault
plan whose cut, flap and corruption each strike a frame in flight,
with the watchdog and the recovery controller installed, and at every
cycle the delivery records, every router document, the fault counters
and the watchdog's detections must equal the per-byte chain's.  Every
link a frame may cross reads no missed transfer at every cycle: the
argument for framing under a watchdog, checked.  The flap's repair
lands while its sender streams per byte; the stream is framed at once
(``OutputSide.reframe``), so the router invariants hold at every cycle
too.
"""

from repro.core.invariants import check_router_invariants
from repro.core.ports import EAST, WEST
from repro.faults import FaultInjector, install_fault_tolerance
from repro.faults.plan import CORRUPT, CUT, REPAIR, FaultEvent, FaultPlan
from tests.integration.test_frames_in_flight import (
    CYCLES,
    build,
    documents,
    framed,
    records,
)

CORRUPTED, FLAPPED, CUT_LINK = ((1, 0), EAST), ((3, 0), WEST), ((2, 0), EAST)


def chaos(events, *, per_byte=False):
    """The chain with fault tolerance installed and ``events`` planned."""
    traffic = build(per_byte=per_byte)
    net = traffic.net
    watchdog = install_fault_tolerance(net).watchdog
    net.engine.add_component(FaultInjector(net, FaultPlan(events=events)))
    return traffic, watchdog


def first_cycle(events, start, holds):
    """The first cycle from ``start`` at which ``holds(net)``, between
    cycles, on the shipped chain running ``events``."""
    traffic, _ = chaos(events)
    for cycle in range(start, CYCLES):
        traffic.run_to(cycle)
        if holds(traffic.net):
            return cycle
    raise AssertionError(f"nothing from cycle {start} on")


def crossing(link):
    """A frame crosses ``link`` with more than four bytes sent."""
    node, direction = link

    def holds(net):
        stream = net.routers[node].outputs.ports[direction].tc_stream
        return link in framed(net) and stream.sent > 4
    return holds


def streaming(link):
    """A stream staged whole steps per byte into ``link``."""
    node, direction = link

    def holds(net):
        size = net.params.tc_packet_bytes
        stream = net.routers[node].outputs.ports[direction].tc_stream
        return (stream is not None and stream.base is None
                and 0 < stream.sent < size - 2
                and stream.sent + len(stream.staging) == size)
    return holds


def plan():
    """A corruption, then a flap, then a cut, each striking a frame in
    flight on its link (the injector steps after the routers); the
    flap's repair lands while its link's sender streams per byte."""
    events = []
    at = first_cycle(events, 150, crossing(CORRUPTED))
    events.append(FaultEvent(at, CORRUPT, *CORRUPTED, amount=2))
    at = first_cycle(events, at + 1, crossing(FLAPPED))
    events.append(FaultEvent(at, CUT, *FLAPPED))
    at = first_cycle(events, at + 3, streaming(FLAPPED))
    events.append(FaultEvent(at, REPAIR, *FLAPPED))
    at = first_cycle(events, at + 100, crossing(CUT_LINK))
    events.append(FaultEvent(at, CUT, *CUT_LINK))
    return events


def framed_links_read_no_miss(net):
    for (node, direction), monitor in net.link_monitors.items():
        if net.routers[node].frame_links[direction]:
            assert monitor.missed_transfers == 0, (node, direction)


def test_a_chaos_plan_under_a_watchdog_equals_the_per_byte_chain():
    events = plan()
    (shipped, watchdog), (reference, twin_watchdog) = (
        chaos(events), chaos(events, per_byte=True))
    net, twin = shipped.net, reference.net
    mid_frame = 0
    for cycle in range(1, CYCLES):
        shipped.run_to(cycle)
        reference.run_to(cycle)
        mid_frame += bool(framed(net))
        assert records(net) == records(twin), cycle
        assert documents(net) == documents(twin), cycle
        assert (net.fault_counters().as_dict()
                == twin.fault_counters().as_dict()), cycle
        assert watchdog.dead == twin_watchdog.dead, cycle
        framed_links_read_no_miss(net)
        for router in net.routers.values():
            check_router_invariants(router)
    assert net.engine.audit_schedule() == []
    # Every strike acted, the watchdog caught the cut, and the frames
    # really moved as one arrival under it.
    counters = net.fault_counters()
    assert counters.link_bytes_corrupted > 0
    assert net.link_monitors[FLAPPED].bytes_lost > 0
    assert CUT_LINK in watchdog.dead and FLAPPED not in watchdog.dead
    assert counters.links_detected == 1
    assert mid_frame > CYCLES // 4
    assert net.engine.cycles_stepped < twin.engine.cycles_stepped
