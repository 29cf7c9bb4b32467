"""Frames under a watchdog, against the reference chip.

The link watchdog reads one thing, a ``LinkMonitor``'s
``missed_transfers``, which only a failed link raises, and a failed
link is never framed.  So frames cross every live, uncorrupted link as
one arrival whether or not fault tolerance is installed.  Here the
chain of ``test_frames_in_flight.py`` runs a fault plan whose cut, flap
and corruption each strike a frame in flight, with the watchdog and the
recovery controller installed, and at every cycle the delivery records,
every router document, the fault counters and the link events published
(the watchdog's detections among them) must equal the reference chip's (``tests/reference.py``), and every
link a frame may cross reads no missed transfer: the argument for
framing under a watchdog, checked.  The flap's repair lands while its
sender streams per byte; the stream is framed at once
(``OutputSide.reframe``), so the router invariants hold at every cycle
too.
"""

import functools

from repro.core.ports import EAST, WEST
from repro.faults.plan import CORRUPT, CUT, REPAIR, FaultEvent
from repro.network.events import LINK_DEAD
from tests.reference import FabricPair, chaos_chain, compare, framed

CYCLES = 1_500
CORRUPTED, FLAPPED, CUT_LINK = ((1, 0), EAST), ((3, 0), WEST), ((2, 0), EAST)


def first_cycle(events, start, holds):
    """The first cycle from ``start`` at which ``holds(net)``, between
    cycles, on the shipped chain running ``events``."""
    traffic = chaos_chain(events=events)
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


def test_a_chaos_plan_under_a_watchdog_equals_the_per_byte_chain():
    pair = FabricPair(functools.partial(chaos_chain, events=tuple(plan())))
    counts = compare(pair, range(1, CYCLES))
    net = pair.nets[0]
    assert net.engine.audit_schedule() == []
    # Every strike acted, the watchdog caught the cut, and the frames
    # really moved as one arrival under it.
    counters = net.fault_counters()
    assert counters.link_bytes_corrupted > 0
    assert net.link_monitors[FLAPPED].bytes_lost > 0
    assert net.known_dead_links == {CUT_LINK}
    assert [link for kind, link, _ in pair.link_events[0]
            if kind == LINK_DEAD] == [CUT_LINK]
    assert counters.links_detected == 1
    assert counts["mid_frame"] > CYCLES // 4
    assert counts["asleep"] > CYCLES // 4
