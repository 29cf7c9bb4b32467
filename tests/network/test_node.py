"""Tests for the host node (processor side of a mesh node)."""

from repro.core import RealTimeRouter, RouterParams, TimeConstrainedPacket
from repro.core.ports import RECEPTION, port_mask
from repro.network.node import HostNode
from repro.network.stats import DeliveryLog


def make_host():
    router = RealTimeRouter(RouterParams())
    router.control.program_connection(0, 0, delay=10,
                                      port_mask=port_mask(RECEPTION))
    log = DeliveryLog(slot_cycles=20)
    host = HostNode((0, 0), router, log, slot_cycles=20)
    return host, router, log


class TestReleaseTiming:
    def test_packet_held_until_release_tick(self):
        host, router, __ = make_host()
        packet = TimeConstrainedPacket(0, header_deadline=5)
        host.queue_tc([packet], release_tick=5)
        for cycle in range(99):
            host.step(cycle)
        assert router.tc_inject_backlog == 0  # not yet injected
        host.step(100)  # tick 5
        assert router.tc_inject_backlog == 1
        assert packet.meta.injected_cycle == 100
        assert packet.meta.source == (0, 0)

    def test_release_order_by_tick(self):
        host, router, __ = make_host()
        late = TimeConstrainedPacket(0, header_deadline=9)
        early = TimeConstrainedPacket(0, header_deadline=2)
        host.queue_tc([late], release_tick=9)
        host.queue_tc([early], release_tick=2)
        injected = []
        original = router.inject_tc
        router.inject_tc = lambda p: injected.append(p) or original(p)
        for cycle in range(200):
            host.step(cycle)
        assert injected == [early, late]

    def test_same_tick_preserves_queue_order(self):
        host, router, __ = make_host()
        first = TimeConstrainedPacket(0, header_deadline=0)
        second = TimeConstrainedPacket(0, header_deadline=0)
        host.queue_tc([first, second], release_tick=0)
        injected = []
        router.inject_tc = injected.append
        host.step(0)
        assert injected == [first, second]


class TestDeliveryCollection:
    def test_delivered_packets_logged(self):
        host, router, log = make_host()
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=0))
        for cycle in range(200):
            router.step(cycle)
            host.step(cycle)
        assert log.tc_delivered == 1

