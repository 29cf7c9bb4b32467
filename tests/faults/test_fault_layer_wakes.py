"""The fault layer is scheduled like hosts and routers.

Every engine component is requeried only when it steps, a wiring
reports that it wrote it, or somebody wakes it.  The watchdog
and the recovery controller state their inputs that way: a missed
transfer is reported by the link wiring (without that report
``tests/faults/test_watchdog.py``'s detection tests fail), and a link
event, a delivery record that releases an entry, or a send wakes them.
Each test below fails without its wake; the randomized run audits the
whole kept schedule, fault components included, at every run entry.
"""

import random

import pytest

from repro import TrafficSpec
from repro.channels.admission import AdmissionError
from repro.channels.routing import RouteError
from repro.core.ports import EAST
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkWatchdog,
    PacketDropCorruptor,
    install_fault_tolerance,
)
from repro.network.network import MeshNetwork

LINK = ((0, 0), EAST)


def _one_hop():
    net = MeshNetwork(2, 1)
    channel = net.establish_channel((0, 0), (1, 0), TrafficSpec(i_min=10),
                                    deadline=30, adaptive=False)
    return net, channel


class TestWatchdogWakes:
    def test_a_link_event_wakes_the_watchdog(self):
        # The packet dies on a silent cut; once its last byte is counted
        # the watchdog is due.  An announcement at that boundary puts
        # the link in the dead set, which takes the watchdog's work away.
        net, channel = _one_hop()
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        net.fail_link(*LINK, announce=False)
        net.send_message(channel)
        monitor = net.link_monitors[LINK]
        while monitor.missed_transfers < watchdog.miss_threshold:
            net.run(1)
        assert watchdog.next_event_cycle(net.cycle) == net.cycle
        net.fail_link(*LINK)
        assert watchdog.next_event_cycle(net.cycle) is None
        assert net.engine.audit_schedule() == []
        net.run(100)
        assert net.fault_stats.links_detected == 0


class TestControllerWakes:
    def test_a_delivery_record_wakes_the_controller(self):
        # The record releases its entry in the cycle it is logged; the
        # release takes the controller's last timer away.
        net, channel = _one_hop()
        controller = install_fault_tolerance(net).controller
        net.send_message(channel)
        assert controller.next_event_cycle(net.cycle) is not None
        while not net.log.records:
            net.run(1)
            assert net.engine.audit_schedule() == []
        assert controller.pending_retransmits == 0
        assert controller.next_event_cycle(net.cycle) is None
        assert net.engine.audit_schedule() == []

    def test_a_send_wakes_the_controller(self):
        net, channel = _one_hop()
        install_fault_tolerance(net)
        net.run(100)  # the queue is kept: nothing tracked, no timer
        net.set_link_corruptor(*LINK, PacketDropCorruptor(packets=1,
                                                          vc="TC"))
        net.send_message(channel, payload=b"precious")
        assert net.engine.audit_schedule() == []
        net.run_ticks(400)
        assert net.fault_stats.tc_retransmitted == 1
        assert net.fault_stats.retransmit_recovered == 1
        assert net.log.tc_delivered == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_kept_schedule_holds_under_the_fault_layer(seed):
    rng = random.Random(seed)
    net = MeshNetwork(4, 4)
    nodes = list(net.mesh.nodes())
    links = [(node, direction) for node, direction, __ in net.mesh.links()]
    channels = []
    for index in range(6):
        source, destination = rng.sample(nodes, 2)
        try:
            channels.append(net.establish_channel(
                source, destination, TrafficSpec(i_min=rng.choice([8, 16])),
                deadline=rng.choice([24, 40]), label=f"c{index}"))
        except (AdmissionError, RouteError):
            pass
    install_fault_tolerance(net)
    net.engine.add_component(FaultInjector(
        net, FaultPlan.random(seed, 4, 4, window=(100, 3_000))))
    net.enable_snapshots(250)

    for _ in range(80):
        assert net.engine.audit_schedule() == []
        action = rng.randrange(4)
        if action == 0:
            net.fail_link(*rng.choice(links), announce=rng.random() < 0.5)
        elif action == 1:
            net.repair_link(*rng.choice(links))
        elif action == 2 and channels:
            net.send_message(rng.choice(channels), bytes([seed]) * 8)
        else:
            source, destination = rng.sample(nodes, 2)
            net.send_best_effort(source, destination,
                                 bytes(rng.randrange(1, 40)))
        assert net.engine.audit_schedule() == []
        net.run(rng.randrange(1, 150))
    assert net.log.records
