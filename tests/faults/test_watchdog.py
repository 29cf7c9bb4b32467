"""Link watchdog: missed-transfer counting and dead-link declaration.

The watchdog keeps no state: a declaration marks the link's record in
the network ``known``, and its cycle is the ``link-dead`` event's."""

from repro import TrafficSpec, build_mesh_network
from repro.core.ports import EAST
from repro.faults import LinkWatchdog, PacketDropCorruptor
from repro.network.events import LINK_DEAD, LINK_FAILED


def _collect(network, kinds):
    seen = []
    network.events.subscribe(
        lambda e: seen.append(e) if e.kind in kinds else None)
    return seen


class TestDetection:
    def test_silent_cut_detected_under_traffic(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        dead_events = _collect(net, {LINK_DEAD})

        net.fail_link((0, 0), EAST, announce=False)
        for _ in range(4):
            net.send_message(channel)
            net.run_ticks(10)

        assert net.known_dead_links == {((0, 0), EAST)}
        assert net.fault_stats.links_detected == 1
        assert len(dead_events) == 1
        assert dead_events[0].link == ((0, 0), EAST)

    def test_detection_latency_bounded_by_threshold(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        dead_events = _collect(net, {LINK_DEAD})

        net.fail_link((0, 0), EAST, announce=False)
        cut_cycle = net.cycle
        net.send_message(channel)
        net.run_ticks(30)

        [event] = dead_events
        declared = event.cycle
        # 20 consecutive missed phits, plus the scheduler's lead time
        # to start offering the packet: well under a packet time.
        assert declared - cut_cycle < 30 * net.params.slot_cycles

    def test_declared_once_not_repeatedly(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        net.fail_link((0, 0), EAST, announce=False)
        for _ in range(6):
            net.send_message(channel)
            net.run_ticks(10)
        assert net.fault_stats.links_detected == 1


class TestNoFalsePositives:
    def test_idle_cut_link_is_undetectable(self):
        # No traffic offered -> no missed transfers -> no declaration,
        # exactly like real hardware.
        net = build_mesh_network(2, 1)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        net.fail_link((0, 0), EAST, announce=False)
        net.run(2000)
        assert net.known_dead_links == set()
        assert net.fault_stats.links_detected == 0

    def test_healthy_traffic_never_trips_watchdog(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        for _ in range(8):
            net.send_message(channel)
            net.run_ticks(10)
        assert net.known_dead_links == set()

    def test_injected_packet_drops_do_not_trip_watchdog(self):
        # A drop corruptor suppresses phits on an alive link; the
        # monitor must treat those as transfers, not misses.
        net = build_mesh_network(2, 1)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        net.set_link_corruptor((0, 0), EAST,
                               PacketDropCorruptor(packets=3, vc="BE"))
        for _ in range(3):
            net.send_best_effort((0, 0), (1, 0), payload=b"x" * 12)
            net.run(400)
        assert net.known_dead_links == set()
        assert net.fault_counters().link_packets_dropped == 3


class TestAdministrativeFailures:
    def test_announced_failure_suppresses_duplicate_detection(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        failed_events = _collect(net, {LINK_FAILED})

        net.fail_link((0, 0), EAST)  # announce=True default
        assert len(failed_events) == 1
        assert net.link_monitors[((0, 0), EAST)].known
        for _ in range(4):
            net.send_message(channel)
            net.run_ticks(10)
        # Already known network-wide: the watchdog stays quiet.
        assert net.fault_stats.links_detected == 0

    def test_repair_clears_dead_state(self):
        net = build_mesh_network(2, 1)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        net.fail_link((0, 0), EAST)
        assert net.link_monitors[((0, 0), EAST)].known
        net.repair_link((0, 0), EAST)
        monitor = net.link_monitors[((0, 0), EAST)]
        assert not (monitor.failed or monitor.known or monitor.draining)

    def test_a_detection_is_known_network_wide_without_recovery(self):
        # With no recovery controller installed, a detection still marks
        # the link known: announcing it afterwards neither flushes again
        # nor publishes ``link-failed``, and best-effort relaying avoids
        # it at once.
        net = build_mesh_network(3, 1)
        channel = net.establish_channel((0, 0), (2, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False)
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
        events = _collect(net, {LINK_DEAD, LINK_FAILED})
        net.fail_link((0, 0), EAST, announce=False)
        for _ in range(4):
            net.send_message(channel, b"x" * 10)
            net.run_ticks(10)
        assert [event.kind for event in events] == [LINK_DEAD]
        assert net.known_dead_links == {((0, 0), EAST)}
        drops = net.fault_counters().tc_resync_drops

        net.fail_link((0, 0), EAST)

        assert [event.kind for event in events] == [LINK_DEAD]
        assert net.fault_counters().tc_resync_drops == drops
        assert net.fault_stats.links_detected == 1
