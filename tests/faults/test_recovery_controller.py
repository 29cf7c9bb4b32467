"""RecoveryController: reroute, degrade, retransmit, retry."""

import json

from repro import TrafficSpec, build_mesh_network
from repro.core.ports import EAST
from repro.faults import BABBLE_LABEL, PacketDropCorruptor, \
    install_fault_tolerance


def _route_links(channel):
    return {(hop.node, hop.out_port) for hop in channel.reservation.hops}


class TestReroute:
    def test_announced_failure_triggers_reroute(self):
        net = build_mesh_network(2, 2)
        net.establish_channel((0, 0), (1, 0), TrafficSpec(i_min=10),
                              deadline=60, adaptive=False, label="r")
        install_fault_tolerance(net)

        net.fail_link((0, 0), EAST)

        assert net.fault_stats.channels_rerouted == 1
        replacement = net.manager.find("r")
        assert ((0, 0), EAST) not in _route_links(replacement)
        assert not replacement.degraded

    def test_traffic_meets_deadlines_on_detour(self):
        net = build_mesh_network(2, 2)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False,
                                        label="r")
        install_fault_tolerance(net)
        net.fail_link((0, 0), EAST)
        for _ in range(4):
            net.send_message(channel)  # stale handle resolves by label
            net.run_ticks(10)
        net.run_ticks(80)
        assert net.log.tc_delivered == 4
        assert net.log.deadline_misses == 0

    def test_unaffected_channels_left_alone(self):
        net = build_mesh_network(2, 2)
        net.establish_channel((0, 0), (1, 0), TrafficSpec(i_min=10),
                              deadline=60, adaptive=False, label="victim")
        net.establish_channel((0, 1), (1, 1), TrafficSpec(i_min=10),
                              deadline=60, adaptive=False,
                              label="bystander")
        install_fault_tolerance(net)
        bystander_route = _route_links(net.manager.find("bystander"))
        net.fail_link((0, 0), EAST)
        assert net.fault_stats.channels_rerouted == 1
        assert _route_links(net.manager.find("bystander")) \
            == bystander_route


class TestDegradation:
    def test_no_surviving_path_degrades_channel(self):
        net = build_mesh_network(2, 1)
        net.establish_channel((0, 0), (1, 0), TrafficSpec(i_min=10),
                              deadline=60, adaptive=False, label="d")
        install_fault_tolerance(net)

        net.fail_link((0, 0), EAST)

        assert net.fault_stats.channels_degraded == 1
        assert "d" in net.manager.degraded_channels
        degraded = net.manager.find("d")
        assert degraded.degraded

    def test_degraded_send_counts_undeliverable(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=60, adaptive=False,
                                        label="d")
        install_fault_tolerance(net)
        net.fail_link((0, 0), EAST)
        net.send_message(channel)
        # The only link is dead: the best-effort fallback has nowhere
        # to go, and says so instead of silently dropping.
        assert net.fault_stats.degraded_undeliverable == 1

    def test_admission_failure_on_detour_degrades(self):
        net = build_mesh_network(2, 2)
        # Load the only detour link heavily enough that the victim's
        # reroute cannot meet its deadline there.
        net.establish_channel((0, 1), (1, 1), TrafficSpec(i_min=3),
                              deadline=100, adaptive=False, label="hog")
        victim = net.establish_channel((0, 0), (1, 0),
                                       TrafficSpec(i_min=3),
                                       deadline=100, adaptive=False,
                                       label="victim")
        install_fault_tolerance(net)

        net.fail_link((0, 0), EAST)

        assert net.fault_stats.channels_degraded == 1
        assert "victim" in net.manager.degraded_channels
        # Degraded delivery still works: best-effort, relayed around
        # the dead link, keeping the channel's label for accounting.
        net.send_message(victim, payload=b"late but alive")
        net.run_ticks(120)
        assert net.fault_stats.degraded_messages == 1
        degraded_records = [r for r in net.log.records
                            if r.connection_label == "victim"
                            and r.traffic_class == "BE"]
        assert len(degraded_records) == 1
        assert degraded_records[0].destination == (1, 0)


class TestRetransmission:
    def test_silent_packet_loss_recovered_by_retransmit(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=30, adaptive=False,
                                        label="rt")
        tolerance = install_fault_tolerance(net)
        # Eat exactly one time-constrained packet in transit.
        net.set_link_corruptor((0, 0), EAST,
                               PacketDropCorruptor(packets=1, vc="TC"))
        net.send_message(channel, payload=b"precious")
        net.run_ticks(400)

        assert net.fault_stats.tc_retransmitted >= 1
        assert net.fault_stats.retransmit_recovered == 1
        assert net.log.tc_delivered == 1
        assert tolerance.controller.pending_retransmits == 0

    def test_confirmed_messages_never_retransmitted(self):
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=30, adaptive=False,
                                        label="ok")
        install_fault_tolerance(net)
        for _ in range(3):
            net.send_message(channel)
            net.run_ticks(10)
        net.run_ticks(200)
        assert net.log.tc_delivered == 3
        assert net.fault_stats.tc_retransmitted == 0

    def test_an_eaten_message_outlives_two_hundred_confirmed_ones(self):
        # The ledger never drops an unconfirmed message to make room,
        # however many later ones are sent and confirmed meanwhile.
        net = build_mesh_network(2, 1)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10),
                                        deadline=30, adaptive=False)
        tolerance = install_fault_tolerance(net)
        net.set_link_corruptor((0, 0), EAST,
                               PacketDropCorruptor(packets=1, vc="TC"))
        for payload in [b"precious"] + [b"later"] * 200:
            net.send_message(channel, payload=payload)
        net.run_ticks(2_500)

        assert net.fault_stats.tc_retransmitted == 1
        assert net.fault_stats.retransmit_recovered == 1
        assert net.log.tc_delivered == 201
        # The re-sent copy (wire sequence 201) queued behind the 200.
        assert [r.sequence for r in net.log.records][-1] == 201
        assert tolerance.controller.pending_retransmits == 0

    def test_the_ledger_keeps_no_delivery_history(self):
        lengths = []
        for messages in (10, 1_000):
            net = build_mesh_network(2, 1)
            channel = net.establish_channel((0, 0), (1, 0),
                                            TrafficSpec(i_min=10),
                                            deadline=30, adaptive=False)
            controller = install_fault_tolerance(net).controller
            for _ in range(messages):
                net.send_message(channel)
                net.run_ticks(10)
            net.run_ticks(100)
            assert net.log.tc_delivered == messages
            lengths.append(len(json.dumps(controller.state())))
        assert lengths[0] == lengths[1]


class TestBestEffortRetry:
    def test_babble_traffic_never_tracked(self):
        net = build_mesh_network(2, 2)
        tolerance = install_fault_tolerance(net)
        net.send_best_effort((0, 0), (1, 1), payload=b"\xbb" * 8,
                             connection_label=BABBLE_LABEL)
        assert tolerance.controller.pending_be_retries == 0

    def test_packet_lost_to_dead_link_is_retried(self):
        net = build_mesh_network(2, 2)
        tolerance = install_fault_tolerance(net)
        # Cut silently, then send across the cut before any detection:
        # the worm dies on the wire.
        net.fail_link((0, 0), EAST, announce=False)
        net.send_best_effort((0, 0), (1, 0), payload=b"doomed?")
        # Detection needs a declaration; announce it now (as the
        # watchdog would) so the controller knows the path died.
        net.fail_link((0, 0), EAST)
        net.run(tolerance.controller.be_timeout_cycles * 3)
        net.run(5000)

        assert net.fault_stats.be_retried >= 1
        assert net.log.be_delivered == 1
        assert tolerance.controller.pending_be_retries == 0

    def test_packet_eaten_on_an_intact_link_is_only_rechecked(self):
        # Today's policy: with no dead link on its path an overdue
        # packet is presumed congested, so it stays tracked and is
        # looked at again every BE_TIMEOUT_SLOTS, never re-sent.
        net = build_mesh_network(2, 1)
        controller = install_fault_tolerance(net).controller
        net.set_link_corruptor((0, 0), EAST,
                               PacketDropCorruptor(packets=1, vc="BE"))
        net.send_best_effort((0, 0), (1, 0), payload=b"eaten")
        due = net.cycle + controller.be_timeout_cycles
        for _ in range(3):
            assert controller.next_event_cycle(net.cycle) == due
            net.run(due + 1 - net.cycle)
            due += controller.be_timeout_cycles
        assert controller.pending_be_retries == 1
        assert net.fault_stats.be_retried == 0
        assert net.log.be_delivered == 0


class TestDetach:
    def test_detach_stops_tracking(self):
        net = build_mesh_network(2, 2)
        tolerance = install_fault_tolerance(net)
        tolerance.detach()
        net.send_best_effort((0, 0), (1, 1), payload=b"x")
        assert tolerance.controller.pending_be_retries == 0
        net.fail_link((0, 0), EAST)
        assert net.fault_stats.channels_rerouted == 0
