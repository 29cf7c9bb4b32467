"""End-to-end tests of the mesh network with both traffic classes."""

import pytest

from repro import TrafficSpec, build_mesh_network
from repro.channels import AdmissionError


class TestBestEffortMesh:
    def test_corner_to_corner(self):
        net = build_mesh_network(3, 3)
        net.send_best_effort((0, 0), (2, 2), payload=b"across")
        net.drain(max_cycles=5000)
        record, = net.log.records
        assert record.traffic_class == "BE"
        assert record.destination == (2, 2)

    def test_payload_delivered_intact(self):
        net = build_mesh_network(2, 2)
        payload = bytes(range(97))
        net.send_best_effort((0, 0), (1, 1), payload=payload)
        net.drain(max_cycles=5000)
        # The delivered packet is reassembled from wire bytes.
        assert net.log.records[0].traffic_class == "BE"

    def test_self_send(self):
        net = build_mesh_network(2, 2)
        net.send_best_effort((1, 0), (1, 0), payload=b"loop")
        net.drain(max_cycles=2000)
        assert net.log.be_delivered == 1

    def test_many_to_one_all_delivered(self):
        net = build_mesh_network(3, 3)
        senders = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0)]
        for node in senders:
            net.send_best_effort(node, (1, 1), payload=b"x" * 20)
        net.drain(max_cycles=20_000)
        assert net.log.be_delivered == len(senders)

    def test_latency_scales_with_hops(self):
        net = build_mesh_network(4, 1)
        near = net.send_best_effort((0, 0), (1, 0), payload=b"x" * 16)
        net.drain(max_cycles=5000)
        far = net.send_best_effort((0, 0), (3, 0), payload=b"x" * 16)
        net.drain(max_cycles=5000)
        near_rec = next(r for r in net.log.records
                        if r.destination == (1, 0))
        far_rec = next(r for r in net.log.records
                       if r.destination == (3, 0))
        assert far_rec.latency_cycles > near_rec.latency_cycles

    def test_rejects_outside_mesh(self):
        net = build_mesh_network(2, 2)
        with pytest.raises(ValueError):
            net.send_best_effort((0, 0), (5, 5))


class TestTimeConstrainedMesh:
    def test_channel_delivers_with_deadline_met(self):
        net = build_mesh_network(3, 3)
        channel = net.establish_channel((0, 0), (2, 2),
                                        TrafficSpec(i_min=10), deadline=50)
        for _ in range(4):
            net.send_message(channel, b"telemetry")
            net.run_ticks(10)
        net.run_ticks(60)
        assert net.log.tc_delivered == 4
        assert net.log.deadline_misses == 0

    def test_messages_arrive_in_order(self):
        net = build_mesh_network(2, 2)
        channel = net.establish_channel((0, 0), (1, 1),
                                        TrafficSpec(i_min=8), deadline=40)
        for _ in range(5):
            net.send_message(channel)
            net.run_ticks(8)
        net.run_ticks(50)
        sequences = [r.sequence for r in net.log.of_class("TC")]
        assert sequences == sorted(sequences)

    def test_multi_packet_message(self):
        net = build_mesh_network(2, 2)
        spec = TrafficSpec(i_min=20, s_max=54)  # 3 packets per message
        channel = net.establish_channel((0, 0), (1, 0), spec, deadline=40)
        net.send_message(channel, b"A" * 54)
        net.run_ticks(60)
        assert net.log.tc_delivered == 3
        assert net.log.deadline_misses == 0

    def test_message_reassembly(self):
        net = build_mesh_network(2, 2)
        spec = TrafficSpec(i_min=20, s_max=54)
        channel = net.establish_channel((0, 0), (1, 0), spec, deadline=40,
                                        label="frag")
        for _ in range(2):
            net.send_message(channel, b"B" * 54)
            net.run_ticks(20)
        net.run_ticks(60)
        messages = net.log.messages("frag", spec.packets_per_message)
        assert len(messages) == 2
        assert all(m.complete and m.deadline_met for m in messages)
        assert messages[0].message_index == 0
        assert messages[1].fragments == 3

    def test_oversized_message_rejected(self):
        net = build_mesh_network(2, 2)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=10, s_max=18),
                                        deadline=30)
        with pytest.raises(ValueError):
            net.send_message(channel, b"B" * 19)

    def test_bursty_source_is_shaped(self):
        """Messages sent faster than i_min still meet their (logical)
        deadlines because logical arrival times self-space."""
        net = build_mesh_network(2, 2)
        channel = net.establish_channel((0, 0), (1, 1),
                                        TrafficSpec(i_min=12), deadline=60)
        for _ in range(5):
            net.send_message(channel)  # all at tick 0
        net.run_ticks(5 * 12 + 80)
        assert net.log.tc_delivered == 5
        assert net.log.deadline_misses == 0

    def test_drain_waits_for_messages_the_regulator_holds(self):
        """All three messages of a burst sit in the source host's
        release heap when ``drain`` starts, and every router is idle."""
        net = build_mesh_network(3, 1)
        channel = net.establish_channel((0, 0), (2, 0),
                                        TrafficSpec(i_min=50, b_max=3),
                                        deadline=80)
        for _ in range(3):
            net.send_message(channel)
        assert net.drain() > 2 * 50 * net.params.slot_cycles
        assert net.log.tc_delivered == 3
        assert net.log.deadline_misses == 0

    def test_multicast_channel(self):
        net = build_mesh_network(3, 3)
        channel = net.establish_channel(
            (0, 0), [(2, 0), (0, 2)], TrafficSpec(i_min=10), deadline=60,
        )
        net.send_message(channel, b"to all")
        net.run_ticks(80)
        assert net.log.tc_delivered == 2
        assert net.log.deadline_misses == 0

    def test_teardown_frees_resources(self):
        net = build_mesh_network(2, 2)
        spec = TrafficSpec(i_min=4)
        for _ in range(3):
            channel = net.establish_channel((0, 0), (1, 1), spec,
                                            deadline=12)
            net.teardown_channel(channel)
        # After teardown the same resources admit a new channel.
        assert net.establish_channel((0, 0), (1, 1), spec, deadline=12)

    def test_admission_rejects_overload(self):
        net = build_mesh_network(2, 1)
        # Identical channels pile demand onto one link; the EDF demand
        # test must refuse before the link is overcommitted.
        spec = TrafficSpec(i_min=4)
        admitted = 0
        with pytest.raises(AdmissionError):
            for _ in range(10):
                net.establish_channel((0, 0), (1, 0), spec, deadline=8,
                                      adaptive=False)
                admitted += 1
        # At least one fits, and never more than the utilisation bound.
        assert 1 <= admitted <= 4


class TestMixedTraffic:
    def test_both_classes_coexist(self):
        net = build_mesh_network(2, 2)
        channel = net.establish_channel((0, 0), (1, 1),
                                        TrafficSpec(i_min=10), deadline=40)
        for i in range(3):
            net.send_message(channel)
            net.send_best_effort((0, 0), (1, 1), payload=bytes(40))
            net.run_ticks(10)
        net.run_ticks(60)
        assert net.log.tc_delivered == 3
        assert net.log.be_delivered == 3
        assert net.log.deadline_misses == 0

    def test_heavy_be_does_not_break_deadlines(self):
        net = build_mesh_network(2, 2)
        channel = net.establish_channel((0, 0), (1, 0),
                                        TrafficSpec(i_min=6), deadline=24,
                                        adaptive=False)
        # Saturate the same link with best-effort worms.
        for _ in range(10):
            net.send_best_effort((0, 0), (1, 0), payload=bytes(200))
        for _ in range(8):
            net.send_message(channel)
            net.run_ticks(6)
        net.drain(max_cycles=50_000)
        assert net.log.tc_delivered == 8
        assert net.log.deadline_misses == 0
        assert net.log.be_delivered == 10

