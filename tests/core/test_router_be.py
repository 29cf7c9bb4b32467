"""Best-effort (wormhole) path tests on a single router and the loopback.

The loopback is the paper's single chip cabled to itself (+x out into
-x in, +y out into -y in): a 1x1 torus on the event engine.
"""

import pytest

from repro.core import (
    BestEffortPacket,
    RealTimeRouter,
    RouterParams,
    TimeConstrainedPacket,
    port_mask,
)
from repro.core.ports import EAST, NORTH, RECEPTION, SOUTH, WEST
from repro.core.router import LinkSignal
from repro.experiments import send_loopback_worm, wormhole_baseline
from repro.network import MeshNetwork


def run_router(router, cycles):
    for _ in range(cycles):
        router.step()


class TestLocalBestEffort:
    def test_inject_to_reception(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(0, 0, payload=b"hello"))
        for _ in range(200):
            router.step()
            if router.delivered:
                break
        packet, = router.take_delivered()
        assert packet.payload == b"hello"
        assert packet.x_offset == 0 and packet.y_offset == 0

    def test_empty_payload(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(0, 0, payload=b""))
        run_router(router, 200)
        packet, = router.take_delivered()
        assert packet.payload == b""

    def test_two_worms_in_order(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(0, 0, payload=b"first"))
        router.inject_be(BestEffortPacket(0, 0, payload=b"second"))
        run_router(router, 400)
        packets = router.take_delivered()
        assert [p.payload for p in packets] == [b"first", b"second"]


class TestOffsetRewriting:
    def collect_worm(self, router, direction, cycles=500):
        data = []
        for _ in range(cycles):
            router.step()
            signal = router.link_out[direction]
            if signal.phit is not None and signal.phit.vc == "BE":
                data.append(signal.phit)
                # Keep credits flowing: pretend the neighbour drains.
                router.link_in[direction] = LinkSignal(ack=True)
            if data and data[-1].last:
                break
        return data

    def test_x_offset_decremented_going_east(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(3, 2, payload=b"z"))
        phits = self.collect_worm(router, EAST)
        assert phits[0].byte == 2  # was 3
        assert phits[1].byte == 2  # y untouched

    def test_negative_x_offset_towards_zero_going_west(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(-2, 0, payload=b"z"))
        phits = self.collect_worm(router, WEST)
        assert phits[0].byte == (-1) & 0xFF

    def test_y_offset_decremented_going_north(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(0, 2, payload=b"z"))
        phits = self.collect_worm(router, NORTH)
        assert phits[0].byte == 0
        assert phits[1].byte == 1

    def test_dimension_order_x_before_y(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(1, 1, payload=b"z"))
        phits = self.collect_worm(router, EAST)
        assert phits  # went east, not north
        assert phits[1].byte == 1  # y offset untouched until x done

    def test_south_routing(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(0, -1, payload=b"z"))
        phits = self.collect_worm(router, SOUTH)
        assert phits[1].byte == 0  # -1 -> 0


class TestLoopbackBaseline:
    def test_paper_linear_latency(self):
        """Latency is size + constant over the three-traversal loop."""
        overheads = wormhole_baseline(sizes=[8, 16, 64, 128]).overheads()
        values = set(overheads.values())
        assert len(values) == 1, f"non-linear overhead: {overheads}"
        constant = values.pop()
        assert 25 <= constant <= 35  # paper reports 30

    def test_back_to_back_worms(self):
        net = MeshNetwork(1, 1, torus=True)
        first = send_loopback_worm(net, 32)
        second = send_loopback_worm(net, 32)
        net.drain(max_cycles=2000)
        assert [r.packet_id for r in net.log.records] == [
            first.meta.packet_id, second.meta.packet_id,
        ]

    def test_payload_intact_after_three_traversals(self, monkeypatch):
        net = MeshNetwork(1, 1, torus=True)
        packet = send_loopback_worm(net, 64)
        delivered = []
        add = net.log.add
        monkeypatch.setattr(
            net.log, "add",
            lambda got, **kwargs: delivered.append(got) or add(got, **kwargs))
        net.drain(max_cycles=2000)
        assert [got.payload for got in delivered] == [packet.payload]

    def test_rejects_header_only_packet(self):
        with pytest.raises(ValueError):
            wormhole_baseline(sizes=[4])

    def test_timeout_reported(self):
        net = MeshNetwork(1, 1, torus=True)
        send_loopback_worm(net, 64)
        with pytest.raises(TimeoutError):
            # Never run enough cycles for delivery.
            net.drain(max_cycles=5)


class TestFlowControl:
    def test_stall_without_credits(self):
        """With no acks returned, at most flit-buffer bytes cross the link."""
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(1, 0, payload=bytes(50)))
        sent = 0
        for _ in range(500):
            router.step()
            if router.link_out[EAST].phit is not None:
                sent += 1
        assert sent == router.params.flit_buffer_bytes

    def test_acks_release_stalled_worm(self):
        router = RealTimeRouter()
        router.inject_be(BestEffortPacket(1, 0, payload=bytes(50)))
        sent = 0
        for _ in range(1000):
            router.step()
            if router.link_out[EAST].phit is not None:
                sent += 1
                router.link_in[EAST] = LinkSignal(ack=True)
        assert sent == 54  # header + payload all crossed


class TestPreemption:
    def test_on_time_tc_preempts_worm_mid_packet(self):
        """A long worm is interrupted at byte granularity by TC traffic."""
        router = RealTimeRouter()
        router.control.program_connection(0, 0, delay=5,
                                          port_mask=port_mask(EAST))
        router.inject_be(BestEffortPacket(1, 0, payload=bytes(400)))
        # Let the worm start flowing.
        timeline = []
        injected = False
        for cycle in range(1500):
            router.step()
            signal = router.link_out[EAST]
            if signal.phit is not None:
                timeline.append((cycle, signal.phit.vc))
                if signal.phit.vc == "BE":
                    router.link_in[EAST] = LinkSignal(ack=True)
            if not injected and len(timeline) > 30:
                router.inject_tc(TimeConstrainedPacket(0, header_deadline=0))
                injected = True
        vcs = [vc for __, vc in timeline]
        assert "TC" in vcs, "time-constrained packet never transmitted"
        first_tc = vcs.index("TC")
        # The worm resumed after the TC packet finished.
        assert "BE" in vcs[first_tc:], "worm never resumed"
        # The 20 TC bytes are contiguous (packet switching).
        tc_span = vcs[first_tc:first_tc + 20]
        assert tc_span == ["TC"] * 20

    def test_be_uses_link_while_tc_early(self):
        """Early TC (beyond horizon) lets best-effort flits through."""
        router = RealTimeRouter()
        router.control.program_connection(0, 0, delay=5,
                                          port_mask=port_mask(EAST))
        # Early packet: logical arrival 100 ticks away, horizon 0.
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=100))
        router.inject_be(BestEffortPacket(1, 0, payload=bytes(30)))
        be_sent = 0
        for _ in range(600):
            router.step()
            signal = router.link_out[EAST]
            if signal.phit is not None:
                assert signal.phit.vc == "BE"
                be_sent += 1
                router.link_in[EAST] = LinkSignal(ack=True)
        assert be_sent == 34
