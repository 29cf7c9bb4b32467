"""Time-constrained path tests on a single router chip."""

import pytest

from repro.core import (
    BufferOverflowError,
    RealTimeRouter,
    RouterParams,
    TimeConstrainedPacket,
    UnknownConnectionError,
    port_mask,
)
from repro.core.packet import phits_of
from repro.core.ports import EAST, NORTH, RECEPTION, WEST
from repro.observability import PacketTracer
from repro.observability.trace import LINK_WIN


def make_router(**kwargs) -> RealTimeRouter:
    return RealTimeRouter(RouterParams(), router_id="dut", **kwargs)


def run_until_delivered(router, count=1, max_cycles=5000):
    delivered = []
    for _ in range(max_cycles):
        router.step()
        delivered.extend(router.take_delivered())
        if len(delivered) >= count:
            return delivered
    raise TimeoutError(f"only {len(delivered)}/{count} packets delivered")


class TestLinkWinTrace:
    """A ``link_win`` event says whether the packet left early; the
    commit that frees the slot must not change the answer."""

    @staticmethod
    def _early_flags(header_deadline, horizon):
        router = make_router()
        router.tracer = PacketTracer(capacity=64)
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        router.control.write_horizon(port_mask(RECEPTION), horizon)
        router.inject_tc(TimeConstrainedPacket(
            0, header_deadline=header_deadline))
        run_until_delivered(router)
        return [event["info"]["early"] for event in router.tracer.events()
                if event["event"] == LINK_WIN]

    def test_an_early_packet_committed_inside_its_horizon_is_early(self):
        assert self._early_flags(header_deadline=15, horizon=20) == [True]

    def test_an_on_time_packet_is_not(self):
        assert self._early_flags(header_deadline=0, horizon=0) == [False]


class TestLocalDelivery:
    def test_inject_to_reception(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=0))
        packet, = run_until_delivered(router)
        assert packet.payload == b"\x00" * 18

    def test_payload_preserved(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        payload = bytes(range(18))
        router.inject_tc(TimeConstrainedPacket(0, 0, payload=payload))
        packet, = run_until_delivered(router)
        assert packet.payload == payload

    def test_header_rewritten_with_outgoing_id_and_deadline(self):
        router = make_router()
        router.control.program_connection(0, 42, delay=10,
                                          port_mask=port_mask(RECEPTION))
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=5))
        packet, = run_until_delivered(router)
        assert packet.connection_id == 42
        assert packet.header_deadline == 15  # l + d

    def test_meta_survives_transit(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        original = TimeConstrainedPacket(0, 0)
        original.meta.connection_label = "probe"
        router.inject_tc(original)
        packet, = run_until_delivered(router)
        assert packet.meta.connection_label == "probe"
        assert packet.meta.delivered_cycle is not None

    def test_memory_returns_to_idle(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        for _ in range(3):
            router.inject_tc(TimeConstrainedPacket(0, 0))
        run_until_delivered(router, count=3)
        for _ in range(50):
            router.step()
        assert router.memory.occupancy == 0
        assert router.idle


class TestScheduling:
    def test_on_time_packet_goes_immediately(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=20,
                                          port_mask=port_mask(RECEPTION))
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=0))
        packet, = run_until_delivered(router)
        # Inject stream (20) + admit + schedule + reception stream (20):
        # well under two slot times beyond the minimum.
        assert packet.meta.delivered_cycle < 80

    def test_early_packet_waits_for_logical_arrival(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        # Logical arrival at tick 20 (cycle 400); injected at cycle 0.
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=20))
        packet, = run_until_delivered(router)
        assert packet.meta.delivered_cycle >= 20 * 20

    def test_horizon_releases_early_packet(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        router.control.write_horizon(port_mask(RECEPTION), 15)
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=20))
        packet, = run_until_delivered(router)
        # Within the horizon the packet may leave up to 15 ticks early.
        assert packet.meta.delivered_cycle < 10 * 20

    def test_edf_order_on_contended_port(self):
        router = make_router()
        # Both packets buffer as early traffic (logical arrival at tick
        # 5), then become on-time together; EDF serves the smaller
        # deadline first even though it was injected second.
        router.control.program_connection(0, 10, delay=60,
                                          port_mask=port_mask(RECEPTION))
        router.control.program_connection(1, 11, delay=5,
                                          port_mask=port_mask(RECEPTION))
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=5))
        router.inject_tc(TimeConstrainedPacket(1, header_deadline=5))
        packets = run_until_delivered(router, count=2)
        assert [p.connection_id for p in packets] == [11, 10]


class TestMulticast:
    def test_fan_out_to_two_ports(self):
        router = make_router()
        router.control.program_connection(
            0, 9, delay=10, port_mask=port_mask(EAST, RECEPTION),
        )
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=0))
        delivered = []
        east_bytes = 0
        for _ in range(2000):
            router.step()
            delivered.extend(router.take_delivered())
            if router.link_out[EAST].phit is not None:
                east_bytes += 1
            if delivered and east_bytes >= 20:
                break
        assert len(delivered) == 1
        assert east_bytes == 20

    def test_slot_freed_after_all_ports(self):
        router = make_router()
        router.control.program_connection(
            0, 9, delay=10, port_mask=port_mask(EAST, NORTH, RECEPTION),
        )
        router.inject_tc(TimeConstrainedPacket(0, header_deadline=0))
        for _ in range(1000):
            router.step()
        assert router.memory.occupancy == 0


class TestFraming:
    def test_every_whole_frame_an_input_holds_is_admitted_with_its_meta(self):
        # Two whole frames matured in one synchroniser by the time the
        # router looks (a router that slept while they crossed): both
        # are admitted, each under its own byte 0's metadata, and
        # nothing is left behind.
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        packets = [TimeConstrainedPacket(0, header_deadline=0,
                                         payload=bytes([n] * 18))
                   for n in (1, 2)]
        sync = router.inputs.ports[WEST].sync
        for packet in packets:
            sync.extend((0, phit) for phit in phits_of(packet,
                                                       router.params))
        router.inputs.sync_count = len(sync)
        delivered = run_until_delivered(router, count=2)
        assert [p.meta.packet_id for p in delivered] == [
            p.meta.packet_id for p in packets]
        assert [bytes(p.payload) for p in delivered] == [
            bytes(p.payload) for p in packets]
        for _ in range(100):
            router.step()
        assert router.idle and not router.inputs.ports[WEST].rx_bytes


class TestFaults:
    def test_unknown_connection_raises(self):
        router = make_router()
        router.inject_tc(TimeConstrainedPacket(123, header_deadline=0))
        with pytest.raises(UnknownConnectionError):
            for _ in range(100):
                router.step()

    def test_memory_exhaustion_error_policy(self):
        params = RouterParams(tc_packet_slots=2)
        router = RealTimeRouter(params, on_memory_full="error")
        # Packets stay buffered: early (logical arrival far away).
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(EAST))
        for _ in range(3):
            router.inject_tc(TimeConstrainedPacket(0, header_deadline=100))
        with pytest.raises(BufferOverflowError):
            for _ in range(500):
                router.step()

    def test_memory_exhaustion_drop_policy(self):
        params = RouterParams(tc_packet_slots=2)
        router = RealTimeRouter(params, on_memory_full="drop")
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(EAST))
        for _ in range(4):
            router.inject_tc(TimeConstrainedPacket(0, header_deadline=100))
        for _ in range(500):
            router.step()
        assert router.tc_dropped == 2

    def test_invalid_memory_policy_rejected(self):
        with pytest.raises(ValueError):
            RealTimeRouter(on_memory_full="panic")

    def test_wide_links_rejected_by_cycle_model(self):
        with pytest.raises(ValueError, match="byte-serial"):
            RealTimeRouter(RouterParams(link_bytes_per_cycle=2))


class TestServiceAccounting:
    def test_output_service_counts_bytes(self):
        router = make_router()
        router.control.program_connection(0, 0, delay=10,
                                          port_mask=port_mask(RECEPTION))
        router.inject_tc(TimeConstrainedPacket(0, 0))
        run_until_delivered(router)
        tc_bytes, be_bytes = router.output_service(RECEPTION)
        assert tc_bytes == 20
        assert be_bytes == 0
