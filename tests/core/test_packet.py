"""Tests for packet wire formats (paper Figure 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.packet import (
    BE_HEADER_BYTES,
    BestEffortPacket,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
    phits_of,
)
from repro.core.params import PAPER_PARAMS, TC_PAYLOAD_BYTES


class TestTimeConstrainedFormat:
    def test_fixed_size(self):
        packet = TimeConstrainedPacket(connection_id=5, header_deadline=100)
        assert packet.size == 20
        assert len(packet.to_bytes(PAPER_PARAMS)) == 20

    def test_header_layout(self):
        packet = TimeConstrainedPacket(connection_id=7, header_deadline=42,
                                       payload=bytes(range(18)))
        wire = packet.to_bytes(PAPER_PARAMS)
        assert wire[0] == 7
        assert wire[1] == 42
        assert wire[2:] == bytes(range(18))

    def test_deadline_wraps_to_clock_range(self):
        packet = TimeConstrainedPacket(connection_id=0, header_deadline=300)
        assert packet.to_bytes(PAPER_PARAMS)[1] == 44

    def test_round_trip(self):
        packet = TimeConstrainedPacket(connection_id=3, header_deadline=9,
                                       payload=b"abcdefghijklmnopqr")
        again = TimeConstrainedPacket.from_bytes(
            packet.to_bytes(PAPER_PARAMS), PAPER_PARAMS
        )
        assert again.connection_id == 3
        assert again.header_deadline == 9
        assert again.payload == b"abcdefghijklmnopqr"

    def test_rejects_wrong_payload_size(self):
        with pytest.raises(ValueError):
            TimeConstrainedPacket(connection_id=0, header_deadline=0,
                                  payload=b"short")

    def test_rejects_oversized_connection_id(self):
        packet = TimeConstrainedPacket(connection_id=300, header_deadline=0)
        with pytest.raises(ValueError):
            packet.to_bytes(PAPER_PARAMS)

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TimeConstrainedPacket.from_bytes(b"\x00" * 19, PAPER_PARAMS)

    @given(cid=st.integers(0, 255), deadline=st.integers(0, 255),
           payload=st.binary(min_size=TC_PAYLOAD_BYTES,
                             max_size=TC_PAYLOAD_BYTES))
    def test_round_trip_property(self, cid, deadline, payload):
        packet = TimeConstrainedPacket(cid, deadline, payload)
        again = TimeConstrainedPacket.from_bytes(
            packet.to_bytes(PAPER_PARAMS), PAPER_PARAMS
        )
        assert (again.connection_id, again.header_deadline,
                again.payload) == (cid, deadline, payload)


class TestBestEffortFormat:
    def test_header_layout(self):
        packet = BestEffortPacket(x_offset=2, y_offset=-3, payload=b"hi")
        wire = packet.to_bytes()
        assert wire[0] == 2
        assert wire[1] == (-3) & 0xFF
        assert (wire[2] << 8) | wire[3] == 2
        assert wire[4:] == b"hi"

    def test_variable_size(self):
        assert BestEffortPacket(0, 0, b"").size == BE_HEADER_BYTES
        assert BestEffortPacket(0, 0, b"x" * 100).size == BE_HEADER_BYTES + 100

    def test_round_trip_negative_offsets(self):
        packet = BestEffortPacket(x_offset=-100, y_offset=100,
                                  payload=b"payload!")
        again = BestEffortPacket.from_bytes(packet.to_bytes())
        assert again.x_offset == -100
        assert again.y_offset == 100
        assert again.payload == b"payload!"

    def test_rejects_out_of_range_offset(self):
        with pytest.raises(ValueError):
            BestEffortPacket(x_offset=128, y_offset=0)

    def test_rejects_length_mismatch(self):
        wire = BestEffortPacket(0, 0, b"abc").to_bytes()
        with pytest.raises(ValueError):
            BestEffortPacket.from_bytes(wire[:-1])

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError):
            BestEffortPacket.from_bytes(b"\x00\x00")

    def test_with_offsets_preserves_payload_and_meta(self):
        packet = BestEffortPacket(3, 4, b"data")
        moved = packet.with_offsets(2, 4)
        assert moved.payload == packet.payload
        assert moved.meta is packet.meta
        assert moved.x_offset == 2

    @given(x=st.integers(-127, 127), y=st.integers(-127, 127),
           payload=st.binary(max_size=300))
    def test_round_trip_property(self, x, y, payload):
        packet = BestEffortPacket(x, y, payload)
        again = BestEffortPacket.from_bytes(packet.to_bytes())
        assert (again.x_offset, again.y_offset, again.payload) == (x, y, payload)


class TestPhits:
    def test_tc_phits(self):
        packet = TimeConstrainedPacket(connection_id=1, header_deadline=2)
        phits = phits_of(packet, PAPER_PARAMS)
        assert len(phits) == 20
        assert all(p.vc == "TC" for p in phits)
        assert phits[0].byte == 1
        assert phits[-1].last and not phits[0].last
        assert [p.index for p in phits] == list(range(20))

    def test_be_phits(self):
        packet = BestEffortPacket(1, 1, b"xyz")
        phits = phits_of(packet, PAPER_PARAMS)
        assert len(phits) == BE_HEADER_BYTES + 3
        assert all(p.vc == "BE" for p in phits)
        assert phits[-1].last

    def test_phit_validation(self):
        with pytest.raises(ValueError):
            Phit(vc="XX", byte=0)
        with pytest.raises(ValueError):
            Phit(vc="TC", byte=256)

    def test_phits_reference_owner(self):
        packet = BestEffortPacket(0, 0, b"q")
        assert all(p.packet is packet for p in phits_of(packet, PAPER_PARAMS))

    def test_rejects_non_packet(self):
        with pytest.raises(TypeError):
            phits_of(object(), PAPER_PARAMS)


class TestMeta:
    def test_unique_ids(self):
        a, b = PacketMeta(), PacketMeta()
        assert a.packet_id != b.packet_id


class TestPacketIdDiscipline:
    """Packet reassembly must never draw from the process-global
    packet-id counter: ``from_bytes`` reuses the carried meta, so the
    ids a run draws depend only on how many packets it creates, never
    on how often they are reassembled along the way.
    """

    def test_be_reassembly_draws_no_packet_id(self):
        packet = BestEffortPacket(x_offset=1, y_offset=0, payload=b"xy")
        before = PacketMeta().packet_id
        rebuilt = BestEffortPacket.from_bytes(packet.to_bytes(),
                                              meta=packet.meta)
        assert rebuilt.meta is packet.meta
        assert PacketMeta().packet_id == before + 1

    def test_tc_reassembly_draws_no_packet_id(self):
        params = PAPER_PARAMS
        packet = TimeConstrainedPacket(
            connection_id=3, header_deadline=7,
            payload=bytes(params.tc_packet_bytes - 2))
        before = PacketMeta().packet_id
        rebuilt = TimeConstrainedPacket.from_bytes(
            packet.to_bytes(params), params, meta=packet.meta)
        assert rebuilt.meta is packet.meta
        assert PacketMeta().packet_id == before + 1
