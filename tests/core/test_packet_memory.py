"""Tests for the shared packet memory, idle FIFO and chunk bus."""

import pytest
from hypothesis import given, strategies as st

from repro.core.packet_memory import (
    BE_XFER,
    TC_READ,
    TC_WRITE,
    BusRequest,
    ChunkBus,
    IdleAddressFifo,
    MemoryError_,
    PacketMemory,
)
from repro.core.params import RouterParams


class TestIdleAddressFifo:
    def test_allocates_all_slots_once(self):
        fifo = IdleAddressFifo(8)
        addresses = [fifo.allocate() for _ in range(8)]
        assert sorted(addresses) == list(range(8))
        assert fifo.allocate() is None

    def test_release_recycles_fifo_order(self):
        fifo = IdleAddressFifo(2)
        a = fifo.allocate()
        b = fifo.allocate()
        fifo.release(b)
        fifo.release(a)
        assert fifo.allocate() == b
        assert fifo.allocate() == a

    def test_double_free_detected(self):
        fifo = IdleAddressFifo(2)
        a = fifo.allocate()
        fifo.release(a)
        with pytest.raises(MemoryError_):
            fifo.release(a)

    def test_counters(self):
        fifo = IdleAddressFifo(4)
        fifo.allocate()
        assert fifo.free_count == 3
        assert fifo.allocated_count == 1

    @given(ops=st.lists(st.booleans(), max_size=200))
    def test_conservation_property(self, ops):
        """allocated + free == slots, always."""
        fifo = IdleAddressFifo(16)
        held: list[int] = []
        for do_alloc in ops:
            if do_alloc:
                addr = fifo.allocate()
                if addr is not None:
                    held.append(addr)
            elif held:
                fifo.release(held.pop())
            assert fifo.free_count + fifo.allocated_count == 16
            assert len(set(held)) == len(held)


class TestPacketMemory:
    @pytest.fixture
    def memory(self) -> PacketMemory:
        return PacketMemory(RouterParams(tc_packet_slots=4))

    def test_chunk_round_trip(self, memory):
        slot = memory.allocate()
        memory.write_chunk(slot, 0, bytes(range(10)))
        memory.write_chunk(slot, 1, bytes(range(10, 20)))
        assert memory.read_chunk(slot, 0) == bytes(range(10))
        assert memory.read_packet(slot) == bytes(range(20))

    def test_rejects_access_to_unallocated(self, memory):
        with pytest.raises(MemoryError_):
            memory.read_chunk(0, 0)

    def test_rejects_bad_chunk_size(self, memory):
        slot = memory.allocate()
        with pytest.raises(MemoryError_):
            memory.write_chunk(slot, 0, b"short")

    def test_rejects_out_of_range(self, memory):
        slot = memory.allocate()
        with pytest.raises(MemoryError_):
            memory.read_chunk(slot, 9)
        with pytest.raises(MemoryError_):
            memory.read_chunk(99, 0)

    def test_occupancy_and_peak(self, memory):
        slots = [memory.allocate() for _ in range(3)]
        assert memory.occupancy == 3
        memory.free(slots[0])
        assert memory.occupancy == 2
        assert memory.peak_occupancy == 3

    def test_exhaustion_returns_none(self, memory):
        for _ in range(4):
            assert memory.allocate() is not None
        assert memory.allocate() is None

    def test_state_round_trip_and_strict_slot_entries(self, memory):
        memory.allocate()
        slot = memory.allocate()
        memory.write_chunk(slot, 0, bytes(range(10)))
        memory.write_chunk(slot, 1, bytes(range(10, 20)))
        state = memory.state()
        assert state["slots"][1] == [slot, bytes(range(20)).hex()]
        other = PacketMemory(RouterParams(tc_packet_slots=4))
        other.load_state(state)
        assert other.read_packet(slot) == bytes(range(20))
        assert other.state() == state
        for bad in ([4, "00" * 20], [slot, "00" * 19]):
            with pytest.raises(MemoryError_, match="bad slot entry"):
                other.load_state(dict(state, slots=[bad]))


def tagged(port, tag=None):
    """A request the recording buses below identify by ``tag``."""
    return BusRequest(port, BE_XFER, (port if tag is None else tag,))


def recording_bus(ports):
    """A bus whose grants append the request's tag to ``log``."""
    log = []
    return ChunkBus(ports, lambda req: log.append(req.args[0])), log


class TestChunkBus:
    def test_one_grant_per_cycle(self):
        bus, done = recording_bus(4)
        for port in range(3):
            bus.request(tagged(port))
        bus.grant()
        assert len(done) == 1
        bus.grant()
        bus.grant()
        assert sorted(done) == [0, 1, 2]

    def test_round_robin_fairness(self):
        bus, order = recording_bus(2)
        for _ in range(3):
            bus.request(tagged(0))
            bus.request(tagged(1))
        for _ in range(6):
            bus.grant()
        # Strict alternation once both ports have backlogs.
        assert order == [0, 1, 0, 1, 0, 1]

    def test_fifo_within_port(self):
        bus, order = recording_bus(1)
        for i in range(5):
            bus.request(tagged(0, tag=i))
        for _ in range(5):
            bus.grant()
        assert order == [0, 1, 2, 3, 4]

    def test_idle_grant_returns_none(self):
        bus, _ = recording_bus(2)
        assert bus.grant() is None

    def test_grant_returns_the_request_it_executed(self):
        bus, done = recording_bus(2)
        request = tagged(1)
        bus.request(request)
        assert bus.grant() is request and done == [1]

    def test_utilisation_accounting(self):
        bus, _ = recording_bus(1)
        bus.request(tagged(0))
        bus.grant()
        bus.grant()
        assert bus.grants == 1
        assert bus.utilisation == 0.5

    def test_rejects_bad_port(self):
        bus, _ = recording_bus(2)
        with pytest.raises(ValueError):
            bus.request(tagged(5))

    def test_pending_counts(self):
        bus, _ = recording_bus(2)
        bus.request(tagged(1))
        assert bus.pending() == 1
        assert bus.pending(0) == 0
        assert bus.pending(1) == 1

    @given(requests=st.lists(st.integers(0, 4), max_size=60))
    def test_starvation_freedom(self, requests):
        """Every queued request is granted within ports * backlog cycles."""
        bus, served = recording_bus(5)
        for port in requests:
            bus.request(tagged(port))
        for _ in range(len(requests)):
            bus.grant()
        assert len(served) == len(requests)
        assert sorted(served) == sorted(requests)


class TestBusRequestAsData:
    """A request is spelt as text only in the bus's checkpoint state."""

    REQUESTS = [
        BusRequest(2, TC_WRITE, (2, 5, 1, bytes(range(10)), 7, 19, 0b10001,
                                 True)),
        BusRequest(8, TC_READ, (3, 5, 0)),
        BusRequest(4, BE_XFER, (4, 5)),
    ]

    def test_labels_keep_their_three_spellings(self):
        assert [req.label for req in self.REQUESTS] == [
            "tc-write s5 c1", "tc-read s5 c0", "be-xfer in4"]

    def test_the_document_spelling_round_trips(self):
        bus, _ = recording_bus(10)
        for req in self.REQUESTS:
            bus.request(req)
        state = bus.state()
        assert state["queues"][2] == [
            ["tc-write", 2, 5, 1, "00010203040506070809", 7, 19, 17, True]]
        assert state["queues"][8] == [["tc-read", 3, 5, 0]]
        assert state["queues"][4] == [["be-xfer", 4, 5]]
        granted = []
        restored = ChunkBus(10, granted.append)
        restored.load_state(state)
        assert restored.pending() == 3
        for _ in range(3):
            restored.grant()
        assert sorted(granted, key=lambda req: req.port) == sorted(
            self.REQUESTS, key=lambda req: req.port)

    def test_an_unknown_kind_is_refused_on_load(self):
        bus, _ = recording_bus(2)
        state = bus.state()
        state["queues"][0] = [["tc-erase", 0, 1, 2]]
        with pytest.raises(ValueError, match="unknown bus request"):
            bus.load_state(state)
