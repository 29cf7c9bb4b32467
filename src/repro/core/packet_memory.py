"""Shared packet memory, idle-address FIFO and the internal chunk bus.

The chip stores all buffered time-constrained packets in a single
10-byte-wide, single-ported SRAM shared by the five input and five
output ports (paper section 3.4).  Three pieces cooperate:

* :class:`IdleAddressFifo` — hands unused slot addresses to arriving
  packets and reclaims them on departure, exactly like the
  shared-memory switches the paper cites.
* :class:`PacketMemory` — the SRAM itself, one byte array holding
  every slot, accessed in 10-byte chunks, with allocation-state
  checking so tests can prove the memory never double-allocates or
  leaks.
* :class:`ChunkBus` — the single memory port.  It serves **one chunk
  access per cycle** with demand-driven round-robin arbitration among
  the ports, which exactly matches the aggregate bandwidth of the ten
  byte-wide external ports (10 bytes/cycle in, 10 bytes/cycle of SRAM
  bandwidth).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.params import MEMORY_CHUNK_BYTES, RouterParams


class MemoryError_(RuntimeError):
    """Packet-memory invariant violation (double free, overflow, ...)."""


class IdleAddressFifo:
    """FIFO of free packet-slot addresses (paper section 3.4)."""

    def __init__(self, slots: int) -> None:
        self._free: deque[int] = deque(range(slots))
        self._allocated: set[int] = set()
        self.slots = slots

    def allocate(self) -> Optional[int]:
        """Pop a free address, or None when the memory is full."""
        if not self._free:
            return None
        address = self._free.popleft()
        self._allocated.add(address)
        return address

    def release(self, address: int) -> None:
        """Return a departed packet's slot to the idle pool."""
        if address not in self._allocated:
            raise MemoryError_(
                f"slot {address} released while not allocated (double free?)"
            )
        self._allocated.discard(address)
        self._free.append(address)

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    def is_allocated(self, address: int) -> bool:
        return address in self._allocated

    def state(self) -> dict:
        """Checkpoint state.  The free list *order* matters: allocation
        order after a restore must match the uninterrupted run."""
        return {"free": list(self._free),
                "allocated": sorted(self._allocated)}

    def load_state(self, state: dict) -> None:
        self._free = deque(state["free"])
        self._allocated = set(state["allocated"])


class PacketMemory:
    """The shared SRAM, addressed by (slot, chunk): one byte array in
    which slot ``s`` starts at ``s * tc_packet_bytes``."""

    def __init__(self, params: RouterParams) -> None:
        self.params = params
        self.idle_fifo = IdleAddressFifo(params.tc_packet_slots)
        self._sram = bytearray(params.memory_bytes)
        #: Peak concurrent occupancy, for buffer-bound experiments.
        self.peak_occupancy = 0

    def allocate(self) -> Optional[int]:
        address = self.idle_fifo.allocate()
        if address is not None:
            self.peak_occupancy = max(
                self.peak_occupancy, self.idle_fifo.allocated_count
            )
        return address

    def free(self, address: int) -> None:
        self.idle_fifo.release(address)

    @property
    def occupancy(self) -> int:
        return self.idle_fifo.allocated_count

    def _span(self, address: int, chunk: int) -> tuple[int, int]:
        """Where one chunk of an allocated slot lies in the array."""
        if not 0 <= address < self.params.tc_packet_slots:
            raise MemoryError_(f"slot address {address} out of range")
        if not 0 <= chunk < self.params.chunks_per_packet:
            raise MemoryError_(f"chunk index {chunk} out of range")
        if not self.idle_fifo.is_allocated(address):
            raise MemoryError_(f"access to unallocated slot {address}")
        size = self.params.tc_packet_bytes
        start = address * size + chunk * MEMORY_CHUNK_BYTES
        return start, min(start + MEMORY_CHUNK_BYTES, (address + 1) * size)

    def write_chunk(self, address: int, chunk: int, data: bytes) -> None:
        start, end = self._span(address, chunk)
        if len(data) != end - start:
            raise MemoryError_(
                f"chunk write of {len(data)} bytes, expected {end - start}"
            )
        self._sram[start:end] = data

    def read_chunk(self, address: int, chunk: int) -> bytes:
        start, end = self._span(address, chunk)
        return bytes(self._sram[start:end])

    def read_packet(self, address: int) -> bytes:
        """Whole-packet read (convenience for models and tests)."""
        start, _ = self._span(address, 0)
        return bytes(self._sram[start:start + self.params.tc_packet_bytes])

    def state(self) -> dict:
        """Checkpoint state: the idle FIFO plus allocated slot bytes."""
        size = self.params.tc_packet_bytes
        sram = self._sram
        return {
            "idle_fifo": self.idle_fifo.state(),
            "slots": [[address,
                       sram[address * size:(address + 1) * size].hex()]
                      for address in sorted(self.idle_fifo._allocated)],
            "peak_occupancy": self.peak_occupancy,
        }

    def load_state(self, state: dict) -> None:
        size = self.params.tc_packet_bytes
        self.idle_fifo.load_state(state["idle_fifo"])
        self._sram = bytearray(self.params.memory_bytes)
        for address, data in state["slots"]:
            raw = bytes.fromhex(data)
            # A slice assignment out of range or of another length
            # would resize the array instead of failing.
            if not 0 <= address < self.params.tc_packet_slots \
                    or len(raw) != size:
                raise MemoryError_(f"bad slot entry for slot {address}")
            self._sram[address * size:(address + 1) * size] = raw
        self.peak_occupancy = int(state["peak_occupancy"])


#: What a granted request does (the first field of its document entry).
TC_WRITE, TC_READ, BE_XFER = "tc-write", "tc-read", "be-xfer"


@dataclass(slots=True)
class BusRequest:
    """One queued chunk access, as data; the chip executes it on grant.

    ``args`` are the remaining fields of its document entry, in order:
    ``tc-write`` input port, slot, chunk, bytes, the leaf's arrival,
    deadline and port mask, and whether this chunk installs it;
    ``tc-read`` output port, slot, chunk; ``be-xfer`` input port, count.
    """

    port: int   # the bus requester: input ports, then output ports
    kind: str
    args: tuple

    @property
    def label(self) -> str:
        """The request in words: ``be-xfer in3``, ``tc-write s5 c1``."""
        if self.kind == BE_XFER:
            return f"be-xfer in{self.args[0]}"
        return f"{self.kind} s{self.args[1]} c{self.args[2]}"

    def entry(self) -> list:
        """The document's spelling: the chunk's bytes as a hex string."""
        args = list(self.args)
        if self.kind == TC_WRITE:
            args[3] = args[3].hex()
        return [self.kind, *args]

    @classmethod
    def from_entry(cls, port: int, entry: list) -> "BusRequest":
        kind, *args = entry
        if kind not in (TC_WRITE, TC_READ, BE_XFER):
            raise ValueError(f"unknown bus request {entry!r}")
        if kind == TC_WRITE:
            args[3] = bytes.fromhex(args[3])
        return cls(port, kind, tuple(args))


class ChunkBus:
    """Single-ported memory bus: one chunk access granted per cycle.

    Ports enqueue :class:`BusRequest` objects; :meth:`grant` hands at
    most one per cycle to ``execute`` (the chip), scanning ports
    round-robin from just past the last winner (demand-driven
    round-robin, paper section 3.4).  Each port's requests stay FIFO
    relative to each other, preserving chunk ordering within a packet.
    """

    def __init__(self, ports: int,
                 execute: Callable[[BusRequest], None]) -> None:
        if ports < 1:
            raise ValueError("bus needs at least one port")
        self.ports = ports
        self._execute = execute
        self._queues: list[deque[BusRequest]] = [deque() for _ in range(ports)]
        self._pending = 0  # requests queued over all ports (derived)
        self._next = 0
        self.grants = 0
        self.busy_cycles = 0
        self.total_cycles = 0

    def request(self, req: BusRequest) -> None:
        if not 0 <= req.port < self.ports:
            raise ValueError("bus port out of range")
        self._queues[req.port].append(req)
        self._pending += 1

    def pending(self, port: Optional[int] = None) -> int:
        if port is not None:
            return len(self._queues[port])
        return self._pending

    def idle_cycles(self, count: int = 1) -> None:
        """Advance ``count`` cycles in which no port asked for the bus."""
        self.total_cycles += count

    def grant(self) -> Optional[BusRequest]:
        """Advance one cycle: grant and execute at most one request."""
        self.total_cycles += 1
        if not self._pending:
            return None
        for offset in range(self.ports):
            port = (self._next + offset) % self.ports
            queue = self._queues[port]
            if queue:
                req = queue.popleft()
                self._pending -= 1
                self._next = (port + 1) % self.ports
                self._execute(req)
                self.grants += 1
                self.busy_cycles += 1
                return req
        return None

    @property
    def utilisation(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.busy_cycles / self.total_cycles

    def state(self) -> dict:
        """Checkpoint state; the one place a request is spelt as text."""
        return {"next": self._next, "grants": self.grants,
                "busy_cycles": self.busy_cycles,
                "total_cycles": self.total_cycles,
                "queues": [[req.entry() for req in queue]
                           for queue in self._queues]}

    def load_state(self, state: dict) -> None:
        self._next = int(state["next"])
        self.grants = int(state["grants"])
        self.busy_cycles = int(state["busy_cycles"])
        self.total_cycles = int(state["total_cycles"])
        for port, (queue, entries) in enumerate(
                zip(self._queues, state["queues"])):
            queue.clear()
            queue.extend(BusRequest.from_entry(port, entry)
                         for entry in entries)
        self._pending = sum(len(queue) for queue in self._queues)
