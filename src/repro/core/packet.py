"""Packet formats of the real-time router (paper Figure 3).

Two wire formats share the physical links, distinguished by a one-bit
virtual-channel tag on each byte:

* **Time-constrained packets** (Figure 3a) are fixed-size (20 bytes by
  default): a connection identifier, the packet's deadline at the
  upstream node — which is, by construction, its logical arrival time
  at this node — and payload data.
* **Best-effort packets** (Figure 3b) are variable-size wormhole
  packets: signed x and y offsets for dimension-ordered routing, a
  payload length, and the payload.

Both formats round-trip through real byte serialisation; the
cycle-accurate router parses headers from the byte stream exactly as
the chip would.  Simulation-only metadata (injection time, sequence
numbers) lives outside the wire format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.params import (
    RouterParams,
    TC_HEADER_BYTES,
    TC_PACKET_BYTES,
    TC_PAYLOAD_BYTES,
)

#: Best-effort wire header: x offset (1), y offset (1), length (2).
BE_HEADER_BYTES = 4

#: Maximum best-effort payload expressible in the 2-byte length field.
BE_MAX_PAYLOAD = 0xFFFF

_packet_ids = itertools.count()


def packet_id_counter_state() -> int:
    """Next packet id to be issued (checkpointing).

    Peeks by consuming one id and re-creating the counter at the same
    position — safe because every caller of ``_packet_ids`` looks the
    module global up by name at call time.
    """
    global _packet_ids
    value = next(_packet_ids)
    _packet_ids = itertools.count(value)
    return value


def load_packet_id_counter_state(value: int) -> None:
    """Restore the packet id counter to a checkpointed position."""
    global _packet_ids
    _packet_ids = itertools.count(int(value))


def _signed_byte(value: int) -> int:
    """Encode a signed mesh offset into one two's-complement byte."""
    if not -128 <= value <= 127:
        raise ValueError(f"mesh offset {value} does not fit in a byte")
    return value & 0xFF


def _unsigned_to_signed(byte: int) -> int:
    """Decode a two's-complement byte into a signed mesh offset."""
    return byte - 256 if byte >= 128 else byte


def payload_checksum(data: bytes) -> int:
    """One-byte payload checksum (XOR fold, seeded to catch zeroing).

    Headers are rewritten hop by hop (connection ids, deadlines,
    routing offsets), so the end-to-end integrity check covers the
    payload bytes only — the part of the packet that must survive the
    fabric unchanged.  A real chip would use a CRC; an XOR fold is
    enough to catch the single-flit corruptions the fault injector
    models, and it is cheap enough to run on every reception.
    """
    checksum = 0xA5
    for byte in data:
        checksum ^= byte
    return checksum


@dataclass
class PacketMeta:
    """Simulation-side bookkeeping that never touches the wire."""

    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    source: Optional[tuple[int, int]] = None
    destination: Optional[tuple[int, int]] = None
    injected_cycle: Optional[int] = None
    delivered_cycle: Optional[int] = None
    #: End-to-end logical arrival time / deadline in *unwrapped* ticks,
    #: recorded by the source for deadline-miss accounting.
    absolute_deadline: Optional[int] = None
    connection_label: Optional[str] = None
    sequence: Optional[int] = None
    #: Payload checksum stamped at injection; input ports recompute it
    #: and drop mismatching (corrupted) packets.
    checksum: Optional[int] = None
    #: Remaining best-effort relay waypoints (host-software forwarding
    #: used to steer wormhole retries around links known to be dead).
    relay_path: tuple = ()
    #: For a retransmitted copy: the sequence number of the original
    #: attempt's corresponding fragment.  Retransmission stamps fresh
    #: sequence numbers, so this is the only link back to the logical
    #: packet — the delivery log uses it to keep a re-sent copy that
    #: reaches an already-delivered destination out of the counts.
    retransmit_of: Optional[int] = None


@dataclass
class TimeConstrainedPacket:
    """A fixed-size time-constrained packet (paper Figure 3a).

    ``header_deadline`` carries ``l(m) + d`` assigned by the upstream
    node; the receiving router reads it as the packet's logical arrival
    time ``l(m)`` at this hop, then rewrites the field with its own
    deadline before forwarding (paper section 4.1).
    """

    connection_id: int
    header_deadline: int
    payload: bytes = b"\x00" * TC_PAYLOAD_BYTES
    meta: PacketMeta = field(default_factory=PacketMeta)

    def __post_init__(self) -> None:
        if not 0 <= self.connection_id < 65536:
            raise ValueError("connection id out of range")
        if len(self.payload) != TC_PAYLOAD_BYTES:
            raise ValueError(
                f"time-constrained payload must be exactly "
                f"{TC_PAYLOAD_BYTES} bytes, got {len(self.payload)}"
            )

    @property
    def size(self) -> int:
        return TC_PACKET_BYTES

    def to_bytes(self, params: RouterParams) -> bytes:
        """Serialise to the fixed 20-byte wire format."""
        if self.connection_id >= params.connections:
            raise ValueError("connection id exceeds the connection table")
        deadline = self.header_deadline & (params.clock_range - 1)
        return bytes([self.connection_id & 0xFF, deadline]) + self.payload

    @classmethod
    def from_bytes(
        cls, data: bytes, params: RouterParams,
        meta: Optional[PacketMeta] = None,
    ) -> "TimeConstrainedPacket":
        """Parse the fixed wire format back into a packet."""
        if len(data) != params.tc_packet_bytes:
            raise ValueError(
                f"time-constrained packet must be {params.tc_packet_bytes} "
                f"bytes, got {len(data)}"
            )
        # Reuse the carried meta directly: constructing with the default
        # factory would burn a packet id from the process-global counter
        # on every reassembly, so how many ids a run draws would depend
        # on how often packets are reassembled rather than on how many
        # are created.
        if meta is None:
            meta = PacketMeta()
        return cls(connection_id=data[0], header_deadline=data[1],
                   payload=bytes(data[TC_HEADER_BYTES:]), meta=meta)


@dataclass
class BestEffortPacket:
    """A variable-size wormhole packet (paper Figure 3b).

    Offsets are the *remaining* signed hop counts in each dimension;
    dimension-ordered routing moves the packet in x until ``x_offset``
    reaches zero, then in y.  Each router it passes decrements the
    magnitude of the offset it consumed, so the header always reflects
    the remaining route.
    """

    x_offset: int
    y_offset: int
    payload: bytes = b""
    meta: PacketMeta = field(default_factory=PacketMeta)

    def __post_init__(self) -> None:
        _signed_byte(self.x_offset)
        _signed_byte(self.y_offset)
        if len(self.payload) > BE_MAX_PAYLOAD:
            raise ValueError("best-effort payload too large for length field")

    @property
    def size(self) -> int:
        return BE_HEADER_BYTES + len(self.payload)

    def to_bytes(self) -> bytes:
        length = len(self.payload)
        return bytes([
            _signed_byte(self.x_offset),
            _signed_byte(self.y_offset),
            (length >> 8) & 0xFF,
            length & 0xFF,
        ]) + self.payload

    @classmethod
    def from_bytes(
        cls, data: bytes, meta: Optional[PacketMeta] = None,
    ) -> "BestEffortPacket":
        if len(data) < BE_HEADER_BYTES:
            raise ValueError("truncated best-effort header")
        length = (data[2] << 8) | data[3]
        if len(data) != BE_HEADER_BYTES + length:
            raise ValueError("best-effort length field does not match data")
        # See TimeConstrainedPacket.from_bytes: construct with the
        # carried meta so reassembly never draws a wasted packet id.
        if meta is None:
            meta = PacketMeta()
        return cls(
            x_offset=_unsigned_to_signed(data[0]),
            y_offset=_unsigned_to_signed(data[1]),
            payload=bytes(data[BE_HEADER_BYTES:]),
            meta=meta,
        )

    def with_offsets(self, x_offset: int, y_offset: int) -> "BestEffortPacket":
        """Copy of this packet with rewritten routing offsets."""
        return BestEffortPacket(x_offset=x_offset, y_offset=y_offset,
                                payload=self.payload, meta=self.meta)


@dataclass(frozen=True)
class Phit:
    """One physical transfer unit: a byte plus its virtual-channel tag.

    ``TC`` phits belong to the packet-switched time-constrained virtual
    channel; ``BE`` phits to the wormhole best-effort channel (paper
    section 3.2: a single bit on each link differentiates the classes).
    ``packet`` references the owning packet purely for instrumentation —
    router logic must only look at ``byte`` and ``vc``.
    """

    vc: str                      # "TC" or "BE"
    byte: int
    packet: object = None        # owning packet, instrumentation only
    index: int = 0               # byte index within the packet
    last: bool = False           # tail byte of the packet

    def __post_init__(self) -> None:
        if self.vc not in ("TC", "BE"):
            raise ValueError("virtual channel must be 'TC' or 'BE'")
        if not 0 <= self.byte <= 0xFF:
            raise ValueError("phit payload must be one byte")


class MetaCarrier:
    """Minimal packet stand-in that carries metadata on wire phits."""

    __slots__ = ("meta",)

    def __init__(self, meta: PacketMeta) -> None:
        self.meta = meta


def phits_of(packet, params: RouterParams) -> list[Phit]:
    """Explode a packet into its wire phits (stamping the checksum)."""
    if isinstance(packet, TimeConstrainedPacket):
        data, vc = packet.to_bytes(params), "TC"
        if packet.meta.checksum is None:
            packet.meta.checksum = payload_checksum(data[TC_HEADER_BYTES:])
    elif isinstance(packet, BestEffortPacket):
        data, vc = packet.to_bytes(), "BE"
        if packet.meta.checksum is None:
            packet.meta.checksum = payload_checksum(data[BE_HEADER_BYTES:])
    else:
        raise TypeError(f"not a packet: {packet!r}")
    tail = len(data) - 1
    return [Phit(vc=vc, byte=b, packet=packet, index=i, last=(i == tail))
            for i, b in enumerate(data)]
