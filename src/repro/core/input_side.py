"""The input side of the chip: four link inputs and the injection ports.

Paper Figure 2, left half.  Every arriving byte crosses a synchroniser;
behind it each port frames time-constrained packets for the shared
packet memory (or cuts them through, section 7) and runs the wormhole
switching of best-effort packets: 10-byte input flit buffers,
acknowledgement (credit) flow control, dimension-ordered routing by
header offsets and round-robin arbitration among inputs (section 3.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.arbiter import RoundRobinArbiter
from repro.core.connection_table import UnknownConnectionError
from repro.core.flit_buffer import FlitBuffer
from repro.core.packet import (
    BE_HEADER_BYTES,
    BestEffortPacket,
    MetaCarrier,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
    payload_checksum,
    phits_of,
)
from repro.core.packet_memory import BE_XFER, TC_WRITE, BusRequest
from repro.core.params import (
    MEMORY_CHUNK_BYTES,
    MESH_LINKS,
    OUTPUT_PORTS,
    TC_HEADER_BYTES,
)
from repro.core.ports import dimension_ordered_port, west_first_port
from repro.observability.trace import BUFFER, CORRUPT_DROP

#: Best-effort data crosses the internal bus in half-width chunks.
BE_CHUNK_BYTES = MEMORY_CHUNK_BYTES // 2


class BufferOverflowError(RuntimeError):
    """The shared packet memory overflowed — reservations were violated."""


#: The scalar wormhole fields of a port, as ``be_inputs`` spells them.
_WORM_FIELDS = ("out_port", "bound", "total_bytes", "transferred",
                "xfer_pending", "pending_acks", "route_ready_cycle")


@dataclass(slots=True)
class _InputPort:
    """One input port: its synchroniser, the time-constrained framing
    and the wormhole state machine behind the flit buffer.

    Header bytes are captured as phits are pushed into the flit buffer
    (one header record per worm, so a tail and the next worm's head can
    coexist in the buffer); data moves out only via internal-bus
    transfers toward the bound output port.
    """

    buffer: FlitBuffer
    # Input synchroniser: arriving bytes cross a short register chain
    # before the router proper sees them.
    sync: deque[tuple[int, Phit]] = field(default_factory=deque)
    rx_bytes: list[int] = field(default_factory=list)
    rx_meta: Optional[PacketMeta] = None
    # Virtual cut-through (paper section 7): when engaged, remaining
    # bytes of the current packet stream straight to this output port,
    # bypassing the packet memory and the comparator tree.
    cut_port: Optional[int] = None
    headers: deque[list[int]] = field(default_factory=deque)
    metas: deque[Optional[PacketMeta]] = field(default_factory=deque)
    out_port: Optional[int] = None
    bound: bool = False
    total_bytes: Optional[int] = None
    transferred: int = 0          # bytes handed to bus transfers
    xfer_pending: bool = False    # one outstanding bus request
    pending_acks: int = 0         # drained bytes not yet acknowledged
    route_ready_cycle: Optional[int] = None  # header decode done

    def push(self, phit: Phit) -> None:
        self.buffer.push(phit)
        index = phit.index
        if index < BE_HEADER_BYTES:
            if index == 0:
                self.headers.append([])
                self.metas.append(None)
            if self.headers:
                self.headers[-1].append(phit.byte)
        if phit.packet is not None and self.metas:
            meta = getattr(phit.packet, "meta", None)
            if meta is not None:
                self.metas[-1] = meta

    def active_meta(self) -> Optional[PacketMeta]:
        return self.metas[0] if self.metas else None

    def release_worm(self) -> None:
        """Forget the finished worm (its tail crossed the bus)."""
        if self.headers:
            self.headers.popleft()
        if self.metas:
            self.metas.popleft()
        self.out_port = None
        self.bound = False
        self.total_bytes = None
        self.transferred = 0
        self.route_ready_cycle = None


class InputSide:
    """The five input ports of one chip, ``chip``: the router
    document's ``sync_queues``, ``tc_inputs``, ``be_inputs``,
    ``be_arbiters`` and four injection entries."""

    __slots__ = ("chip", "params", "out_ports", "ports", "sync_count",
                 "frame_ready", "be_arbiters", "tc_inject_queue",
                 "tc_inject_phits", "be_inject_queue", "be_inject_phits")

    def __init__(self, chip) -> None:
        self.chip = chip
        self.params = params = chip.params
        #: Credits come back through the inputs, and a bound worm's
        #: bytes are staged at its output.
        self.out_ports = chip.outputs.ports
        #: Four link inputs, then the injection port.
        self.ports = [_InputPort(FlitBuffer(params.flit_buffer_bytes))
                      for _ in range(MESH_LINKS + 1)]
        self.sync_count = 0  # bytes in all synchronisers (derived)
        #: Some input holds a whole packet awaiting admission (derived).
        self.frame_ready = False
        self.be_arbiters = [RoundRobinArbiter(MESH_LINKS + 1)
                            for _ in range(OUTPUT_PORTS)]
        # Host-side queues.
        self.tc_inject_queue: deque[TimeConstrainedPacket] = deque()
        self.tc_inject_phits: deque[Phit] = deque()
        self.be_inject_queue: deque[BestEffortPacket] = deque()
        self.be_inject_phits: deque[Phit] = deque()

    def holds(self) -> bool:
        """A queued injection, a byte, or an acknowledgement owed."""
        if self.tc_inject_queue or self.tc_inject_phits:
            return True
        if self.be_inject_queue or self.be_inject_phits:
            return True
        for port in self.ports:
            if port.rx_bytes or port.cut_port is not None or port.sync:
                return True
            if port.buffer.occupancy or port.pending_acks:
                return True
        return False

    # ------------------------------------------------------------------
    # Phase 1: link inputs
    # ------------------------------------------------------------------

    def capture(self, link_in: list, cycle: int) -> None:
        ports = self.ports
        ready = cycle + self.params.input_sync_cycles
        for direction, signal in enumerate(link_in):
            # Consume the signal; whoever drives the link rewrites it.
            if signal.ack:
                self.out_ports[direction].credits.acknowledge()
                signal.ack = False
            phit = signal.phit
            if phit is not None:
                ports[direction].sync.append((ready, phit))
                self.sync_count += 1
                signal.phit = None
        if not self.sync_count:
            return
        for port, state in enumerate(ports):
            queue = state.sync
            while queue and queue[0][0] <= cycle:
                phit = queue.popleft()[1]
                self.sync_count -= 1
                if phit.vc == "TC":
                    self._accept_tc_byte(state, phit, cycle)
                    continue
                if state.headers or phit.index == 0:
                    state.push(phit)
                    continue
                # An orphan flit: its worm's head was lost upstream (a
                # link flap mid-worm).  Buffering it would desynchronise
                # the wormhole state machine, so drop it at the door.
                self.chip.be_orphan_drops += 1
                if port < MESH_LINKS:
                    state.pending_acks += 1  # keep credits conserved

    def _accept_tc_byte(self, state: _InputPort, phit: Phit,
                        cycle: int) -> None:
        if state.cut_port is not None:
            self.chip.outputs.cut_through_byte(state.cut_port, phit.byte)
            if phit.index == self.params.tc_packet_bytes - 1:
                state.cut_port = None
                state.rx_meta = None
            return
        expected = len(state.rx_bytes) % self.params.tc_packet_bytes
        if phit.index != expected:
            # Bytes went missing upstream (link cut mid-packet):
            # discard the partial frame and resynchronise on the next
            # packet boundary so one flap cannot skew framing forever.
            if expected != 0:
                self.chip.tc_resync_drops += 1
                del state.rx_bytes[len(state.rx_bytes)
                                   - expected:]
                state.rx_meta = None if not state.rx_bytes else state.rx_meta
            if phit.index != 0:
                return
        if not state.rx_bytes and phit.packet is not None:
            state.rx_meta = getattr(phit.packet, "meta", None)
        state.rx_bytes.append(phit.byte)
        if len(state.rx_bytes) >= self.params.tc_packet_bytes:
            self.frame_ready = True
        chip = self.chip
        if chip.cut_through and len(state.rx_bytes) == TC_HEADER_BYTES:
            state.cut_port = chip.outputs.try_cut_through(
                state.rx_bytes[0], state.rx_bytes[1], state.rx_meta, cycle)
            if state.cut_port is not None:
                state.rx_bytes.clear()
                chip.tc_received += 1
                chip.cut_through_count += 1

    # ------------------------------------------------------------------
    # Phase 2: injection ports (one byte per cycle each)
    # ------------------------------------------------------------------

    def feed_injection(self, cycle: int) -> None:
        if not self.tc_inject_phits and self.tc_inject_queue:
            packet = self.tc_inject_queue.popleft()
            self.tc_inject_phits.extend(phits_of(packet, self.params))
        if self.tc_inject_phits:
            self._accept_tc_byte(self.ports[MESH_LINKS],
                                 self.tc_inject_phits.popleft(), cycle)

        if not self.be_inject_phits and self.be_inject_queue:
            packet = self.be_inject_queue.popleft()
            self.be_inject_phits.extend(phits_of(packet, self.params))
        # The processor interface is synchronised like a link: injected
        # bytes cross the same register chain before the flit buffer.
        port = self.ports[MESH_LINKS]
        if (self.be_inject_phits
                and port.buffer.free_space > len(port.sync)):
            port.sync.append((cycle + self.params.input_sync_cycles,
                         self.be_inject_phits.popleft()))
            self.sync_count += 1

    # ------------------------------------------------------------------
    # Phase 3: time-constrained packet reception
    # ------------------------------------------------------------------

    def complete_receptions(self, cycle: int) -> None:
        size = self.params.tc_packet_bytes
        for port, state in enumerate(self.ports):
            if len(state.rx_bytes) < size:
                continue
            raw = bytes(state.rx_bytes[:size])
            del state.rx_bytes[:size]
            meta, state.rx_meta = state.rx_meta, None
            self._admit_tc_packet(port, raw, meta, cycle)
        self.frame_ready = False

    def _admit_tc_packet(self, port: int, raw: bytes,
                         meta: Optional[PacketMeta], cycle: int) -> None:
        """Look up the connection, rewrite the header, buffer the packet."""
        chip = self.chip
        chip.tc_received += 1
        if (meta is not None and meta.checksum is not None
                and payload_checksum(raw[TC_HEADER_BYTES:]) != meta.checksum):
            # Corrupted in transit: drop at the input port, never
            # buffer or forward (the checksum covers the payload; the
            # header is regenerated at every hop anyway).
            chip.tc_corrupt_dropped += 1
            if chip.tracer is not None:
                chip.tracer.emit(cycle, CORRUPT_DROP, meta=meta,
                                 node=chip.router_id, port=port,
                                 traffic_class="TC",
                                 info={"where": "input"})
            return
        connection_id = raw[0]
        try:
            entry = chip.control.table.lookup(connection_id)
        except UnknownConnectionError:
            if chip.drop_unroutable:
                # In-flight packet for a connection that was torn down
                # (e.g. rerouted around a failure): count and discard.
                chip.tc_unroutable_dropped += 1
                return
            raise
        # The upstream deadline in the header is this hop's logical
        # arrival time (paper section 4.1).
        arrival = raw[1]
        deadline = chip.clock.wrap(arrival + entry.delay)
        slot = chip.memory.allocate()
        if slot is None:
            if chip.on_memory_full == "drop":
                chip.tc_dropped += 1
                return
            raise BufferOverflowError(
                f"router {chip.router_id}: packet memory full — "
                "buffer reservations violated"
            )
        rewritten = bytes([entry.outgoing_id, deadline]) + raw[2:]
        chip.slot_meta[slot] = meta
        if chip.tracer is not None:
            # Queue placement in paper Table 1 terms: on-time packets
            # belong to queue 1 (EDF), early ones to queue 3 (by
            # logical arrival, horizon-gated).
            on_time = chip.clock.is_past(chip.clock.wrap(arrival))
            chip.tracer.emit(cycle, BUFFER, meta=meta,
                             node=chip.router_id, port=port,
                             traffic_class="TC",
                             queue=1 if on_time else 3,
                             info={"slot": slot})
        chunks = self.params.chunks_per_packet
        for chunk in range(chunks):
            start = chunk * MEMORY_CHUNK_BYTES
            end = min(start + MEMORY_CHUNK_BYTES, len(rewritten))
            chip.bus.request(BusRequest(port, TC_WRITE, (
                port, slot, chunk, rewritten[start:end], arrival, deadline,
                entry.port_mask, chunk == chunks - 1)))

    # ------------------------------------------------------------------
    # Phase 4: wormhole routing and output binding
    # ------------------------------------------------------------------

    def route_and_bind(self, cycle: int) -> None:
        # Request vectors only for outputs some input asks for: an
        # arbiter granting an empty vector changes nothing.
        requests: dict[int, list[bool]] = {}
        for port, state in enumerate(self.ports):
            if state.bound or not state.headers:
                continue
            if state.out_port is None:
                self._update_worm_routing(state, cycle)
                if state.out_port is None:
                    continue
            requests.setdefault(
                state.out_port, [False] * (MESH_LINKS + 1))[port] = True
        for out_port in sorted(requests):
            output = self.out_ports[out_port]
            if output.bound_input is not None:
                continue
            winner = self.be_arbiters[out_port].grant(requests[out_port])
            if winner is not None:
                output.bound_input = winner
                self.ports[winner].bound = True
                chip = self.chip
                chip.be_worms_routed += 1
                if chip.tracer is not None:
                    # Wormhole worm routed and bound to its output:
                    # the best-effort FIFO is paper Table 1's queue 2.
                    chip.tracer.emit(
                        cycle, BUFFER,
                        meta=self.ports[winner].active_meta(),
                        node=chip.router_id, port=out_port,
                        traffic_class="BE", queue=2,
                        info={"input_port": winner})

    def _update_worm_routing(self, state: _InputPort, cycle: int) -> None:
        """Derive the routing decision for the still-unrouted head worm.

        Header decode takes ``be_route_cycles`` cycles after the offset
        bytes become visible at the head of the flit buffer.
        """
        header = state.headers[0]
        if len(header) < 2:
            return
        if state.route_ready_cycle is None:
            state.route_ready_cycle = cycle + self.params.be_route_cycles
        if cycle < state.route_ready_cycle:
            return
        state.route_ready_cycle = None
        x_offset = header[0] - 256 if header[0] >= 128 else header[0]
        y_offset = header[1] - 256 if header[1] >= 128 else header[1]
        if self.chip.be_routing == "dimension":
            state.out_port = dimension_ordered_port(x_offset, y_offset)
        else:
            state.out_port = west_first_port(
                x_offset, y_offset, self.chip.outputs.be_pressure)

    # ------------------------------------------------------------------
    # Phase 5: wormhole bus transfers (input buffer -> output staging)
    # ------------------------------------------------------------------

    def request_transfers(self) -> None:
        for port, state in enumerate(self.ports):
            if not state.bound or state.xfer_pending:
                continue
            # Keep the output staging shallow: at most two chunks deep.
            if len(self.out_ports[state.out_port].be_staging) > BE_CHUNK_BYTES:
                continue
            if state.total_bytes is None:
                header = state.headers[0] if state.headers else []
                if len(header) >= BE_HEADER_BYTES:
                    length = (header[2] << 8) | header[3]
                    state.total_bytes = BE_HEADER_BYTES + length
                else:
                    continue
            available = state.buffer.occupancy
            remaining = state.total_bytes - state.transferred
            if available == 0 or remaining == 0:
                continue
            tail_here = available >= remaining
            if available < BE_CHUNK_BYTES and not tail_here:
                continue  # accumulate a full chunk before using the bus
            count = min(BE_CHUNK_BYTES, available, remaining)
            state.xfer_pending = True
            self.chip.bus.request(BusRequest(port, BE_XFER, (port, count)))

    def transfer(self, port: int, count: int) -> None:
        """A granted ``be-xfer``: flit buffer to output staging."""
        state = self.ports[port]
        state.xfer_pending = False
        out_port = state.out_port
        staging = self.out_ports[out_port].be_staging
        tail_index = state.total_bytes - 1
        pop = state.buffer.pop
        finished = False
        for _ in range(count):
            phit = pop()
            index = phit.index
            is_tail = index == tail_index
            # The phit received is the phit sent, but for what the
            # hop changes: the offset it consumes and the tail, the
            # one wire phit with metadata (first hop: all carry it).
            if (index < 2 or is_tail or phit.last
                    or phit.packet is not None):
                meta = state.active_meta() if is_tail else None
                phit = Phit(
                    vc="BE", byte=self._rewrite_be_byte(out_port, phit),
                    packet=MetaCarrier(meta) if meta else None,
                    index=index, last=is_tail)
                finished = finished or is_tail
            staging.append(phit)
        if port < MESH_LINKS:
            # Link inputs return one ack per drained byte; the
            # injection port is host-local and needs none.
            state.pending_acks += count
        state.transferred += count
        if finished:
            state.release_worm()

    @staticmethod
    def _rewrite_be_byte(out_port: int, phit: Phit) -> int:
        """Decrement the routing offset consumed by this hop: byte 0
        on an x link, byte 1 on a y link."""
        if out_port < MESH_LINKS and phit.index == out_port >> 1:
            offset = phit.byte - 256 if phit.byte >= 128 else phit.byte
            offset -= 1 if offset > 0 else -1
            return offset & 0xFF
        return phit.byte

    # ------------------------------------------------------------------
    # Checkpointing: this side's entries of the router document
    # ------------------------------------------------------------------

    def state(self, ctx) -> dict:
        ports = self.ports
        return {
            "sync_queues": [
                [[ready, ctx.save_phit(phit)] for ready, phit in port.sync]
                for port in ports
            ],
            "tc_inputs": [
                {"rx_bytes": list(port.rx_bytes),
                 "rx_meta": ctx.save_meta(port.rx_meta),
                 "cut_port": port.cut_port}
                for port in ports
            ],
            "be_inputs": [
                {"buffer": port.buffer.state(ctx),
                 "headers": [list(h) for h in port.headers],
                 "metas": [ctx.save_meta(m) for m in port.metas],
                 **{name: getattr(port, name) for name in _WORM_FIELDS}}
                for port in ports
            ],
            "be_arbiters": [a.state() for a in self.be_arbiters],
            "tc_inject_queue": [ctx.save_tc_packet(p)
                                for p in self.tc_inject_queue],
            "tc_inject_phits": [ctx.save_phit(p)
                                for p in self.tc_inject_phits],
            "be_inject_queue": [ctx.save_be_packet(p)
                                for p in self.be_inject_queue],
            "be_inject_phits": [ctx.save_phit(p)
                                for p in self.be_inject_phits],
        }

    def load_state(self, state: dict, ctx) -> None:
        for port, sync, tc, be in zip(self.ports, state["sync_queues"],
                                      state["tc_inputs"],
                                      state["be_inputs"]):
            port.sync = deque((ready, ctx.load_phit(phit))
                              for ready, phit in sync)
            port.rx_bytes = list(tc["rx_bytes"])
            port.rx_meta = ctx.meta(tc["rx_meta"])
            port.cut_port = tc["cut_port"]
            port.buffer.load_state(be["buffer"], ctx)
            port.headers = deque(list(h) for h in be["headers"])
            port.metas = deque(ctx.meta(m) for m in be["metas"])
            for name in _WORM_FIELDS:
                setattr(port, name, be[name])
        self.sync_count = sum(len(port.sync) for port in self.ports)
        self.frame_ready = any(
            len(port.rx_bytes) >= self.params.tc_packet_bytes
            for port in self.ports)
        for arbiter, s in zip(self.be_arbiters, state["be_arbiters"]):
            arbiter.load_state(s)
        self.tc_inject_queue = deque(
            ctx.load_tc_packet(p) for p in state["tc_inject_queue"])
        self.tc_inject_phits = deque(
            ctx.load_phit(p) for p in state["tc_inject_phits"])
        self.be_inject_queue = deque(
            ctx.load_be_packet(p) for p in state["be_inject_queue"])
        self.be_inject_phits = deque(
            ctx.load_phit(p) for p in state["be_inject_phits"])
