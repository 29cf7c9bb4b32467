"""The output side of the chip: four link outputs and the reception port.

Paper Figure 2, right half.  Each port holds the shared scheduler's
freshest decision for it, streams the time-constrained packet it
committed, and otherwise drives staged best-effort flits under credit
flow control, with flit-level preemption by on-time time-constrained
traffic (section 3.2); the fifth reassembles both classes for the host.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.clock import RolloverClock
from repro.core.comparator_tree import Selection
from repro.core.flit_buffer import CreditCounter
from repro.core.packet import (
    BE_HEADER_BYTES,
    BestEffortPacket,
    MetaCarrier,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
    payload_checksum,
)
from repro.core.packet_memory import TC_READ, BusRequest
from repro.core.params import MESH_LINKS, OUTPUT_PORTS, TC_HEADER_BYTES
from repro.core.ports import RECEPTION
from repro.core.sorting_key import unpack_key
from repro.observability.trace import CORRUPT_DROP, HORIZON_DEFER, LINK_WIN


@dataclass(slots=True)
class _TCStream:
    """An in-progress time-constrained transmission at an output port."""

    slot: int  # -1: a cut-through stream, never in the packet memory
    meta: Optional[PacketMeta]
    staging: deque[int] = field(default_factory=deque)
    sent: int = 0
    #: The stand-in every wire phit of this packet carries.
    carrier: Optional[MetaCarrier] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.meta:
            self.carrier = MetaCarrier(self.meta)


@dataclass(slots=True)
class _Output:
    """Per-output-port transmit state."""

    credits: Optional[CreditCounter]  # None at the reception port
    tc_stream: Optional[_TCStream] = None
    held: Optional[Selection] = None     # freshest scheduler decision
    deferred: Optional[int] = None       # slot whose deferral was traced
    #: Best-effort phits that crossed the bus, as they go on the wire.
    be_staging: deque[Phit] = field(default_factory=deque)
    bound_input: Optional[int] = None
    # Reception-side reassembly (only used at the reception port).
    tc_rx: list[int] = field(default_factory=list)
    tc_rx_meta: Optional[PacketMeta] = None
    be_rx: list[int] = field(default_factory=list)
    be_rx_meta: Optional[PacketMeta] = None
    tc_bytes: int = 0                    # service accounting
    be_bytes: int = 0


class OutputSide:
    """The five output ports of one chip, ``chip``: the router
    document's ``outputs`` entry."""

    __slots__ = ("chip", "params", "ports")

    def __init__(self, chip) -> None:
        self.chip = chip
        self.params = chip.params
        self.ports = [
            _Output(CreditCounter(self.params.flit_buffer_bytes)
                    if port < MESH_LINKS else None)
            for port in range(OUTPUT_PORTS)
        ]

    def holds(self) -> bool:
        """A stream, a staged flit or a packet half reassembled."""
        for output in self.ports:
            if output.tc_stream or output.be_staging:
                return True
            if output.tc_rx or output.be_rx:
                return True
        return False

    def deciding(self) -> bool:
        """Some port holds a scheduler decision it has not acted on."""
        for output in self.ports:
            if output.held is not None:
                return True
        return False

    def eligible_ports(self) -> list[int]:
        """The ports some buffered packet still waits for."""
        counts = self.chip.eligible_count
        return [port for port in range(OUTPUT_PORTS) if counts[port] > 0]

    def be_pressure(self, port: int) -> tuple[int, int, int, int]:
        """Local congestion estimate for adaptive routing choices.

        Counts a bound worm, an in-progress (or imminent) time-
        constrained transmission, and buffered time-constrained packets
        eligible for the port — the paper's motivating case is exactly
        "links with a heavy load of time-constrained traffic".
        """
        output = self.ports[port]
        busy = 0 if output.bound_input is None else 1
        if output.tc_stream is not None or output.held is not None:
            busy += 1
        tc_backlog = self.chip.eligible_count[port]
        staged = len(output.be_staging)
        credit_debt = self.chip.output_credit_debt(port)
        return (busy + tc_backlog, staged, credit_debt, port)

    def be_waiting(self, port: int) -> bool:
        """Whether any best-effort flit could use this output now."""
        output = self.ports[port]
        if output.be_staging:
            return True
        inputs = self.chip.inputs.ports
        if output.bound_input is not None:
            if inputs[output.bound_input].buffer.occupancy > 0:
                return True
        for state in inputs:
            if state.out_port == port and not state.bound:
                return True
        return False

    def try_cut_through(self, connection_id: int, arrival: int,
                        meta: Optional[PacketMeta],
                        cycle: int) -> Optional[int]:
        """Engage virtual cut-through for the packet whose header an
        input has just framed; the port it will stream from, or None.

        Conditions (conservative reading of section 7): the connection
        is programmed and unicast, the packet is already on-time, and
        the target output port is completely idle on the
        time-constrained side — no active stream, no held decision, and
        no buffered packet eligible for it (so nothing could have a
        smaller sorting key).
        """
        chip = self.chip
        if not chip.control.table.is_programmed(connection_id):
            return None  # the normal path will raise on completion
        entry = chip.control.table.lookup(connection_id)
        ports = entry.ports()
        if len(ports) != 1:
            return None
        port = ports[0]
        output = self.ports[port]
        if (output.tc_stream is not None or output.held is not None
                or chip.pipeline.has_request(port)
                or chip.eligible_count[port] > 0):
            return None
        # The same eligibility the scheduler itself applies.
        if not self._may_start(port, chip.clock.wrap(arrival)):
            return None
        deadline = chip.clock.wrap(arrival + entry.delay)
        output.tc_stream = _TCStream(
            -1, meta, deque((entry.outgoing_id, deadline)))
        if chip.tracer is not None:
            chip.tracer.emit(cycle, LINK_WIN, meta=meta,
                             node=chip.router_id, port=port,
                             traffic_class="TC",
                             info={"cut_through": True})
        return port

    def cut_through_byte(self, port: int, byte: int) -> None:
        stream = self.ports[port].tc_stream
        if stream is not None and stream.slot == -1:
            stream.staging.append(byte)

    # ------------------------------------------------------------------
    # Phase 6: scheduler pipeline
    # ------------------------------------------------------------------

    def latch_decisions(self, cycle: int) -> None:
        chip = self.chip
        completed = chip.pipeline.step(cycle, chip.clock,
                                       chip.control.horizons)
        for port, selection in completed:
            if selection is not None:
                self.ports[port].held = selection

    def request_decisions(self) -> None:
        pipeline = self.chip.pipeline
        counts = self.chip.eligible_count
        for port, output in enumerate(self.ports):
            if counts[port] <= 0:
                continue
            if output.held is not None or pipeline.has_request(port):
                continue
            stream = output.tc_stream
            if stream is not None:
                # Overlap scheduling with transmission: request the next
                # decision just early enough to land at the boundary.
                remaining = self.params.tc_packet_bytes - stream.sent
                lead = pipeline.latency + pipeline.initiation_interval
                if remaining > lead:
                    continue
            pipeline.request(port)

    # ------------------------------------------------------------------
    # Phase 7: output transmission (one byte per port per cycle)
    # ------------------------------------------------------------------

    def transmit(self, link_out: list, cycle: int) -> None:
        inputs = self.chip.inputs.ports
        for port, output in enumerate(self.ports):
            wire = None  # the reception port drives no link
            if port < MESH_LINKS:
                wire = link_out[port]
                wire.phit = None
                # One ack per cycle per link for drained flits, on the
                # wire that runs beside the output.
                state = inputs[port]
                if state.pending_acks > 0:
                    state.pending_acks -= 1
                    wire.ack = True
                else:
                    wire.ack = False
            if output.held is not None or output.tc_stream is not None:
                self._transmit_one(port, output, wire, cycle)
            elif output.be_staging:
                self._send_be_byte(port, output, wire, cycle)

    def _transmit_one(self, port: int, output: _Output, wire,
                      cycle: int) -> None:
        self._maybe_start_tc(port, output, cycle)

        # Priority 1: stream the active time-constrained packet.
        stream = output.tc_stream
        if stream is not None and stream.staging:
            byte = stream.staging.popleft()
            index = stream.sent
            stream.sent += 1
            last = stream.sent == self.params.tc_packet_bytes
            phit = Phit(vc="TC", byte=byte, packet=stream.carrier,
                        index=index, last=last)
            if wire is not None:
                wire.phit = phit
            else:
                self._receive_locally(phit, cycle)
            output.tc_bytes += 1
            chip = self.chip
            if chip.service_hook is not None:
                chip.service_hook(cycle, port, "TC", stream.meta)
            if last:
                self._finish_tc_stream(output, stream)
            return
        # A committed stream whose data has not reached staging yet
        # (bus latency) leaves the link free for best-effort bytes.

        # Priority 2: best-effort flits.
        if output.be_staging:
            self._send_be_byte(port, output, wire, cycle)

    def _maybe_start_tc(self, port: int, output: _Output,
                        cycle: int) -> None:
        """Commit the held scheduler decision if it may transmit now."""
        if output.tc_stream is not None or output.held is None:
            return
        chip = self.chip
        selection = output.held
        leaf = chip.leaves[selection.leaf_index]
        if not leaf.eligible_for(port):
            output.held = None
            return
        if self._may_start(port, leaf.arrival):
            self._commit_tc(port, output, selection.leaf_index, cycle)
        elif chip.tracer is not None:
            self.trace_deferral(cycle, port, selection.leaf_index,
                                chip.clock.remaining_until(leaf.arrival))
        # Early decisions that cannot start are dropped so the next
        # tournament sees fresh state (the hardware pipeline similarly
        # re-evaluates continuously).
        output.held = None

    def _may_start(self, port: int, arrival: int) -> bool:
        """Whether a packet with this logical arrival time may take the
        link now (paper Table 1)."""
        clock = self.chip.clock
        if clock.is_past(arrival):
            return True  # on-time: regardless of best-effort backlog
        # Early: only within the horizon, and never ahead of waiting
        # best-effort flits — the link must be otherwise idle.
        return (clock.remaining_until(arrival)
                <= self.chip.control.horizons[port]
                and not self.be_waiting(port))

    def trace_deferral(self, cycle: int, port: int, slot: int,
                       remaining: int) -> None:
        """One ``horizon_defer`` per deferral: when this port starts
        waiting on this slot, not for every tournament that repeats it."""
        output = self.ports[port]
        if output.deferred != slot:
            output.deferred = slot
            chip = self.chip
            chip.tracer.emit(
                cycle, HORIZON_DEFER, meta=chip.slot_meta[slot],
                node=chip.router_id, port=port, traffic_class="TC",
                info={"remaining_ticks": remaining,
                      "horizon": chip.control.horizons[port]})

    def trace_dormant_deferrals(self, now: int) -> None:
        """Going dormant decides every tournament until the deadline:
        each port defers the earliest arrival among its (all early)
        leaves, lowest slot on a tie — reported now, once."""
        chip = self.chip
        clock = RolloverClock(bits=self.params.clock_bits,
                              now=chip.cycle // self.params.slot_cycles
                              + chip.clock_skew_ticks)
        leaves = chip.leaves
        for port in self.eligible_ports():
            remaining, slot = min(
                (clock.remaining_until(leaves[index].arrival), index)
                for index in leaves.occupied_indices()
                if leaves[index].eligible_for(port))
            self.trace_deferral(now, port, slot, remaining)

    def _send_be_byte(self, port: int, output: _Output, wire,
                      cycle: int) -> None:
        """Drive the oldest staged flit, credits permitting."""
        if wire is not None and not output.credits.can_send:
            return
        phit = output.be_staging.popleft()
        if wire is not None:
            output.credits.consume()
            wire.phit = phit
        else:
            self._receive_locally(phit, cycle)
        output.be_bytes += 1
        chip = self.chip
        if chip.service_hook is not None:
            chip.service_hook(cycle, port, "BE",
                              getattr(phit.packet, "meta", None))
        if phit.last:
            output.bound_input = None

    # -- time-constrained transmit helpers --------------------------------

    def _commit_tc(self, port: int, output: _Output, slot: int,
                   cycle: int) -> None:
        chip = self.chip
        chip.leaves.clear_port(slot, port)
        chip.eligible_count[port] -= 1
        chip.slot_readers[slot] += 1
        output.deferred = None
        meta = chip.slot_meta[slot]
        output.tc_stream = _TCStream(slot, meta)
        if chip.tracer is not None:
            early = not chip.clock.is_past(chip.leaves[slot].arrival)
            chip.tracer.emit(cycle, LINK_WIN, meta=meta,
                             node=chip.router_id, port=port,
                             traffic_class="TC",
                             info={"slot": slot, "early": early})
        for chunk in range(self.params.chunks_per_packet):
            chip.bus.request(BusRequest(OUTPUT_PORTS + port, TC_READ,
                                        (port, slot, chunk)))

    def read_chunk(self, port: int, slot: int, chunk: int) -> None:
        """A granted ``tc-read``: one chunk from the memory to staging."""
        stream = self.ports[port].tc_stream
        if stream is None or stream.slot != slot:
            return  # defensive: transmission already completed
        stream.staging.extend(self.chip.memory.read_chunk(slot, chunk))

    def _finish_tc_stream(self, output: _Output, stream: _TCStream) -> None:
        chip = self.chip
        output.tc_stream = None
        chip.tc_transmitted += 1
        slot = stream.slot
        if slot < 0:
            return  # cut-through stream: never touched the memory
        chip.slot_readers[slot] -= 1
        if (chip.leaves[slot].port_mask == 0
                and chip.slot_readers[slot] == 0):
            chip.memory.free(slot)
            chip.slot_meta[slot] = None

    # -- the reception port -------------------------------------------------

    def _receive_locally(self, phit: Phit, cycle: int) -> None:
        """Reassemble packets arriving at the shared reception port."""
        output = self.ports[RECEPTION]
        chip = self.chip
        if phit.vc == "TC":
            if not output.tc_rx and phit.packet is not None:
                output.tc_rx_meta = getattr(phit.packet, "meta", None)
            output.tc_rx.append(phit.byte)
            if len(output.tc_rx) == self.params.tc_packet_bytes:
                raw = bytes(output.tc_rx)
                meta = output.tc_rx_meta
                output.tc_rx.clear()
                output.tc_rx_meta = None
                self._hand_up(TimeConstrainedPacket.from_bytes(
                    raw, self.params, meta=meta),
                    raw[TC_HEADER_BYTES:], "TC", cycle)
        else:
            output.be_rx.append(phit.byte)
            if phit.packet is not None:
                meta = getattr(phit.packet, "meta", None)
                if meta is not None:
                    output.be_rx_meta = meta
            if phit.last:
                raw = bytes(output.be_rx)
                meta = output.be_rx_meta
                output.be_rx.clear()
                output.be_rx_meta = None
                try:
                    packet = BestEffortPacket.from_bytes(raw, meta=meta)
                except ValueError:
                    # Truncated worm (bytes lost to a link flap): the
                    # length field no longer matches; drop and count.
                    chip.be_orphan_drops += 1
                    return
                self._hand_up(packet, raw[BE_HEADER_BYTES:], "BE", cycle)

    def _hand_up(self, packet, payload: bytes, traffic_class: str,
                 cycle: int) -> None:
        """Hand a reassembled packet to the host side, unless the
        end-to-end backstop catches corruption the input-port check
        cannot see (cut-through paths, best-effort worms)."""
        chip = self.chip
        meta = packet.meta
        if (meta.checksum is not None
                and payload_checksum(payload) != meta.checksum):
            if traffic_class == "TC":
                chip.tc_corrupt_dropped += 1
            else:
                chip.be_corrupt_dropped += 1
            if chip.tracer is not None:
                chip.tracer.emit(cycle, CORRUPT_DROP, meta=meta,
                                 node=chip.router_id, port=RECEPTION,
                                 traffic_class=traffic_class,
                                 info={"where": "reception"})
            return
        meta.delivered_cycle = cycle
        chip.delivered.append(packet)
        if chip.delivery_hook is not None:
            chip.delivery_hook()

    # ------------------------------------------------------------------
    # Checkpointing: the ``outputs`` entry of the router document
    # ------------------------------------------------------------------

    def state(self, ctx) -> dict:
        clock_bits = self.params.clock_bits
        outputs = []
        for output in self.ports:
            stream, held = output.tc_stream, output.held
            outputs.append({
                "tc_stream": None if stream is None else {
                    "slot": stream.slot,
                    "staging": list(stream.staging),
                    "sent": stream.sent,
                    "meta": ctx.save_meta(stream.meta),
                },
                "held": None if held is None else [
                    held.leaf_index, held.key.packed(clock_bits),
                    held.transmissible],
                "deferred": output.deferred,
                "be_staging": [
                    [phit.byte, phit.index, phit.last,
                     ctx.save_meta(getattr(phit.packet, "meta", None))]
                    for phit in output.be_staging
                ],
                "bound_input": output.bound_input,
                "credits": (None if output.credits is None
                            else output.credits.state()),
                "tc_rx": list(output.tc_rx),
                "tc_rx_meta": ctx.save_meta(output.tc_rx_meta),
                "be_rx": list(output.be_rx),
                "be_rx_meta": ctx.save_meta(output.be_rx_meta),
                "tc_bytes": output.tc_bytes,
                "be_bytes": output.be_bytes,
            })
        return {"outputs": outputs}

    def load_state(self, state: dict, ctx) -> None:
        clock_bits = self.params.clock_bits
        for output, s in zip(self.ports, state["outputs"]):
            stream, held = s["tc_stream"], s["held"]
            output.tc_stream = None if stream is None else _TCStream(
                stream["slot"], ctx.meta(stream["meta"]),
                deque(stream["staging"]), int(stream["sent"]))
            output.held = None if held is None else Selection(
                leaf_index=held[0], key=unpack_key(held[1], clock_bits),
                transmissible=bool(held[2]))
            output.deferred = s.get("deferred")
            output.be_staging = deque(
                Phit(vc="BE", byte=byte, index=index, last=bool(tail),
                     packet=(None if meta is None
                             else MetaCarrier(ctx.meta(meta))))
                for byte, index, tail, meta in s["be_staging"]
            )
            output.bound_input = s["bound_input"]
            if output.credits is not None:
                output.credits.load_state(s["credits"])
            output.tc_rx = list(s["tc_rx"])
            output.tc_rx_meta = ctx.meta(s["tc_rx_meta"])
            output.be_rx = list(s["be_rx"])
            output.be_rx_meta = ctx.meta(s["be_rx_meta"])
            output.tc_bytes = int(s["tc_bytes"])
            output.be_bytes = int(s["be_bytes"])
