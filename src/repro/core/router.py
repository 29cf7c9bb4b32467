"""Cycle-accurate model of the real-time router chip (paper Figure 2).

This is the software equivalent of the paper's Verilog design.  Each
:meth:`RealTimeRouter.step` call advances one 20 ns chip cycle, during
which every external port can move one byte.  The model reproduces the
microarchitecture rather than just its policy:

* separate injection ports for the two classes, a shared reception
  port, and four mesh links, each carrying a one-bit virtual-channel
  tag plus an acknowledgement bit (section 3.2);
* store-and-forward of fixed 20-byte time-constrained packets through
  a shared single-ported packet memory accessed in 10-byte chunks with
  demand round-robin bus arbitration (section 3.4);
* the connection table and four-write control interface (section 4.1);
* the shared, pipelined comparator tree with 9-bit rollover-safe keys
  and per-port horizon registers (sections 4.2-4.3);
* wormhole switching for best-effort packets: 10-byte input flit
  buffers, acknowledgement (credit) flow control, dimension-ordered
  routing by header offsets, round-robin arbitration among inputs, and
  flit-level preemption by on-time time-constrained traffic.

Best-effort bytes cross the router through the same internal bus in
5-byte chunks (the paper's section 5.2 attributes part of the 30-cycle
baseline overhead to "accumulating five-byte chunks for access to the
router's internal bus").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.arbiter import RoundRobinArbiter
from repro.core.clock import RolloverClock
from repro.core.comparator_tree import ComparatorTree, SchedulerPipeline, Selection
from repro.core.sorting_key import unpack_key
from repro.core.connection_table import ControlInterface, UnknownConnectionError
from repro.core.flit_buffer import CreditCounter, FlitBuffer
from repro.core.leaf_state import LeafArray
from repro.core.packet import (
    BE_HEADER_BYTES,
    BestEffortPacket,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
    payload_checksum,
    phits_of,
)
from repro.core.packet_memory import BusRequest, ChunkBus, PacketMemory
from repro.core.params import (
    MEMORY_CHUNK_BYTES,
    MESH_LINKS,
    OUTPUT_PORTS,
    TC_HEADER_BYTES,
    RouterParams,
)
from repro.core.ports import RECEPTION, dimension_ordered_port
from repro.observability.trace import (
    BUFFER,
    CORRUPT_DROP,
    HORIZON_DEFER,
    LINK_WIN,
)

#: Best-effort data crosses the internal bus in half-width chunks.
BE_CHUNK_BYTES = MEMORY_CHUNK_BYTES // 2


class BufferOverflowError(RuntimeError):
    """The shared packet memory overflowed — reservations were violated."""


@dataclass(slots=True)
class LinkSignal:
    """What one link direction carries in one cycle.

    Emptied in place by its slot's router, written or replaced by the
    link's driver; never one object in two slots."""

    phit: Optional[Phit] = None
    ack: bool = False


def _links_quiet(signals: list[LinkSignal]) -> bool:
    """No phit and no acknowledgement on any of the given links."""
    for signal in signals:
        if signal.phit is not None or signal.ack:
            return False
    return True


@dataclass
class _TCInput:
    """Receive-side state of the time-constrained path at one input."""

    rx_bytes: list[int] = field(default_factory=list)
    rx_meta: Optional[PacketMeta] = None
    # Virtual cut-through (paper section 7): when engaged, remaining
    # bytes of the current packet stream straight to this output port,
    # bypassing the packet memory and the comparator tree.
    cut_port: Optional[int] = None


class _BEInput:
    """Wormhole state machine at one best-effort input port.

    Header bytes are captured as phits are pushed into the flit buffer
    (one header record per worm, so a tail and the next worm's head can
    coexist in the buffer); data moves out only via internal-bus
    transfers toward the bound output port.
    """

    def __init__(self, capacity: int) -> None:
        self.buffer = FlitBuffer(capacity)
        self.headers: deque[list[int]] = deque()
        self.metas: deque[Optional[PacketMeta]] = deque()
        self.out_port: Optional[int] = None
        self.bound = False
        self.total_bytes: Optional[int] = None
        self.transferred = 0          # bytes handed to bus transfers
        self.xfer_pending = False     # one outstanding bus request
        self.pending_acks = 0         # drained bytes not yet acknowledged
        self.route_ready_cycle: Optional[int] = None  # header decode done

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


@dataclass
class _TCStream:
    """An in-progress time-constrained transmission at an output port."""

    slot: int
    staging: deque[int] = field(default_factory=deque)
    sent: int = 0
    meta: Optional[PacketMeta] = None
    #: The stand-in every wire phit of this packet carries.
    carrier: Optional["_MetaCarrier"] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.meta:
            self.carrier = _MetaCarrier(self.meta)


@dataclass
class _Output:
    """Per-output-port transmit state."""

    tc_stream: Optional[_TCStream] = None
    held: Optional[Selection] = None     # freshest scheduler decision
    deferred: Optional[int] = None       # slot whose deferral was traced
    #: Best-effort phits that crossed the bus, as they go on the wire.
    be_staging: deque[Phit] = field(default_factory=deque)
    bound_input: Optional[int] = None
    credits: Optional[CreditCounter] = None  # None at the reception port
    # Reception-side reassembly (only used at the reception port).
    tc_rx: list[int] = field(default_factory=list)
    tc_rx_meta: Optional[PacketMeta] = None
    be_rx: list[int] = field(default_factory=list)
    be_rx_meta: Optional[PacketMeta] = None
    tc_bytes: int = 0                    # service accounting
    be_bytes: int = 0


class RealTimeRouter:
    """One router chip, stepped one cycle at a time.

    Drive the four mesh links by writing :attr:`link_in` before each
    step and reading :attr:`link_out` after it; the network engine does
    this wiring automatically.  Hosts use :meth:`inject_tc`,
    :meth:`inject_be` and :meth:`take_delivered`.
    """

    def __init__(
        self,
        params: Optional[RouterParams] = None,
        *,
        router_id: object = None,
        on_memory_full: str = "error",
        cut_through: bool = False,
        clock_skew_ticks: int = 0,
        be_routing: str = "dimension",
        service_hook: Optional[
            Callable[[int, int, str, Optional[PacketMeta]], None]
        ] = None,
    ) -> None:
        if on_memory_full not in ("error", "drop"):
            raise ValueError("on_memory_full must be 'error' or 'drop'")
        if be_routing not in ("dimension", "west-first"):
            raise ValueError(
                "be_routing must be 'dimension' or 'west-first'"
            )
        #: Best-effort routing policy.  "dimension" is the paper's
        #: baseline (x then y).  "west-first" is the minimal adaptive
        #: alternative section 3.3 sketches: all westward hops first
        #: (no turns into west, so no cyclic channel dependency —
        #: deadlock-free without extra virtual channels), then a free
        #: choice among productive directions based on local load.
        self.be_routing = be_routing
        #: Offset of this chip's scheduler clock from global time, in
        #: ticks.  The paper assumes "a common notion of time, within
        #: some bounded clock skew" (section 4.1); a non-zero value
        #: models one router's oscillator running ahead (+) or behind
        #: (-) the rest of the machine.
        self.clock_skew_ticks = clock_skew_ticks
        #: Section 7 extension: let an arriving on-time packet proceed
        #: directly to an idle output link when no buffered packet
        #: could have a smaller sorting key there.
        self.cut_through = cut_through
        self.cut_through_count = 0
        self.params = params or RouterParams()
        if self.params.link_bytes_per_cycle != 1:
            raise ValueError(
                "the cycle-accurate router model is byte-serial; wider "
                "links are supported by the analytical models only"
            )
        #: ``params.slot_cycles`` (a property that divides), read once.
        self._slot_cycles = self.params.slot_cycles
        self.router_id = router_id
        self.on_memory_full = on_memory_full
        self.service_hook = service_hook
        #: Packet-lifecycle tracer (see repro.observability.trace);
        #: None by default — every emit site is guarded by a single
        #: ``is not None`` test, so disabled tracing allocates nothing.
        self.tracer = None

        self.clock = RolloverClock(bits=self.params.clock_bits)
        self.control = ControlInterface(self.params)
        self.memory = PacketMemory(self.params)
        self.leaves = LeafArray(self.params)
        self.tree = ComparatorTree(self.params, self.leaves)
        self.pipeline = SchedulerPipeline(self.params, self.tree)
        # Ten bus requesters: five input ports then five output ports.
        self.bus = ChunkBus(ports=2 * OUTPUT_PORTS)

        self.link_in: list[LinkSignal] = [LinkSignal() for _ in range(MESH_LINKS)]
        self.link_out: list[LinkSignal] = [LinkSignal() for _ in range(MESH_LINKS)]
        # Input synchroniser: arriving bytes cross a short register
        # chain before the router proper sees them.
        self._sync_queues: list[deque[tuple[int, Phit]]] = [
            deque() for _ in range(MESH_LINKS + 1)
        ]
        self._sync_count = 0  # bytes in all synchronisers (derived)

        self._tc_inputs = [_TCInput() for _ in range(MESH_LINKS + 1)]
        #: Some input holds a whole packet awaiting admission (derived).
        self._tc_frame_ready = False
        self._be_inputs = [_BEInput(self.params.flit_buffer_bytes)
                           for _ in range(MESH_LINKS + 1)]
        self._outputs = [
            _Output(credits=(
                CreditCounter(self.params.flit_buffer_bytes)
                if port < MESH_LINKS else None
            ))
            for port in range(OUTPUT_PORTS)
        ]
        self._be_arbiters = [RoundRobinArbiter(MESH_LINKS + 1)
                             for _ in range(OUTPUT_PORTS)]

        # Host-side queues.
        self._tc_inject_queue: deque[TimeConstrainedPacket] = deque()
        self._tc_inject_phits: deque[Phit] = deque()
        self._be_inject_queue: deque[BestEffortPacket] = deque()
        self._be_inject_phits: deque[Phit] = deque()
        self.delivered: list[object] = []

        # Slot bookkeeping beyond the hardware state, for accounting.
        self._slot_meta: list[Optional[PacketMeta]] = (
            [None] * self.params.tc_packet_slots
        )
        self._slot_readers = [0] * self.params.tc_packet_slots
        self._eligible_count = [0] * OUTPUT_PORTS

        #: Remembered :attr:`quiescent` verdict; None = forgotten (by
        #: the host entry points, ``load_state`` and a working ``step``
        #: that cannot tell cheaply — the only things that can change
        #: it; docs/performance.md).
        self._quiescent: Optional[bool] = None
        #: Remembered dormancy, decided with ``_quiescent`` and
        #: forgotten with it: the first cycle at which a router holding
        #: nothing but early packets may commit one; 0 = not dormant.
        self._dormant_until: Optional[int] = None
        #: First cycle the scheduler pipeline was not advanced over;
        #: the next working step replays it from here.  Real state
        #: (serialised), not derived.
        self._pipeline_lag: Optional[int] = None
        #: The scheduler's ``wake``, called on a horizon register write.
        self.wake_hook: Optional[Callable[["RealTimeRouter"], None]] = None
        self.control.on_horizon_write = self._horizon_written
        #: Called on an append to :attr:`delivered` (wakes the host).
        self.delivery_hook: Optional[Callable[[], None]] = None

        self.cycle = 0
        self.tc_dropped = 0
        self.tc_received = 0
        self.tc_transmitted = 0
        self.be_worms_routed = 0

        # Fault-tolerance state: checksum verification always runs (it
        # is free when nothing is corrupted); dropping packets for
        # unprogrammed connections is opt-in because during automatic
        # recovery in-flight packets legitimately outlive their table
        # entries, whereas in a healthy fabric an unknown id is a bug.
        self.drop_unroutable = False
        self.tc_corrupt_dropped = 0
        self.be_corrupt_dropped = 0
        self.tc_unroutable_dropped = 0
        self.tc_resync_drops = 0
        self.be_orphan_drops = 0

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    def _horizon_written(self) -> None:
        # Raising a horizon can bring the dormancy deadline forward.
        self._quiescent = None
        if self.wake_hook is not None:
            self.wake_hook(self)

    def inject_tc(self, packet: TimeConstrainedPacket) -> None:
        """Queue a time-constrained packet at the injection port."""
        self._tc_inject_queue.append(packet)
        self._quiescent = None

    def inject_be(self, packet: BestEffortPacket) -> None:
        """Queue a best-effort packet at the injection port."""
        self._be_inject_queue.append(packet)
        self._quiescent = None

    @property
    def tc_inject_backlog(self) -> int:
        return len(self._tc_inject_queue) + (1 if self._tc_inject_phits else 0)

    @property
    def be_inject_backlog(self) -> int:
        return len(self._be_inject_queue) + (1 if self._be_inject_phits else 0)

    def take_delivered(self) -> list[object]:
        """Drain and return packets delivered to the local host."""
        out, self.delivered = self.delivered, []
        self._quiescent = None
        return out

    def output_credit_debt(self, port: int) -> int:
        """Unacknowledged best-effort bytes outstanding on one link.

        Used by the fault-recovery layer: a dead link eats phits (and
        their acknowledgements), so draining a stalled worm requires
        spoofing exactly this many credits back — never more, or the
        flow-control invariant breaks.
        """
        credits = self._outputs[port].credits
        if credits is None:
            return 0
        return credits.capacity - credits.credits

    # ------------------------------------------------------------------
    # One chip cycle
    # ------------------------------------------------------------------

    def step(self, cycle: Optional[int] = None) -> None:
        """Advance one cycle.

        Phase order within the cycle: capture link inputs, feed the
        injection ports, finish time-constrained packet reception, make
        wormhole routing/binding decisions and bus-transfer requests,
        advance the scheduler pipeline, grant one internal-bus chunk
        access, and finally let every output port drive one byte.  A
        phase whose inputs are all empty is a no-op and is not entered.
        """
        if cycle is not None:
            self.cycle = cycle
        links_quiet = _links_quiet(self.link_in)
        # Fast path: a completely quiescent router (no input signals,
        # nothing buffered or in flight) has no visible work this
        # cycle, and neither has a dormant one before its deadline.
        # Large meshes are mostly idle, so this matters.
        if links_quiet and (self.quiescent
                            or self.cycle < self._dormancy()):
            for signal in self.link_out:
                signal.phit = None
                signal.ack = False
            self.cycle += 1
            return
        if self._pipeline_lag is not None:
            self._replay_dormant_span()
        self._quiescent = None
        # The scheduler clock ticks once per packet transmission time.
        self.clock.set(self.cycle // self._slot_cycles
                       + self.clock_skew_ticks)

        if not links_quiet or self._sync_count:
            self._capture_link_inputs()
        if (self._tc_inject_phits or self._tc_inject_queue
                or self._be_inject_phits or self._be_inject_queue):
            self._feed_injection_ports()
        if self._tc_frame_ready:
            self._complete_tc_receptions()
        # A worm to route and bind, or a bound one (binding makes one)
        # with no transfer outstanding: nothing else enters these two.
        unbound = movable = False
        for state in self._be_inputs:
            if state.headers:
                if not state.bound:
                    unbound = True
                elif not state.xfer_pending:
                    movable = True
        if unbound:
            self._wormhole_route_and_bind()
        if unbound or movable:
            self._wormhole_bus_requests()
        wake = self.pipeline.wake_cycle
        if wake is not None and wake <= self.cycle:
            self._scheduler_decisions()
        bus = self.bus  # counts every working cycle, grants on request
        if bus.pending():
            bus.grant()
        else:
            bus.idle_cycles()
        self._transmit_outputs()
        if self.leaves.occupancy:
            self._issue_scheduler_requests()
        self.cycle += 1
        if self._sync_count or bus.pending():
            self._quiescent = False  # provably busy: remember it
            self._dormant_until = 0
        elif self.pipeline.wake_cycle is not None:
            self._quiescent = False  # a tournament pending: not quiescent,
            self._dormant_until = None  # but waiting may be all it does
            self._dormancy(self.cycle - 1)

    def run(self, cycles: int) -> None:
        """Step the router ``cycles`` times (standalone use)."""
        for _ in range(cycles):
            self.step()

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Engine fast-forward contract (see ``docs/performance.md``).

        Returns ``cycle`` while anything is in flight — a signal
        pending on a link, a byte, flit or stream anywhere inside, a
        buffered packet that is on time or within a horizon; the
        dormancy deadline D while the router holds nothing but early
        packets none of which may leave before D (Queue 3's hold: its
        only future work is scheduled, and an arriving signal or
        injection makes another component report first); and ``None``
        once the chip is fully :attr:`quiescent`, which has no
        self-scheduled future work at all.
        """
        if self._quiescent is False and self._dormant_until == 0:
            return cycle
        if _links_quiet(self.link_in) and _links_quiet(self.link_out):
            if self.quiescent:
                return None
            until = self._dormancy()
            if until > cycle:
                return until
        return cycle

    @property
    def quiescent(self) -> bool:
        """No tournament pending and no packet anywhere inside.

        ``not _pipeline_busy() and idle``, remembered: O(1) for a
        router nothing has touched since the last answer.  Link signals
        are written from outside, so callers check those fresh.  A
        dormant router is *not* quiescent — it holds packets — it only
        steps like one until its deadline.
        """
        verdict = self._quiescent
        if verdict is None:
            verdict = self._quiescent = (not self._pipeline_busy()
                                         and self.idle)
            self._dormant_until = None
        return verdict

    def _dormancy(self, now: Optional[int] = None) -> int:
        """The remembered :meth:`_dormancy_deadline` of a router that
        is not quiescent; entering dormancy records where the pipeline
        stops being advanced and traces what each port now waits on
        (under cycle ``now``: a step deciding it has moved on by one)."""
        until = self._dormant_until
        if until is None:
            until = self._dormant_until = self._dormancy_deadline()
            if until:
                if self._pipeline_lag is None:
                    self._pipeline_lag = self.cycle
                if self.tracer is not None:
                    self._trace_dormant_deferrals(
                        self.cycle if now is None else now)
        return until

    def _dormancy_deadline(self) -> int:
        """First cycle at which a buffered packet may be committed, or
        0 when the router is not dormant.

        Dormant: nothing inside but buffered packets, each early and
        beyond the horizon of every port in its mask.  The scheduler
        clock ticks once per packet slot, so until the first cycle of
        the tick that brings one of them within a horizon every
        tournament defers (paper Table 1, Queue 3).  Erring early is
        safe: the step at the deadline is an ordinary one.
        """
        leaves = self.leaves
        if (not leaves.occupancy or self._in_transit()
                or any(o.held for o in self._outputs)):
            return 0
        slot_cycles = self._slot_cycles
        tick = self.cycle // slot_cycles
        clock = RolloverClock(bits=self.params.clock_bits,
                              now=tick + self.clock_skew_ticks)
        horizons = self.control.horizons
        wait = clock.half_range
        for index in leaves.occupied_indices():
            leaf = leaves[index]
            if clock.is_past(leaf.arrival):
                return 0
            reach = max(horizons[port] for port in range(OUTPUT_PORTS)
                        if leaf.port_mask >> port & 1)
            wait = min(wait, clock.remaining_until(leaf.arrival) - reach)
        return (tick + wait) * slot_cycles if wait > 0 else 0

    def _trace_dormant_deferrals(self, now: int) -> None:
        """Going dormant decides every tournament until the deadline:
        each port defers the earliest arrival among its (all early)
        leaves, lowest slot on a tie — reported now, once."""
        clock = RolloverClock(bits=self.params.clock_bits,
                              now=self.cycle // self._slot_cycles
                              + self.clock_skew_ticks)
        leaves = self.leaves
        for port in self._eligible_ports():
            remaining, slot = min(
                (clock.remaining_until(leaves[index].arrival), index)
                for index in leaves.occupied_indices()
                if leaves[index].eligible_for(port))
            self._trace_deferral(now, port, slot, remaining)

    def _eligible_ports(self) -> list[int]:
        return [port for port in range(OUTPUT_PORTS)
                if self._eligible_count[port] > 0]

    def _replay_dormant_span(self) -> None:
        """Settle what lagged while dormant, up to the current cycle:
        the pipeline's queues, the tournaments it completed and the
        cycles the chunk bus counted."""
        start, self._pipeline_lag = self._pipeline_lag, None
        self.tree.evaluations += len(self.pipeline.replay(
            start, self.cycle, self._eligible_ports()))
        self.bus.idle_cycles(self.cycle - start)

    def lagging(self, cycle: int) -> tuple[int, int]:
        """What a reader at ``cycle`` adds to ``tree.evaluations`` and
        ``bus.total_cycles``: both stand still while dormant, until the
        next working step replays the wait (here: on a scratch copy)."""
        if self._pipeline_lag is None:
            return 0, 0
        scratch = SchedulerPipeline(self.params, self.tree)
        scratch.load_state(self.pipeline.state())
        tournaments = scratch.replay(self._pipeline_lag, cycle,
                                     self._eligible_ports())
        return len(tournaments), cycle - self._pipeline_lag

    def _pipeline_busy(self) -> bool:
        return (self.pipeline.busy
                or any(o.held is not None for o in self._outputs))

    # ------------------------------------------------------------------
    # Phase 1: link inputs
    # ------------------------------------------------------------------

    def _capture_link_inputs(self) -> None:
        cycle = self.cycle
        queues = self._sync_queues
        for direction, signal in enumerate(self.link_in):
            # Consume the signal; whoever drives the link rewrites it.
            if signal.ack:
                self._outputs[direction].credits.acknowledge()
                signal.ack = False
            phit = signal.phit
            if phit is not None:
                queues[direction].append(
                    (cycle + self.params.input_sync_cycles, phit))
                self._sync_count += 1
                signal.phit = None
        if not self._sync_count:
            return
        for port, queue in enumerate(queues):
            while queue and queue[0][0] <= cycle:
                phit = queue.popleft()[1]
                self._sync_count -= 1
                if phit.vc == "TC":
                    self._accept_tc_byte(port, phit)
                    continue
                state = self._be_inputs[port]
                if state.headers or phit.index == 0:
                    state.push(phit)
                    continue
                # An orphan flit: its worm's head was lost upstream (a
                # link flap mid-worm).  Buffering it would desynchronise
                # the wormhole state machine, so drop it at the door.
                self.be_orphan_drops += 1
                if port < MESH_LINKS:
                    state.pending_acks += 1  # keep credits conserved

    def _accept_tc_byte(self, port: int, phit: Phit) -> None:
        state = self._tc_inputs[port]
        if state.cut_port is not None:
            self._cut_through_byte(state, phit)
            return
        expected = len(state.rx_bytes) % self.params.tc_packet_bytes
        if phit.index != expected:
            # Bytes went missing upstream (link cut mid-packet):
            # discard the partial frame and resynchronise on the next
            # packet boundary so one flap cannot skew framing forever.
            if expected != 0:
                self.tc_resync_drops += 1
                del state.rx_bytes[len(state.rx_bytes)
                                   - expected:]
                state.rx_meta = None if not state.rx_bytes else state.rx_meta
            if phit.index != 0:
                return
        if not state.rx_bytes and phit.packet is not None:
            state.rx_meta = getattr(phit.packet, "meta", None)
        state.rx_bytes.append(phit.byte)
        if len(state.rx_bytes) >= self.params.tc_packet_bytes:
            self._tc_frame_ready = True
        if self.cut_through and len(state.rx_bytes) == TC_HEADER_BYTES:
            self._try_cut_through(state)

    def _try_cut_through(self, state: _TCInput) -> None:
        """Engage virtual cut-through if the header qualifies.

        Conditions (conservative reading of section 7): the connection
        is programmed and unicast, the packet is already on-time, and
        the target output port is completely idle on the
        time-constrained side — no active stream, no held decision, and
        no buffered packet eligible for it (so nothing could have a
        smaller sorting key).
        """
        connection_id, arrival = state.rx_bytes[0], state.rx_bytes[1]
        if not self.control.table.is_programmed(connection_id):
            return  # the normal path will raise on completion
        entry = self.control.table.lookup(connection_id)
        ports = entry.ports()
        if len(ports) != 1:
            return
        port = ports[0]
        output = self._outputs[port]
        if (output.tc_stream is not None or output.held is not None
                or self.pipeline.has_request(port)
                or self._eligible_count[port] > 0):
            return
        wrapped = self.clock.wrap(arrival)
        if not self.clock.is_past(wrapped):
            # Early packets may still cut through within the link's
            # horizon — the same eligibility the scheduler itself
            # applies — but never ahead of waiting best-effort flits.
            remaining = self.clock.remaining_until(wrapped)
            if (remaining > self.control.horizons[port]
                    or self._be_waiting(port)):
                return
        deadline = self.clock.wrap(arrival + entry.delay)
        stream = _TCStream(slot=-1, meta=state.rx_meta)
        stream.staging.append(entry.outgoing_id)
        stream.staging.append(deadline)
        output.tc_stream = stream
        state.cut_port = port
        state.rx_bytes.clear()
        self.tc_received += 1
        self.cut_through_count += 1
        if self.tracer is not None:
            self.tracer.emit(self.cycle, LINK_WIN, meta=state.rx_meta,
                             node=self.router_id, port=port,
                             traffic_class="TC",
                             info={"cut_through": True})

    def _cut_through_byte(self, state: _TCInput, phit: Phit) -> None:
        output = self._outputs[state.cut_port]
        stream = output.tc_stream
        if stream is not None and stream.slot == -1:
            stream.staging.append(phit.byte)
        if phit.index == self.params.tc_packet_bytes - 1:
            state.cut_port = None
            state.rx_meta = None

    # ------------------------------------------------------------------
    # Phase 2: injection ports (one byte per cycle each)
    # ------------------------------------------------------------------

    def _feed_injection_ports(self) -> None:
        if not self._tc_inject_phits and self._tc_inject_queue:
            packet = self._tc_inject_queue.popleft()
            self._tc_inject_phits.extend(phits_of(packet, self.params))
        if self._tc_inject_phits:
            self._accept_tc_byte(MESH_LINKS, self._tc_inject_phits.popleft())

        if not self._be_inject_phits and self._be_inject_queue:
            packet = self._be_inject_queue.popleft()
            self._be_inject_phits.extend(phits_of(packet, self.params))
        # The processor interface is synchronised like a link: injected
        # bytes cross the same register chain before the flit buffer.
        sync = self._sync_queues[MESH_LINKS]
        pending_sync = len(sync)
        if (self._be_inject_phits
                and self._be_inputs[MESH_LINKS].buffer.free_space
                > pending_sync):
            sync.append((self.cycle + self.params.input_sync_cycles,
                         self._be_inject_phits.popleft()))
            self._sync_count += 1

    # ------------------------------------------------------------------
    # Phase 3: time-constrained packet reception
    # ------------------------------------------------------------------

    def _complete_tc_receptions(self) -> None:
        for port in range(MESH_LINKS + 1):
            state = self._tc_inputs[port]
            if len(state.rx_bytes) < self.params.tc_packet_bytes:
                continue
            raw = bytes(state.rx_bytes[:self.params.tc_packet_bytes])
            del state.rx_bytes[:self.params.tc_packet_bytes]
            meta, state.rx_meta = state.rx_meta, None
            self._admit_tc_packet(port, raw, meta)
        self._tc_frame_ready = False

    def _admit_tc_packet(self, port: int, raw: bytes,
                         meta: Optional[PacketMeta]) -> None:
        """Look up the connection, rewrite the header, buffer the packet."""
        self.tc_received += 1
        if (meta is not None and meta.checksum is not None
                and payload_checksum(raw[TC_HEADER_BYTES:]) != meta.checksum):
            # Corrupted in transit: drop at the input port, never
            # buffer or forward (the checksum covers the payload; the
            # header is regenerated at every hop anyway).
            self.tc_corrupt_dropped += 1
            if self.tracer is not None:
                self.tracer.emit(self.cycle, CORRUPT_DROP, meta=meta,
                                 node=self.router_id, port=port,
                                 traffic_class="TC",
                                 info={"where": "input"})
            return
        connection_id = raw[0]
        try:
            entry = self.control.table.lookup(connection_id)
        except UnknownConnectionError:
            if self.drop_unroutable:
                # In-flight packet for a connection that was torn down
                # (e.g. rerouted around a failure): count and discard.
                self.tc_unroutable_dropped += 1
                return
            raise
        # The upstream deadline in the header is this hop's logical
        # arrival time (paper section 4.1).
        arrival = raw[1]
        deadline = self.clock.wrap(arrival + entry.delay)
        slot = self.memory.allocate()
        if slot is None:
            if self.on_memory_full == "drop":
                self.tc_dropped += 1
                return
            raise BufferOverflowError(
                f"router {self.router_id}: packet memory full — "
                "buffer reservations violated"
            )
        rewritten = bytes([entry.outgoing_id, deadline]) + raw[2:]
        self._slot_meta[slot] = meta
        if self.tracer is not None:
            # Queue placement in paper Table 1 terms: on-time packets
            # belong to queue 1 (EDF), early ones to queue 3 (by
            # logical arrival, horizon-gated).
            on_time = self.clock.is_past(self.clock.wrap(arrival))
            self.tracer.emit(self.cycle, BUFFER, meta=meta,
                             node=self.router_id, port=port,
                             traffic_class="TC",
                             queue=1 if on_time else 3,
                             info={"slot": slot})
        chunks = self.params.chunks_per_packet
        for chunk in range(chunks):
            start = chunk * MEMORY_CHUNK_BYTES
            end = min(start + MEMORY_CHUNK_BYTES, len(rewritten))
            self.bus.request(BusRequest(
                port=port,
                action=self._make_tc_write(
                    slot, chunk, rewritten[start:end], arrival, deadline,
                    entry.port_mask, install=(chunk == chunks - 1),
                ),
                spec=("tc-write", port, slot, chunk,
                      rewritten[start:end].hex(), arrival, deadline,
                      entry.port_mask, chunk == chunks - 1),
            ))

    def _make_tc_write(self, slot: int, chunk: int, data: bytes,
                       arrival: int, deadline: int, mask: int,
                       install: bool) -> Callable[[], None]:
        def action() -> None:
            self.memory.write_chunk(slot, chunk, data)
            if install:
                self.leaves.install(slot, arrival, deadline, mask)
                for port in range(OUTPUT_PORTS):
                    if mask & (1 << port):
                        self._eligible_count[port] += 1
        return action

    # ------------------------------------------------------------------
    # Phase 4: wormhole routing and output binding
    # ------------------------------------------------------------------

    def _wormhole_route_and_bind(self) -> None:
        # Request vectors only for outputs some input asks for: an
        # arbiter granting an empty vector changes nothing.
        requests: dict[int, list[bool]] = {}
        for port, state in enumerate(self._be_inputs):
            if state.bound or not state.headers:
                continue
            if state.out_port is None:
                self._update_worm_routing(state)
                if state.out_port is None:
                    continue
            requests.setdefault(
                state.out_port, [False] * (MESH_LINKS + 1))[port] = True
        for out_port in sorted(requests):
            output = self._outputs[out_port]
            if output.bound_input is not None:
                continue
            winner = self._be_arbiters[out_port].grant(requests[out_port])
            if winner is not None:
                output.bound_input = winner
                self._be_inputs[winner].bound = True
                self.be_worms_routed += 1
                if self.tracer is not None:
                    # Wormhole worm routed and bound to its output:
                    # the best-effort FIFO is paper Table 1's queue 2.
                    self.tracer.emit(
                        self.cycle, BUFFER,
                        meta=self._be_inputs[winner].active_meta(),
                        node=self.router_id, port=out_port,
                        traffic_class="BE", queue=2,
                        info={"input_port": winner})

    def _update_worm_routing(self, state: _BEInput) -> None:
        """Derive the routing decision for the still-unrouted head worm.

        Header decode takes ``be_route_cycles`` cycles after the offset
        bytes become visible at the head of the flit buffer.
        """
        header = state.headers[0]
        if len(header) < 2:
            return
        if state.route_ready_cycle is None:
            state.route_ready_cycle = (self.cycle
                                       + self.params.be_route_cycles)
        if self.cycle < state.route_ready_cycle:
            return
        state.route_ready_cycle = None
        x_offset = header[0] - 256 if header[0] >= 128 else header[0]
        y_offset = header[1] - 256 if header[1] >= 128 else header[1]
        if self.be_routing == "dimension":
            state.out_port = dimension_ordered_port(x_offset, y_offset)
        else:
            state.out_port = self._west_first_port(x_offset, y_offset)

    def _west_first_port(self, x_offset: int, y_offset: int) -> int:
        """Minimal adaptive routing under the west-first turn model."""
        from repro.core.ports import EAST, NORTH, SOUTH, WEST

        if x_offset < 0:
            return WEST  # all westward hops first (no turns into west)
        candidates = []
        if x_offset > 0:
            candidates.append(EAST)
        if y_offset > 0:
            candidates.append(NORTH)
        elif y_offset < 0:
            candidates.append(SOUTH)
        if not candidates:
            return RECEPTION
        if len(candidates) == 1:
            return candidates[0]
        # Free choice: pick the less-loaded productive direction.
        return min(candidates, key=self._be_port_pressure)

    def _be_port_pressure(self, port: int) -> tuple[int, int, int, int]:
        """Local congestion estimate for adaptive routing choices.

        Counts a bound worm, an in-progress (or imminent) time-
        constrained transmission, and buffered time-constrained packets
        eligible for the port — the paper's motivating case is exactly
        "links with a heavy load of time-constrained traffic".
        """
        output = self._outputs[port]
        busy = 0 if output.bound_input is None else 1
        if output.tc_stream is not None or output.held is not None:
            busy += 1
        tc_backlog = self._eligible_count[port]
        staged = len(output.be_staging)
        credit_debt = (output.credits.capacity - output.credits.credits
                       if output.credits is not None else 0)
        return (busy + tc_backlog, staged, credit_debt, port)

    # ------------------------------------------------------------------
    # Phase 5: wormhole bus transfers (input buffer -> output staging)
    # ------------------------------------------------------------------

    def _wormhole_bus_requests(self) -> None:
        for port, state in enumerate(self._be_inputs):
            if not state.bound or state.xfer_pending:
                continue
            output = self._outputs[state.out_port]
            # Keep the output staging shallow: at most two chunks deep.
            if len(output.be_staging) > BE_CHUNK_BYTES:
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
            self.bus.request(BusRequest(
                port=port,
                action=self._make_be_transfer(port, count),
                spec=("be-xfer", port, count),
            ))

    def _make_be_transfer(self, port: int, count: int) -> Callable[[], None]:
        def action() -> None:
            state = self._be_inputs[port]
            state.xfer_pending = False
            out_port = state.out_port
            staging = self._outputs[out_port].be_staging
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
                        packet=_MetaCarrier(meta) if meta else None,
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
        return action

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
    # Phase 6: scheduler pipeline
    # ------------------------------------------------------------------

    def _scheduler_decisions(self) -> None:
        completed = self.pipeline.step(
            self.cycle, self.clock, self.control.horizons
        )
        for port, selection in completed:
            if selection is not None:
                self._outputs[port].held = selection

    def _issue_scheduler_requests(self) -> None:
        for port in range(OUTPUT_PORTS):
            if self._eligible_count[port] <= 0:
                continue
            output = self._outputs[port]
            if output.held is not None or self.pipeline.has_request(port):
                continue
            stream = output.tc_stream
            if stream is not None:
                # Overlap scheduling with transmission: request the next
                # decision just early enough to land at the boundary.
                remaining = self.params.tc_packet_bytes - stream.sent
                lead = self.pipeline.latency + self.pipeline.initiation_interval
                if remaining > lead:
                    continue
            self.pipeline.request(port)

    # ------------------------------------------------------------------
    # Phase 7: output transmission (one byte per port per cycle)
    # ------------------------------------------------------------------

    def _transmit_outputs(self) -> None:
        for port, output in enumerate(self._outputs):
            if port < MESH_LINKS:
                signal = self.link_out[port]
                signal.phit = None
                # One ack per cycle per link for drained flits.
                state = self._be_inputs[port]
                if state.pending_acks > 0:
                    state.pending_acks -= 1
                    signal.ack = True
                else:
                    signal.ack = False
            if output.held is not None or output.tc_stream is not None:
                self._transmit_one(port, output)
            elif output.be_staging:
                self._send_be_byte(port, output)

    def _transmit_one(self, port: int, output: _Output) -> None:
        self._maybe_start_tc(port, output)

        # Priority 1: stream the active time-constrained packet.
        stream = output.tc_stream
        if stream is not None and stream.staging:
            byte = stream.staging.popleft()
            index = stream.sent
            stream.sent += 1
            last = stream.sent == self.params.tc_packet_bytes
            self._drive_byte(port, Phit(vc="TC", byte=byte,
                                        packet=stream.carrier,
                                        index=index, last=last))
            output.tc_bytes += 1
            if self.service_hook is not None:
                self.service_hook(self.cycle, port, "TC", stream.meta)
            if last:
                self._finish_tc_stream(port, stream)
            return
        # A committed stream whose data has not reached staging yet
        # (bus latency) leaves the link free for best-effort bytes.

        # Priority 2: best-effort flits.
        if output.be_staging:
            self._send_be_byte(port, output)

    def _maybe_start_tc(self, port: int, output: _Output) -> None:
        """Commit the held scheduler decision if it may transmit now."""
        if output.tc_stream is not None or output.held is None:
            return
        selection = output.held
        leaf = self.leaves[selection.leaf_index]
        if not leaf.eligible_for(port):
            output.held = None
            return
        if self.clock.is_past(leaf.arrival):
            # On-time: transmit regardless of best-effort backlog.
            self._commit_tc(port, selection)
            output.held = None
            return
        remaining = self.clock.remaining_until(leaf.arrival)
        if (remaining <= self.control.horizons[port]
                and not self._be_waiting(port)):
            # Early but within the horizon, and the link is otherwise
            # idle: transmit ahead of the logical arrival time.
            self._commit_tc(port, selection)
        elif self.tracer is not None:
            self._trace_deferral(self.cycle, port, selection.leaf_index,
                                 remaining)
        # Early decisions that cannot start are dropped so the next
        # tournament sees fresh state (the hardware pipeline similarly
        # re-evaluates continuously).
        output.held = None

    def _trace_deferral(self, cycle: int, port: int, slot: int,
                        remaining: int) -> None:
        """One ``horizon_defer`` per deferral: when this port starts
        waiting on this slot, not for every tournament that repeats it."""
        output = self._outputs[port]
        if output.deferred != slot:
            output.deferred = slot
            self.tracer.emit(
                cycle, HORIZON_DEFER, meta=self._slot_meta[slot],
                node=self.router_id, port=port, traffic_class="TC",
                info={"remaining_ticks": remaining,
                      "horizon": self.control.horizons[port]})

    def _be_waiting(self, port: int) -> bool:
        """Whether any best-effort flit could use this output now."""
        output = self._outputs[port]
        if output.be_staging:
            return True
        if output.bound_input is not None:
            bound = self._be_inputs[output.bound_input]
            if bound.buffer.occupancy > 0:
                return True
        for state in self._be_inputs:
            if state.out_port == port and not state.bound:
                return True
        return False

    def _send_be_byte(self, port: int, output: _Output) -> None:
        """Drive the oldest staged flit, credits permitting."""
        if port < MESH_LINKS and not output.credits.can_send:
            return
        phit = output.be_staging.popleft()
        if port < MESH_LINKS:
            output.credits.consume()
        self._drive_byte(port, phit)
        output.be_bytes += 1
        if self.service_hook is not None:
            self.service_hook(self.cycle, port, "BE",
                              getattr(phit.packet, "meta", None))
        if phit.last:
            output.bound_input = None

    # -- time-constrained transmit helpers --------------------------------

    def _commit_tc(self, port: int, selection: Selection) -> None:
        slot = selection.leaf_index
        self.leaves.clear_port(slot, port)
        self._eligible_count[port] -= 1
        self._slot_readers[slot] += 1
        output = self._outputs[port]
        output.deferred = None
        output.tc_stream = _TCStream(slot=slot, meta=self._slot_meta[slot])
        if self.tracer is not None:
            early = not self.clock.is_past(self.leaves[slot].arrival)
            self.tracer.emit(self.cycle, LINK_WIN,
                             meta=self._slot_meta[slot],
                             node=self.router_id, port=port,
                             traffic_class="TC",
                             info={"slot": slot, "early": early})
        for chunk in range(self.params.chunks_per_packet):
            self.bus.request(BusRequest(
                port=OUTPUT_PORTS + port,
                action=self._make_tc_read(port, slot, chunk),
                spec=("tc-read", port, slot, chunk),
            ))

    def _make_tc_read(self, port: int, slot: int,
                      chunk: int) -> Callable[[], None]:
        def action() -> None:
            stream = self._outputs[port].tc_stream
            if stream is None or stream.slot != slot:
                return  # defensive: transmission already completed
            stream.staging.extend(self.memory.read_chunk(slot, chunk))
        return action

    def _finish_tc_stream(self, port: int, stream: _TCStream) -> None:
        output = self._outputs[port]
        output.tc_stream = None
        self.tc_transmitted += 1
        slot = stream.slot
        if slot < 0:
            return  # cut-through stream: never touched the memory
        self._slot_readers[slot] -= 1
        if (self.leaves[slot].port_mask == 0
                and self._slot_readers[slot] == 0):
            self.memory.free(slot)
            self._slot_meta[slot] = None

    # -- byte delivery ------------------------------------------------------

    def _drive_byte(self, port: int, phit: Phit) -> None:
        if port < MESH_LINKS:
            self.link_out[port].phit = phit
        else:
            self._receive_locally(phit)

    def _receive_locally(self, phit: Phit) -> None:
        """Reassemble packets arriving at the shared reception port."""
        output = self._outputs[RECEPTION]
        if phit.vc == "TC":
            if not output.tc_rx and phit.packet is not None:
                output.tc_rx_meta = getattr(phit.packet, "meta", None)
            output.tc_rx.append(phit.byte)
            if len(output.tc_rx) == self.params.tc_packet_bytes:
                raw = bytes(output.tc_rx)
                meta = output.tc_rx_meta
                output.tc_rx.clear()
                output.tc_rx_meta = None
                if (meta is not None and meta.checksum is not None
                        and payload_checksum(raw[TC_HEADER_BYTES:])
                        != meta.checksum):
                    # End-to-end backstop: catches corruption that the
                    # input-port check cannot see (cut-through paths).
                    self.tc_corrupt_dropped += 1
                    if self.tracer is not None:
                        self.tracer.emit(self.cycle, CORRUPT_DROP,
                                         meta=meta, node=self.router_id,
                                         port=RECEPTION,
                                         traffic_class="TC",
                                         info={"where": "reception"})
                    return
                packet = TimeConstrainedPacket.from_bytes(
                    raw, self.params, meta=meta,
                )
                self._deliver(packet)
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
                    self.be_orphan_drops += 1
                    return
                if (meta is not None and meta.checksum is not None
                        and payload_checksum(raw[BE_HEADER_BYTES:])
                        != meta.checksum):
                    self.be_corrupt_dropped += 1
                    if self.tracer is not None:
                        self.tracer.emit(self.cycle, CORRUPT_DROP,
                                         meta=meta, node=self.router_id,
                                         port=RECEPTION,
                                         traffic_class="BE",
                                         info={"where": "reception"})
                    return
                self._deliver(packet)

    def _deliver(self, packet) -> None:
        """Hand a reassembled packet to the host side."""
        packet.meta.delivered_cycle = self.cycle
        self.delivered.append(packet)
        if self.delivery_hook is not None:
            self.delivery_hook()

    # ------------------------------------------------------------------
    # Introspection helpers (tests, stats)
    # ------------------------------------------------------------------

    def output_service(self, port: int) -> tuple[int, int]:
        """(time-constrained, best-effort) bytes sent on an output port."""
        output = self._outputs[port]
        return output.tc_bytes, output.be_bytes

    @property
    def idle(self) -> bool:
        """True when no packet is anywhere inside the router."""
        return not (self.memory.occupancy or self._in_transit())

    def _in_transit(self) -> bool:
        """Anything inside the router other than a buffered packet."""
        for output in self._outputs:
            if output.tc_stream or output.be_staging:
                return True
            if output.tc_rx or output.be_rx:
                return True
        if self.bus.pending():
            return True
        if self.delivered:
            return True  # the host has not collected these yet
        if self._tc_inject_queue or self._tc_inject_phits:
            return True
        if self._be_inject_queue or self._be_inject_phits:
            return True
        for tc_input in self._tc_inputs:
            if tc_input.rx_bytes or tc_input.cut_port is not None:
                return True
        for queue in self._sync_queues:
            if queue:
                return True
        for be_input in self._be_inputs:
            if be_input.buffer.occupancy or be_input.pending_acks:
                return True
        return False

    # ------------------------------------------------------------------
    # Checkpointing (see docs/checkpointing.md)
    # ------------------------------------------------------------------

    def _rebuild_bus_request(self, spec: tuple) -> BusRequest:
        """Re-create a queued bus request from its declarative spec."""
        kind = spec[0]
        if kind == "tc-write":
            _, port, slot, chunk, data, arrival, deadline, mask, install = spec
            action = self._make_tc_write(
                slot, chunk, bytes.fromhex(data), arrival, deadline, mask,
                install=bool(install))
        elif kind == "be-xfer":
            _, port, count = spec
            action = self._make_be_transfer(port, count)
        elif kind == "tc-read":
            _, out_port, slot, chunk = spec
            action = self._make_tc_read(out_port, slot, chunk)
            port = OUTPUT_PORTS + out_port
        else:
            raise ValueError(f"unknown bus request spec {spec!r}")
        return BusRequest(port=port, action=action, spec=spec)

    @staticmethod
    def _save_signal(signal: LinkSignal, ctx) -> list:
        return [None if signal.phit is None else ctx.save_phit(signal.phit),
                signal.ack]

    @staticmethod
    def _load_signal(state: list, ctx) -> LinkSignal:
        phit, ack = state
        return LinkSignal(
            phit=None if phit is None else ctx.load_phit(phit),
            ack=bool(ack),
        )

    def _save_selection(self, selection: Optional[Selection]):
        if selection is None:
            return None
        return [selection.leaf_index,
                selection.key.packed(self.params.clock_bits),
                selection.transmissible]

    def _load_selection(self, state) -> Optional[Selection]:
        if state is None:
            return None
        leaf_index, packed, transmissible = state
        return Selection(
            leaf_index=leaf_index,
            key=unpack_key(packed, self.params.clock_bits),
            transmissible=bool(transmissible),
        )

    def state(self, ctx) -> dict:
        """Complete microarchitectural state as a JSON-able dict.

        ``ctx`` is a :class:`repro.checkpoint.SaveContext`; packet
        metadata goes through it so instances shared across components
        keep their identity on restore.
        """
        outputs = []
        for output in self._outputs:
            stream = output.tc_stream
            outputs.append({
                "tc_stream": None if stream is None else {
                    "slot": stream.slot,
                    "staging": list(stream.staging),
                    "sent": stream.sent,
                    "meta": ctx.save_meta(stream.meta),
                },
                "held": self._save_selection(output.held),
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
        return {
            "clock": self.clock.state(),
            "control": self.control.state(),
            "memory": self.memory.state(),
            "leaves": self.leaves.state(),
            "tree": self.tree.state(),
            "pipeline": self.pipeline.state(),
            "bus": self.bus.state(),
            "link_in": [self._save_signal(s, ctx) for s in self.link_in],
            "link_out": [self._save_signal(s, ctx) for s in self.link_out],
            "sync_queues": [
                [[ready, ctx.save_phit(phit)] for ready, phit in queue]
                for queue in self._sync_queues
            ],
            "tc_inputs": [
                {"rx_bytes": list(s.rx_bytes),
                 "rx_meta": ctx.save_meta(s.rx_meta),
                 "cut_port": s.cut_port}
                for s in self._tc_inputs
            ],
            "be_inputs": [
                {"buffer": s.buffer.state(ctx),
                 "headers": [list(h) for h in s.headers],
                 "metas": [ctx.save_meta(m) for m in s.metas],
                 "out_port": s.out_port,
                 "bound": s.bound,
                 "total_bytes": s.total_bytes,
                 "transferred": s.transferred,
                 "xfer_pending": s.xfer_pending,
                 "pending_acks": s.pending_acks,
                 "route_ready_cycle": s.route_ready_cycle}
                for s in self._be_inputs
            ],
            "outputs": outputs,
            "be_arbiters": [a.state() for a in self._be_arbiters],
            "tc_inject_queue": [ctx.save_tc_packet(p)
                                for p in self._tc_inject_queue],
            "tc_inject_phits": [ctx.save_phit(p)
                                for p in self._tc_inject_phits],
            "be_inject_queue": [ctx.save_be_packet(p)
                                for p in self._be_inject_queue],
            "be_inject_phits": [ctx.save_phit(p)
                                for p in self._be_inject_phits],
            "delivered": [
                (["TC", ctx.save_tc_packet(p)]
                 if isinstance(p, TimeConstrainedPacket)
                 else ["BE", ctx.save_be_packet(p)])
                for p in self.delivered
            ],
            "slot_meta": [ctx.save_meta(m) for m in self._slot_meta],
            "slot_readers": list(self._slot_readers),
            "eligible_count": list(self._eligible_count),
            "pipeline_lag": self._pipeline_lag,
            "counters": {
                "cycle": self.cycle,
                "tc_dropped": self.tc_dropped,
                "tc_received": self.tc_received,
                "tc_transmitted": self.tc_transmitted,
                "be_worms_routed": self.be_worms_routed,
                "cut_through_count": self.cut_through_count,
                "drop_unroutable": self.drop_unroutable,
                "tc_corrupt_dropped": self.tc_corrupt_dropped,
                "be_corrupt_dropped": self.be_corrupt_dropped,
                "tc_unroutable_dropped": self.tc_unroutable_dropped,
                "tc_resync_drops": self.tc_resync_drops,
                "be_orphan_drops": self.be_orphan_drops,
            },
        }

    def load_state(self, state: dict, ctx) -> None:
        """Overlay checkpointed state onto a freshly-built router.

        ``ctx`` is a :class:`repro.checkpoint.LoadContext` built from
        the same checkpoint's shared meta table.
        """
        self.clock.load_state(state["clock"])
        self.control.load_state(state["control"])
        self.memory.load_state(state["memory"])
        self.leaves.load_state(state["leaves"])
        self.tree.load_state(state["tree"])
        self.pipeline.load_state(state["pipeline"])
        self.bus.load_state(state["bus"], self._rebuild_bus_request)
        self.link_in = [self._load_signal(s, ctx) for s in state["link_in"]]
        self.link_out = [self._load_signal(s, ctx)
                         for s in state["link_out"]]
        self._sync_queues = [
            deque((ready, ctx.load_phit(phit)) for ready, phit in queue)
            for queue in state["sync_queues"]
        ]
        self._sync_count = sum(len(queue) for queue in self._sync_queues)
        for tc_input, s in zip(self._tc_inputs, state["tc_inputs"]):
            tc_input.rx_bytes = list(s["rx_bytes"])
            tc_input.rx_meta = ctx.meta(s["rx_meta"])
            tc_input.cut_port = s["cut_port"]
        self._tc_frame_ready = any(
            len(tc_input.rx_bytes) >= self.params.tc_packet_bytes
            for tc_input in self._tc_inputs)
        for be_input, s in zip(self._be_inputs, state["be_inputs"]):
            be_input.buffer.load_state(s["buffer"], ctx)
            be_input.headers = deque(list(h) for h in s["headers"])
            be_input.metas = deque(ctx.meta(m) for m in s["metas"])
            be_input.out_port = s["out_port"]
            be_input.bound = bool(s["bound"])
            be_input.total_bytes = s["total_bytes"]
            be_input.transferred = int(s["transferred"])
            be_input.xfer_pending = bool(s["xfer_pending"])
            be_input.pending_acks = int(s["pending_acks"])
            be_input.route_ready_cycle = s["route_ready_cycle"]
        for output, s in zip(self._outputs, state["outputs"]):
            stream_state = s["tc_stream"]
            if stream_state is None:
                output.tc_stream = None
            else:
                output.tc_stream = _TCStream(
                    slot=stream_state["slot"],
                    staging=deque(stream_state["staging"]),
                    sent=int(stream_state["sent"]),
                    meta=ctx.meta(stream_state["meta"]),
                )
            output.held = self._load_selection(s["held"])
            output.deferred = s.get("deferred")
            output.be_staging = deque(
                Phit(vc="BE", byte=byte, index=index, last=bool(tail),
                     packet=(None if meta is None
                             else _MetaCarrier(ctx.meta(meta))))
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
        for arbiter, s in zip(self._be_arbiters, state["be_arbiters"]):
            arbiter.load_state(s)
        self._tc_inject_queue = deque(
            ctx.load_tc_packet(p) for p in state["tc_inject_queue"])
        self._tc_inject_phits = deque(
            ctx.load_phit(p) for p in state["tc_inject_phits"])
        self._be_inject_queue = deque(
            ctx.load_be_packet(p) for p in state["be_inject_queue"])
        self._be_inject_phits = deque(
            ctx.load_phit(p) for p in state["be_inject_phits"])
        self.delivered = [
            (ctx.load_tc_packet(p) if kind == "TC"
             else ctx.load_be_packet(p))
            for kind, p in state["delivered"]
        ]
        self._quiescent = None
        # Absent from documents written before routers went dormant.
        self._pipeline_lag = state.get("pipeline_lag")
        self._slot_meta = [ctx.meta(m) for m in state["slot_meta"]]
        self._slot_readers = [int(n) for n in state["slot_readers"]]
        self._eligible_count = [int(n) for n in state["eligible_count"]]
        counters = state["counters"]
        self.cycle = int(counters["cycle"])
        self.tc_dropped = int(counters["tc_dropped"])
        self.tc_received = int(counters["tc_received"])
        self.tc_transmitted = int(counters["tc_transmitted"])
        self.be_worms_routed = int(counters["be_worms_routed"])
        self.cut_through_count = int(counters["cut_through_count"])
        self.drop_unroutable = bool(counters["drop_unroutable"])
        self.tc_corrupt_dropped = int(counters["tc_corrupt_dropped"])
        self.be_corrupt_dropped = int(counters["be_corrupt_dropped"])
        self.tc_unroutable_dropped = int(counters["tc_unroutable_dropped"])
        self.tc_resync_drops = int(counters["tc_resync_drops"])
        self.be_orphan_drops = int(counters["be_orphan_drops"])


class _MetaCarrier:
    """Minimal packet stand-in that carries metadata on wire phits."""

    __slots__ = ("meta",)

    def __init__(self, meta: PacketMeta) -> None:
        self.meta = meta
