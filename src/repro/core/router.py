"""Cycle-accurate model of the real-time router chip (paper Figure 2).

This is the software equivalent of the paper's Verilog design.  Each
:meth:`RealTimeRouter.step` call advances one 20 ns chip cycle, during
which every external port can move one byte.  The model reproduces the
microarchitecture rather than just its policy, unit by unit; each unit
owns its state, the phases of ``step`` that change it and its entries
of the checkpoint document (docs/microarchitecture.md has the map):

* ``inputs`` and ``outputs`` (``input_side.py``, ``output_side.py``):
  four mesh links, each carrying a one-bit virtual-channel tag plus an
  acknowledgement bit, separate injection ports for the two classes
  and a shared reception port (section 3.2);
* ``memory`` and ``bus``: store-and-forward of fixed 20-byte
  time-constrained packets through a shared single-ported packet memory
  accessed in 10-byte chunks with demand round-robin bus arbitration
  (section 3.4); best-effort bytes cross the same bus in 5-byte chunks
  (section 5.2: "accumulating five-byte chunks for access to the
  router's internal bus" is part of the 30-cycle baseline overhead);
* ``control``: the connection table and four-write control interface
  (section 4.1);
* ``leaves``, ``tree``, ``pipeline``: the shared, pipelined comparator
  tree with 9-bit rollover-safe keys and per-port horizon registers
  (sections 4.2-4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.clock import RolloverClock
from repro.core.comparator_tree import ComparatorTree, SchedulerPipeline
from repro.core.connection_table import ControlInterface
from repro.core.input_side import (  # noqa: F401 (re-exported)
    BE_CHUNK_BYTES,
    BufferOverflowError,
    InputSide,
)
from repro.core.leaf_state import LeafArray
from repro.core.output_side import OutputSide
from repro.core.packet import (
    BestEffortPacket,
    FrameRun,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
)
from repro.core.packet_memory import (
    BE_XFER,
    TC_READ,
    BusRequest,
    ChunkBus,
    PacketMemory,
)
from repro.core.params import MESH_LINKS, OUTPUT_PORTS, RouterParams

#: "When do you next have work of your own?" is answered with a cycle:
#: ``NOW`` when busy, the next event of the frames in flight, a
#: dormancy deadline, ``NEVER`` when quiescent.
NOW, NEVER = 0, math.inf

#: The units whose whole ``state()`` is one entry of the router document.
SHARED = ("clock", "control", "memory", "leaves", "tree", "pipeline", "bus")

#: The router document's ``counters`` block: public attributes, all.
COUNTERS = (
    "cycle", "tc_dropped", "tc_received", "tc_transmitted",
    "be_worms_routed", "cut_through_count", "drop_unroutable",
    "tc_corrupt_dropped", "be_corrupt_dropped", "tc_unroutable_dropped",
    "tc_resync_drops", "be_orphan_drops",
)


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
        self.bus = ChunkBus(2 * OUTPUT_PORTS, self._execute)

        self.link_in: list[LinkSignal] = [LinkSignal() for _ in range(MESH_LINKS)]
        self.link_out: list[LinkSignal] = [LinkSignal() for _ in range(MESH_LINKS)]
        self.outputs = OutputSide(self)
        self.inputs = InputSide(self)
        self.delivered: list[object] = []

        # Slot bookkeeping beyond the hardware state, for accounting:
        # opened at admission (input side), closed by the last
        # transmission (output side).
        self.slot_meta: list[Optional[PacketMeta]] = (
            [None] * self.params.tc_packet_slots
        )
        self.slot_readers = [0] * self.params.tc_packet_slots
        self.eligible_count = [0] * OUTPUT_PORTS

        #: The remembered activity answer; None once :meth:`_forget`
        #: was called — by the host entry points, a horizon write
        #: (both through :meth:`_changed`), ``load_state`` and a
        #: working ``step``, the only things that can change it
        #: (docs/performance.md).
        self._work_at: Optional[float] = None
        #: First cycle the scheduler pipeline was not advanced over;
        #: the next working step replays it from here.  Real state
        #: (serialised), not derived.
        self._pipeline_lag: Optional[int] = None
        #: The scheduler's ``wake``, called by :meth:`_changed`.
        self.wake_hook: Optional[Callable[["RealTimeRouter"], None]] = None
        # Raising a horizon can bring the dormancy deadline forward.
        self.control.on_horizon_write = self._changed
        #: Called on an append to :attr:`delivered` (wakes the host).
        self.delivery_hook: Optional[Callable[[], None]] = None
        #: Per output port: may a committed time-constrained frame cross
        #: it as one arrival (``OutputSide.frame``)?  ``None``: every
        #: byte steps, on every port and input.  Set by ``MeshNetwork``
        #: from the links' health; a standalone router steps per byte.
        self.frame_links: Optional[list[bool]] = None
        #: The ``MeshNetwork`` this router is wired into, if any: its
        #: engine says where a reader stands (:meth:`settle`), and it
        #: settles the routers with frames in flight when a run ends.
        self.fabric = None
        #: Frames this cycle hands to the links, ``(port, run)``: the
        #: link wiring moves them into the neighbour's synchroniser.
        self.frames_out: list[tuple[int, FrameRun]] = []
        #: First cycle the per-byte loop would have stepped this router
        #: in but it slept through, frames moving; settled by the next
        #: working step or read.  Derived state, never serialised.
        self._asleep: Optional[int] = None

        for name in COUNTERS:
            setattr(self, name, 0)
        # Fault-tolerance state: checksum verification always runs (it
        # is free when nothing is corrupted); dropping packets for
        # unprogrammed connections is opt-in because during automatic
        # recovery in-flight packets legitimately outlive their table
        # entries, whereas in a healthy fabric an unknown id is a bug.
        self.drop_unroutable = False

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    def _forget(self) -> None:
        """Something changed that the remembered answer cannot see."""
        self._work_at = None

    def _changed(self) -> None:
        """Something changed from outside this router's own step:
        forget the remembered answer and tell the scheduler, the one
        way a router is woken."""
        self._forget()
        if self.wake_hook is not None:
            self.wake_hook(self)

    def inject_tc(self, packet: TimeConstrainedPacket) -> None:
        """Queue a time-constrained packet at the injection port."""
        self.inputs.tc_inject_queue.append(packet)
        self._changed()

    def inject_be(self, packet: BestEffortPacket) -> None:
        """Queue a best-effort packet at the injection port."""
        self.inputs.be_inject_queue.append(packet)
        self._changed()

    @property
    def tc_inject_backlog(self) -> int:
        queued = len(self.inputs.tc_inject_queue)
        return queued + (1 if self.inputs.tc_inject is not None else 0)

    @property
    def be_inject_backlog(self) -> int:
        queued = len(self.inputs.be_inject_queue)
        return queued + (1 if self.inputs.be_inject_phits else 0)

    def take_delivered(self) -> list[object]:
        """Drain and return packets delivered to the local host."""
        out, self.delivered = self.delivered, []
        self._changed()
        return out

    def output_credit_debt(self, port: int) -> int:
        """Unacknowledged best-effort bytes outstanding on one link.

        Used by the fault-recovery layer: a dead link eats phits (and
        their acknowledgements), so draining a stalled worm requires
        spoofing exactly this many credits back — never more, or the
        flow-control invariant breaks.
        """
        credits = self.outputs.ports[port].credits
        if credits is None:
            return 0
        return credits.capacity - credits.credits

    def output_service(self, port: int) -> tuple[int, int]:
        """(time-constrained, best-effort) bytes sent on an output port
        by the read point (a framed stream's count moves when settled)."""
        self.settle()
        output = self.outputs.ports[port]
        return output.tc_bytes, output.be_bytes

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
        if cycle is None:
            cycle = self.cycle
        elif self._asleep is None:
            self.cycle = cycle
        link_in = self.link_in
        links_quiet = _links_quiet(link_in)
        # Fast path: a completely quiescent router (no input signals,
        # nothing buffered or in flight) has no visible work this
        # cycle, and neither has a dormant one before its deadline nor
        # one whose frames only move until their next event (it
        # settles when it works or is read).  Large meshes are mostly
        # idle, so this matters.
        if links_quiet and cycle < self._next_work():
            for signal in self.link_out:
                signal.phit = None
                signal.ack = False
            if self._asleep is None:
                self.cycle = cycle + 1
            return
        if self._asleep is not None:
            # The cycles slept through only moved frame bytes, which
            # this step's own phases catch up on; the bus counts them.
            self.bus.idle_cycles(cycle - self._asleep)
            self._asleep = None
            self.cycle = cycle
        if self._pipeline_lag is not None:
            self._replay_dormant_span()
        self._forget()
        # The scheduler clock ticks once per packet transmission time.
        self.clock.set(cycle // self._slot_cycles + self.clock_skew_ticks)
        if self._every_phase:
            self._enter_every_phase(cycle)
            return

        inputs, outputs = self.inputs, self.outputs
        if not links_quiet or inputs.sync_count:
            inputs.capture(link_in, cycle)
        if (inputs.tc_inject is not None or inputs.tc_inject_queue
                or inputs.be_inject_phits or inputs.be_inject_queue):
            inputs.feed_injection(cycle)
        if inputs.frame_ready:
            inputs.complete_receptions(cycle)
        # A worm to route and bind, or a bound one (binding makes one)
        # with no transfer outstanding: nothing else enters these two.
        unbound = movable = worms = False
        for state in inputs.ports:
            if state.headers:
                worms = True
                if not state.bound:
                    unbound = True
                elif not state.xfer_pending:
                    movable = True
        if unbound:
            inputs.route_and_bind(cycle)
        if unbound or movable:
            inputs.request_transfers()
        wake = self.pipeline.wake_cycle
        if wake is not None and wake <= cycle:
            outputs.latch_decisions(cycle)
        bus = self.bus  # counts every working cycle, grants on request
        if bus.pending():
            bus.grant()
        else:
            bus.idle_cycles()
        outputs.transmit(self.link_out, cycle)
        if self.leaves.occupancy:
            outputs.request_decisions(cycle)
        self.cycle = cycle + 1
        if (inputs.sync_count and (self.frame_links is None or worms)
                or bus.pending()):
            self._work_at = NOW  # provably busy: remember it
        elif inputs.sync_count:
            # Never quiescent or dormant with a byte in a synchroniser:
            # at most asleep on frames.
            self._work_at = self._sleep_on_frames() or NOW
        elif self.pipeline.wake_cycle is not None:
            # A tournament pending: waiting may be all the chip does,
            # and whether it is is decided (and traced) in this cycle.
            self._next_work(cycle)

    #: Enter every phase on every working cycle (:meth:`_enter_every_phase`)
    #: instead of the guarded ones: the reference chip the tests check
    #: the guards against (``tests/reference.py``).  Not a knob: nothing
    #: in the package selects it, and a test pins that.
    _every_phase = False

    def _enter_every_phase(self, cycle: int) -> None:
        """The rest of a working :meth:`step` with no phase skipped and
        nothing remembered: the order the guards must equal."""
        inputs, outputs = self.inputs, self.outputs
        inputs.capture(self.link_in, cycle)
        inputs.feed_injection(cycle)
        inputs.complete_receptions(cycle)
        inputs.route_and_bind(cycle)
        inputs.request_transfers()
        outputs.latch_decisions(cycle)
        self.bus.grant()
        outputs.transmit(self.link_out, cycle)
        outputs.request_decisions(cycle)
        self.cycle = cycle + 1

    def _execute(self, req: BusRequest) -> None:
        """What a granted chunk access does (``ChunkBus.grant``)."""
        if req.kind == BE_XFER:
            self.inputs.transfer(*req.args)
        elif req.kind == TC_READ:
            self.outputs.read_chunk(*req.args)
        else:
            _, slot, chunk, data, arrival, deadline, mask, install = req.args
            self.memory.write_chunk(slot, chunk, data)
            if install:
                self.leaves.install(slot, arrival, deadline, mask)
                for port in range(OUTPUT_PORTS):
                    if mask & (1 << port):
                        self.eligible_count[port] += 1

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
        if self._work_at == NOW:  # before any link is looked at
            return cycle
        if _links_quiet(self.link_in) and _links_quiet(self.link_out):
            at = self._next_work()
            if at == NEVER:
                return None
            if at > cycle:
                return at
        return cycle

    @property
    def quiescent(self) -> bool:
        """No tournament pending and no packet anywhere inside.

        Remembered: O(1) for a router nothing has touched since it was
        found quiescent.  Link signals are written from outside, so
        callers check those fresh.  A dormant router is *not* quiescent
        — it holds packets — it only steps like one until its deadline.
        """
        if self._work_at is None and self._holds_nothing():
            self._work_at = NEVER
        return self._work_at == NEVER

    def _next_work(self, now: Optional[int] = None) -> float:
        """The remembered activity answer, decided when forgotten:
        ``NEVER`` if quiescent, else the :meth:`_dormancy_deadline` or
        the next event of a router that only waits on frames in flight
        and tournaments (:meth:`_frame_wake`).  Going dormant records
        where the pipeline stops being advanced and traces what each
        port now waits on (under cycle ``now``: a step deciding it has
        moved on by one); going to sleep records the first cycle slept
        through."""
        at = self._work_at
        if at is None:
            if self._holds_nothing():
                at = NEVER
            else:
                at = self._dormancy_deadline()
                if at:
                    if self._pipeline_lag is None:
                        self._pipeline_lag = self.cycle
                    if self.tracer is not None:
                        self.outputs.trace_dormant_deferrals(
                            self.cycle if now is None else now)
                elif self.frame_links is not None:
                    at = self._sleep_on_frames()
            self._work_at = at
        return at

    def _sleep_on_frames(self) -> float:
        """:meth:`_frame_wake`, recording the first cycle slept through
        when the router goes to sleep."""
        at = self._frame_wake()
        if at and self._asleep is None:
            self._fall_asleep(self.cycle)
        return at

    def _fresh_work(self) -> float:
        """:meth:`_next_work` decided afresh, with no side effect."""
        if self._holds_nothing():
            return NEVER
        return self._dormancy_deadline() or self._frame_wake()

    def _frame_wake(self) -> float:
        """First cycle at which a router that only waits — on the bytes
        of committed frames crossing, and on tournaments in the
        scheduler pipeline — has work of its own, or 0.

        Frames in flight: streams handed to a link or the reception
        port (``OutputSide.frame``), a host packet the injection port
        frames, and bytes in the synchronisers that the per-cycle loop
        would only move into ``rx_bytes``.  Their next events are the
        cycle a stream asks for its successor's decision, a stream's
        last byte, the injection port's last byte and the maturing of a
        frame's last byte (or of the last byte queued); a tournament's
        is the pipeline's ``wake_cycle``.  Until the first of them the
        per-cycle loop changes nothing but the fields :meth:`settle`
        replays.  Anything else inside — a bus access, a decision to
        act on or to ask for, best-effort state, a packet for the host
        — is work.
        """
        pending = self.pipeline.wake_cycle
        if (self.frame_links is None or self.bus.pending() or self.delivered
                or self._pipeline_lag is not None  # replay it first
                or pending is not None and pending <= self.cycle):
            return 0
        wake = self.outputs.frame_wake()
        if wake:
            wake = min(wake, self.inputs.frame_wake())
        if pending is not None and pending < wake:
            wake = pending
        return wake if wake < NEVER else 0

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
                or self.outputs.deciding()):
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

    def _replay_dormant_span(self) -> None:
        """Settle what lagged while dormant, up to the current cycle:
        the pipeline's queues, the tournaments it completed and the
        cycles the chunk bus counted."""
        start, self._pipeline_lag = self._pipeline_lag, None
        self.tree.evaluations += self.pipeline.replay(
            start, self.cycle, self.outputs.eligible_ports())
        self.bus.idle_cycles(self.cycle - start)

    def settle(self) -> tuple[int, bool]:
        """Bring the per-byte fields up to where this router is read
        (the engine's ``read_point``; standalone: its own cycle), as the
        per-cycle loop would have left them, and return that point.

        Moves the bytes of the frames in flight that the per-cycle loop
        would have moved by then, awake or asleep, and replays the
        cycles from :attr:`_asleep` on that only moved frames: the
        clock, the chunk bus's cycle count and the cycle counter."""
        if self.fabric is None:
            return self.cycle, True
        target, wired = self.fabric.engine.read_point(self)
        self.outputs.settle(target)
        self.inputs.settle(target)
        start = self._asleep
        if start is not None and target > start:
            self._asleep = target
            self.bus.idle_cycles(target - start)
            self.clock.set((target - 1) // self._slot_cycles
                           + self.clock_skew_ticks)
            self.cycle = target
        return target, wired

    def receive_frame(self, port: int, run: FrameRun) -> None:
        """The link wiring hands input ``port`` a frame's bytes as one
        run, byte ``run.index + j`` maturing in the synchroniser on
        cycle ``run.ready + j``.  A cut-through router takes them one
        at a time, as they mature."""
        inputs = self.inputs
        sync = inputs.ports[port].sync
        if self.cut_through:
            sync.extend((run.ready + offset, run.phit(offset))
                        for offset in range(len(run.data)))
        else:
            sync.append((run.last_ready, run))
        inputs.sync_count += len(run.data)
        # The per-cycle loop captures the first on the cycle after the
        # sender drove it, and steps this router from then on.
        first = run.ready - self.params.input_sync_cycles
        if self._asleep is None:
            self._fall_asleep(first)
        elif first < self._asleep:
            self._asleep = first
        self._forget()

    def _fall_asleep(self, cycle: int) -> None:
        self._asleep = cycle
        self.track_frames()

    def track_frames(self) -> None:
        """This router holds a frame whose bytes move lazily (or sleeps
        on one): the network settles it when a run ends."""
        if self.fabric is not None:
            self.fabric.in_flight.add(self)

    def frames_in_flight(self) -> bool:
        """Whether :meth:`track_frames` still holds: asleep, or a
        framed stream, a synchroniser byte or a host packet fed lazily."""
        inputs = self.inputs
        return (self._asleep is not None or inputs.sync_count > 0
                or inputs.tc_inject is not None or self.outputs.framing())

    def lagging(self, cycle: int) -> tuple[int, int]:
        """What a reader at ``cycle`` adds to ``tree.evaluations`` and
        ``bus.total_cycles``: both stand still while dormant, until the
        next working step replays the wait (here: on a scratch copy)."""
        if self._pipeline_lag is None:
            return 0, 0
        scratch = SchedulerPipeline(self.params, self.tree)
        scratch.load_state(self.pipeline.state())
        tournaments = scratch.replay(self._pipeline_lag, cycle,
                                     self.outputs.eligible_ports())
        return tournaments, cycle - self._pipeline_lag

    # ------------------------------------------------------------------
    # What is inside the chip: the units say
    # ------------------------------------------------------------------

    def _in_transit(self) -> bool:
        """Anything inside the router other than a buffered packet."""
        return bool(self.outputs.holds() or self.bus.pending()
                    or self.delivered  # the host has not collected these
                    or self.inputs.holds())

    @property
    def idle(self) -> bool:
        """True when no packet is anywhere inside the router."""
        return not (self.memory.occupancy or self._in_transit())

    def _holds_nothing(self) -> bool:
        """:attr:`quiescent`, asked afresh: idle, and no tournament
        queued, in flight or decided and not yet acted on."""
        return (not (self.pipeline.busy or self.outputs.deciding())
                and self.idle)

    # ------------------------------------------------------------------
    # Checkpointing (see docs/checkpointing.md)
    # ------------------------------------------------------------------

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

    def state(self, ctx) -> dict:
        """Complete microarchitectural state as a JSON-able dict: the
        units' entries beside the chip's own.

        ``ctx`` is a :class:`repro.checkpoint.SaveContext`; packet
        metadata goes through it so instances shared across components
        keep their identity on restore.  It numbers them as they are
        first saved, hence the outputs first.

        The document is the per-cycle loop's at the read point: the
        router settles first, and a frame in flight shows its bytes
        where that loop holds them — on the wire, in the synchroniser —
        not where the frame path keeps them.
        """
        target, wired = self.settle()
        outputs = self.outputs.state(ctx)
        return {
            **{name: getattr(self, name).state() for name in SHARED},
            "link_in": [self._save_signal(s, ctx) for s
                        in self.inputs.wires(self.link_in, target, wired)],
            "link_out": [self._save_signal(s, ctx) for s
                         in self.outputs.wires(self.link_out, target)],
            **self.inputs.state(ctx, target),
            **outputs,
            "delivered": [
                (["TC", ctx.save_tc_packet(p)]
                 if isinstance(p, TimeConstrainedPacket)
                 else ["BE", ctx.save_be_packet(p)])
                for p in self.delivered
            ],
            "slot_meta": [ctx.save_meta(m) for m in self.slot_meta],
            "slot_readers": list(self.slot_readers),
            "eligible_count": list(self.eligible_count),
            "pipeline_lag": self._pipeline_lag,
            "counters": {name: getattr(self, name) for name in COUNTERS},
        }

    def load_state(self, state: dict, ctx) -> None:
        """Overlay checkpointed state onto a freshly-built router.

        ``ctx`` is a :class:`repro.checkpoint.LoadContext` built from
        the same checkpoint's shared meta table.
        """
        for name in SHARED:
            getattr(self, name).load_state(state[name])
        self.link_in = [self._load_signal(s, ctx) for s in state["link_in"]]
        self.link_out = [self._load_signal(s, ctx)
                         for s in state["link_out"]]
        self.inputs.load_state(state, ctx)
        self.outputs.load_state(state, ctx)
        self.delivered = [
            (ctx.load_tc_packet(p) if kind == "TC"
             else ctx.load_be_packet(p))
            for kind, p in state["delivered"]
        ]
        self._forget()
        self._asleep = None
        self.frames_out.clear()
        # Absent from documents written before routers went dormant.
        self._pipeline_lag = state.get("pipeline_lag")
        # In place: both sides hold these lists.
        self.slot_meta[:] = [ctx.meta(m) for m in state["slot_meta"]]
        self.slot_readers[:] = [int(n) for n in state["slot_readers"]]
        self.eligible_count[:] = [int(n) for n in state["eligible_count"]]
        for name in COUNTERS:
            setattr(self, name,
                    type(getattr(self, name))(state["counters"][name]))
