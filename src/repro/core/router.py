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
#: ``NOW`` when busy, a dormancy deadline, ``NEVER`` when quiescent.
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
        #: was called — by the host entry points, a horizon write,
        #: ``load_state`` and a working ``step``, the only things that
        #: can change it (docs/performance.md).
        self._work_at: Optional[float] = None
        #: First cycle the scheduler pipeline was not advanced over;
        #: the next working step replays it from here.  Real state
        #: (serialised), not derived.
        self._pipeline_lag: Optional[int] = None
        #: The scheduler's ``wake``, called on a horizon register write.
        self.wake_hook: Optional[Callable[["RealTimeRouter"], None]] = None
        self.control.on_horizon_write = self._horizon_written
        #: Called on an append to :attr:`delivered` (wakes the host).
        self.delivery_hook: Optional[Callable[[], None]] = None

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

    def _horizon_written(self) -> None:
        # Raising a horizon can bring the dormancy deadline forward.
        self._forget()
        if self.wake_hook is not None:
            self.wake_hook(self)

    def inject_tc(self, packet: TimeConstrainedPacket) -> None:
        """Queue a time-constrained packet at the injection port."""
        self.inputs.tc_inject_queue.append(packet)
        self._forget()

    def inject_be(self, packet: BestEffortPacket) -> None:
        """Queue a best-effort packet at the injection port."""
        self.inputs.be_inject_queue.append(packet)
        self._forget()

    @property
    def tc_inject_backlog(self) -> int:
        queued = len(self.inputs.tc_inject_queue)
        return queued + (1 if self.inputs.tc_inject_phits else 0)

    @property
    def be_inject_backlog(self) -> int:
        queued = len(self.inputs.be_inject_queue)
        return queued + (1 if self.inputs.be_inject_phits else 0)

    def take_delivered(self) -> list[object]:
        """Drain and return packets delivered to the local host."""
        out, self.delivered = self.delivered, []
        self._forget()
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
        """(time-constrained, best-effort) bytes sent on an output port."""
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
        if cycle is not None:
            self.cycle = cycle
        cycle = self.cycle
        link_in = self.link_in
        links_quiet = _links_quiet(link_in)
        # Fast path: a completely quiescent router (no input signals,
        # nothing buffered or in flight) has no visible work this
        # cycle, and neither has a dormant one before its deadline.
        # Large meshes are mostly idle, so this matters.
        if links_quiet and cycle < self._next_work():
            for signal in self.link_out:
                signal.phit = None
                signal.ack = False
            self.cycle = cycle + 1
            return
        if self._pipeline_lag is not None:
            self._replay_dormant_span()
        self._forget()
        # The scheduler clock ticks once per packet transmission time.
        self.clock.set(cycle // self._slot_cycles + self.clock_skew_ticks)

        inputs, outputs = self.inputs, self.outputs
        if not links_quiet or inputs.sync_count:
            inputs.capture(link_in, cycle)
        if (inputs.tc_inject_phits or inputs.tc_inject_queue
                or inputs.be_inject_phits or inputs.be_inject_queue):
            inputs.feed_injection(cycle)
        if inputs.frame_ready:
            inputs.complete_receptions(cycle)
        # A worm to route and bind, or a bound one (binding makes one)
        # with no transfer outstanding: nothing else enters these two.
        unbound = movable = False
        for state in inputs.ports:
            if state.headers:
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
            outputs.request_decisions()
        self.cycle = cycle + 1
        if inputs.sync_count or bus.pending():
            self._work_at = NOW  # provably busy: remember it
        elif self.pipeline.wake_cycle is not None:
            # A tournament pending: waiting may be all the chip does,
            # and whether it is is decided (and traced) in this cycle.
            self._next_work(cycle)

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
        ``NEVER`` if quiescent, else the :meth:`_dormancy_deadline`.
        Going dormant records where the pipeline stops being advanced
        and traces what each port now waits on (under cycle ``now``: a
        step deciding it has moved on by one)."""
        at = self._work_at
        if at is None:
            at = self._work_at = (NEVER if self._holds_nothing()
                                  else self._dormancy_deadline())
            if NOW < at < NEVER:
                if self._pipeline_lag is None:
                    self._pipeline_lag = self.cycle
                if self.tracer is not None:
                    self.outputs.trace_dormant_deferrals(
                        self.cycle if now is None else now)
        return at

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
        self.tree.evaluations += len(self.pipeline.replay(
            start, self.cycle, self.outputs.eligible_ports()))
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
                                     self.outputs.eligible_ports())
        return len(tournaments), cycle - self._pipeline_lag

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
        """
        outputs = self.outputs.state(ctx)
        return {
            **{name: getattr(self, name).state() for name in SHARED},
            "link_in": [self._save_signal(s, ctx) for s in self.link_in],
            "link_out": [self._save_signal(s, ctx) for s in self.link_out],
            **self.inputs.state(ctx),
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
        # Absent from documents written before routers went dormant.
        self._pipeline_lag = state.get("pipeline_lag")
        # In place: both sides hold these lists.
        self.slot_meta[:] = [ctx.meta(m) for m in state["slot_meta"]]
        self.slot_readers[:] = [int(n) for n in state["slot_readers"]]
        self.eligible_count[:] = [int(n) for n in state["eligible_count"]]
        for name in COUNTERS:
            setattr(self, name,
                    type(getattr(self, name))(state["counters"][name]))
