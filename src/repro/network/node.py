"""Host node: the processor attached to each router.

The host runs the application side of the system: it holds back
time-constrained messages until their release ticks (the source
regulator's rate-based flow control), feeds the router's two injection
ports, drains the shared reception port into the delivery log, and
polls any attached traffic sources.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.packet import BestEffortPacket, TimeConstrainedPacket
from repro.core.router import RealTimeRouter
from repro.network.stats import DeliveryLog
from repro.observability.trace import DELIVER, RELEASE

#: A traffic source: called once per cycle, returns send requests.
SourceFn = Callable[[int], list["Send"]]


@dataclass(frozen=True)
class Send:
    """One send request produced by a traffic source.

    For time-constrained sends set ``channel`` (established handle) and
    optionally ``payload``; for best-effort sends set ``destination``
    and ``payload``.
    """

    traffic_class: str                      # "TC" or "BE"
    channel: object = None
    destination: Optional[tuple[int, int]] = None
    payload: bytes = b""


class HostNode:
    """The processor (software side) of one mesh node."""

    def __init__(self, node: tuple[int, int], router: RealTimeRouter,
                 log: DeliveryLog, slot_cycles: int) -> None:
        self.node = node
        self.router = router
        self.log = log
        self.slot_cycles = slot_cycles
        self._release_heap: list[tuple[int, int, TimeConstrainedPacket]] = []
        self._tiebreak = itertools.count()
        self.sources: list[SourceFn] = []
        self.network = None  # set by MeshNetwork for source sends
        #: Packet-lifecycle tracer (set by MeshNetwork.enable_tracing);
        #: None keeps the hot path allocation-free.
        self.tracer = None

    def _wake(self, component) -> None:
        """Tell the scheduler ``component`` changed outside its step
        (the three mutators below run between cycles and runs)."""
        engine = getattr(self.network, "engine", None)
        if engine is not None:
            engine.wake(component)

    def attach_source(self, source: SourceFn) -> None:
        self.sources.append(source)
        self._wake(self)

    def queue_tc(self, packets: list[TimeConstrainedPacket],
                 release_tick: int) -> None:
        """Hold packets until their regulated release tick."""
        release_cycle = release_tick * self.slot_cycles
        for packet in packets:
            heapq.heappush(
                self._release_heap,
                (release_cycle, next(self._tiebreak), packet),
            )
        self._wake(self)

    def send_be(self, packet: BestEffortPacket, cycle: int) -> None:
        packet.meta.injected_cycle = cycle
        packet.meta.source = self.node
        self.router.inject_be(packet)
        self._wake(self.router)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract (see ``docs/performance.md``).

        The host's self-scheduled work is the release heap and its
        traffic sources.  Sources advertise their next firing through
        ``next_fire_cycle``; a source without that method (or one that
        must observe every cycle, like a per-cycle random process)
        keeps the host stepping every cycle, which preserves exact
        legacy behaviour.
        """
        if self.router.delivered:
            return cycle  # reception port waiting to be drained
        bound: Optional[int] = None
        for source in self.sources:
            probe = getattr(source, "next_fire_cycle", None)
            if probe is None:
                return cycle  # legacy source: poll every cycle
            nxt = probe(cycle)
            if nxt is None:
                continue  # exhausted: never fires again
            if nxt <= cycle:
                return cycle
            if bound is None or nxt < bound:
                bound = nxt
        if self._release_heap:
            head = self._release_heap[0][0]
            if head <= cycle:
                return cycle
            if bound is None or head < bound:
                bound = head
        return bound

    def step(self, cycle: int) -> None:
        """Run the host for one cycle (sources, releases, deliveries)."""
        for source in self.sources:
            for send in source(cycle):
                self._dispatch(send, cycle)
        while self._release_heap and self._release_heap[0][0] <= cycle:
            __, __, packet = heapq.heappop(self._release_heap)
            packet.meta.injected_cycle = cycle
            packet.meta.source = self.node
            self.router.inject_tc(packet)
            if self.tracer is not None:
                self.tracer.emit(cycle, RELEASE, meta=packet.meta,
                                 node=self.node, traffic_class="TC")
        for packet in self.router.take_delivered():
            if (isinstance(packet, BestEffortPacket)
                    and packet.meta.relay_path):
                self._relay(packet)
                continue
            record = self.log.add(packet, delivered_node=self.node)
            if self.tracer is not None:
                self.tracer.emit(
                    cycle, DELIVER, meta=packet.meta, node=self.node,
                    traffic_class=record.traffic_class,
                    info={
                        "injected_cycle": record.injected_cycle,
                        "delivered_cycle": record.delivered_cycle,
                        "latency_cycles": record.latency_cycles,
                        "deadline_met": record.deadline_met,
                        "duplicate": record.duplicate,
                        "delivered_node": list(self.node),
                    },
                )

    def _relay(self, packet: BestEffortPacket) -> None:
        """Forward a relayed best-effort packet toward its next waypoint.

        Host-software store-and-forward: wormhole routing is hard-wired
        dimension order, so steering around a dead link means hopping
        through intermediate hosts.  The metadata (packet id, injection
        cycle, checksum, label) travels with the payload, so the final
        delivery is logged as one end-to-end transfer.
        """
        next_target = packet.meta.relay_path[0]
        packet.meta.relay_path = packet.meta.relay_path[1:]
        if self.network is not None:
            x_offset, y_offset = self.network.mesh.offsets(
                self.node, next_target)
        else:
            x_offset = next_target[0] - self.node[0]
            y_offset = next_target[1] - self.node[1]
        self.router.inject_be(BestEffortPacket(
            x_offset=x_offset, y_offset=y_offset,
            payload=packet.payload, meta=packet.meta,
        ))

    # -- checkpointing (see docs/checkpointing.md) ------------------------

    def state(self, ctx) -> dict:
        """Host state: the release heap, tiebreak counter and sources."""
        value = next(self._tiebreak)
        self._tiebreak = itertools.count(value)
        return {
            "release_heap": [
                [release_cycle, tiebreak, ctx.save_tc_packet(packet)]
                for release_cycle, tiebreak, packet in self._release_heap
            ],
            "tiebreak": value,
            "sources": [
                source.state() if hasattr(source, "state") else None
                for source in self.sources
            ],
        }

    def load_state(self, state: dict, ctx) -> None:
        """Overlay host state; sources must be re-attached in the same
        order as the checkpointed run before calling this."""
        # The saved list is already a valid heap (saved in heap order).
        self._release_heap = [
            (release_cycle, tiebreak, ctx.load_tc_packet(packet))
            for release_cycle, tiebreak, packet in state["release_heap"]
        ]
        self._tiebreak = itertools.count(int(state["tiebreak"]))
        if len(state["sources"]) != len(self.sources):
            raise ValueError(
                f"host {self.node}: checkpoint has "
                f"{len(state['sources'])} sources, run has "
                f"{len(self.sources)}"
            )
        for source, source_state in zip(self.sources, state["sources"]):
            if source_state is not None:
                source.load_state(source_state)

    def _dispatch(self, send: Send, cycle: int) -> None:
        if self.network is None:
            raise RuntimeError("host is not attached to a network")
        if send.traffic_class == "TC":
            self.network.send_message(send.channel, send.payload,
                                      at_cycle=cycle)
        elif send.traffic_class == "BE":
            self.network.send_best_effort(self.node, send.destination,
                                          send.payload, at_cycle=cycle)
        else:
            raise ValueError(f"unknown traffic class {send.traffic_class!r}")
