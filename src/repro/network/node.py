"""Host node: the processor attached to each router.

The host runs the application side of the system: it holds back
time-constrained messages until their release ticks (the source
regulator's rate-based flow control), feeds the router's two injection
ports and drains the shared reception port into the delivery log.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.core.packet import BestEffortPacket, TimeConstrainedPacket
from repro.core.router import RealTimeRouter
from repro.network.stats import DeliveryLog
from repro.observability.trace import DELIVER, RELEASE


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
        self.network = None  # set by MeshNetwork
        #: Packet-lifecycle tracer (set by MeshNetwork.enable_tracing);
        #: None keeps the hot path allocation-free.
        self.tracer = None

    def queue_tc(self, packets: list[TimeConstrainedPacket],
                 release_tick: int) -> None:
        """Hold packets until their regulated release tick."""
        release_cycle = release_tick * self.slot_cycles
        for packet in packets:
            heapq.heappush(
                self._release_heap,
                (release_cycle, next(self._tiebreak), packet),
            )
        # Changed outside its own step: tell the scheduler.
        engine = getattr(self.network, "engine", None)
        if engine is not None:
            engine.wake(self)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract (see ``docs/performance.md``): an
        undrained delivery is due now, else the release heap's head."""
        if self.router.delivered:
            return cycle  # reception port waiting to be drained
        if self._release_heap:
            return max(cycle, self._release_heap[0][0])
        return None

    def step(self, cycle: int) -> None:
        """Run the host for one cycle (releases, deliveries)."""
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
        """Host state: the release heap and the tiebreak counter."""
        value = next(self._tiebreak)
        self._tiebreak = itertools.count(value)
        return {
            "release_heap": [
                [release_cycle, tiebreak, ctx.save_tc_packet(packet)]
                for release_cycle, tiebreak, packet in self._release_heap
            ],
            "tiebreak": value,
        }

    def load_state(self, state: dict, ctx) -> None:
        """Overlay host state."""
        # The saved list is already a valid heap (saved in heap order).
        self._release_heap = [
            (release_cycle, tiebreak, ctx.load_tc_packet(packet))
            for release_cycle, tiebreak, packet in state["release_heap"]
        ]
        self._tiebreak = itertools.count(int(state["tiebreak"]))
