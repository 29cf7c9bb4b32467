"""Single-link contention harness (the paper's Figure 7 experiment).

"All three connections compete for access to a single network link
with horizon parameter h = 0, where each connection has a continual
backlog of traffic."  This harness reproduces that setup on one
cycle-accurate router chip: each time-constrained connection arrives on
its own input link, every connection is routed to the +x output, a
best-effort backlog is fed through the injection port toward the same
output, and the downstream neighbour is emulated with an ack loop so
wormhole credits keep flowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.packet import (
    BestEffortPacket,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
    phits_of,
)
from repro.core.params import MESH_LINKS, RouterParams
from repro.core.ports import EAST, port_mask
from repro.core.router import LinkSignal, RealTimeRouter
from repro.network.stats import ServiceTrace


@dataclass
class LinkConnection:
    """One time-constrained connection competing for the shared link.

    ``delay`` and ``i_min`` are in ticks (20-byte slots), matching the
    units of the paper's connection table for Figure 7.
    """

    label: str
    delay: int
    i_min: int
    packets: int

    def __post_init__(self) -> None:
        if self.delay < 1 or self.i_min < 1:
            raise ValueError("delay and i_min must be positive ticks")


@dataclass
class _Feed:
    connection: LinkConnection
    input_port: int
    connection_id: int
    sent: int = 0
    phits: list[Phit] = field(default_factory=list)
    index: int = 0
    transmit_deadlines: dict[int, int] = field(default_factory=dict)


class SingleLinkHarness:
    """Drives one router so several connections share the +x link."""

    def __init__(self, connections: list[LinkConnection],
                 params: Optional[RouterParams] = None,
                 *, horizon: int = 0,
                 best_effort_backlog: bool = True) -> None:
        if not 1 <= len(connections) <= MESH_LINKS:
            raise ValueError(
                f"between 1 and {MESH_LINKS} connections supported"
            )
        self.params = params or RouterParams()
        self.trace = ServiceTrace(watch_port=EAST)
        self.router = RealTimeRouter(self.params, router_id="f7")
        self.router.control.write_horizon(port_mask(EAST), horizon)
        self.best_effort_backlog = best_effort_backlog

        self._feeds: list[_Feed] = []
        for index, connection in enumerate(connections):
            connection_id = index
            self.router.control.program_connection(
                incoming_id=connection_id, outgoing_id=connection_id,
                delay=connection.delay, port_mask=port_mask(EAST),
            )
            self._feeds.append(_Feed(
                connection=connection,
                input_port=(index + 1) % MESH_LINKS,  # WEST, NORTH, SOUTH
                connection_id=connection_id,
            ))
        self.cycle = 0
        self.deadline_misses = 0
        self._last_tc_meta: dict[int, PacketMeta] = {}

    # ------------------------------------------------------------------

    def _next_phit(self, feed: _Feed) -> Optional[Phit]:
        """The next byte of this connection's packet stream, if due."""
        if feed.index >= len(feed.phits):
            if feed.sent >= feed.connection.packets:
                return None
            # Next message: logical arrival at tick sent * i_min; feed
            # it onto the wire exactly at that tick (continual backlog:
            # a packet is always just arriving or waiting).
            due_cycle = (feed.sent * feed.connection.i_min
                         * self.params.slot_cycles)
            if self.cycle < due_cycle:
                return None
            arrival_tick = feed.sent * feed.connection.i_min
            packet = TimeConstrainedPacket(
                connection_id=feed.connection_id,
                header_deadline=arrival_tick,
                meta=PacketMeta(
                    connection_label=feed.connection.label,
                    sequence=feed.sent,
                    absolute_deadline=(arrival_tick
                                       + feed.connection.delay),
                    injected_cycle=self.cycle,
                ),
            )
            feed.phits = phits_of(packet, self.params)
            feed.index = 0
            feed.sent += 1
        phit = feed.phits[feed.index]
        feed.index += 1
        return phit

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            # Feed each connection's bytes on its own input link.
            for feed in self._feeds:
                phit = self._next_phit(feed)
                if phit is not None:
                    self.router.link_in[feed.input_port] = LinkSignal(
                        phit=phit)
            # Keep the best-effort injection port saturated.
            if (self.best_effort_backlog
                    and self.router.be_inject_backlog < 2):
                self.router.inject_be(BestEffortPacket(
                    x_offset=1, y_offset=0, payload=bytes(60),
                ))
            self.router.step(self.cycle)
            # Emulate the downstream node: ack every best-effort byte
            # that leaves on +x so credits never run dry.
            out = self.router.link_out[EAST]
            ack = out.phit is not None and out.phit.vc == "BE"
            if out.phit is not None:
                self.trace.hook(self.cycle, EAST, out.phit.vc,
                                getattr(out.phit.packet, "meta", None))
                if out.phit.vc == "TC":
                    self._check_deadline(out.phit)
            self.router.link_in[EAST] = LinkSignal(ack=ack)
            self.cycle += 1

    def _check_deadline(self, phit: Phit) -> None:
        """On each packet's last byte, compare against its deadline."""
        if not phit.last or phit.packet is None:
            return
        meta = getattr(phit.packet, "meta", None)
        if meta is None or meta.absolute_deadline is None:
            return
        deadline_cycle = (meta.absolute_deadline + 1) * self.params.slot_cycles
        if self.cycle > deadline_cycle:
            self.deadline_misses += 1

    # ------------------------------------------------------------------

    def run(self, cycles: int) -> "SingleLinkHarness":
        self.step(cycles)
        return self

    def service_bytes(self, label: str) -> int:
        return self.trace.totals.get(label, 0)

    def service_table(self, sample_every: int = 1000) -> list[dict]:
        """Figure-7-style rows: cumulative bytes per label over time."""
        rows = []
        for cycle in range(sample_every, self.cycle + 1, sample_every):
            row = {"cycle": cycle}
            for label in self.trace.labels():
                row[label] = self.trace.cumulative_at(label, cycle)
            rows.append(row)
        return rows
