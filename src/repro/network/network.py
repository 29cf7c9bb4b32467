"""The mesh multicomputer: routers wired together, plus the facade API.

:class:`MeshNetwork` assembles a ``width x height`` mesh of
:class:`~repro.core.router.RealTimeRouter` chips, connects their links
through the synchronous engine (one-cycle link latency), runs a
:class:`~repro.channels.manager.ChannelManager` as the protocol
software, and exposes the operations the examples and experiments use:
establish channels, send messages on them, fire best-effort packets,
run, and inspect statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from repro.channels.admission import AdmissionController
from repro.channels.manager import ChannelManager, RealTimeChannel
from repro.channels.spec import TrafficSpec
from repro.core.packet import (
    BestEffortPacket,
    PacketMeta,
    Phit,
    held_bytes,
    load_packet_id_counter_state,
    packet_id_counter_state,
    per_byte,
)
from repro.core.params import MESH_LINKS, RouterParams
from repro.core.ports import OPPOSITE, RECEPTION
from repro.core.router import RealTimeRouter
from repro.network.engine import SynchronousEngine
from repro.network.events import (
    LINK_FAILED,
    LINK_REPAIRED,
    EventBus,
    LinkEvent,
)
from repro.network.node import HostNode
from repro.network.stats import DeliveryLog, FaultCounters
from repro.network.topology import Mesh, Node
from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    ENQUEUE,
    MetricsRegistry,
    PacketTracer,
    SnapshotEmitter,
)

#: A link corruptor: maps each phit crossing the link to a (possibly
#: modified) phit, or ``None`` to suppress it entirely.
Corruptor = Callable[[Phit], Optional[Phit]]

#: A link record's marks, each with the network document key that lists
#: the links carrying it (``routing_avoid``: the links known dead).
LINK_MARKS = (("failed_links", "failed"), ("draining_links", "draining"),
              ("routing_avoid", "known"))


@dataclass(slots=True)
class LinkMonitor:
    """Everything known about one directed link: its one record.

    Physical truth is ``failed`` (nothing crosses it) and the wire's
    ``corruptor``; what protocol software has learned is ``known``
    (announced, or detected by the watchdog), and what the recovery
    layer made of it is ``draining`` (best-effort phits that die on the
    link are acknowledged back to the sender, so stalled worms drain
    out instead of deadlocking).  The rest models what line-level
    hardware can observe: whether offered phits made it across (a dead
    link returns no acknowledgement, so ``missed_transfers`` grows
    while the sender keeps offering), and how many bytes were lost,
    drained, or corrupted.  The watchdog reads ``missed_transfers``;
    the counters feed :class:`~repro.network.stats.FaultCounters`.
    Only :class:`MeshNetwork` writes ``failed``, ``known`` and
    ``draining``; ``known`` and ``draining`` hold only on a failed link.
    """

    failed: bool = False
    known: bool = False
    draining: bool = False
    corruptor: Optional[Corruptor] = None
    missed_transfers: int = 0      # consecutive offered-but-lost phits
    bytes_lost: int = 0            # phits that died on the failed link
    bytes_drained: int = 0         # stalled wormhole bytes drained away
    bytes_corrupted: int = 0       # phits modified by injected corruption
    packets_dropped: int = 0       # whole packets suppressed by injection
    #: Best-effort bytes lost since the last failure whose credits have
    #: not yet been compensated (consumed by drain-mode entry).
    be_lost_uncompensated: int = 0


class MeshNetwork:
    """A mesh of real-time routers with hosts and protocol software."""

    def __init__(
        self,
        width: int,
        height: int,
        params: Optional[RouterParams] = None,
        *,
        on_memory_full: str = "error",
        cut_through: bool = False,
        be_routing: str = "dimension",
        torus: bool = False,
        clock_skews: Optional[dict[Node, int]] = None,
        admission: Optional[AdmissionController] = None,
        engine: str = "event",
    ) -> None:
        self.params = params or RouterParams()
        clock_skews = clock_skews or {}
        # Time-constrained routing is table-driven, so the same chips
        # assemble into a torus unchanged ("the architecture directly
        # extends to other network topologies", paper section 1); the
        # offset-based best-effort routing stays mesh-only.
        self.mesh = Mesh(width, height, torus=torus)
        self.log = DeliveryLog(self.params.slot_cycles)
        self.engine = SynchronousEngine(mode=engine)
        #: The engine component that reads ``missed_transfers`` (the
        #: link watchdog, which installs itself): a wiring that counts
        #: a missed transfer reports it as written.
        self.monitor_reader = None
        #: Routers that have held a frame moving lazily, or slept on
        #: one, since the last run ended (``track_frames``).
        self.in_flight: set[RealTimeRouter] = set()
        self.routers: dict[Node, RealTimeRouter] = {}
        self.hosts: dict[Node, HostNode] = {}
        #: Spoofed acknowledgements owed to link senders, applied at
        #: most one per link per cycle by :meth:`_apply_drain_acks`.
        self._drain_acks: dict[tuple[Node, int], int] = {}
        self.link_monitors: dict[tuple[Node, int], LinkMonitor] = {}
        #: Link lifecycle events (administrative + watchdog detections).
        self.events = EventBus()
        #: Recovery-layer counters (router/monitor counters are merged
        #: in by :meth:`fault_counters`).
        self.fault_stats = FaultCounters()
        #: Observers of time-constrained / best-effort sends (the
        #: recovery controller's retransmit ledger taps these).  TC
        #: hooks receive ``(channel, packets, payload)``.
        self.tc_send_hooks: list[Callable] = []
        self.be_send_hooks: list[Callable[[BestEffortPacket], None]] = []

        for node in self.mesh.nodes():
            router = RealTimeRouter(
                self.params, router_id=node, on_memory_full=on_memory_full,
                cut_through=cut_through, be_routing=be_routing,
                clock_skew_ticks=clock_skews.get(node, 0),
            )
            host = HostNode(node, router, self.log, self.params.slot_cycles)
            host.network = self
            self.routers[node] = router
            self.hosts[node] = host
            # All of a host's and a router's inputs arrive through the
            # declared wiring or a wake.  A router wakes itself when its
            # host entry points or a horizon write change it, and its
            # host when it puts something at the reception port.
            self.engine.add_component(host)
            self.engine.add_component(router)
            router.wake_hook = self.engine.wake
            router.delivery_hook = partial(self.engine.wake, host)
            # A router whose frames move lazily settles to where the
            # engine stands when it is read, and at the end of every run.
            router.fabric = self

        # Wire every link: a router's output signal this cycle becomes
        # its neighbour's input signal next cycle.  One wiring per
        # router, sourced at it — the event-scheduler locality
        # contract: a router that did not step has empty link outputs,
        # so carrying them is a provable no-op.
        for node in self.mesh.nodes():
            self.engine.add_wiring(self._make_link_transfer(node),
                                   source=self.routers[node])
        # After every link transfer, so spoofed acknowledgements land
        # on top of (never underneath) the genuine reverse-link signal.
        # No source: it owes acks independently of router activity.
        self.engine.add_wiring(self._apply_drain_acks,
                               idle_check=self._drain_acks_idle)
        self._refresh_framing()

        self.admission = admission or AdmissionController(self.params)
        self.manager = ChannelManager(
            {node: router.control
             for node, router in self.routers.items()},
            self.admission, self.params,
            width=width, height=height, torus=torus)

        #: Packet-lifecycle tracer; ``None`` until
        #: :meth:`enable_tracing` — the disabled hot path is a single
        #: ``is not None`` test at every emit site.
        self.tracer: Optional[PacketTracer] = None
        #: Installed periodic snapshot emitter (see
        #: :meth:`enable_snapshots`).
        self.snapshotter: Optional[SnapshotEmitter] = None
        #: Metrics registry pre-wired with probes over every counter
        #: the fabric already keeps (engine, schedulers, fault layer,
        #: delivery log) plus per-class delivery latency histograms.
        self.metrics = MetricsRegistry()
        self._register_default_metrics()

    def _make_link_transfer(self, node: Node):
        """Monitors for one router's outgoing links, and the wiring that
        carries its outputs to its neighbours."""
        source = self.routers[node]
        drain_acks = self._drain_acks
        # Per link: direction, key, sink, sink port, the link whose
        # sender its ack bits serve (they acknowledge bytes the neighbour
        # sent on its opposite-facing output), monitor.
        links = []
        for direction in range(MESH_LINKS):
            neighbor = self.mesh.neighbor(node, direction)
            if neighbor is None:
                continue
            link, into = (node, direction), OPPOSITE[direction]
            monitor = self.link_monitors[link] = LinkMonitor()
            links.append((direction, link, self.routers[neighbor], into,
                          (neighbor, into), monitor))

        frames_out = source.frames_out

        def transfer() -> list:
            # Returns the sinks written.  An empty output is skipped on
            # a live and on a dead link alike: the sink emptied its
            # input when it consumed it, so an empty signal copied over
            # it changes nothing.
            wrote = []
            if frames_out:
                # Frames committed this cycle: their bytes go to the
                # sink's synchroniser at once (``OutputSide.frame``).  One
                # framed after its sender's slot (a link repaired
                # mid-cycle) waits for the cycle its first byte leaves.
                leaving = (self.engine.cycle + 1
                           + self.params.input_sync_cycles)
                held = []
                for entry in frames_out:
                    direction, run = entry
                    if run.ready > leaving:
                        held.append(entry)
                        continue
                    for _, link, sink, into, _, _ in links:
                        if link[1] == direction:
                            sink.receive_frame(into, run)
                            wrote.append(sink)
                frames_out[:] = held
            link_out = source.link_out  # load_state rebinds the list
            for direction, link, sink, into, served, monitor in links:
                signal = link_out[direction]
                phit = signal.phit
                if phit is None and not signal.ack:
                    continue
                if monitor.failed:
                    # Nothing crosses a dead link; account for what died.
                    if phit is not None:
                        monitor.missed_transfers += 1
                        if self.monitor_reader is not None:
                            wrote.append(self.monitor_reader)
                        monitor.bytes_lost += 1
                        if phit.vc == "BE":
                            if monitor.draining:
                                monitor.bytes_drained += 1
                                drain_acks[link] = drain_acks.get(link, 0) + 1
                            else:
                                monitor.be_lost_uncompensated += 1
                    if signal.ack:
                        # The ack acknowledged a byte the neighbour
                        # really delivered here; it can never be resent,
                        # so spoof it back or the neighbour's credits
                        # leak forever.
                        drain_acks[served] = drain_acks.get(served, 0) + 1
                    continue
                if phit is not None:
                    # The line acknowledged a transfer (healthy link),
                    # so the watchdog's miss counter resets — even if
                    # injected corruption mangles the payload below.
                    monitor.missed_transfers = 0
                    corruptor = monitor.corruptor
                    if corruptor is not None:
                        mangled = corruptor(phit)
                        if mangled is None:
                            monitor.packets_dropped += phit.last
                            if phit.vc == "BE":
                                # The sender spent a credit on this byte
                                # and the sink will never buffer (or
                                # ack) it.
                                drain_acks[link] = drain_acks.get(link, 0) + 1
                            phit = None
                        elif mangled is not phit:
                            monitor.bytes_corrupted += 1
                            phit = mangled
                wire = sink.link_in[into]  # the sink's own, written in place
                wire.phit = phit
                wire.ack = signal.ack
                wrote.append(sink)
            return wrote

        return transfer

    def _apply_drain_acks(self) -> list:
        """Deliver owed spoofed acknowledgements, one per link per cycle.

        Runs after all link transfers.  A spoofed ack is only applied
        when the sender actually has credit debt and no genuine ack
        arrived this cycle — both guards keep the flow-control
        invariant (acks never exceed bytes sent) intact.  Returns the
        routers it wrote (the wiring-return contract).
        """
        wrote = []
        for link, pending in self._drain_acks.items():
            if pending <= 0:
                continue
            node, direction = link
            router = self.routers[node]
            signal = router.link_in[direction]
            if signal.ack:
                continue  # a genuine ack already occupies this cycle
            if router.output_credit_debt(direction) <= 0:
                continue
            signal.ack = True
            self._drain_acks[link] = pending - 1
            wrote.append(router)
        return wrote

    def _drain_acks_idle(self) -> bool:
        """Idle contract for :meth:`_apply_drain_acks`.

        A spoofed ack only applies when the owed link's sender has
        outstanding credit debt; debt can only change when that router
        transmits, so while all routers are quiescent this verdict is
        stable across the whole skipped span.
        """
        for (node, direction), pending in self._drain_acks.items():
            if pending > 0 and \
                    self.routers[node].output_credit_debt(direction) > 0:
                return False
        return True

    # ------------------------------------------------------------------
    # Frames in flight (docs/performance.md, "Frames in flight")
    # ------------------------------------------------------------------

    def _refresh_framing(self) -> None:
        """Tell every router which output ports a committed frame may
        cross as one arrival: a live link with no corruptor, and the
        reception port.  A frame on a link that loses it goes back on
        the wire; a stream staged whole on a port that may frame it (a
        link repaired, a stream restored) is framed where its next
        transmit would be."""
        monitors = self.link_monitors
        for node, router in self.routers.items():
            links = [True] * (MESH_LINKS + 1)
            for direction in range(MESH_LINKS):
                monitor = monitors.get((node, direction))
                links[direction] = (monitor is not None and not monitor.failed
                                    and monitor.corruptor is None)
            before, router.frame_links = router.frame_links, links
            if before is not None and before != links:
                for direction in range(MESH_LINKS):
                    if before[direction] and not links[direction]:
                        self._unframe(node, direction)
            router.outputs.reframe(self.engine.read_point(router)[0])

    def _unframe(self, node: Node, direction: int) -> None:
        """Put the frame handed to one link back on the wire, byte by
        byte from the point the engine stands at: the bytes that have
        not crossed by then leave the sink's synchroniser, the last one
        that has is on the wire (or captured), and the sender streams
        the rest per byte."""
        router = self.routers[node]
        stream = router.outputs.ports[direction].tc_stream
        if stream is None or stream.handed is None:
            return
        engine = self.engine
        sync_cycles = self.params.input_sync_cycles
        target, wired = router.settle()
        handed, base = stream.handed, stream.base
        stream.base = stream.handed = None
        pending = [entry for entry in router.frames_out
                   if entry[0] == direction]
        for entry in pending:
            router.frames_out.remove(entry)
        # The sender's wire holds its byte of cycle target - 1.
        offset = target - 1 - base - handed.index
        if 0 <= offset < len(handed.data):
            router.link_out[direction].phit = handed.phit(offset)
        # It drives the next byte itself; if its slot passed, the
        # wiring carries the byte it drove.
        router._changed()
        if not wired:
            engine.touch(router)
        if pending:
            return  # nothing has reached the sink yet
        neighbor, into = (self.mesh.neighbor(node, direction),
                          OPPOSITE[direction])
        sink = self.routers[neighbor]
        _, sink_wired = sink.settle()
        port = sink.inputs.ports[into]
        # Bytes driven on the executing cycle or later have not crossed;
        # those that have step per byte from here on.
        crossed = engine.cycle + sync_cycles
        kept = list(per_byte(port.sync, crossed + 1))
        wire = None
        if sink_wired and kept and kept[-1][0] == crossed:
            wire = kept.pop()[1]  # the last one that has is on the wire
        sink.inputs.sync_count -= held_bytes(port.sync) - len(kept)
        port.sync.clear()
        port.sync.extend(kept)
        if wire is not None:
            sink.link_in[into].phit = wire
        sink._changed()

    # ------------------------------------------------------------------
    # Link failures and recovery
    # ------------------------------------------------------------------

    def fail_link(self, node: Node, direction: int, *,
                  announce: bool = True) -> None:
        """Cut one unidirectional link (nothing crosses it any more).

        In-flight bytes on the link are lost; a wormhole packet that
        was crossing it stalls, and time-constrained packets already
        scheduled onto the dead output port stay buffered — exactly the
        failure modes that motivate rerouting over disjoint paths.

        With ``announce=True`` (administrative failure) software learns
        of it at once (:meth:`learn_dead`, a ``link-failed`` event).
        Fault injectors pass ``announce=False`` — a silently cut link
        that only the watchdog can discover.  Idempotent.
        """
        monitor = self._monitor(node, direction)
        if not monitor.failed:
            monitor.failed = True
            self._refresh_framing()
            monitor.missed_transfers = 0
            monitor.be_lost_uncompensated = 0
        # Announcing an already-failed (silently cut) link is allowed:
        # it upgrades the failure from physical to known.
        if announce:
            self.learn_dead(node, direction, LINK_FAILED)

    def learn_dead(self, node: Node, direction: int, kind: str) -> None:
        """Software has learned that a failed link is dead, by
        announcement (``kind`` ``link-failed``) or detection
        (``link-dead``): mark it known network-wide, flush the partial
        frame the cut left (:meth:`flush_dead_link`) and publish the
        event.  A link already known stays quiet, so each failure is
        published once."""
        monitor = self._monitor(node, direction)
        if not monitor.failed:
            raise ValueError("only a failed link can be known dead")
        if monitor.known:
            return
        monitor.known = True
        self.flush_dead_link(node, direction)
        self.events.emit(LinkEvent(kind=kind, node=node,
                                   direction=direction, cycle=self.cycle))

    def flush_dead_link(self, node: Node, direction: int) -> None:
        """Software has learned that a link is dead: drop the partial
        time-constrained frame the cut left downstream.

        The router behind the link discards a partial frame only when a
        later byte arrives with the wrong index, and on a dead link none
        does — without the flush it would hold the bytes, and stay
        busy, forever.  Bytes still in its synchroniser are discarded by
        that same rule when they surface.  A frame that router was
        cutting through (``cut_port``) has partly gone on: its stream is
        released and the frame is flushed one link further on by the
        same rule, or dropped from the reception port's reassembly.
        """
        self._flush_frame(self.mesh.neighbor(node, direction),
                          OPPOSITE[direction])

    def _flush_frame(self, node: Node, into: int, *,
                     in_flight: bool = False) -> None:
        """Drop the unfinished time-constrained frame entering ``node``
        at input ``into``.  ``in_flight``: its sender abandoned it on a
        live link, so its bytes on the wire and in the synchroniser go
        too."""
        router = self.routers[node]
        router.settle()
        port = router.inputs.ports[into]
        dropped, head_inside = (self._drop_in_flight(router, into)
                                if in_flight else (False, True))
        out = port.cut_port if head_inside else None
        if out is not None:
            port.cut_port = port.rx_meta = None
            output = router.outputs.ports[out]
            output.tc_stream = None
            if out == RECEPTION:
                output.tc_rx.clear()
                output.tc_rx_meta = None
            dropped = True
        elif head_inside:
            partial = len(port.rx_bytes) % self.params.tc_packet_bytes
            if partial:
                del port.rx_bytes[len(port.rx_bytes) - partial:]
                port.drop_partial_meta()
                dropped = True
        if not dropped:
            return
        router.tc_resync_drops += 1
        router._changed()
        if out is not None and out != RECEPTION:
            self._flush_frame(self.mesh.neighbor(node, out), OPPOSITE[out],
                              in_flight=True)

    def _drop_in_flight(self, router: RealTimeRouter,
                        into: int) -> tuple[bool, bool]:
        """Drop the time-constrained bytes on their way into input
        ``into`` (on the wire, in the synchroniser) that come after the
        last frame end among them.  Returns whether any went, and
        whether none is a frame end: then what the input has framed, if
        anything, is the head of the same frame."""
        port = router.inputs.ports[into]
        wire = router.link_in[into]
        queued = [phit for _, phit in port.sync] + [wire.phit]
        end = self.params.tc_packet_bytes - 1
        # (A run is never a frame end: that byte crosses on its own.)
        first = 1 + max((i for i, phit in enumerate(queued)
                         if isinstance(phit, Phit) and phit.vc == "TC"
                         and phit.index == end), default=-1)
        kept = [entry for i, entry in enumerate(port.sync)
                if i < first or entry[1].vc != "TC"]
        dropped = len(port.sync) - len(kept)
        if dropped:
            router.inputs.sync_count -= (held_bytes(port.sync)
                                         - held_bytes(kept))
            port.sync.clear()
            port.sync.extend(kept)
        if (wire.phit is not None and wire.phit.vc == "TC"
                and len(queued) - 1 >= first):
            wire.phit = None
            dropped += 1
        return dropped > 0, first == 0

    def repair_link(self, node: Node, direction: int) -> None:
        """Bring a cut link back; publishes a ``link-repaired`` event.

        Credits the sender spent on bytes that died un-drained are
        compensated, otherwise the repaired link would come back
        wedged at zero best-effort credits.
        """
        link = (node, direction)
        monitor = self.link_monitors.get(link)
        if monitor is None or not monitor.failed:
            return
        monitor.failed = monitor.draining = monitor.known = False
        self._refresh_framing()
        monitor.missed_transfers = 0
        self._compensate(link, monitor)
        self.events.emit(LinkEvent(kind=LINK_REPAIRED, node=node,
                                   direction=direction, cycle=self.cycle))

    def set_link_draining(self, node: Node, direction: int) -> None:
        """Enable drain mode on a failed link (recovery layer).

        Once a link is *known* dead, stalled wormhole traffic heading
        into it is drained: each dying best-effort byte is acknowledged
        back so the worm flows out of the fabric instead of blocking
        its whole path.  Credits already burnt on the dead link are
        compensated up front.
        """
        monitor = self._monitor(node, direction)
        if not monitor.failed:
            raise ValueError("only failed links can drain")
        if not monitor.draining:
            monitor.draining = True
            monitor.bytes_drained += self._compensate((node, direction),
                                                      monitor)

    def _compensate(self, link: tuple[Node, int],
                    monitor: LinkMonitor) -> int:
        """Owe the sender one acknowledgement per best-effort byte that
        died on the link un-drained; returns how many."""
        lost, monitor.be_lost_uncompensated = monitor.be_lost_uncompensated, 0
        if lost:
            self._drain_acks[link] = self._drain_acks.get(link, 0) + lost
        return lost

    def set_link_corruptor(self, node: Node, direction: int,
                           corruptor: Corruptor) -> None:
        """Install a fault-injection corruptor on one directed link,
        replacing the one it had."""
        self._monitor(node, direction).corruptor = corruptor
        self._refresh_framing()

    def clear_link_corruptor(self, node: Node, direction: int) -> None:
        self._monitor(node, direction).corruptor = None
        self._refresh_framing()

    def _monitor(self, node: Node, direction: int) -> LinkMonitor:
        monitor = self.link_monitors.get((node, direction))
        if monitor is None:
            raise ValueError("no link in that direction")
        return monitor

    @property
    def failed_links(self) -> set[tuple[Node, int]]:
        """The links that are cut (physical truth), as a fresh set."""
        return {link for link, monitor in self.link_monitors.items()
                if monitor.failed}

    @property
    def known_dead_links(self) -> set[tuple[Node, int]]:
        """The links software knows are down (announced failures and
        watchdog detections), as a fresh set: what rerouting, and
        degraded and relayed best-effort routing, avoid.  A subset of
        :attr:`failed_links`, which software may not have discovered
        yet."""
        return {link for link, monitor in self.link_monitors.items()
                if monitor.known}

    def recover_channel(self, channel, *,
                        failed: Optional[set[tuple[Node, int]]] = None,
                        ) -> RealTimeChannel:
        """Reroute a channel (unicast or multicast) around failed links.

        Delegates to :meth:`ChannelManager.recover
        <repro.channels.manager.ChannelManager.recover>`, avoiding
        ``failed`` (default: all links currently known failed);
        returns the replacement handle.  Raises
        :class:`~repro.channels.routing.RouteError` when no surviving
        path exists and
        :class:`~repro.channels.admission.AdmissionError` when the
        detour fails admission (the old channel is left intact).
        """
        return self.manager.recover(
            channel, self.failed_links if failed is None else failed)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.engine.cycle

    @property
    def current_tick(self) -> int:
        return self.engine.cycle // self.params.slot_cycles

    def run(self, cycles: int) -> int:
        """Advance the whole fabric by ``cycles`` chip cycles."""
        try:
            return self.engine.run(cycles)
        finally:
            self._settle_in_flight()

    def _settle_in_flight(self) -> None:
        """Between runs every router reads as the per-cycle loop left
        it: the ones with frames in flight settle
        (``RealTimeRouter.settle``)."""
        in_flight = self.in_flight
        if in_flight:
            for router in in_flight:
                router.settle()
            in_flight.difference_update(
                [router for router in in_flight
                 if not router.frames_in_flight()])

    def run_ticks(self, ticks: int) -> int:
        """Advance by whole packet-slot times."""
        return self.run(ticks * self.params.slot_cycles)

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until every router is idle and no host holds a message
        back (all traffic delivered)."""
        # Quiescent implies idle, and is remembered by the router.
        try:
            return self.engine.run_until(
                lambda: all(r.quiescent or r.idle
                            for r in self.routers.values())
                and all(h.next_event_cycle(self.cycle) is None
                        for h in self.hosts.values()),
                max_cycles=max_cycles,
            )
        finally:
            self._settle_in_flight()

    # ------------------------------------------------------------------
    # Real-time channels
    # ------------------------------------------------------------------

    def establish_channel(
        self,
        source: Node,
        destination: Node | Sequence[Node],
        spec: TrafficSpec,
        deadline: int,
        **kwargs: object,
    ) -> RealTimeChannel:
        """Establish a real-time channel (see ChannelManager.establish);
        a route the manager picks by search keeps off the links that
        are failed right now."""
        if "failed" not in kwargs:
            kwargs["failed"] = self.failed_links
        return self.manager.establish(source, destination, spec, deadline,
                                      **kwargs)

    def teardown_channel(self, channel: RealTimeChannel) -> None:
        self.manager.teardown(channel)

    def send_message(self, channel: RealTimeChannel,
                     payload: bytes = b"") -> int:
        """Send one message on a channel; returns its logical arrival.

        The message is stamped at the current tick, fragmented into
        packets, and held by the source host until the regulator's
        release tick.  The handle is resolved by label first: automatic
        recovery replaces handles behind the application's back, and a
        channel demoted to best-effort transparently falls back to
        (unguaranteed) wormhole delivery.
        """
        current = self.manager.find(channel.label) or channel
        cycle = self.cycle
        now_tick = cycle // self.params.slot_cycles
        if current.degraded:
            return self._send_degraded(current, payload, now_tick)
        packets, arrival, release = current.make_message(payload, now_tick)
        self.hosts[current.source].queue_tc(packets, release)
        if self.tracer is not None:
            for packet in packets:
                self.tracer.emit(
                    cycle, ENQUEUE, meta=packet.meta,
                    node=current.source, traffic_class="TC",
                    info={"release_tick": release,
                          "logical_arrival": arrival},
                )
        for hook in self.tc_send_hooks:
            hook(current, packets, payload)
        return arrival

    def _send_degraded(self, channel: RealTimeChannel, payload: bytes,
                       now_tick: int) -> int:
        """Best-effort fallback delivery for a degraded channel.

        The message keeps its label and a monotone sequence number so
        delivery accounting still works; it is routed (relaying through
        intermediate hosts when needed) around every link software
        knows is dead.  No deadline is attached — the guarantee is
        gone, which is exactly what ``degraded`` means.
        """
        from repro.channels.routing import RouteError

        sequence = channel._sequence
        channel._sequence += 1
        delivered_any = False
        for destination in channel.destinations:
            try:
                self.send_best_effort(
                    channel.source, destination, payload,
                    avoid=self.known_dead_links,
                    connection_label=channel.label,
                    sequence=sequence,
                )
                delivered_any = True
            except RouteError:
                self.fault_stats.degraded_undeliverable += 1
        if delivered_any:
            self.fault_stats.degraded_messages += 1
        return now_tick

    # ------------------------------------------------------------------
    # Best-effort traffic
    # ------------------------------------------------------------------

    def send_best_effort(self, source: Node, destination: Node,
                         payload: bytes = b"", *,
                         avoid: Optional[set[tuple[Node, int]]] = None,
                         connection_label: Optional[str] = None,
                         sequence: Optional[int] = None) -> BestEffortPacket:
        """Inject one wormhole packet from ``source`` to ``destination``.

        ``avoid`` plans a host-relay chain around the given links
        (best-effort routing itself is hard-wired dimension order),
        raising :class:`~repro.channels.routing.RouteError` when no
        relay chain survives.
        """
        if not self.mesh.contains(source) or not self.mesh.contains(destination):
            raise ValueError("source or destination outside the mesh")
        waypoints = [destination]
        if avoid:
            from repro.channels.routing import best_effort_relay

            waypoints = best_effort_relay(
                self.mesh.width, self.mesh.height, source, destination,
                avoid,
            )
        x_offset, y_offset = self.mesh.offsets(source, waypoints[0])
        packet = BestEffortPacket(
            x_offset=x_offset, y_offset=y_offset, payload=payload,
            meta=PacketMeta(
                source=source, destination=destination,
                connection_label=connection_label, sequence=sequence,
                relay_path=tuple(waypoints[1:]),
            ),
        )
        packet.meta.injected_cycle = self.cycle
        self.routers[source].inject_be(packet)
        if self.tracer is not None:
            self.tracer.emit(self.cycle, ENQUEUE, meta=packet.meta,
                             node=source, traffic_class="BE")
        for hook in self.be_send_hooks:
            hook(packet)
        return packet

    # ------------------------------------------------------------------
    # Fault accounting
    # ------------------------------------------------------------------

    def fault_counters(self) -> FaultCounters:
        """Aggregate fault/recovery counters across the whole fabric."""
        counters = FaultCounters(**self.fault_stats.as_dict())
        for router in self.routers.values():
            counters.tc_corrupted += router.tc_corrupt_dropped
            counters.be_corrupted += router.be_corrupt_dropped
            counters.tc_unroutable += router.tc_unroutable_dropped
            counters.tc_resync_drops += router.tc_resync_drops
            counters.be_orphan_drops += router.be_orphan_drops
        for monitor in self.link_monitors.values():
            counters.link_bytes_lost += monitor.bytes_lost
            counters.link_bytes_drained += monitor.bytes_drained
            counters.link_bytes_corrupted += monitor.bytes_corrupted
            counters.link_packets_dropped += monitor.packets_dropped
        return counters

    # ------------------------------------------------------------------
    # Checkpointing (see docs/checkpointing.md)
    # ------------------------------------------------------------------

    def state(self, ctx) -> dict:
        """Complete network state as a JSON-able dict.

        ``ctx`` is a :class:`repro.checkpoint.SaveContext`.  Covers the
        routers, hosts, delivery log, link health, channel software and
        observability registries — everything mutable that the engine's
        per-cycle loop can touch.  Not covered (a documented limitation):
        snapshot emitters.
        """
        links = sorted(self.link_monitors.items())
        corruptors = []
        for (node, direction), monitor in links:
            corruptor = monitor.corruptor
            if corruptor is None:
                continue
            if not hasattr(corruptor, "state"):
                raise ValueError(
                    f"link corruptor on {(node, direction)!r} is not "
                    "checkpointable (no state())"
                )
            corruptors.append([list(node), direction, corruptor.state()])
        return {
            "log": self.log.state(),
            "routers": [self.routers[node].state(ctx)
                        for node in self.mesh.nodes()],
            "hosts": [self.hosts[node].state(ctx)
                      for node in self.mesh.nodes()],
            "link_monitors": [
                [list(node), direction,
                 [monitor.missed_transfers, monitor.bytes_lost,
                  monitor.bytes_drained, monitor.bytes_corrupted,
                  monitor.packets_dropped,
                  monitor.be_lost_uncompensated]]
                for (node, direction), monitor in links
            ],
            **{key: [[list(node), direction]
                     for (node, direction), monitor in links
                     if getattr(monitor, flag)]
               for key, flag in LINK_MARKS},
            "drain_acks": [[list(node), direction, pending]
                           for (node, direction), pending in sorted(
                               self._drain_acks.items())],
            "corruptors": corruptors,
            "fault_stats": self.fault_stats.as_dict(),
            "manager": self.manager.state(),
            "admission": self.admission.state(),
            "metrics": self.metrics.state(),
            "tracer": (None if self.tracer is None
                       else self.tracer.state()),
            "packet_ids": packet_id_counter_state(),
            "engine": self.engine.state(),
        }

    def load_state(self, state: dict, ctx) -> None:
        """Overlay checkpointed state onto a freshly-built network.

        The network must have been constructed with the same topology
        and parameters as the checkpointed run (the checkpoint store's
        fingerprint check enforces this), with channels *not* yet
        established — the channel software is restored from the
        checkpoint, not replayed.
        """
        self.log.load_state(state["log"])
        for node, router_state in zip(self.mesh.nodes(),
                                      state["routers"]):
            self.routers[node].load_state(router_state, ctx)
        for node, host_state in zip(self.mesh.nodes(), state["hosts"]):
            self.hosts[node].load_state(host_state, ctx)
        # The records and the owed-ack map are captured by reference
        # inside the wiring closures — refill in place, never rebind.
        monitors = self.link_monitors
        for node, direction, fields in state["link_monitors"]:
            monitor = monitors[(tuple(node), direction)]
            (monitor.missed_transfers, monitor.bytes_lost,
             monitor.bytes_drained, monitor.bytes_corrupted,
             monitor.packets_dropped,
             monitor.be_lost_uncompensated) = [int(v) for v in fields]
        for key, flag in LINK_MARKS:
            marked = {(tuple(node), direction)
                      for node, direction in state[key]}
            for link, monitor in monitors.items():
                setattr(monitor, flag, link in marked)
        self._drain_acks.clear()
        for node, direction, pending in state["drain_acks"]:
            self._drain_acks[(tuple(node), direction)] = int(pending)
        for monitor in monitors.values():
            monitor.corruptor = None
        if state["corruptors"]:
            from repro.faults.injector import corruptor_from_state

            for node, direction, corruptor_state in state["corruptors"]:
                monitors[(tuple(node), direction)].corruptor = (
                    corruptor_from_state(corruptor_state))
        for name, value in state["fault_stats"].items():
            setattr(self.fault_stats, name, int(value))
        self.manager.load_state(state["manager"])
        self.admission.load_state(state["admission"])
        self.metrics.load_state(state["metrics"])
        if state["tracer"] is not None:
            self.enable_tracing(capacity=state["tracer"]["capacity"])
            self.tracer.load_state(state["tracer"])
        load_packet_id_counter_state(state["packet_ids"])
        self.engine.load_state(state["engine"])
        self._refresh_framing()

    # ------------------------------------------------------------------
    # Observability: metrics registry, tracing, snapshots
    # ------------------------------------------------------------------

    def _register_default_metrics(self) -> None:
        """Probe every counter the fabric already keeps.

        The counters stay plain attributes on their owners (their
        existing API, and the zero-overhead hot path, are untouched);
        the registry samples them only when a snapshot is taken.
        """
        metrics = self.metrics
        engine = self.engine
        metrics.register_probe("engine.cycle", lambda: engine.cycle)
        metrics.register_probe("engine.cycles_stepped",
                               lambda: engine.cycles_stepped)
        metrics.register_probe("engine.cycles_fast_forwarded",
                               lambda: engine.cycles_fast_forwarded)

        routers = self.routers

        def summed(attr):
            return lambda: sum(getattr(r, attr) for r in routers.values())

        for attr in ("tc_received", "tc_transmitted", "tc_dropped",
                     "be_worms_routed", "cut_through_count"):
            metrics.register_probe(f"router.{attr}", summed(attr))

        def tree_summed(attr):
            return lambda: sum(getattr(r.tree, attr)
                               for r in routers.values())

        # A dormant router's own counter stands still until it works
        # again; a snapshot in between adds what its replay will.
        metrics.register_probe(
            "scheduler.evaluations",
            lambda: sum(r.tree.evaluations + r.lagging(engine.cycle)[0]
                        for r in routers.values()))
        for attr in ("keys_computed", "keys_reused"):
            metrics.register_probe(f"scheduler.{attr}", tree_summed(attr))

        log = self.log
        metrics.register_probe("delivery.tc_delivered",
                               lambda: log.tc_delivered)
        metrics.register_probe("delivery.be_delivered",
                               lambda: log.be_delivered)
        metrics.register_probe("delivery.deadline_misses",
                               lambda: log.deadline_misses)
        metrics.register_probe("delivery.duplicates",
                               lambda: log.duplicate_deliveries)
        log.latency_histograms = {
            "TC": metrics.histogram("delivery.latency_tc_cycles",
                                    DEFAULT_LATENCY_BUCKETS),
            "BE": metrics.histogram("delivery.latency_be_cycles",
                                    DEFAULT_LATENCY_BUCKETS),
        }

        def fault_field(name):
            return lambda: getattr(self.fault_counters(), name)

        for name in FaultCounters().as_dict():
            metrics.register_probe(f"faults.{name}", fault_field(name))

    def enable_tracing(self, capacity: int = 65536) -> PacketTracer:
        """Install a packet-lifecycle tracer on the whole fabric.

        Every router and host starts stamping structured events (see
        :mod:`repro.observability.trace`) into one shared ring buffer
        of ``capacity`` events; returns the tracer.  Idempotent per
        network: re-enabling replaces the previous tracer.
        """
        tracer = PacketTracer(capacity)
        self.tracer = tracer
        for router in self.routers.values():
            router.tracer = tracer
        for host in self.hosts.values():
            host.tracer = tracer
        return tracer

    def disable_tracing(self) -> None:
        """Stop tracing; emit sites fall back to the zero-cost guard."""
        self.tracer = None
        for router in self.routers.values():
            router.tracer = None
        for host in self.hosts.values():
            host.tracer = None

    def enable_snapshots(self, period_cycles: int, *,
                         sink=None, keep=None) -> SnapshotEmitter:
        """Record a metrics snapshot every ``period_cycles`` cycles.

        The emitter is registered as an engine component implementing
        ``next_event_cycle``, so snapshots fire on their exact
        scheduled cycles even across skipped idle spans (like the
        fault watchdog's detections do).
        """
        if self.snapshotter is not None:
            self.engine.remove_component(self.snapshotter)
        emitter = SnapshotEmitter(self.metrics, period_cycles,
                                  start_cycle=self.cycle, sink=sink,
                                  keep=keep)
        self.engine.add_component(emitter)
        self.snapshotter = emitter
        return emitter

    def disable_snapshots(self) -> None:
        if self.snapshotter is not None:
            self.engine.remove_component(self.snapshotter)
            self.snapshotter = None


def build_mesh_network(width: int, height: int,
                       params: Optional[RouterParams] = None,
                       **kwargs: object) -> MeshNetwork:
    """Convenience constructor mirroring the paper's 4x4 mesh setup."""
    return MeshNetwork(width, height, params, **kwargs)
