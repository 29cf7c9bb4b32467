"""The mesh multicomputer: routers wired together, plus the facade API.

:class:`MeshNetwork` assembles a ``width x height`` mesh of
:class:`~repro.core.router.RealTimeRouter` chips, connects their links
through the synchronous engine (one-cycle link latency), runs a
:class:`~repro.channels.manager.ChannelManager` as the protocol
software, and exposes the operations the examples and experiments use:
establish channels, send messages on them, fire best-effort packets,
attach traffic sources, run, and inspect statistics.
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
    load_packet_id_counter_state,
    packet_id_counter_state,
)
from repro.core.params import MESH_LINKS, RouterParams
from repro.core.ports import OPPOSITE
from repro.core.router import RealTimeRouter
from repro.network.engine import SynchronousEngine
from repro.network.events import (
    LINK_FAILED,
    LINK_REPAIRED,
    EventBus,
    LinkEvent,
)
from repro.network.node import HostNode
from repro.network.stats import DeliveryLog, FaultCounters, ServiceTrace
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


@dataclass
class LinkMonitor:
    """Per-directed-link health bookkeeping, updated by the wiring layer.

    Models what line-level hardware can observe: whether offered phits
    made it across (a dead link returns no acknowledgement, so
    ``missed_transfers`` grows while the sender keeps offering), and
    how many bytes were lost, drained, or corrupted.  The watchdog
    reads ``missed_transfers``; the counters feed
    :class:`~repro.network.stats.FaultCounters`.
    """

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
        #: Monotone counter bumped whenever any link monitor's
        #: ``missed_transfers`` grows; the watchdog keys its O(1)
        #: verdict cache on it (a one-element list so the wiring
        #: closures can bump it without attribute lookups on self).
        self.monitor_miss_epoch = [0]
        self.routers: dict[Node, RealTimeRouter] = {}
        self.hosts: dict[Node, HostNode] = {}
        self._traces: list[ServiceTrace] = []
        self._failed_links: set[tuple[Node, int]] = set()
        #: Failed links currently in drain mode: best-effort phits that
        #: die on them are acknowledged back to the sender so stalled
        #: worms drain out instead of deadlocking (recovery layer).
        self._draining_links: set[tuple[Node, int]] = set()
        self._link_corruptors: dict[tuple[Node, int], Corruptor] = {}
        #: Spoofed acknowledgements owed to link senders, applied at
        #: most one per link per cycle by :meth:`_apply_drain_acks`.
        self._drain_acks: dict[tuple[Node, int], int] = {}
        self.link_monitors: dict[tuple[Node, int], LinkMonitor] = {}
        #: Link lifecycle events (administrative + watchdog detections).
        self.events = EventBus()
        #: Recovery-layer counters (router/monitor counters are merged
        #: in by :meth:`fault_counters`).
        self.fault_stats = FaultCounters()
        #: Links that software *knows* are down (announced failures and
        #: watchdog detections) — what degraded/relayed best-effort
        #: routing avoids.  Distinct from ``_failed_links``, which is
        #: physical truth the software may not have discovered yet.
        self.routing_avoid: set[tuple[Node, int]] = set()
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
            # Hosts and routers are *local* components: all of their
            # inputs arrive through the declared wiring, their peer, or
            # an explicit wake from the send APIs below.
            self.engine.add_component(host, local=True)
            self.engine.add_component(router, local=True)
            # The host's step injects into and drains the router; the
            # router says when it put something at the reception port,
            self.engine.bind_peers(host, router)
            router.delivery_hook = partial(self.engine.wake, host)
            # and when a raised horizon may have moved its dormancy deadline.
            router.wake_hook = self.engine.wake

        # Wire every link: a router's output signal this cycle becomes
        # its neighbour's input signal next cycle.  One wiring per
        # router, sourced at it — the event-scheduler locality
        # contract: a router that did not step has empty link outputs,
        # so carrying them is a provable no-op.
        for node in self.mesh.nodes():
            transfer, idle_check = self._make_link_transfer(node)
            self.engine.add_wiring(transfer, idle_check=idle_check,
                                   source=self.routers[node])
        # After every link transfer, so spoofed acknowledgements land
        # on top of (never underneath) the genuine reverse-link signal.
        # No source: it owes acks independently of router activity.
        self.engine.add_wiring(self._apply_drain_acks,
                               idle_check=self._drain_acks_idle)

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
        failed = self._failed_links
        draining = self._draining_links
        corruptors = self._link_corruptors
        drain_acks = self._drain_acks
        miss_epoch = self.monitor_miss_epoch
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

        def transfer() -> list:
            # Returns the sinks written.  An empty output is skipped on
            # a live and on a dead link alike: the sink emptied its
            # input when it consumed it, so an empty signal copied over
            # it changes nothing (the ``idle_check`` argument, per link).
            wrote = []
            link_out = source.link_out  # load_state rebinds the list
            for direction, link, sink, into, served, monitor in links:
                signal = link_out[direction]
                phit = signal.phit
                if phit is None and not signal.ack:
                    continue
                if link in failed:
                    # Nothing crosses a dead link; account for what died.
                    if phit is not None:
                        monitor.missed_transfers += 1
                        miss_epoch[0] += 1
                        monitor.bytes_lost += 1
                        if phit.vc == "BE":
                            if link in draining:
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
                    corruptor = corruptors.get(link)
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

        def idle_check() -> bool:
            # Idle contract: with no phit and no ack offered anywhere,
            # the transfer copies nothing.
            link_out = source.link_out
            return all(link_out[link[0]].phit is None
                       and not link_out[link[0]].ack for link in links)

        return transfer, idle_check

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
    # Link failures and recovery
    # ------------------------------------------------------------------

    def fail_link(self, node: Node, direction: int, *,
                  announce: bool = True) -> None:
        """Cut one unidirectional link (nothing crosses it any more).

        In-flight bytes on the link are lost; a wormhole packet that
        was crossing it stalls, and time-constrained packets already
        scheduled onto the dead output port stay buffered — exactly the
        failure modes that motivate rerouting over disjoint paths.

        With ``announce=True`` (administrative failure) a
        ``link-failed`` event is published for the recovery layer.
        Fault injectors pass ``announce=False`` — a silently cut link
        that only the watchdog can discover.
        """
        link = (node, direction)
        if self.mesh.neighbor(node, direction) is None:
            raise ValueError("no link in that direction")
        if link not in self._failed_links:
            self._failed_links.add(link)
            monitor = self.link_monitors[link]
            monitor.missed_transfers = 0
            monitor.be_lost_uncompensated = 0
        # Announcing an already-failed (silently cut) link is allowed:
        # it upgrades the failure from physical to known.
        if announce and link not in self.routing_avoid:
            self.routing_avoid.add(link)
            self.events.emit(LinkEvent(kind=LINK_FAILED, node=node,
                                       direction=direction,
                                       cycle=self.cycle))

    def repair_link(self, node: Node, direction: int) -> None:
        """Bring a cut link back; publishes a ``link-repaired`` event.

        Credits the sender spent on bytes that died un-drained are
        compensated, otherwise the repaired link would come back
        wedged at zero best-effort credits.
        """
        link = (node, direction)
        if link not in self._failed_links:
            return
        self._failed_links.discard(link)
        self._draining_links.discard(link)
        self.routing_avoid.discard(link)
        monitor = self.link_monitors[link]
        monitor.missed_transfers = 0
        if monitor.be_lost_uncompensated:
            self._drain_acks[link] = (self._drain_acks.get(link, 0)
                                      + monitor.be_lost_uncompensated)
            monitor.be_lost_uncompensated = 0
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
        link = (node, direction)
        if link not in self._failed_links:
            raise ValueError("only failed links can drain")
        if link in self._draining_links:
            return
        self._draining_links.add(link)
        monitor = self.link_monitors[link]
        if monitor.be_lost_uncompensated:
            self._drain_acks[link] = (self._drain_acks.get(link, 0)
                                      + monitor.be_lost_uncompensated)
            monitor.bytes_drained += monitor.be_lost_uncompensated
            monitor.be_lost_uncompensated = 0

    def set_link_corruptor(self, node: Node, direction: int,
                           corruptor: Corruptor) -> None:
        """Install a fault-injection corruptor on one directed link."""
        if self.mesh.neighbor(node, direction) is None:
            raise ValueError("no link in that direction")
        self._link_corruptors[(node, direction)] = corruptor

    def clear_link_corruptor(self, node: Node, direction: int) -> None:
        self._link_corruptors.pop((node, direction), None)

    def link_corruptor(self, node: Node, direction: int) -> Optional[Corruptor]:
        """The corruptor installed on one directed link, or ``None``."""
        return self._link_corruptors.get((node, direction))

    @property
    def failed_links(self) -> set[tuple[Node, int]]:
        return set(self._failed_links)

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
            channel, self._failed_links if failed is None else failed)

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
        return self.engine.run(cycles)

    def run_ticks(self, ticks: int) -> int:
        """Advance by whole packet-slot times."""
        return self.run(ticks * self.params.slot_cycles)

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until every router is idle (all traffic delivered)."""
        # Quiescent implies idle, and is remembered by the router.
        return self.engine.run_until(
            lambda: all(r.quiescent or r.idle
                        for r in self.routers.values()),
            max_cycles=max_cycles,
        )

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
        kwargs.setdefault("failed", self._failed_links)
        return self.manager.establish(source, destination, spec, deadline,
                                      **kwargs)

    def teardown_channel(self, channel: RealTimeChannel) -> None:
        self.manager.teardown(channel)

    def send_message(self, channel: RealTimeChannel, payload: bytes = b"",
                     at_cycle: Optional[int] = None) -> int:
        """Send one message on a channel; returns its logical arrival.

        The message is stamped at the current tick, fragmented into
        packets, and held by the source host until the regulator's
        release tick.  The handle is resolved by label first: automatic
        recovery replaces handles behind the application's back, and a
        channel demoted to best-effort transparently falls back to
        (unguaranteed) wormhole delivery.
        """
        current = self.manager.find(channel.label) or channel
        cycle = self.cycle if at_cycle is None else at_cycle
        now_tick = cycle // self.params.slot_cycles
        if current.degraded:
            return self._send_degraded(current, payload, cycle, now_tick)
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
                       cycle: int, now_tick: int) -> int:
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
                    at_cycle=cycle,
                    avoid=self.routing_avoid,
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
                         payload: bytes = b"",
                         at_cycle: Optional[int] = None,
                         *,
                         avoid: Optional[set[tuple[Node, int]]] = None,
                         relay: Optional[list[Node]] = None,
                         connection_label: Optional[str] = None,
                         sequence: Optional[int] = None) -> BestEffortPacket:
        """Inject one wormhole packet from ``source`` to ``destination``.

        ``avoid`` plans a host-relay chain around the given links
        (best-effort routing itself is hard-wired dimension order);
        ``relay`` supplies an explicit waypoint chain instead.  Both
        raise :class:`~repro.channels.routing.RouteError` when no
        relay chain survives.
        """
        if not self.mesh.contains(source) or not self.mesh.contains(destination):
            raise ValueError("source or destination outside the mesh")
        if avoid is not None and relay is None and avoid:
            from repro.channels.routing import best_effort_relay

            waypoints = best_effort_relay(
                self.mesh.width, self.mesh.height, source, destination,
                avoid,
            )
            relay = waypoints if len(waypoints) > 1 else None
        first_hop = destination if not relay else relay[0]
        x_offset, y_offset = self.mesh.offsets(source, first_hop)
        packet = BestEffortPacket(
            x_offset=x_offset, y_offset=y_offset, payload=payload,
            meta=PacketMeta(
                source=source, destination=destination,
                connection_label=connection_label, sequence=sequence,
                relay_path=tuple(relay[1:]) if relay else (),
            ),
        )
        cycle = self.cycle if at_cycle is None else at_cycle
        packet.meta.injected_cycle = cycle
        self.routers[source].inject_be(packet)
        # The injection may come from outside the source router's own
        # host step (a controller, a relay plan, another host's source).
        self.engine.wake(self.routers[source])
        if self.tracer is not None:
            self.tracer.emit(cycle, ENQUEUE, meta=packet.meta,
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
        per-cycle loop can touch.  Not covered (documented limitations):
        :class:`ServiceTrace` hooks and snapshot emitters.
        """
        corruptors = []
        for (node, direction), corruptor in sorted(
                self._link_corruptors.items()):
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
                for (node, direction), monitor in sorted(
                    self.link_monitors.items())
            ],
            "failed_links": [[list(node), direction] for node, direction
                             in sorted(self._failed_links)],
            "draining_links": [[list(node), direction] for node, direction
                               in sorted(self._draining_links)],
            "routing_avoid": [[list(node), direction] for node, direction
                              in sorted(self.routing_avoid)],
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
        for node, direction, fields in state["link_monitors"]:
            monitor = self.link_monitors[(tuple(node), direction)]
            (monitor.missed_transfers, monitor.bytes_lost,
             monitor.bytes_drained, monitor.bytes_corrupted,
             monitor.packets_dropped,
             monitor.be_lost_uncompensated) = [int(v) for v in fields]
        # These containers are captured by reference inside the wiring
        # closures — refill in place, never rebind.
        self._failed_links.clear()
        self._failed_links.update(
            (tuple(node), direction)
            for node, direction in state["failed_links"])
        self._draining_links.clear()
        self._draining_links.update(
            (tuple(node), direction)
            for node, direction in state["draining_links"])
        self.routing_avoid.clear()
        self.routing_avoid.update(
            (tuple(node), direction)
            for node, direction in state["routing_avoid"])
        self._drain_acks.clear()
        for node, direction, pending in state["drain_acks"]:
            self._drain_acks[(tuple(node), direction)] = int(pending)
        self._link_corruptors.clear()
        if state["corruptors"]:
            from repro.faults.injector import corruptor_from_state

            for node, direction, corruptor_state in state["corruptors"]:
                self._link_corruptors[(tuple(node), direction)] = (
                    corruptor_from_state(corruptor_state)
                )
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

    # ------------------------------------------------------------------
    # Sources and instrumentation
    # ------------------------------------------------------------------

    def attach_source(self, node: Node, source) -> None:
        """Attach a traffic source (see repro.traffic) to a host."""
        self.hosts[node].attach_source(source)

    def trace_service(self, node: Node, port: int) -> ServiceTrace:
        """Record cumulative per-connection service on one output port."""
        trace = ServiceTrace(watch_port=port)
        router = self.routers[node]
        if router.service_hook is not None:
            previous = router.service_hook

            def chained(cycle: int, p: int, cls: str, meta) -> None:
                previous(cycle, p, cls, meta)
                trace.hook(cycle, p, cls, meta)

            router.service_hook = chained
        else:
            router.service_hook = trace.hook
        self._traces.append(trace)
        return trace


def build_mesh_network(width: int, height: int,
                       params: Optional[RouterParams] = None,
                       **kwargs: object) -> MeshNetwork:
    """Convenience constructor mirroring the paper's 4x4 mesh setup."""
    return MeshNetwork(width, height, params, **kwargs)
