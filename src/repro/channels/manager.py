"""The protocol software that establishes real-time channels.

The chip deliberately leaves admission control, route selection and
table programming to software (paper section 4.1).  The
:class:`ChannelManager` is that software, and the only module that
knows establishment: given the control interfaces of a fabric, it
selects routes (by construction on a mesh, by search on a torus and
around failed links), runs admission control, allocates connection
identifiers, decomposes deadlines, drives each router's four-write
control interface, and re-establishes a channel on a detour after a
fault (:meth:`ChannelManager.recover`).  The returned
:class:`RealTimeChannel` is the application-facing handle used to
stamp and send messages.

The manager touches a chip only through its
:class:`~repro.core.connection_table.ControlInterface`, so it runs the
same with or without a data path behind the tables: a
:class:`~repro.network.network.MeshNetwork` hands it its routers'
interfaces, the analytic engine (:mod:`repro.schedulability.engine`)
hands it bare ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.channels.admission import (
    AdmissionController,
    AdmissionError,
    ConnectionLoad,
    HopDescriptor,
    Reservation,
)
from repro.channels.arrival import LogicalArrivalClock
from repro.channels.policing import SourceRegulator
from repro.channels.routing import (
    Hop,
    Node,
    RouteError,
    dimension_ordered_route,
    least_loaded_route,
    multicast_tree,
    multicast_tree_avoiding,
    shortest_route_avoiding,
    tree_parents,
)
from repro.channels.spec import FlowRequirements, TrafficSpec
from repro.core.connection_table import ControlInterface
from repro.core.packet import PacketMeta, TimeConstrainedPacket
from repro.core.params import TC_PAYLOAD_BYTES, RouterParams

_channel_labels = itertools.count()


def channel_label_counter_state() -> int:
    """Next auto-label number to be issued (checkpointing)."""
    global _channel_labels
    value = next(_channel_labels)
    _channel_labels = itertools.count(value)
    return value


def load_channel_label_counter_state(value: int) -> None:
    global _channel_labels
    _channel_labels = itertools.count(int(value))


@dataclass
class RealTimeChannel:
    """An established real-time channel (application handle).

    ``source_connection_id`` is the identifier the host stamps on
    injected packets; the routers rewrite it hop by hop.  ``deadline``
    is the effective end-to-end bound: the sum of per-hop delay bounds
    along the deepest path, which is at most the requested ``D``.
    """

    label: str
    source: Node
    destinations: tuple[Node, ...]
    spec: TrafficSpec
    requirements: FlowRequirements
    source_connection_id: int
    local_delays: list[int]
    deadline: int
    reservation: Reservation
    regulator: SourceRegulator
    table_entries: list[tuple[Node, int]]  # (node, connection id) programmed
    _sequence: int = 0
    #: Set when the channel failed re-admission after a fault and was
    #: demoted to best-effort delivery (guarantees no longer hold).
    degraded: bool = False

    @property
    def jitter_bound(self) -> int:
        """Worst-case delivery-time jitter in ticks.

        A message can arrive as early as its final logical arrival time
        minus the last link's horizon window, and as late as the
        deadline, so the spread is bounded by the final hop's
        ``d + h_prev + d_prev`` (paper section 2's window, applied to
        the destination).  With zero horizons this is the last two
        delay bounds combined; single-hop channels jitter by ``d``.
        """
        hops = self.reservation.hops
        delays = self.reservation.local_delays
        last = len(delays) - 1
        prev_h = hops[last - 1].horizon if last > 0 else 0
        prev_d = delays[last - 1] if last > 0 else 0
        return delays[last] + prev_h + prev_d

    def make_message(
        self, payload: bytes, now_tick: int,
    ) -> tuple[list[TimeConstrainedPacket], int, int]:
        """Package one application message for injection.

        Returns ``(packets, logical_arrival, release_tick)``.  The
        message is fragmented into fixed-size packets sharing the same
        logical arrival time and end-to-end deadline; ``release_tick``
        is the earliest tick the source may inject (rate-based source
        flow control).
        """
        if len(payload) > self.spec.s_max:
            raise ValueError(
                f"message of {len(payload)} bytes exceeds the channel's "
                f"S_max = {self.spec.s_max}"
            )
        arrival, release = self.regulator.admit(now_tick)
        packets: list[TimeConstrainedPacket] = []
        for offset in range(0, max(1, len(payload)), TC_PAYLOAD_BYTES):
            fragment = payload[offset:offset + TC_PAYLOAD_BYTES]
            fragment = fragment.ljust(TC_PAYLOAD_BYTES, b"\x00")
            meta = PacketMeta(
                source=self.source,
                destination=self.destinations[0],
                absolute_deadline=arrival + self.deadline,
                connection_label=self.label,
                sequence=self._sequence,
            )
            packets.append(TimeConstrainedPacket(
                connection_id=self.source_connection_id,
                header_deadline=arrival,  # wrapped by serialisation
                payload=fragment,
                meta=meta,
            ))
            self._sequence += 1
        return packets, arrival, release


class ChannelManager:
    """Connection establishment over a fabric of real-time routers.

    ``controls`` maps every node to its chip's control interface.
    ``width``/``height``/``torus`` describe the mesh the nodes form;
    only the routes picked by search need them (torus establishment,
    :meth:`recover`).
    """

    def __init__(
        self,
        controls: Mapping[Node, ControlInterface],
        admission: Optional[AdmissionController] = None,
        params: Optional[RouterParams] = None,
        *,
        width: Optional[int] = None,
        height: Optional[int] = None,
        torus: bool = False,
    ) -> None:
        if torus and (width is None or height is None):
            raise ValueError("a torus manager needs the mesh dimensions")
        self.controls = controls
        self.params = params or RouterParams()
        self.admission = admission or AdmissionController(self.params)
        self.width, self.height, self.torus = width, height, torus
        self._used_ids: dict[Node, set[int]] = {
            node: set() for node in controls
        }
        self.channels: list[RealTimeChannel] = []
        #: Channels demoted to best-effort after failing re-admission,
        #: keyed by label (their guaranteed-service state is torn down).
        self.degraded_channels: dict[str, RealTimeChannel] = {}

    # -- identifier allocation ---------------------------------------------

    def _allocate_id(self, node: Node) -> int:
        used = self._used_ids[node]
        for cid in range(self.params.connections):
            if cid not in used:
                used.add(cid)
                return cid
        raise AdmissionError(
            f"router {node!r} has no free connection ids",
            reason="connection-ids", node=node,
            demanded=1, available=0,
        )

    def _allocate_common_id(self, nodes: Sequence[Node]) -> int:
        for cid in range(self.params.connections):
            if all(cid not in self._used_ids[node] for node in nodes):
                for node in nodes:
                    self._used_ids[node].add(cid)
                return cid
        raise AdmissionError(
            "no connection id free at every tree node",
            reason="connection-ids", demanded=1, available=0,
        )

    # -- establishment --------------------------------------------------------

    def establish(
        self,
        source: Node,
        destination: Node | Sequence[Node],
        spec: TrafficSpec,
        deadline: int,
        *,
        route: Optional[list[Hop]] = None,
        label: Optional[str] = None,
        adaptive: bool = True,
        failed: Optional[set[Hop]] = None,
    ) -> RealTimeChannel:
        """Create a real-time channel or raise :class:`AdmissionError`.

        ``destination`` may be a single node or a sequence of nodes
        (multicast).  ``route`` overrides route selection for unicast
        channels; see :meth:`unicast_hops` for the default choice and
        for what ``adaptive`` and ``failed`` mean to it.
        """
        requirements = FlowRequirements(deadline=deadline)
        if label is None:
            label = f"channel-{next(_channel_labels)}"
        if isinstance(destination, tuple) and len(destination) == 2 and all(
                isinstance(c, int) for c in destination):
            destinations: tuple[Node, ...] = (destination,)
        else:
            destinations = tuple(destination)
        if len(destinations) == 1:
            return self._establish_unicast(
                source, destinations[0], spec, requirements,
                route=route, label=label, adaptive=adaptive, failed=failed,
            )
        if route is not None:
            raise ValueError("explicit routes only apply to unicast")
        return self._establish_multicast(
            source, destinations, spec, requirements, label=label,
        )

    def unicast_hops(
        self, source: Node, destination: Node, *,
        route: Optional[list[Hop]] = None, adaptive: bool = True,
        failed: Optional[set[Hop]] = None,
    ) -> list[HopDescriptor]:
        """The hops a unicast establishment asks admission for.

        Without an explicit ``route``: on a mesh the least-loaded of
        the two dimension orders (``adaptive=False`` forces x-then-y);
        on a torus the shortest path by breadth-first search, because
        it may cross a wrap link that dimension-ordered construction
        never uses.  Only that search consults ``failed``, the links to
        keep off (default none).
        """
        if route is None:
            if self.torus:
                route = shortest_route_avoiding(
                    self.width, self.height, source, destination,
                    failed=failed or set(), torus=True)
            elif adaptive:
                route = least_loaded_route(self.admission, source,
                                           destination)
            else:
                route = dimension_ordered_route(source, destination)
        for node, __ in route:
            if node not in self.controls:
                raise ValueError(f"route visits unknown node {node!r}")
        return [HopDescriptor(node=node, out_port=port,
                              horizon=self.controls[node].horizons[port])
                for node, port in route]

    def _establish_unicast(
        self, source: Node, destination: Node, spec: TrafficSpec,
        requirements: FlowRequirements, *, route: Optional[list[Hop]],
        label: str, adaptive: bool, failed: Optional[set[Hop]] = None,
    ) -> RealTimeChannel:
        hops = self.unicast_hops(source, destination, route=route,
                                 adaptive=adaptive, failed=failed)
        reservation = self.admission.admit(hops, spec, requirements)
        delays = reservation.local_delays

        # Allocate one id per node and chain them.  The reservation is
        # already committed, so an id shortage must roll it (and any
        # partially allocated ids) back before propagating — otherwise
        # every failed establishment would leak link load and buffers.
        nodes = [hop.node for hop in hops]
        ids: list[int] = []
        try:
            for node in nodes:
                ids.append(self._allocate_id(node))
        except AdmissionError:
            for node, cid in zip(nodes, ids):
                self._used_ids[node].discard(cid)
            self.admission.release(reservation)
            raise
        entries: list[tuple[Node, int]] = []
        for index, hop in enumerate(hops):
            outgoing = ids[index + 1] if index + 1 < len(ids) else 0
            self.controls[hop.node].program_connection(
                incoming_id=ids[index], outgoing_id=outgoing,
                delay=delays[index], port_mask=1 << hop.out_port,
            )
            entries.append((hop.node, ids[index]))
        channel = RealTimeChannel(
            label=label, source=source, destinations=(destination,),
            spec=spec, requirements=requirements,
            source_connection_id=ids[0], local_delays=list(delays),
            deadline=sum(delays), reservation=reservation,
            regulator=SourceRegulator(spec),
            table_entries=entries,
        )
        self.channels.append(channel)
        return channel

    def _establish_multicast(
        self, source: Node, destinations: tuple[Node, ...],
        spec: TrafficSpec, requirements: FlowRequirements, *, label: str,
        tree: Optional[tuple[dict[Node, set[int]], list[Node]]] = None,
    ) -> RealTimeChannel:
        if tree is not None:
            ports_by_node, order = tree
        else:
            ports_by_node, order = multicast_tree(source, list(destinations))
        for node in order:
            if node not in self.controls:
                raise ValueError(f"tree visits unknown node {node!r}")
        parents_map = tree_parents(
            ports_by_node, order,
            (self.width, self.height) if self.torus else None)

        # One hop per (node, out port); all hops at a node share the
        # node's delay bound (hardware stores a single d per entry).
        hops: list[HopDescriptor] = []
        hop_parent: list[int] = []
        node_first_hop: dict[Node, int] = {}
        for node in order:
            for port in sorted(ports_by_node[node]):
                descriptor = HopDescriptor(
                    node=node, out_port=port,
                    horizon=self.controls[node].horizons[port],
                )
                parent_node = parents_map[node]
                parent_index = (
                    node_first_hop[parent_node]
                    if parent_node is not None else -1
                )
                node_first_hop.setdefault(node, len(hops))
                hops.append(descriptor)
                hop_parent.append(parent_index)

        depth = self._tree_depth(order, parents_map)
        d_min = self.admission.hop_overhead + 1
        d_cap = min(spec.i_min, self.params.half_range - 1)
        uniform = min(d_cap, requirements.deadline // depth)
        if uniform < d_min:
            raise AdmissionError(
                f"deadline {requirements.deadline} too tight for a "
                f"depth-{depth} multicast tree",
                reason="deadline-too-tight",
                demanded=d_min * depth, available=requirements.deadline,
            )
        delays = [uniform] * len(hops)
        reservation = self.admission.admit(
            hops, spec, requirements, local_delays=delays,
            parents=hop_parent,
        )

        try:
            common_id = self._allocate_common_id(order)
        except AdmissionError:
            self.admission.release(reservation)
            raise
        entries: list[tuple[Node, int]] = []
        for node in order:
            mask = 0
            for port in ports_by_node[node]:
                mask |= 1 << port
            self.controls[node].program_connection(
                incoming_id=common_id, outgoing_id=common_id,
                delay=uniform, port_mask=mask,
            )
            entries.append((node, common_id))
        channel = RealTimeChannel(
            label=label, source=source, destinations=destinations,
            spec=spec, requirements=requirements,
            source_connection_id=common_id,
            local_delays=[uniform] * depth, deadline=uniform * depth,
            reservation=reservation, regulator=SourceRegulator(spec),
            table_entries=entries,
        )
        self.channels.append(channel)
        return channel

    @staticmethod
    def _tree_depth(order: list[Node],
                    parents_map: dict[Node, Optional[Node]]) -> int:
        depth: dict[Node, int] = {}
        for node in order:
            parent = parents_map[node]
            depth[node] = 1 if parent is None else depth[parent] + 1
        # A packet is delayed once per node on its path (by the link
        # port at interior nodes, by the reception port at leaves), so
        # the deepest delay chain equals the deepest node depth.
        return max(depth.values()) if depth else 1

    # -- horizon management ---------------------------------------------------------

    def reduce_horizon(self, node: Node, port: int, horizon: int) -> int:
        """Lower one output port's horizon register, freeing buffers.

        Paper section 4.1: "the protocol software could reduce a
        port's horizon parameter as more connections are established,
        to free downstream buffer space for reservation by the new
        connections."  Reducing a horizon only ever shrinks the window
        ``h + d_prev + d`` of every connection crossing the link, so
        the change is always safe; this method updates the register,
        recomputes every affected reservation's buffer demand at the
        downstream hop, and releases the difference.  Returns the
        number of packet buffers freed.
        """
        control = self.controls[node]
        current = control.horizons[port]
        if horizon > current:
            raise ValueError(
                "reduce_horizon only lowers a horizon; raising one "
                "requires re-admitting the affected connections"
            )
        if horizon == current:
            return 0
        control.write_horizon(1 << port, horizon)

        freed = 0
        from repro.channels.admission import buffer_bound

        for channel in self.channels:
            reservation = channel.reservation
            if reservation.spec is None or reservation.parents is None:
                continue
            for index, hop in enumerate(reservation.hops):
                parent = reservation.parents[index]
                if parent < 0:
                    continue
                upstream = reservation.hops[parent]
                if upstream.node != node or upstream.out_port != port:
                    continue
                old = reservation.buffers[index][2]
                new = buffer_bound(
                    reservation.spec, horizon,
                    reservation.local_delays[parent],
                    reservation.local_delays[index],
                )
                if new < old:
                    self.admission.node(hop.node).release(
                        hop.out_port, old - new)
                    reservation.buffers[index] = (
                        hop.node, hop.out_port, new)
                    freed += old - new
                # Track the new horizon in the descriptor so later
                # recomputations start from the right value.
                reservation.hops[parent] = HopDescriptor(
                    node=upstream.node, out_port=upstream.out_port,
                    horizon=horizon,
                )
        return freed

    # -- fault recovery -----------------------------------------------------------

    def recover(self, channel: RealTimeChannel,
                failed: set[Hop]) -> RealTimeChannel:
        """Re-establish a channel on a detour around ``failed`` links.

        Fault recovery after a link failure: the shortest surviving
        path — for multicast, a shortest-path tree — is chosen by
        breadth-first search, admitted and programmed *before* the old
        reservations and table entries are torn down, and a fresh
        handle (same label, spec and requirements; regulator state and
        sequence numbers carried over, so logical arrival times stay
        monotone and delivery accounting continuous) is returned.
        Raises :class:`~repro.channels.routing.RouteError` naming the
        channel when no surviving path exists and
        :class:`AdmissionError` when the detour fails admission; the
        old channel is left intact in both cases.
        """
        if channel not in self.channels:
            raise ValueError("channel is not managed by this manager")
        if self.width is None or self.height is None:
            raise ValueError(
                "recover searches the mesh for a detour; build the "
                "manager with its width and height")
        if len(channel.destinations) > 1:
            try:
                tree = multicast_tree_avoiding(
                    self.width, self.height, channel.source,
                    list(channel.destinations), failed=failed,
                    torus=self.torus)
            except RouteError as exc:
                raise RouteError(
                    f"cannot recover multicast channel {channel.label!r}: "
                    f"{exc}"
                ) from exc
            replacement = self._establish_multicast(
                channel.source, channel.destinations, channel.spec,
                channel.requirements, label=channel.label, tree=tree)
        else:
            try:
                route = shortest_route_avoiding(
                    self.width, self.height, channel.source,
                    channel.destinations[0], failed=failed,
                    torus=self.torus)
            except RouteError as exc:
                raise RouteError(
                    f"cannot recover channel {channel.label!r}: no "
                    f"surviving path from {channel.source!r} to "
                    f"{channel.destinations[0]!r}"
                ) from exc
            replacement = self._establish_unicast(
                channel.source, channel.destinations[0], channel.spec,
                channel.requirements, route=route, label=channel.label,
                adaptive=False)
        replacement.regulator = channel.regulator
        replacement._sequence = channel._sequence
        self.teardown(channel)
        return replacement

    def degrade(self, channel: RealTimeChannel) -> RealTimeChannel:
        """Demote a channel to best-effort delivery.

        Called when no replacement route passes admission: the
        guaranteed-service state (tables, reservations) is released and
        the handle is flagged ``degraded`` and kept in
        :attr:`degraded_channels` so the network layer can fall back to
        best-effort wormhole delivery for subsequent sends.
        """
        if channel not in self.channels:
            raise ValueError("channel is not managed by this manager")
        self.teardown(channel)
        channel.degraded = True
        self.degraded_channels[channel.label] = channel
        return channel

    def find(self, label: str) -> Optional[RealTimeChannel]:
        """Current handle for a channel label (live first, then degraded).

        Rerouting replaces channel handles; applications that captured
        a handle before a fault resolve the live one through its label.
        """
        for channel in self.channels:
            if channel.label == label:
                return channel
        return self.degraded_channels.get(label)

    # -- checkpointing -----------------------------------------------------------

    @staticmethod
    def _channel_state(channel: RealTimeChannel) -> dict:
        reservation = channel.reservation
        return {
            "label": channel.label,
            "source": list(channel.source),
            "destinations": [list(d) for d in channel.destinations],
            "spec": [channel.spec.i_min, channel.spec.s_max,
                     channel.spec.b_max],
            "deadline_requirement": channel.requirements.deadline,
            "source_connection_id": channel.source_connection_id,
            "local_delays": list(channel.local_delays),
            "deadline": channel.deadline,
            "reservation": {
                "hops": [[list(h.node), h.out_port, h.horizon]
                         for h in reservation.hops],
                "local_delays": list(reservation.local_delays),
                "loads": [[l.packets, l.i_min, l.b_max, l.deadline]
                          for l in reservation.loads],
                "buffers": [[list(node), port, packets]
                            for node, port, packets
                            in reservation.buffers],
                "spec": (None if reservation.spec is None
                         else [reservation.spec.i_min,
                               reservation.spec.s_max,
                               reservation.spec.b_max]),
                "parents": (None if reservation.parents is None
                            else list(reservation.parents)),
            },
            "regulator": channel.regulator.state(),
            "table_entries": [[list(node), cid]
                              for node, cid in channel.table_entries],
            "sequence": channel._sequence,
            "degraded": channel.degraded,
        }

    @staticmethod
    def _load_channel(state: dict) -> RealTimeChannel:
        spec = TrafficSpec(*state["spec"])
        res = state["reservation"]
        reservation = Reservation(
            hops=[HopDescriptor(node=tuple(node), out_port=port,
                                horizon=horizon)
                  for node, port, horizon in res["hops"]],
            local_delays=[int(d) for d in res["local_delays"]],
            loads=[ConnectionLoad(packets=p, i_min=i, b_max=b, deadline=d)
                   for p, i, b, d in res["loads"]],
            buffers=[(tuple(node), port, packets)
                     for node, port, packets in res["buffers"]],
            spec=None if res["spec"] is None else TrafficSpec(*res["spec"]),
            parents=(None if res["parents"] is None
                     else [int(p) for p in res["parents"]]),
        )
        regulator = SourceRegulator(spec)
        regulator.load_state(state["regulator"])
        channel = RealTimeChannel(
            label=state["label"],
            source=tuple(state["source"]),
            destinations=tuple(tuple(d) for d in state["destinations"]),
            spec=spec,
            requirements=FlowRequirements(
                deadline=state["deadline_requirement"]),
            source_connection_id=state["source_connection_id"],
            local_delays=[int(d) for d in state["local_delays"]],
            deadline=int(state["deadline"]),
            reservation=reservation,
            regulator=regulator,
            table_entries=[(tuple(node), cid)
                           for node, cid in state["table_entries"]],
            _sequence=int(state["sequence"]),
            degraded=bool(state["degraded"]),
        )
        return channel

    def state(self) -> dict:
        """Checkpoint state: channel handles are serialised in full —
        chaos runs reroute, degrade and tear channels down mid-run, so
        replaying establishment cannot reproduce this state."""
        return {
            "channel_labels": channel_label_counter_state(),
            "used_ids": [[list(node), sorted(ids)]
                         for node, ids in sorted(self._used_ids.items())],
            "channels": [self._channel_state(c) for c in self.channels],
            "degraded_channels": [self._channel_state(c)
                                  for c in self.degraded_channels.values()],
        }

    def load_state(self, state: dict) -> None:
        """Restore channel software on a fabric whose router tables are
        restored separately (the channels are *not* re-programmed)."""
        load_channel_label_counter_state(state["channel_labels"])
        for ids in self._used_ids.values():
            ids.clear()
        for node, ids in state["used_ids"]:
            self._used_ids[tuple(node)] = {int(cid) for cid in ids}
        self.channels = [self._load_channel(s) for s in state["channels"]]
        self.degraded_channels = {
            channel.label: channel
            for channel in (self._load_channel(s)
                            for s in state["degraded_channels"])
        }

    # -- teardown ----------------------------------------------------------------

    def teardown(self, channel: RealTimeChannel) -> None:
        """Release a channel: tables invalidated, resources freed."""
        if channel not in self.channels:
            raise ValueError("channel is not managed by this manager")
        for node, cid in channel.table_entries:
            self.controls[node].table.invalidate(cid)
            self._used_ids[node].discard(cid)
        self.admission.release(channel.reservation)
        self.channels.remove(channel)

    def teardown_label(self, label: str) -> bool:
        """Tear down the live channel named ``label``, if any.

        Returns ``True`` when a live channel was found and released.
        A label that only exists in :attr:`degraded_channels` has no
        guaranteed-service state left to release; use
        :meth:`forget_degraded` to drop the handle itself.
        """
        for channel in self.channels:
            if channel.label == label:
                self.teardown(channel)
                return True
        return False

    def forget_degraded(self, label: str) -> bool:
        """Drop a degraded channel handle (its state is already freed).

        Long-running services retire demoted channels when their flows
        end; without this the degraded table would grow without bound.
        """
        return self.degraded_channels.pop(label, None) is not None
