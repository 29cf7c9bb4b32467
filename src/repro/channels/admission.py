"""Admission control for real-time channels (paper sections 2 and 4.1).

Admitting a connection is the computationally heavy, non-real-time part
of the system that the chip deliberately leaves to protocol software.
This module implements it:

* **Link schedulability** — every link a connection crosses runs
  earliest-due-date scheduling over logical arrival times, so the
  admission test is the classical EDF demand-bound criterion applied to
  the link as a unit-rate server: in any busy interval of length ``t``,
  the packet slots demanded by messages whose deadlines fall inside the
  interval must not exceed ``t``.
* **Buffer reservation** — a connection needs at most
  ``ceil((h_prev + d_prev + d_j) / i_min) + (b_max - 1)`` message
  buffers at hop ``j`` (paper section 2); the sum of reservations at a
  node must fit its packet memory (optionally partitioned per output
  link, section 3.4).
* **Delay decomposition** — the end-to-end bound ``D`` is split into
  per-hop bounds ``d_j <= i_min`` that also respect the clock-rollover
  half-range condition (section 4.3).

All times are in scheduler ticks (packet transmission times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.channels.spec import FlowRequirements, TrafficSpec
from repro.core.params import RouterParams


class AdmissionError(RuntimeError):
    """The network cannot accept the requested connection.

    Beyond the human-readable message, the error carries a structured
    rejection reason so admission outcomes can be tallied and reported
    (service SLO reports, campaign aggregation) without parsing text:

    ``reason``
        A stable kebab-case slug naming the failed check (e.g.
        ``link-schedulability``, ``buffer-capacity``,
        ``connection-ids``, ``deadline-too-tight``).
    ``node`` / ``port``
        Where the check failed, when it is localised to one router or
        one output link (``None`` for network-wide conditions).
    ``demanded`` / ``available``
        What the connection asked for versus what was left, in the
        failed check's own unit (packet buffers, utilisation,
        connection ids, ticks of deadline budget).
    """

    def __init__(self, message: str, *, reason: str = "unspecified",
                 node: object = None, port: Optional[int] = None,
                 demanded: object = None,
                 available: object = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.node = node
        self.port = port
        self.demanded = demanded
        self.available = available

    def details(self) -> dict:
        """The rejection as a canonical JSON-serialisable dict."""
        node = self.node
        if isinstance(node, tuple):
            node = list(node)
        return {
            "reason": self.reason,
            "message": str(self),
            "node": node,
            "port": self.port,
            "demanded": self.demanded,
            "available": self.available,
        }


#: Fixed per-hop latency margin (ticks) reserved out of each local
#: delay bound to cover store-and-forward transmission, the internal
#: bus, and the scheduler pipeline of the cycle-accurate router.
DEFAULT_HOP_OVERHEAD_TICKS = 2


@dataclass(frozen=True)
class ConnectionLoad:
    """One connection's demand as seen by a single link."""

    packets: int        # packet slots per message
    i_min: int          # message spacing, ticks
    b_max: int          # burst allowance, messages
    deadline: int       # local delay bound d at this link, ticks

    @property
    def utilisation(self) -> float:
        return self.packets / self.i_min

    def demand(self, interval: int) -> int:
        """EDF demand bound: slots due within a busy interval.

        Worst case, ``b_max`` messages arrive together at the start of
        the interval and the rest follow every ``i_min`` ticks; a
        message contributes once the interval reaches its deadline.
        """
        if interval < self.deadline:
            return 0
        return self.packets * (
            self.b_max + (interval - self.deadline) // self.i_min
        )

    def arrivals(self, interval: int) -> int:
        """Arrival bound: slots that can arrive in the interval."""
        if interval <= 0:
            return 0
        return self.packets * (self.b_max + interval // self.i_min)


class _Changes:
    """How many reservation changes the schedules and accounts sharing
    it have made.  It refers to none of them, so a controller that is
    dropped is freed at once, not left to the cycle collector."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class LinkSchedule:
    """Reserved state of one unidirectional link.

    Every :meth:`add` and :meth:`remove` counts one change in
    ``changes`` (an :class:`AdmissionController` shares one among all
    its schedules and accounts).
    """

    def __init__(self, changes: Optional[_Changes] = None) -> None:
        self.loads: list[ConnectionLoad] = []
        self.changes = changes if changes is not None else _Changes()

    @property
    def utilisation(self) -> float:
        return sum(load.utilisation for load in self.loads)

    def _busy_period(self, loads: list[ConnectionLoad]) -> Optional[int]:
        """Fixed point of the arrival bound; None when overloaded."""
        if sum(load.utilisation for load in loads) >= 1.0 + 1e-12:
            return None
        length = max(1, sum(load.packets * load.b_max for load in loads))
        for _ in range(10_000):
            arrivals = sum(load.arrivals(length) for load in loads)
            if arrivals <= length:
                return length
            length = arrivals
        return None

    def feasible_with(self, candidate: Optional[ConnectionLoad]) -> bool:
        """EDF demand-bound test with an optional additional load."""
        loads = self.loads + ([candidate] if candidate is not None else [])
        if not loads:
            return True
        horizon = self._busy_period(loads)
        if horizon is None:
            return False
        checkpoints: set[int] = set()
        for load in loads:
            t = load.deadline
            while t <= horizon:
                checkpoints.add(t)
                t += load.i_min
        return all(
            sum(load.demand(t) for load in loads) <= t
            for t in sorted(checkpoints)
        )

    def add(self, load: ConnectionLoad) -> None:
        self.loads.append(load)
        self.changes.count += 1

    def remove(self, load: ConnectionLoad) -> None:
        self.loads.remove(load)
        self.changes.count += 1


class NodeBuffers:
    """Packet-buffer reservations at one router.

    The packet memory is physically shared by the output links; the
    protocol software may *logically partition* it by handing each
    output link a quota, or leave it fully shared (``quotas=None``),
    trading isolation against admissibility (paper section 3.4).
    Every :meth:`reserve` and :meth:`release` counts one change in
    ``changes``.
    """

    def __init__(self, capacity: int,
                 quotas: Optional[dict[int, int]] = None,
                 changes: Optional[_Changes] = None) -> None:
        self.capacity = capacity
        self.quotas = quotas
        self.reserved_total = 0
        self.reserved_per_port: dict[int, int] = {}
        self.changes = changes if changes is not None else _Changes()

    def feasible_with(self, port: int, packets: int) -> bool:
        if self.reserved_total + packets > self.capacity:
            return False
        if self.quotas is not None:
            quota = self.quotas.get(port, self.capacity)
            if self.reserved_per_port.get(port, 0) + packets > quota:
                return False
        return True

    def available(self, port: int) -> int:
        """Packet buffers still reservable on ``port`` at this node."""
        free = self.capacity - self.reserved_total
        if self.quotas is not None:
            quota = self.quotas.get(port, self.capacity)
            free = min(free, quota - self.reserved_per_port.get(port, 0))
        return free

    def reserve(self, port: int, packets: int) -> None:
        if not self.feasible_with(port, packets):
            raise AdmissionError(
                "buffer reservation exceeded capacity",
                reason="buffer-capacity", port=port,
                demanded=packets, available=self.available(port),
            )
        self.reserved_total += packets
        self.reserved_per_port[port] = (
            self.reserved_per_port.get(port, 0) + packets
        )
        self.changes.count += 1

    def release(self, port: int, packets: int) -> None:
        self.reserved_total -= packets
        self.reserved_per_port[port] -= packets
        self.changes.count += 1
        if self.reserved_total < 0 or self.reserved_per_port[port] < 0:
            raise RuntimeError("buffer release exceeded reservation")


def buffer_bound(spec: TrafficSpec, upstream_horizon: int,
                 upstream_delay: int, local_delay: int) -> int:
    """Packet buffers one connection needs at a node (paper section 2).

    A message can arrive up to ``h_prev + d_prev`` ticks before its
    logical arrival time and may stay until its local deadline
    ``d_j`` after it, so up to
    ``ceil((h_prev + d_prev + d_j) / i_min)`` periodic messages — plus
    the burst allowance — can coexist.
    """
    window = upstream_horizon + upstream_delay + local_delay
    messages = math.ceil(window / spec.i_min) + (spec.b_max - 1)
    return max(1, messages) * spec.packets_per_message


@dataclass(frozen=True)
class HopDescriptor:
    """One hop of a route, as admission control sees it.

    ``node`` identifies the router; ``out_port`` the output link the
    connection uses there (the reception port on the final hop);
    ``horizon`` the horizon register of that output port.
    """

    node: Hashable
    out_port: int
    horizon: int = 0


@dataclass
class Reservation:
    """Everything reserved for one admitted connection (for teardown)."""

    hops: list[HopDescriptor]
    local_delays: list[int]
    loads: list[ConnectionLoad]
    buffers: list[tuple[Hashable, int, int]]  # (node, port, packets)
    spec: Optional[TrafficSpec] = None
    parents: Optional[list[int]] = None


class AdmissionController:
    """Network-wide admission control and resource accounting.

    One instance serves a whole fabric: it tracks per-link EDF load and
    per-node buffer reservations, decomposes end-to-end deadlines, and
    either admits (reserving everything) or raises
    :class:`AdmissionError` leaving no residue.

    :attr:`generation` counts the reservation changes (every link load
    added or removed, every buffer reserved or released, every
    :meth:`load_state`); :meth:`occupancy` is recomputed only when it
    has moved.
    """

    def __init__(self, params: Optional[RouterParams] = None, *,
                 hop_overhead: int = DEFAULT_HOP_OVERHEAD_TICKS,
                 buffer_quotas: Optional[dict[int, int]] = None) -> None:
        self.params = params or RouterParams()
        self.hop_overhead = hop_overhead
        self.buffer_quotas = buffer_quotas
        self._links: dict[tuple[Hashable, int], LinkSchedule] = {}
        self._nodes: dict[Hashable, NodeBuffers] = {}
        self._changes = _Changes()
        #: (generation, summary) of the last :meth:`occupancy` computed.
        self._occupancy: tuple[int, dict] = (-1, {})

    @property
    def generation(self) -> int:
        """Reservation changes made so far."""
        return self._changes.count

    # -- state accessors --------------------------------------------------

    def link(self, node: Hashable, port: int) -> LinkSchedule:
        return self._links.setdefault((node, port),
                                      LinkSchedule(self._changes))

    def node(self, node: Hashable) -> NodeBuffers:
        return self._nodes.setdefault(
            node,
            NodeBuffers(self.params.tc_packet_slots, self.buffer_quotas,
                        self._changes),
        )

    # -- delay decomposition ------------------------------------------------

    def decompose_deadline(
        self, hops: list[HopDescriptor], spec: TrafficSpec,
        requirements: FlowRequirements,
    ) -> list[int]:
        """Split ``D`` into per-hop bounds honouring every constraint.

        Starts from an even split capped by ``i_min`` and the rollover
        half-range, then gives any remaining budget to links whose EDF
        test fails (a larger local deadline only ever helps EDF).
        """
        count = len(hops)
        if count == 0:
            raise AdmissionError("route has no hops", reason="empty-route")
        d_min = self.hop_overhead + 1
        d_cap = min(spec.i_min, self.params.half_range - 1)
        for hop in hops:
            d_cap = min(d_cap,
                        self.params.half_range - 1 - hop.horizon)
        if d_cap < d_min:
            raise AdmissionError(
                f"no feasible local delay bound: need at least {d_min} "
                f"ticks but caps allow only {d_cap}",
                reason="delay-caps", demanded=d_min, available=d_cap,
            )
        base = min(d_cap, requirements.deadline // count)
        if base < d_min:
            raise AdmissionError(
                f"end-to-end deadline {requirements.deadline} too tight "
                f"for a {count}-hop route (minimum {d_min * count})",
                reason="deadline-too-tight",
                demanded=d_min * count, available=requirements.deadline,
            )
        delays = [base] * count
        # Distribute leftover budget to hops with the most contended
        # links, up to the cap.
        slack = requirements.deadline - base * count
        if slack > 0 and base < d_cap:
            order = sorted(
                range(count),
                key=lambda i: -self.link(hops[i].node,
                                         hops[i].out_port).utilisation,
            )
            for index in order:
                if slack == 0:
                    break
                extra = min(d_cap - delays[index], slack)
                delays[index] += extra
                slack -= extra
        return delays

    # -- admission -----------------------------------------------------------

    def admit(self, hops: list[HopDescriptor], spec: TrafficSpec,
              requirements: FlowRequirements,
              local_delays: Optional[list[int]] = None,
              parents: Optional[list[int]] = None) -> Reservation:
        """Admit a connection along ``hops`` or raise AdmissionError.

        ``hops`` is linear by default; multicast trees pass ``parents``
        (the index of each hop's upstream hop, ``-1`` at the source) so
        buffer bounds use the right upstream delay and horizon.  On
        success every link and buffer reservation is recorded and a
        :class:`Reservation` is returned for later :meth:`release`.
        """
        if local_delays is None:
            local_delays = self.decompose_deadline(hops, spec, requirements)
        if len(local_delays) != len(hops):
            raise ValueError("one local delay bound per hop required")
        if parents is None:
            parents = list(range(-1, len(hops) - 1))
        if len(parents) != len(hops):
            raise ValueError("one parent index per hop required")
        # The end-to-end bound must hold along every root-to-leaf path.
        depth_delay = [0] * len(hops)
        for index, parent in enumerate(parents):
            upstream = depth_delay[parent] if parent >= 0 else 0
            depth_delay[index] = upstream + local_delays[index]
        if max(depth_delay) > requirements.deadline:
            raise AdmissionError(
                "local delay bounds exceed the deadline",
                reason="deadline-too-tight",
                demanded=max(depth_delay), available=requirements.deadline,
            )
        for delay, hop in zip(local_delays, hops):
            if delay <= self.hop_overhead:
                raise AdmissionError(
                    f"local delay bound {delay} leaves no slack over the "
                    f"per-hop overhead ({self.hop_overhead} ticks)",
                    reason="hop-overhead", node=hop.node, port=hop.out_port,
                    demanded=self.hop_overhead + 1, available=delay,
                )
            if delay > spec.i_min:
                raise AdmissionError(
                    "local delay bounds must not exceed i_min",
                    reason="delay-exceeds-imin", node=hop.node,
                    port=hop.out_port, demanded=delay, available=spec.i_min,
                )
            if (delay >= self.params.half_range
                    or hop.horizon + delay >= self.params.half_range):
                raise AdmissionError(
                    "delay/horizon violates the rollover half-range rule",
                    reason="rollover", node=hop.node, port=hop.out_port,
                    demanded=hop.horizon + delay,
                    available=self.params.half_range - 1,
                )

        # Phase 1: check everything without reserving.
        loads: list[ConnectionLoad] = []
        for hop, delay in zip(hops, local_delays):
            load = ConnectionLoad(
                packets=spec.packets_per_message, i_min=spec.i_min,
                b_max=spec.b_max,
                deadline=delay - self.hop_overhead,
            )
            schedule = self.link(hop.node, hop.out_port)
            if not schedule.feasible_with(load):
                raise AdmissionError(
                    f"link at {hop.node!r} port {hop.out_port} cannot "
                    "meet the deadline for the new connection",
                    reason="link-schedulability",
                    node=hop.node, port=hop.out_port,
                    demanded=round(load.utilisation, 6),
                    available=round(max(0.0, 1.0 - schedule.utilisation), 6),
                )
            loads.append(load)

        buffers: list[tuple[Hashable, int, int]] = []
        for index, (hop, delay) in enumerate(zip(hops, local_delays)):
            parent = parents[index]
            prev_horizon = hops[parent].horizon if parent >= 0 else 0
            prev_delay = local_delays[parent] if parent >= 0 else 0
            packets = buffer_bound(spec, prev_horizon, prev_delay, delay)
            node_buffers = self.node(hop.node)
            if not node_buffers.feasible_with(hop.out_port, packets):
                raise AdmissionError(
                    f"node {hop.node!r} lacks buffer space for the "
                    "new connection",
                    reason="buffer-capacity",
                    node=hop.node, port=hop.out_port, demanded=packets,
                    available=node_buffers.available(hop.out_port),
                )
            buffers.append((hop.node, hop.out_port, packets))

        # Phase 2: commit.
        for hop, load in zip(hops, loads):
            self.link(hop.node, hop.out_port).add(load)
        for node, port, packets in buffers:
            self.node(node).reserve(port, packets)
        return Reservation(hops=list(hops), local_delays=list(local_delays),
                           loads=loads, buffers=buffers, spec=spec,
                           parents=list(parents))

    def release(self, reservation: Reservation) -> None:
        """Tear down a connection's reservations."""
        for hop, load in zip(reservation.hops, reservation.loads):
            self.link(hop.node, hop.out_port).remove(load)
        for node, port, packets in reservation.buffers:
            self.node(node).release(port, packets)

    def shrink_buffers(self, reservation: Reservation, index: int,
                       packets: int) -> int:
        """Lower hop ``index``'s buffer reservation to ``packets`` (a
        reduced upstream horizon shrank its window) and return the
        packet buffers freed; a larger ``packets`` changes nothing."""
        node, port, held = reservation.buffers[index]
        if packets >= held:
            return 0
        self.node(node).release(port, held - packets)
        reservation.buffers[index] = (node, port, packets)
        return held - packets

    # -- checkpointing ----------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state: every link schedule and buffer account.

        Loads are stored by value; :meth:`LinkSchedule.remove` works by
        value equality, so reservations restored elsewhere (channel
        handles) release cleanly against the rebuilt schedules.
        """
        return {
            "links": [
                [list(node), port,
                 [[load.packets, load.i_min, load.b_max, load.deadline]
                  for load in schedule.loads]]
                for (node, port), schedule in sorted(self._links.items())
            ],
            "nodes": [
                [list(node), buffers.reserved_total,
                 [[port, packets] for port, packets in sorted(
                     buffers.reserved_per_port.items())]]
                for node, buffers in sorted(self._nodes.items())
            ],
        }

    def load_state(self, state: dict) -> None:
        self._links.clear()
        for node, port, loads in state["links"]:
            schedule = self.link(tuple(node), port)
            schedule.loads = [
                ConnectionLoad(packets=packets, i_min=i_min, b_max=b_max,
                               deadline=deadline)
                for packets, i_min, b_max, deadline in loads
            ]
        self._nodes.clear()
        for node, total, per_port in state["nodes"]:
            buffers = self.node(tuple(node))
            buffers.reserved_total = int(total)
            buffers.reserved_per_port = {
                int(port): int(packets) for port, packets in per_port
            }
        self._changes.count += 1

    # -- reporting -------------------------------------------------------------

    def link_utilisation(self, node: Hashable, port: int) -> float:
        return self.link(node, port).utilisation

    def node_buffer_usage(self, node: Hashable) -> int:
        return self.node(node).reserved_total

    def occupancy(self) -> dict:
        """Network-wide occupancy summary for threshold decisions.

        ``max_link_utilisation``/``mean_link_utilisation`` summarise
        only *loaded* links (a link that never carried a connection is
        not an observation), ``max_buffer_fill`` is the highest node
        packet-memory fill fraction, and the counts say how much of the
        fabric the maxima were taken over.  Recomputed only after a
        reservation change; each call returns a dict of its own.
        """
        generation, summary = self._occupancy
        if generation != self.generation:
            summary = self._measure_occupancy()
            self._occupancy = (self.generation, summary)
        return dict(summary)

    def _measure_occupancy(self) -> dict:
        """:meth:`occupancy` computed from every schedule and account."""
        link_utils = [schedule.utilisation
                      for schedule in self._links.values()
                      if schedule.loads]
        capacity = self.params.tc_packet_slots
        fills = [buffers.reserved_total / capacity
                 for buffers in self._nodes.values()
                 if buffers.reserved_total]
        return {
            "max_link_utilisation": max(link_utils, default=0.0),
            "mean_link_utilisation": (
                sum(link_utils) / len(link_utils) if link_utils else 0.0
            ),
            "links_loaded": len(link_utils),
            "max_buffer_fill": max(fills, default=0.0),
            "buffers_reserved": sum(
                buffers.reserved_total for buffers in self._nodes.values()
            ),
        }
