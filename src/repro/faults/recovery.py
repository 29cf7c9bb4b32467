"""Automatic failure recovery: reroute, retransmit, degrade.

The :class:`RecoveryController` is the software layer that turns
detection events into repair actions:

* **Reroute** — on a ``link-failed`` / ``link-dead`` event, every
  channel whose reservation crosses a dead link is re-established on a
  surviving path (unicast) or shortest-path tree (multicast), with
  admission control re-run on the detour.  A channel whose detour
  fails admission — or that has no surviving path — is *degraded*:
  demoted to best-effort delivery with its ``degraded`` flag set.
* **Retransmit** — time-constrained messages are remembered in a
  bounded source-side buffer keyed by ``(label, sequence)``; a message
  none of whose copies was delivered by its deadline (plus margin) is
  re-sent with exponential backoff, up to a retry limit.
* **Drain and retry** — best-effort packets are tracked by packet id;
  a packet overdue whose planned path crosses a known-dead link is
  presumed eaten by the fault (its stalled worm is drained by the
  network's drain mode) and re-sent end-to-end, relayed around the
  dead links through intermediate hosts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.channels.admission import AdmissionError
from repro.channels.routing import RouteError, dimension_ordered_route
from repro.core.ports import RECEPTION
from repro.faults.injector import BABBLE_LABEL
from repro.network.events import LINK_REPAIRED, LinkEvent
from repro.observability.trace import RETRANSMIT

Node = tuple[int, int]
Link = tuple[Node, int]


@dataclass
class _TrackedMessage:
    """One time-constrained message awaiting delivery confirmation."""

    label: str
    payload: bytes
    #: Sequence-number sets, one per send attempt; the message is
    #: confirmed when every destination received all fragments of
    #: some attempt (multicast: each subscriber confirms separately —
    #: one subscriber's copy must not confirm for the others).
    attempts_seqs: list[set[int]]
    destinations: tuple[Node, ...]
    next_check_cycle: int
    retries: int = 0


@dataclass
class _TrackedBestEffort:
    """One best-effort packet awaiting delivery confirmation."""

    source: Node
    destination: Node
    payload: bytes
    label: Optional[str]
    sequence: Optional[int]
    packet_ids: list[int]
    path_links: set[Link]
    next_check_cycle: int
    retries: int = 0


def _route_links(route) -> set[Link]:
    return {(node, port) for node, port in route if port != RECEPTION}


class RecoveryController:
    """Subscribes to link events and keeps traffic flowing around them."""

    def __init__(
        self,
        network,
        *,
        retransmit_limit: int = 4,
        retransmit_buffer: int = 128,
        tc_margin_ticks: int = 8,
        be_timeout_cycles: Optional[int] = None,
        be_retry_limit: int = 3,
    ) -> None:
        self.network = network
        self.manager = network.manager
        self.retransmit_limit = retransmit_limit
        self.retransmit_buffer = retransmit_buffer
        self.tc_margin_ticks = tc_margin_ticks
        self.be_timeout_cycles = (
            be_timeout_cycles if be_timeout_cycles is not None
            else 40 * network.params.slot_cycles
        )
        self.be_retry_limit = be_retry_limit
        #: Links software knows are dead (announced or detected).
        #: Kept in lock-step with ``network.routing_avoid``.
        self.dead_links: set[Link] = set(network.routing_avoid)

        self._messages: deque[_TrackedMessage] = deque()
        self._be_packets: deque[_TrackedBestEffort] = deque()
        #: (label, sequence, delivered_node) triples — per-node, so a
        #: multicast message is only confirmed at subscribers that
        #: actually received it.
        self._delivered_tc: set[tuple[str, int, object]] = set()
        self._delivered_be_ids: set[int] = set()
        self._log_index = 0
        #: Set while the controller itself re-sends, so the send hooks
        #: append to the existing ledger entry instead of opening a
        #: fresh one (which would retry the retry).
        self._resending_tc: Optional[_TrackedMessage] = None
        self._resending_be = False
        #: Memoized earliest ``next_check_cycle`` over all tracked
        #: entries.  Timers only change inside :meth:`step` and the
        #: send hooks, which set the dirty flag; the event scheduler
        #: requeries watchers every executed cycle, so the recompute
        #: must not be O(pending) each time.
        self._timer_bound: Optional[int] = None
        self._timer_dirty = True

        network.events.subscribe(self._on_event)
        network.tc_send_hooks.append(self._on_tc_send)
        network.be_send_hooks.append(self._on_be_send)

    # -- event handling -----------------------------------------------------

    def _on_event(self, event: LinkEvent) -> None:
        if event.kind == LINK_REPAIRED:
            self.dead_links.discard(event.link)
            self.network.routing_avoid.discard(event.link)
            return
        if event.link in self.dead_links:
            return
        self.dead_links.add(event.link)
        self.network.routing_avoid.add(event.link)
        if event.link in self.network.failed_links:
            # Known dead: let stalled wormhole traffic drain out of the
            # fabric instead of blocking its whole path forever.
            self.network.set_link_draining(*event.link)
        self._recover_channels()

    def _recover_channels(self) -> None:
        for channel in list(self.manager.channels):
            if not self._uses_dead_link(channel):
                continue
            try:
                self.network.recover_channel(channel,
                                             failed=self.dead_links)
                self.network.fault_stats.channels_rerouted += 1
            except (RouteError, AdmissionError):
                self.manager.degrade(channel)
                self.network.fault_stats.channels_degraded += 1

    def _uses_dead_link(self, channel) -> bool:
        return any((hop.node, hop.out_port) in self.dead_links
                   for hop in channel.reservation.hops)

    # -- send tracking ------------------------------------------------------

    def _on_tc_send(self, channel, packets, payload: bytes) -> None:
        self._timer_dirty = True
        seqs = {p.meta.sequence for p in packets}
        slot = self.network.params.slot_cycles
        if self._resending_tc is not None:
            entry = self._resending_tc
            # Stamp each re-sent fragment with the *original* attempt's
            # sequence number: retransmission draws fresh sequences, so
            # without this link a re-sent copy reaching an
            # already-delivered destination (multicast: only one
            # subscriber missed it) would be counted as a brand-new
            # delivery by the stats layer.
            original = sorted(entry.attempts_seqs[0])
            resent = sorted(packets, key=lambda p: p.meta.sequence)
            for packet, orig_seq in zip(resent, original):
                packet.meta.retransmit_of = orig_seq
            entry.attempts_seqs.append(seqs)
            resend_deadlines = [p.meta.absolute_deadline for p in packets
                                if p.meta.absolute_deadline is not None]
            if resend_deadlines:
                entry.next_check_cycle = max(
                    entry.next_check_cycle,
                    (max(resend_deadlines) + self.tc_margin_ticks) * slot,
                )
            return
        # Judge lateness against the message's *absolute* deadline: the
        # regulator releases at the logical arrival tick, which can run
        # ahead of real time when the channel is backlogged — a timeout
        # measured from "now" would retransmit messages that are merely
        # still held at the source.
        deadlines = [p.meta.absolute_deadline for p in packets
                     if p.meta.absolute_deadline is not None]
        if deadlines:
            check = (max(deadlines) + self.tc_margin_ticks) * slot
        else:
            check = self.network.cycle \
                + (channel.deadline + self.tc_margin_ticks) * slot
        self._messages.append(_TrackedMessage(
            label=channel.label, payload=payload, attempts_seqs=[seqs],
            destinations=tuple(channel.destinations),
            next_check_cycle=max(check, self.network.cycle + slot),
        ))
        while len(self._messages) > self.retransmit_buffer:
            self._messages.popleft()  # bounded source-side buffer

    def _on_be_send(self, packet) -> None:
        self._timer_dirty = True
        meta = packet.meta
        if (meta.connection_label == BABBLE_LABEL or self._resending_be
                or self._resending_tc is not None):
            return
        width, height = self.network.mesh.width, self.network.mesh.height
        first_hop = ((meta.source[0] + packet.x_offset) % width,
                     (meta.source[1] + packet.y_offset) % height)
        waypoints = [first_hop, *meta.relay_path]
        path_links: set[Link] = set()
        leg_start = meta.source
        for waypoint in waypoints:
            path_links |= _route_links(
                dimension_ordered_route(leg_start, waypoint))
            leg_start = waypoint
        self._be_packets.append(_TrackedBestEffort(
            source=meta.source, destination=meta.destination,
            payload=packet.payload, label=meta.connection_label,
            sequence=meta.sequence, packet_ids=[meta.packet_id],
            path_links=path_links,
            next_check_cycle=self.network.cycle + self.be_timeout_cycles,
        ))
        while len(self._be_packets) > self.retransmit_buffer:
            self._be_packets.popleft()

    # -- per-cycle work -----------------------------------------------------

    def step(self, cycle: int) -> None:
        # Stepping can retire entries or push their timers out.
        self._timer_dirty = True
        self._ingest_log()
        if self._messages:
            self._check_tc(cycle)
        if self._be_packets:
            self._check_be(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract (see ``docs/performance.md``).

        The controller's scheduled work is its retransmission timers.
        With no tracked traffic there is nothing to do; with unread
        delivery records it must run now (a confirmation could retire a
        pending entry this cycle, exactly as in the per-cycle loop);
        otherwise it sleeps until the earliest timeout check.  New
        deliveries only appear on cycles where a router is active, so
        this verdict is stable across a quiescent span.  The timer
        minimum is memoized: timers only change inside :meth:`step`,
        the send hooks and :meth:`load_state`, all of which set the
        dirty flag, so the event scheduler's per-cycle watcher requery
        stays O(1).
        """
        if not self._messages and not self._be_packets:
            return None
        if len(self.network.log.records) > self._log_index:
            return cycle
        if self._timer_dirty:
            self._timer_bound = min(
                entry.next_check_cycle
                for entry in (*self._messages, *self._be_packets)
            )
            self._timer_dirty = False
        return max(cycle, self._timer_bound)

    def _ingest_log(self) -> None:
        records = self.network.log.records
        while self._log_index < len(records):
            record = records[self._log_index]
            self._log_index += 1
            if record.packet_id is not None:
                self._delivered_be_ids.add(record.packet_id)
            if (record.connection_label is not None
                    and record.sequence is not None):
                self._delivered_tc.add(
                    (record.connection_label, record.sequence,
                     record.delivered_node))

    def _check_tc(self, cycle: int) -> None:
        stats = self.network.fault_stats
        for entry in list(self._messages):
            # Every destination must hold all fragments of some attempt
            # (attempts may cover different subscribers: the original
            # reached one, a retransmission the other).
            confirmed = all(
                any(all((entry.label, seq, node) in self._delivered_tc
                        for seq in seqs)
                    for seqs in entry.attempts_seqs)
                for node in entry.destinations
            )
            if confirmed:
                if entry.retries:
                    stats.retransmit_recovered += 1
                self._messages.remove(entry)
                continue
            if cycle < entry.next_check_cycle:
                continue
            if entry.retries >= self.retransmit_limit:
                stats.retransmit_abandoned += 1
                self._messages.remove(entry)
                continue
            channel = self.manager.find(entry.label)
            if channel is None:
                self._messages.remove(entry)  # torn down; nothing to do
                continue
            entry.retries += 1
            stats.tc_retransmitted += 1
            if self.network.tracer is not None:
                self.network.tracer.emit(
                    cycle, RETRANSMIT, label=entry.label,
                    traffic_class="TC",
                    info={"retries": entry.retries,
                          "degraded": channel.degraded},
                )
            if channel.degraded:
                # The degraded fallback stamps one sequence per message.
                entry.attempts_seqs.append({channel._sequence})
            # Exponential backoff: double the wait per retry.  The send
            # hook raises this further if the re-sent copy's absolute
            # deadline lands later (backlogged regulator).
            timeout = (channel.deadline + self.tc_margin_ticks
                       if not channel.degraded
                       else self.tc_margin_ticks * 4) \
                * self.network.params.slot_cycles
            entry.next_check_cycle = cycle + timeout * (2 ** entry.retries)
            self._resending_tc = entry
            try:
                self.network.send_message(channel, entry.payload)
            except ValueError:
                # Payload no longer fits the (re-admitted) channel spec;
                # give up rather than loop.
                stats.retransmit_abandoned += 1
                self._messages.remove(entry)
                continue
            finally:
                self._resending_tc = None

    def _check_be(self, cycle: int) -> None:
        stats = self.network.fault_stats
        for entry in list(self._be_packets):
            if any(pid in self._delivered_be_ids
                   for pid in entry.packet_ids):
                self._be_packets.remove(entry)
                continue
            if cycle < entry.next_check_cycle:
                continue
            if not (entry.path_links & self.dead_links):
                # Overdue but its path is intact: congestion, not loss.
                # Check again later without burning a retry.
                entry.next_check_cycle = cycle + self.be_timeout_cycles
                continue
            if entry.retries >= self.be_retry_limit:
                self._be_packets.remove(entry)
                continue
            entry.retries += 1
            stats.be_packets_lost += 1
            stats.be_retried += 1
            if self.network.tracer is not None:
                self.network.tracer.emit(
                    cycle, RETRANSMIT, label=entry.label,
                    sequence=entry.sequence, node=entry.source,
                    traffic_class="BE",
                    info={"retries": entry.retries,
                          "destination": list(entry.destination)},
                )
            self._resending_be = True
            try:
                packet = self.network.send_best_effort(
                    entry.source, entry.destination, entry.payload,
                    avoid=self.dead_links,
                    connection_label=entry.label,
                    sequence=entry.sequence,
                )
            except RouteError:
                self._be_packets.remove(entry)
                continue
            finally:
                self._resending_be = False
            entry.packet_ids.append(packet.meta.packet_id)
            waypoints = [
                ((entry.source[0] + packet.x_offset)
                 % self.network.mesh.width,
                 (entry.source[1] + packet.y_offset)
                 % self.network.mesh.height),
                *packet.meta.relay_path,
            ]
            path_links: set[Link] = set()
            leg_start = entry.source
            for waypoint in waypoints:
                path_links |= _route_links(
                    dimension_ordered_route(leg_start, waypoint))
                leg_start = waypoint
            entry.path_links = path_links
            entry.next_check_cycle = (
                cycle + self.be_timeout_cycles * (2 ** entry.retries))

    # -- lifecycle ----------------------------------------------------------

    @property
    def pending_retransmits(self) -> int:
        return len(self._messages)

    @property
    def pending_be_retries(self) -> int:
        return len(self._be_packets)

    def detach(self) -> None:
        self.network.events.unsubscribe(self._on_event)
        self.network.tc_send_hooks.remove(self._on_tc_send)
        self.network.be_send_hooks.remove(self._on_be_send)
        self.network.engine.remove_component(self)

    # -- checkpointing ------------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state: every pending retransmission timer.

        The tracked-message deques keep their insertion order (the
        bounded-buffer eviction pops the oldest entry); the confirmation
        sets are membership-only and are sorted for a stable document.
        The ``_resending_*`` flags are only ever set inside a single
        ``step`` call, so at a checkpoint boundary they are always
        clear and need no saving.
        """
        return {
            "dead_links": sorted([list(node), direction]
                                 for node, direction in self.dead_links),
            "messages": [
                {
                    "label": entry.label,
                    "payload": entry.payload.hex(),
                    "attempts_seqs": [sorted(seqs)
                                      for seqs in entry.attempts_seqs],
                    "destinations": [list(node)
                                     for node in entry.destinations],
                    "next_check_cycle": entry.next_check_cycle,
                    "retries": entry.retries,
                }
                for entry in self._messages
            ],
            "be_packets": [
                {
                    "source": list(entry.source),
                    "destination": list(entry.destination),
                    "payload": entry.payload.hex(),
                    "label": entry.label,
                    "sequence": entry.sequence,
                    "packet_ids": list(entry.packet_ids),
                    "path_links": sorted([list(node), port]
                                         for node, port
                                         in entry.path_links),
                    "next_check_cycle": entry.next_check_cycle,
                    "retries": entry.retries,
                }
                for entry in self._be_packets
            ],
            "delivered_tc": sorted(
                ([label, sequence,
                  list(node) if isinstance(node, tuple) else node]
                 for label, sequence, node in self._delivered_tc),
                key=repr,
            ),
            "delivered_be_ids": sorted(self._delivered_be_ids),
            "log_index": self._log_index,
        }

    def load_state(self, state: dict) -> None:
        """Overlay saved timers; ``dead_links`` stays consistent with
        the network's already-restored ``routing_avoid`` set."""
        self.dead_links.clear()
        self.dead_links.update((tuple(node), direction)
                               for node, direction in state["dead_links"])
        self._messages.clear()
        for entry in state["messages"]:
            self._messages.append(_TrackedMessage(
                label=entry["label"],
                payload=bytes.fromhex(entry["payload"]),
                attempts_seqs=[set(seqs)
                               for seqs in entry["attempts_seqs"]],
                destinations=tuple(tuple(node)
                                   for node in entry["destinations"]),
                next_check_cycle=entry["next_check_cycle"],
                retries=entry["retries"],
            ))
        self._be_packets.clear()
        for entry in state["be_packets"]:
            self._be_packets.append(_TrackedBestEffort(
                source=tuple(entry["source"]),
                destination=tuple(entry["destination"]),
                payload=bytes.fromhex(entry["payload"]),
                label=entry["label"],
                sequence=entry["sequence"],
                packet_ids=list(entry["packet_ids"]),
                path_links={(tuple(node), port)
                            for node, port in entry["path_links"]},
                next_check_cycle=entry["next_check_cycle"],
                retries=entry["retries"],
            ))
        self._delivered_tc = {
            (label, sequence,
             tuple(node) if isinstance(node, list) else node)
            for label, sequence, node in state["delivered_tc"]
        }
        self._delivered_be_ids = set(state["delivered_be_ids"])
        self._log_index = int(state["log_index"])
        self._resending_tc = None
        self._resending_be = False
        self._timer_dirty = True
