"""Automatic failure recovery: reroute, retransmit, degrade.

The :class:`RecoveryController` is the software layer that turns
detection events into repair actions:

* **Reroute** — on a ``link-failed`` / ``link-dead`` event, every
  channel whose reservation crosses a dead link is re-established on a
  surviving path (unicast) or shortest-path tree (multicast), with
  admission control re-run on the detour.  A channel whose detour
  fails admission — or that has no surviving path — is *degraded*:
  demoted to best-effort delivery with its ``degraded`` flag set.
* **Retransmit** — every time-constrained message stays in a
  source-side ledger until the delivery records that confirm it are
  written; the ledger has no size and never drops a message.  One none
  of whose copies was delivered by its deadline (plus margin) is
  re-sent with exponential backoff, up to a retry limit.
* **Drain and retry** — best-effort packets are tracked by packet id;
  a packet overdue whose planned path crosses a known-dead link is
  presumed eaten by the fault (its stalled worm is drained by the
  network's drain mode) and re-sent end-to-end, relayed around the
  dead links through intermediate hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.channels.admission import AdmissionError
from repro.channels.routing import RouteError, dimension_ordered_route
from repro.core.ports import RECEPTION
from repro.faults.injector import BABBLE_LABEL
from repro.network.events import LINK_REPAIRED, LinkEvent
from repro.observability.trace import RETRANSMIT

Node = tuple[int, int]
Link = tuple[Node, int]

#: Retries before a time-constrained message is abandoned.
RETRANSMIT_LIMIT = 4
#: Retransmission-check margin past a message's deadline, ticks.
TC_MARGIN_TICKS = 8
#: Best-effort delivery timeout, packet slots.
BE_TIMEOUT_SLOTS = 40
#: Retries before a best-effort packet is given up.
BE_RETRY_LIMIT = 3


@dataclass(eq=False)
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
    #: ``(wire sequence, node)`` of every fragment delivered so far.
    received: set[tuple[int, Node]] = field(default_factory=set)

    def confirmed(self) -> bool:
        # Attempts may cover different subscribers: the original
        # reached one, a retransmission the other.
        return all(
            any(all((seq, node) in self.received for seq in seqs)
                for seqs in self.attempts_seqs)
            for node in self.destinations)


@dataclass(eq=False)
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


def _planned_links(packet, mesh) -> set[Link]:
    """The links a best-effort packet's dimension-ordered legs cross:
    source to first hop, then waypoint to waypoint along its relays."""
    meta = packet.meta
    first_hop = ((meta.source[0] + packet.x_offset) % mesh.width,
                 (meta.source[1] + packet.y_offset) % mesh.height)
    links: set[Link] = set()
    leg_start = meta.source
    for waypoint in (first_hop, *meta.relay_path):
        links.update(
            (node, port)
            for node, port in dimension_ordered_route(leg_start, waypoint)
            if port != RECEPTION)
        leg_start = waypoint
    return links


class RecoveryController:
    """Subscribes to link events and keeps traffic flowing around them."""

    def __init__(self, network) -> None:
        self.network = network
        self.manager = network.manager
        self.be_timeout_cycles = BE_TIMEOUT_SLOTS * network.params.slot_cycles

        self._messages: list[_TrackedMessage] = []
        self._be_packets: list[_TrackedBestEffort] = []
        #: Which entry sent what a delivery record names: a message by
        #: ``(label, wire sequence)`` of any of its attempts, a
        #: best-effort packet by the id of any of its copies.
        self._message_of: dict[tuple[str, int], _TrackedMessage] = {}
        self._be_packet_of: dict[int, _TrackedBestEffort] = {}
        #: Set while the controller itself re-sends, so the send hooks
        #: append to the existing ledger entry instead of opening a
        #: fresh one (which would retry the retry).
        self._resending_tc: Optional[_TrackedMessage] = None
        self._resending_be = False
        #: Our answer changes on a release or a send: both wake us (the
        #: rest changes only inside :meth:`step`).
        self._wake = partial(network.engine.wake, self)

        network.log.reader = self._read
        network.events.subscribe(self._on_event)
        network.tc_send_hooks.append(self._on_tc_send)
        network.be_send_hooks.append(self._on_be_send)

    # -- event handling -----------------------------------------------------

    def _on_event(self, event: LinkEvent) -> None:
        """A link became known dead (published once per failure, by
        ``MeshNetwork.learn_dead``) or was repaired (which clears what
        the network knows of it)."""
        if event.kind == LINK_REPAIRED:
            return
        # Known dead: let stalled wormhole traffic drain out of the
        # fabric instead of blocking its whole path forever.
        self.network.set_link_draining(*event.link)
        dead = self.network.known_dead_links
        for channel in list(self.manager.channels):
            if not any((hop.node, hop.out_port) in dead
                       for hop in channel.reservation.hops):
                continue
            try:
                self.network.recover_channel(channel, failed=dead)
                self.network.fault_stats.channels_rerouted += 1
            except (RouteError, AdmissionError):
                self.manager.degrade(channel)
                self.network.fault_stats.channels_degraded += 1

    # -- the ledger ---------------------------------------------------------

    def _add_attempt(self, entry: _TrackedMessage, seqs: set[int]) -> None:
        entry.attempts_seqs.append(seqs)
        for seq in seqs:
            self._message_of[(entry.label, seq)] = entry

    def _add_copy(self, entry: _TrackedBestEffort, packet) -> None:
        entry.packet_ids.append(packet.meta.packet_id)
        self._be_packet_of[packet.meta.packet_id] = entry
        entry.path_links = _planned_links(packet, self.network.mesh)

    def _release_message(self, entry: _TrackedMessage) -> None:
        self._messages.remove(entry)
        for seqs in entry.attempts_seqs:
            for seq in seqs:
                # A label reused after a teardown starts again at
                # sequence 0: keep a key a newer message took over.
                if self._message_of.get((entry.label, seq)) is entry:
                    del self._message_of[(entry.label, seq)]

    def _release_be(self, entry: _TrackedBestEffort) -> None:
        self._be_packets.remove(entry)
        for packet_id in entry.packet_ids:
            del self._be_packet_of[packet_id]

    def _read(self, record) -> None:
        """The delivery log's reader: confirm what ``record`` delivered
        and release its entry once nothing more is owed."""
        message = self._message_of.get(
            (record.connection_label, record.sequence))
        if message is not None:
            message.received.add((record.sequence, record.delivered_node))
            if message.confirmed():
                if message.retries:
                    self.network.fault_stats.retransmit_recovered += 1
                self._release_message(message)
                self._wake()
        packet = self._be_packet_of.get(record.packet_id)
        if packet is not None:
            self._release_be(packet)
            self._wake()

    # -- send tracking ------------------------------------------------------

    def _on_tc_send(self, channel, packets, payload: bytes) -> None:
        self._wake()
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
            self._add_attempt(entry, seqs)
            resend_deadlines = [p.meta.absolute_deadline for p in packets
                                if p.meta.absolute_deadline is not None]
            if resend_deadlines:
                entry.next_check_cycle = max(
                    entry.next_check_cycle,
                    (max(resend_deadlines) + TC_MARGIN_TICKS) * slot,
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
            check = (max(deadlines) + TC_MARGIN_TICKS) * slot
        else:
            check = self.network.cycle \
                + (channel.deadline + TC_MARGIN_TICKS) * slot
        entry = _TrackedMessage(
            label=channel.label, payload=payload, attempts_seqs=[],
            destinations=tuple(channel.destinations),
            next_check_cycle=max(check, self.network.cycle + slot),
        )
        self._add_attempt(entry, seqs)
        self._messages.append(entry)

    def _on_be_send(self, packet) -> None:
        meta = packet.meta
        if (meta.connection_label == BABBLE_LABEL or self._resending_be
                or self._resending_tc is not None):
            return
        self._wake()
        entry = _TrackedBestEffort(
            source=meta.source, destination=meta.destination,
            payload=packet.payload, label=meta.connection_label,
            sequence=meta.sequence, packet_ids=[], path_links=set(),
            next_check_cycle=self.network.cycle + self.be_timeout_cycles,
        )
        self._add_copy(entry, packet)
        self._be_packets.append(entry)

    # -- per-cycle work -----------------------------------------------------

    def step(self, cycle: int) -> None:
        self._check_tc(cycle)
        self._check_be(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract (see ``docs/performance.md``).

        The controller's only scheduled work is its retransmission
        timers: with no tracked traffic there is nothing to do,
        otherwise it sleeps until the earliest one.  A delivery record
        that releases an entry and a send wake the controller; the
        timers change only inside :meth:`step`.
        """
        if not self._messages and not self._be_packets:
            return None
        return max(cycle, min(
            entry.next_check_cycle
            for entry in (*self._messages, *self._be_packets)))

    def _check_tc(self, cycle: int) -> None:
        stats = self.network.fault_stats
        for entry in [entry for entry in self._messages
                      if entry.next_check_cycle <= cycle]:
            if entry.retries >= RETRANSMIT_LIMIT:
                stats.retransmit_abandoned += 1
                self._release_message(entry)
                continue
            channel = self.manager.find(entry.label)
            if channel is None:
                self._release_message(entry)  # torn down; nothing to do
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
                self._add_attempt(entry, {channel._sequence})
            # Exponential backoff: double the wait per retry.  The send
            # hook raises this further if the re-sent copy's absolute
            # deadline lands later (backlogged regulator).
            timeout = (channel.deadline + TC_MARGIN_TICKS
                       if not channel.degraded
                       else TC_MARGIN_TICKS * 4) \
                * self.network.params.slot_cycles
            entry.next_check_cycle = cycle + timeout * (2 ** entry.retries)
            self._resending_tc = entry
            try:
                self.network.send_message(channel, entry.payload)
            except ValueError:
                # Payload no longer fits the (re-admitted) channel spec;
                # give up rather than loop.
                stats.retransmit_abandoned += 1
                self._release_message(entry)
                continue
            finally:
                self._resending_tc = None

    def _check_be(self, cycle: int) -> None:
        stats = self.network.fault_stats
        due = [entry for entry in self._be_packets
               if entry.next_check_cycle <= cycle]
        dead = self.network.known_dead_links if due else set()
        for entry in due:
            if not (entry.path_links & dead):
                # Overdue but its path is intact: congestion, not loss.
                # Check again later without burning a retry.
                entry.next_check_cycle = cycle + self.be_timeout_cycles
                continue
            if entry.retries >= BE_RETRY_LIMIT:
                self._release_be(entry)
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
                    avoid=dead,
                    connection_label=entry.label,
                    sequence=entry.sequence,
                )
            except RouteError:
                self._release_be(entry)
                continue
            finally:
                self._resending_be = False
            self._add_copy(entry, packet)
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
        self.network.log.reader = None
        self.network.events.unsubscribe(self._on_event)
        self.network.tc_send_hooks.remove(self._on_tc_send)
        self.network.be_send_hooks.remove(self._on_be_send)
        self.network.engine.remove_component(self)

    # -- checkpointing ------------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state: every unconfirmed entry and its timer.

        The ledgers keep their send order (timers that fall due in the
        same cycle re-send in it); ``received`` is membership-only and
        sorted for a stable document.  The lookup tables are rebuilt
        from the entries on load.  The ``_resending_*`` flags are only
        ever set inside a single ``step`` call, so at a checkpoint
        boundary they are always clear and need no saving.
        """
        return {
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
                    "received": sorted(
                        [seq, None if node is None else list(node)]
                        for seq, node in entry.received),
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
        }

    def load_state(self, state: dict) -> None:
        """Overlay saved timers."""
        self._messages.clear()
        self._message_of.clear()
        for saved in state["messages"]:
            entry = _TrackedMessage(
                label=saved["label"],
                payload=bytes.fromhex(saved["payload"]),
                attempts_seqs=[],
                destinations=tuple(tuple(node)
                                   for node in saved["destinations"]),
                next_check_cycle=saved["next_check_cycle"],
                retries=saved["retries"],
                received={(seq, None if node is None else tuple(node))
                          for seq, node in saved["received"]},
            )
            for seqs in saved["attempts_seqs"]:
                self._add_attempt(entry, set(seqs))
            self._messages.append(entry)
        self._be_packets.clear()
        self._be_packet_of.clear()
        for saved in state["be_packets"]:
            entry = _TrackedBestEffort(
                source=tuple(saved["source"]),
                destination=tuple(saved["destination"]),
                payload=bytes.fromhex(saved["payload"]),
                label=saved["label"],
                sequence=saved["sequence"],
                packet_ids=list(saved["packet_ids"]),
                path_links={(tuple(node), port)
                            for node, port in saved["path_links"]},
                next_check_cycle=saved["next_check_cycle"],
                retries=saved["retries"],
            )
            for packet_id in entry.packet_ids:
                self._be_packet_of[packet_id] = entry
            self._be_packets.append(entry)
        self._resending_tc = None
        self._resending_be = False
