"""Measurement collection for network experiments.

Three collectors cover the paper's evaluation needs:

* :class:`DeliveryLog` — per-packet end-to-end records (latency,
  deadline verdicts) for both traffic classes.
* :class:`ServiceTrace` — per-cycle link-service samples, the raw data
  behind Figure 7's cumulative-service curves.
* :class:`LatencySummary` — small-sample summary statistics.

All cycle<->tick conversions use the router's slot time (one tick per
packet transmission time).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.core.packet import BestEffortPacket, PacketMeta, TimeConstrainedPacket


@dataclass(frozen=True)
class DeliveryRecord:
    """One delivered packet, reduced to the numbers experiments need."""

    traffic_class: str              # "TC" or "BE"
    source: Optional[tuple[int, int]]
    destination: Optional[tuple[int, int]]
    injected_cycle: Optional[int]
    delivered_cycle: int
    connection_label: Optional[str]
    sequence: Optional[int]
    absolute_deadline: Optional[int]    # ticks, TC only
    deadline_met: Optional[bool]        # None for best-effort
    #: Simulation-unique packet id; lets the fault-recovery layer match
    #: deliveries against its retransmit ledger.
    packet_id: Optional[int] = None
    #: Node whose host actually received the packet.  For multicast
    #: this differs per copy, while ``destination`` (from the packet
    #: header) names only one subscriber.
    delivered_node: Optional[tuple[int, int]] = None
    #: True when an earlier record already covered this logical
    #: delivery — the same ``(class, connection, sequence)`` reaching
    #: the same node again, which happens when a retransmitted copy
    #: arrives at a destination the original already reached.
    #: Duplicates stay in :attr:`DeliveryLog.records` for forensics
    #: but are excluded from every delivery count and latency query.
    duplicate: bool = False

    @property
    def latency_cycles(self) -> Optional[int]:
        if self.injected_cycle is None:
            return None
        return self.delivered_cycle - self.injected_cycle


class DeliveryLog:
    """Collects delivered packets and answers deadline/latency queries.

    Retransmission can land two physical copies of one logical packet
    at the same destination (the original was late, not lost).  The
    log detects such duplicates by ``(class, connection, sequence,
    node)`` identity and keeps them out of the delivery counts — a
    retransmitted copy reaching an already-delivered destination must
    not inflate ``tc_delivered`` or charge a second deadline verdict.
    Unlabelled traffic has no cross-copy identity and is never marked.
    """

    def __init__(self, slot_cycles: int) -> None:
        self.slot_cycles = slot_cycles
        self.records: list[DeliveryRecord] = []
        self._seen: set[tuple] = set()
        #: Optional per-class latency histograms (see
        #: :mod:`repro.observability.registry`); wired by MeshNetwork.
        #: Duplicates are not observed.
        self.latency_histograms: dict[str, object] = {}
        #: Handed every record :meth:`add` writes, as it is written (the
        #: recovery controller installs it to confirm its ledger).
        self.reader: Optional[Callable[[DeliveryRecord], None]] = None

    def add(self, packet: object,
            delivered_node: Optional[tuple[int, int]] = None,
            ) -> DeliveryRecord:
        meta: Optional[PacketMeta] = getattr(packet, "meta", None)
        if meta is None:
            raise TypeError(f"not a packet: {packet!r}")
        if isinstance(packet, TimeConstrainedPacket):
            traffic_class = "TC"
            deadline_met: Optional[bool] = None
            if meta.absolute_deadline is not None:
                delivered_tick = math.ceil(
                    meta.delivered_cycle / self.slot_cycles
                )
                deadline_met = delivered_tick <= meta.absolute_deadline
        elif isinstance(packet, BestEffortPacket):
            traffic_class = "BE"
            deadline_met = None
        else:
            raise TypeError(f"not a packet: {packet!r}")
        duplicate = False
        # A retransmitted copy carries fresh sequence numbers but
        # remembers the original fragment it re-sends; dedup on that
        # logical identity, not the wire-level sequence.
        identity = (meta.retransmit_of if meta.retransmit_of is not None
                    else meta.sequence)
        if meta.connection_label is not None and identity is not None:
            key = (traffic_class, meta.connection_label, identity,
                   delivered_node)
            duplicate = key in self._seen
            self._seen.add(key)
        record = DeliveryRecord(
            traffic_class=traffic_class,
            source=meta.source,
            destination=meta.destination,
            injected_cycle=meta.injected_cycle,
            delivered_cycle=meta.delivered_cycle,
            connection_label=meta.connection_label,
            sequence=meta.sequence,
            absolute_deadline=meta.absolute_deadline,
            deadline_met=deadline_met,
            packet_id=meta.packet_id,
            delivered_node=delivered_node,
            duplicate=duplicate,
        )
        self.records.append(record)
        if self.reader is not None:
            self.reader(record)
        if not duplicate and self.latency_histograms:
            latency = record.latency_cycles
            if latency is not None:
                histogram = self.latency_histograms.get(traffic_class)
                if histogram is not None:
                    histogram.observe(latency)
        return record

    # -- checkpointing ------------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state (see ``docs/checkpointing.md``).

        ``_seen`` is serialised explicitly — its identity component
        (``retransmit_of`` or ``sequence``) is not recoverable from the
        records alone.  Latency histograms are shared with the metrics
        registry and restored there.
        """
        return {
            "records": [
                [r.traffic_class,
                 None if r.source is None else list(r.source),
                 None if r.destination is None else list(r.destination),
                 r.injected_cycle, r.delivered_cycle,
                 r.connection_label, r.sequence, r.absolute_deadline,
                 r.deadline_met, r.packet_id,
                 None if r.delivered_node is None
                 else list(r.delivered_node),
                 r.duplicate]
                for r in self.records
            ],
            "seen": [
                [cls, label, identity,
                 None if node is None else list(node)]
                for cls, label, identity, node in sorted(
                    self._seen, key=repr)
            ],
        }

    def load_state(self, state: dict) -> None:
        self.records.clear()
        for (traffic_class, source, destination, injected, delivered,
             label, sequence, deadline, met, packet_id, node,
             duplicate) in state["records"]:
            self.records.append(DeliveryRecord(
                traffic_class=traffic_class,
                source=None if source is None else tuple(source),
                destination=(None if destination is None
                             else tuple(destination)),
                injected_cycle=injected,
                delivered_cycle=delivered,
                connection_label=label,
                sequence=sequence,
                absolute_deadline=deadline,
                deadline_met=met,
                packet_id=packet_id,
                delivered_node=None if node is None else tuple(node),
                duplicate=bool(duplicate),
            ))
        self._seen.clear()
        for cls, label, identity, node in state["seen"]:
            self._seen.add((cls, label, identity,
                            None if node is None else tuple(node)))

    # -- queries ------------------------------------------------------------

    def of_class(self, traffic_class: str) -> list[DeliveryRecord]:
        return [r for r in self.records
                if r.traffic_class == traffic_class and not r.duplicate]

    def of_connection(self, label: str) -> list[DeliveryRecord]:
        return [r for r in self.records
                if r.connection_label == label and not r.duplicate]

    @property
    def deadline_misses(self) -> int:
        return sum(1 for r in self.records
                   if r.deadline_met is False and not r.duplicate)

    @property
    def duplicate_deliveries(self) -> int:
        """Physical copies that re-delivered an already-counted packet."""
        return sum(1 for r in self.records if r.duplicate)

    @property
    def tc_delivered(self) -> int:
        return len(self.of_class("TC"))

    @property
    def be_delivered(self) -> int:
        return len(self.of_class("BE"))

    def messages(self, label: str,
                 packets_per_message: int) -> list["MessageRecord"]:
        """Reassemble a connection's packets into application messages.

        Fragments of one message carry consecutive sequence numbers
        (assigned by :meth:`RealTimeChannel.make_message`); a message is
        complete when all of its fragments arrived, and its delivery
        time is the last fragment's.
        """
        if packets_per_message < 1:
            raise ValueError("packets_per_message must be positive")
        fragments: dict[int, list[DeliveryRecord]] = {}
        for record in self.of_connection(label):
            if record.sequence is None:
                continue
            fragments.setdefault(
                record.sequence // packets_per_message, []
            ).append(record)
        messages = []
        for index in sorted(fragments):
            parts = fragments[index]
            complete = len(parts) == packets_per_message
            messages.append(MessageRecord(
                message_index=index,
                fragments=len(parts),
                expected_fragments=packets_per_message,
                complete=complete,
                delivered_cycle=max(p.delivered_cycle for p in parts),
                deadline_met=all(p.deadline_met is not False
                                 for p in parts),
            ))
        return messages

    def latency_summary(self, traffic_class: str) -> "LatencySummary":
        latencies = [r.latency_cycles for r in self.of_class(traffic_class)
                     if r.latency_cycles is not None]
        return LatencySummary.from_values(latencies)

    def class_stats(self, traffic_class: str) -> dict:
        """Canonical JSON-ready per-class delivery stats.

        The shape campaign result shards store per traffic class:
        delivery count, deadline misses and the latency summary.
        Duplicates are excluded, like every other query.
        """
        records = self.of_class(traffic_class)
        return {
            "delivered": len(records),
            "deadline_misses": sum(1 for r in records
                                   if r.deadline_met is False),
            "latency": self.latency_summary(traffic_class).as_dict(),
        }


@dataclass
class FaultCounters:
    """Per-class fault and recovery accounting for one network.

    Aggregated by :meth:`MeshNetwork.fault_counters` from the routers
    (corruption/framing drops), the link monitors (bytes lost on dead
    links) and the fault-tolerance layer (detections, reroutes,
    retransmissions, degradations).  Deterministic for a given seed and
    plan, so two same-seed chaos runs must produce identical counters.
    """

    # Detection (router input/reception checks).
    tc_corrupted: int = 0          # TC packets dropped on checksum mismatch
    be_corrupted: int = 0          # BE packets dropped on checksum mismatch
    tc_unroutable: int = 0         # TC packets with no table entry (dropped)
    tc_resync_drops: int = 0       # partial TC frames discarded (resync)
    be_orphan_drops: int = 0       # headless/truncated worms discarded
    # Link-level losses (monitors in the wiring layer).
    link_bytes_lost: int = 0       # bytes that died on failed links
    link_bytes_drained: int = 0    # stalled wormhole bytes drained away
    link_bytes_corrupted: int = 0  # bytes flipped by injected corruption
    link_packets_dropped: int = 0  # whole packets suppressed by injection
    # Recovery actions.
    links_detected: int = 0        # watchdog link-death declarations
    channels_rerouted: int = 0     # successful automatic reroutes
    channels_degraded: int = 0     # channels demoted to best-effort
    tc_retransmitted: int = 0      # TC packets re-sent from the source
    retransmit_recovered: int = 0  # retransmissions eventually delivered
    retransmit_abandoned: int = 0  # gave up after max backoff attempts
    be_retried: int = 0            # best-effort packets re-sent end-to-end
    be_packets_lost: int = 0       # BE packets judged lost on a dead link
    degraded_messages: int = 0     # messages sent best-effort post-demotion
    degraded_undeliverable: int = 0  # degraded sends with no surviving path

    def __add__(self, other: "FaultCounters") -> "FaultCounters":
        merged = FaultCounters()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass(frozen=True)
class MessageRecord:
    """One reassembled application message."""

    message_index: int
    fragments: int
    expected_fragments: int
    complete: bool
    delivered_cycle: int
    deadline_met: bool


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample (cycles)."""

    count: int
    mean: float
    maximum: int
    minimum: int
    p99: float

    def as_dict(self) -> dict:
        """JSON-ready form (campaign result shards, snapshots)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "maximum": self.maximum,
            "minimum": self.minimum,
            "p99": self.p99,
        }

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "LatencySummary":
        data = sorted(values)
        if not data:
            return cls(count=0, mean=0.0, maximum=0, minimum=0, p99=0.0)
        index = min(len(data) - 1, math.ceil(0.99 * len(data)) - 1)
        return cls(
            count=len(data),
            mean=sum(data) / len(data),
            maximum=data[-1],
            minimum=data[0],
            p99=float(data[index]),
        )


class ServiceTrace:
    """Cumulative per-connection link service (Figure 7's raw data).

    Fed by :meth:`hook` with every byte a standalone router sends (one
    in a ``MeshNetwork`` moves a committed frame as one arrival, which
    no per-byte read sees); each byte on the watched output port is
    attributed to its connection label (or the best-effort aggregate)
    and accumulated into a step series.  ``SingleLinkHarness`` feeds
    it from the link output it reads after every step.
    """

    def __init__(self, watch_port: Optional[int] = None) -> None:
        self.watch_port = watch_port
        self.totals: dict[str, int] = defaultdict(int)
        self.series: dict[str, list[tuple[int, int]]] = defaultdict(list)

    def hook(self, cycle: int, port: int, traffic_class: str,
             meta: Optional[PacketMeta]) -> None:
        if self.watch_port is not None and port != self.watch_port:
            return
        if traffic_class == "BE":
            label = "best-effort"
        elif meta is not None and meta.connection_label is not None:
            label = meta.connection_label
        else:
            label = "time-constrained"
        self.totals[label] += 1
        self.series[label].append((cycle, self.totals[label]))

    def cumulative_at(self, label: str, cycle: int) -> int:
        """Bytes of service a label had received by ``cycle``."""
        best = 0
        for when, total in self.series.get(label, ()):
            if when > cycle:
                break
            best = total
        return best

    def labels(self) -> list[str]:
        return sorted(self.totals)
