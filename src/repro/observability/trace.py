"""Packet-lifecycle tracing: structured events on an opt-in ring buffer.

Every stage a packet can pass through stamps one event with the cycle
it happened on:

========================  =====================================================
event                     emitted when
========================  =====================================================
``enqueue``               the message/packet is handed to the source host
``release``               the source regulator releases it into the router
``buffer``                a router buffers it (``queue`` 1/3 for on-time/early
                          time-constrained, 2 for a routed best-effort worm)
``promote``               a model-level scheduler moves it from queue 3 to 1
``horizon_defer``         an early winner is held back by the link horizon
                          (or by waiting best-effort flits); once per
                          deferral, not once per tournament
``link_win``              the comparator tree's winner starts transmitting
``retransmit``            the recovery layer re-sends it
``corrupt_drop``          a checksum mismatch drops it
``deliver``               the destination host logs the delivery
========================  =====================================================

The control-plane service layer stamps channel-lifecycle events on the
same ring (``packet_id`` is ``None``; ``label`` names the channel):

========================  =====================================================
event                     emitted when
========================  =====================================================
``setup_request``         a churn setup request reaches the service
``setup_accept``          the request is admitted as a real-time channel
``setup_reject``          the request is refused (``info`` has the reason)
``setup_queue``           the request is parked for bounded retry
``setup_demote``          the request (or an admitted channel, during
                          overload) is demoted to best-effort delivery
``channel_teardown``      an expired flow's channel state is released
``overload_enter``        the overload manager starts shedding load
``overload_exit``         occupancy drained; normal admission resumes
========================  =====================================================

Tracing is **opt-in**: components keep a ``tracer`` attribute that is
``None`` by default, and every emit site is guarded by a plain
``if tracer is not None`` — the disabled hot path allocates nothing
and costs one attribute test.  When enabled, events land in a bounded
ring buffer (oldest evicted first) and can be exported as JSONL via
:func:`repro.reporting.export.write_trace_jsonl`.
"""

from __future__ import annotations

from typing import Iterator, Optional

ENQUEUE = "enqueue"
RELEASE = "release"
BUFFER = "buffer"
PROMOTE = "promote"
HORIZON_DEFER = "horizon_defer"
LINK_WIN = "link_win"
RETRANSMIT = "retransmit"
CORRUPT_DROP = "corrupt_drop"
DELIVER = "deliver"

# Control-plane service lifecycle (no packet identity).
SETUP_REQUEST = "setup_request"
SETUP_ACCEPT = "setup_accept"
SETUP_REJECT = "setup_reject"
SETUP_QUEUE = "setup_queue"
SETUP_DEMOTE = "setup_demote"
CHANNEL_TEARDOWN = "channel_teardown"
OVERLOAD_ENTER = "overload_enter"
OVERLOAD_EXIT = "overload_exit"

#: Field order of the event tuples stored in the ring (and of the
#: JSONL objects exported from them).
EVENT_FIELDS = (
    "cycle", "event", "packet_id", "node", "port", "traffic_class",
    "label", "sequence", "queue", "info",
)


class PacketTracer:
    """Bounded ring buffer of packet-lifecycle events.

    Events are stored as plain tuples (see :data:`EVENT_FIELDS`) to
    keep the enabled path cheap; :meth:`events` re-inflates them into
    dictionaries for export and analysis.  ``dropped`` counts events
    evicted after the ring wrapped — a non-zero value means the buffer
    was sized too small for the run being traced.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._ring: list[Optional[tuple]] = [None] * capacity
        self._next = 0
        self.emitted = 0
        self.dropped = 0

    def emit(self, cycle: int, event: str, *,
             meta: object = None,
             node: object = None,
             port: Optional[int] = None,
             traffic_class: Optional[str] = None,
             label: Optional[str] = None,
             sequence: Optional[int] = None,
             queue: Optional[int] = None,
             info: Optional[dict] = None) -> None:
        """Record one event (packet identity defaulted from ``meta``)."""
        packet_id = None
        if meta is not None:
            packet_id = meta.packet_id
            if label is None:
                label = meta.connection_label
            if sequence is None:
                sequence = meta.sequence
        self.emit_raw((cycle, event, packet_id, node, port,
                       traffic_class, label, sequence, queue, info))

    def emit_raw(self, item: tuple) -> None:
        """Record one pre-built event tuple (see :data:`EVENT_FIELDS`)."""
        slot = self._next
        if self._ring[slot] is not None:
            self.dropped += 1
        self._ring[slot] = item
        self._next = (slot + 1) % self.capacity
        self.emitted += 1

    def __len__(self) -> int:
        return min(self.emitted, self.capacity)

    def _iter_tuples(self) -> Iterator[tuple]:
        if self.emitted > self.capacity:
            order = (*range(self._next, self.capacity),
                     *range(self._next))
        else:
            order = range(self._next)
        for index in order:
            item = self._ring[index]
            if item is not None:
                yield item

    def events(self) -> list[dict]:
        """All buffered events, oldest first, as field dictionaries."""
        return [dict(zip(EVENT_FIELDS, item))
                for item in self._iter_tuples()]

    def of_packet(self, packet_id: int) -> list[dict]:
        """The buffered lifecycle of one packet, oldest event first."""
        return [event for event in self.events()
                if event["packet_id"] == packet_id]

    def counts(self) -> dict[str, int]:
        """Buffered events tallied by event type."""
        tally: dict[str, int] = {}
        for item in self._iter_tuples():
            tally[item[1]] = tally.get(item[1], 0) + 1
        return dict(sorted(tally.items()))

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._next = 0
        self.emitted = 0
        self.dropped = 0

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state, including the full ring contents.

        Event tuples are JSON-serialisable by construction (cycles,
        strings, node coordinates, small info dicts), so the ring is
        saved verbatim.  Tuples inside events come back as lists; the
        ``node`` field is re-tupled on load — JSONL export renders
        tuples and lists identically, which is the equality the resume
        guarantee is stated in.  ``info`` dicts are saved as ordered
        key/value pairs: the checkpoint file is canonical JSON (sorted
        keys), which would otherwise lose the insertion order the
        exported JSONL preserves.
        """
        return {
            "capacity": self.capacity,
            "next": self._next,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "ring": [
                None if item is None else [
                    *item[:9],
                    (list(item[9].items())
                     if isinstance(item[9], dict) else item[9]),
                ]
                for item in self._ring
            ],
        }

    def load_state(self, state: dict) -> None:
        if state["capacity"] != self.capacity:
            raise ValueError("tracer state has different capacity")
        ring: list[Optional[tuple]] = []
        for item in state["ring"]:
            if item is None:
                ring.append(None)
                continue
            node = item[3]
            if isinstance(node, list):
                node = tuple(node)
            info = item[9]
            if isinstance(info, list):
                info = {key: value for key, value in info}
            ring.append((item[0], item[1], item[2], node,
                         *item[4:9], info))
        self._ring = ring
        self._next = state["next"]
        self.emitted = state["emitted"]
        self.dropped = state["dropped"]
