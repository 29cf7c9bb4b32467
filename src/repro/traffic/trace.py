"""Recordable, replayable traffic traces.

Experiments want *portable* workloads: generate once (seeded), save to
a file, replay bit-for-bit on any fabric or simulator, attach to a bug
report.  A trace holds the channel definitions plus a time-ordered
event list (message sends and best-effort packets) in a line-oriented
JSON format.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.channels.spec import TrafficSpec

Node = tuple[int, int]


@dataclass(frozen=True)
class ChannelDef:
    """One channel the trace expects to exist."""

    label: str
    source: Node
    destination: Node
    i_min: int
    s_max: int
    b_max: int
    deadline: int

    def spec(self) -> TrafficSpec:
        return TrafficSpec(i_min=self.i_min, s_max=self.s_max,
                           b_max=self.b_max)


@dataclass(frozen=True)
class TraceEvent:
    """One traffic event at a given tick."""

    tick: int
    kind: str                      # "message" or "datagram"
    channel: Optional[str] = None  # message: channel label
    source: Optional[Node] = None  # datagram endpoints
    destination: Optional[Node] = None
    payload_bytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("message", "datagram"):
            raise ValueError("event kind must be message or datagram")
        if self.kind == "message" and not self.channel:
            raise ValueError("message events need a channel label")
        if self.kind == "datagram" and (self.source is None
                                        or self.destination is None):
            raise ValueError("datagram events need endpoints")


@dataclass
class TrafficTrace:
    """A complete replayable workload."""

    channels: list[ChannelDef] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    def sorted_events(self) -> list[TraceEvent]:
        return sorted(self.events, key=lambda e: e.tick)

    @property
    def horizon_ticks(self) -> int:
        return max((e.tick for e in self.events), default=0)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for channel in self.channels:
                handle.write(json.dumps({
                    "type": "channel", "label": channel.label,
                    "source": list(channel.source),
                    "destination": list(channel.destination),
                    "i_min": channel.i_min, "s_max": channel.s_max,
                    "b_max": channel.b_max, "deadline": channel.deadline,
                }) + "\n")
            for event in self.sorted_events():
                record = {"type": "event", "tick": event.tick,
                          "kind": event.kind,
                          "payload_bytes": event.payload_bytes}
                if event.channel is not None:
                    record["channel"] = event.channel
                if event.source is not None:
                    record["source"] = list(event.source)
                    record["destination"] = list(event.destination)
                handle.write(json.dumps(record) + "\n")
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "TrafficTrace":
        """Read a trace :meth:`save` wrote.

        Raises ``ValueError`` naming the file and line of the first
        line that is not a channel or event record :meth:`save` could
        have written, or of a message event whose channel the trace
        does not declare.
        """
        trace = cls()
        messages = []
        with pathlib.Path(path).open() as handle:
            for number, line in enumerate(handle, 1):
                try:
                    item = _parse_line(json.loads(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
                if isinstance(item, ChannelDef):
                    trace.channels.append(item)
                else:
                    trace.events.append(item)
                    if item.kind == "message":
                        messages.append((number, item.channel))
        declared = {channel.label for channel in trace.channels}
        for number, label in messages:
            if label not in declared:
                raise ValueError(f"{path}:{number}: message event names "
                                 f"undeclared channel {label!r}")
        return trace


def _parse_line(record: object) -> ChannelDef | TraceEvent:
    """One trace line as :meth:`TrafficTrace.save` writes it."""
    if not isinstance(record, dict):
        raise ValueError("a trace line must be a JSON object")
    kind = _field(record, "type", True)
    if kind == "channel":
        definition = ChannelDef(
            label=_text(record, "label"),
            source=_node(record, "source"),
            destination=_node(record, "destination"),
            i_min=_count(record, "i_min"), s_max=_count(record, "s_max"),
            b_max=_count(record, "b_max"),
            deadline=_count(record, "deadline"),
        )
        definition.spec()  # TrafficSpec checks the parameters
        return definition
    if kind == "event":
        event_kind = _text(record, "kind")
        return TraceEvent(
            tick=_count(record, "tick"), kind=event_kind,
            channel=_text(record, "channel",
                          required=event_kind == "message"),
            source=_node(record, "source",
                         required=event_kind == "datagram"),
            destination=_node(record, "destination",
                              required=event_kind == "datagram"),
            payload_bytes=_count(record, "payload_bytes"),
        )
    raise ValueError(f"unknown line type {kind!r} "
                     "(expected 'channel' or 'event')")


def _field(record: dict, name: str, required: bool) -> object:
    value = record.get(name)
    if value is None and required:
        raise ValueError(f"missing field {name!r}")
    return value


def _count(record: dict, name: str) -> int:
    value = _field(record, name, True)
    if type(value) is not int or value < 0:
        raise ValueError(f"{name!r} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def _text(record: dict, name: str, *,
          required: bool = True) -> Optional[str]:
    value = _field(record, name, required)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{name!r} must be a string, got {value!r}")
    return value


def _node(record: dict, name: str, *,
          required: bool = True) -> Optional[Node]:
    value = _field(record, name, required)
    if value is None:
        return None
    if (not isinstance(value, list) or len(value) != 2
            or any(type(v) is not int or v < 0 for v in value)):
        raise ValueError(f"{name!r} must be an [x, y] pair of "
                         f"non-negative integers, got {value!r}")
    return (value[0], value[1])


def generate_random_trace(width: int, height: int, *, channels: int = 4,
                          ticks: int = 100, datagram_rate: float = 0.1,
                          seed: int = 0) -> TrafficTrace:
    """A seeded random workload on a ``width x height`` mesh."""
    rng = random.Random(seed)
    trace = TrafficTrace()
    nodes = [(x, y) for x in range(width) for y in range(height)]
    for index in range(channels):
        src, dst = rng.sample(nodes, 2)
        i_min = rng.choice([8, 12, 20])
        hops = abs(src[0] - dst[0]) + abs(src[1] - dst[1]) + 1
        definition = ChannelDef(
            label=f"trace-ch{index}", source=src, destination=dst,
            i_min=i_min, s_max=18, b_max=1,
            deadline=i_min * hops + rng.randrange(0, i_min),
        )
        trace.channels.append(definition)
        for tick in range(0, ticks, i_min):
            trace.events.append(TraceEvent(
                tick=tick, kind="message", channel=definition.label,
                payload_bytes=rng.randrange(0, 19),
            ))
    for tick in range(ticks):
        if rng.random() < datagram_rate:
            src, dst = rng.sample(nodes, 2)
            trace.events.append(TraceEvent(
                tick=tick, kind="datagram", source=src, destination=dst,
                payload_bytes=rng.randrange(0, 120),
            ))
    return trace


def replay_trace(network, trace: TrafficTrace, *,
                 settle_ticks: int = 100,
                 max_cycles: int = 2_000_000):
    """Replay a trace on a :class:`~repro.network.network.MeshNetwork`.

    Establishes every channel (raising AdmissionError if the fabric
    cannot carry the trace), fires the events at their ticks, lets the
    fabric drain, and returns the network's delivery log.
    """
    channels = {}
    for definition in trace.channels:
        channels[definition.label] = network.establish_channel(
            definition.source, definition.destination, definition.spec(),
            definition.deadline, label=definition.label,
        )
    events = trace.sorted_events()
    index = 0
    for tick in range(trace.horizon_ticks + 1):
        while index < len(events) and events[index].tick == tick:
            event = events[index]
            index += 1
            if event.kind == "message":
                network.send_message(channels[event.channel],
                                     b"\x00" * event.payload_bytes)
            else:
                network.send_best_effort(
                    event.source, event.destination,
                    payload=b"\x00" * event.payload_bytes,
                )
        network.run_ticks(1)
    network.run_ticks(settle_ticks)
    network.drain(max_cycles=max_cycles)
    return network.log
