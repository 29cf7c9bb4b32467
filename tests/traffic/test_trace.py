"""Tests for recordable traffic traces."""

import json

import pytest

from repro import build_mesh_network
from repro.traffic.trace import (
    ChannelDef,
    TraceEvent,
    TrafficTrace,
    generate_random_trace,
    replay_trace,
)


class TestTraceStructure:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(tick=0, kind="noise")
        with pytest.raises(ValueError):
            TraceEvent(tick=0, kind="message")  # no channel
        with pytest.raises(ValueError):
            TraceEvent(tick=0, kind="datagram")  # no endpoints

    def test_sorted_events(self):
        trace = TrafficTrace(events=[
            TraceEvent(tick=5, kind="message", channel="a"),
            TraceEvent(tick=1, kind="message", channel="a"),
        ])
        assert [e.tick for e in trace.sorted_events()] == [1, 5]
        assert trace.horizon_ticks == 5


class TestPersistence:
    def test_round_trip(self, tmp_path):
        trace = generate_random_trace(3, 3, channels=3, ticks=40, seed=7)
        path = trace.save(tmp_path / "workload.jsonl")
        again = TrafficTrace.load(path)
        assert again.channels == trace.channels
        assert again.sorted_events() == trace.sorted_events()

    def test_generation_is_deterministic(self):
        a = generate_random_trace(3, 3, seed=11)
        b = generate_random_trace(3, 3, seed=11)
        assert a.channels == b.channels
        assert a.events == b.events
        c = generate_random_trace(3, 3, seed=12)
        assert c.events != a.events


#: A channel line as ``TrafficTrace.save`` writes it.
CHANNEL = {"type": "channel", "label": "a", "source": [0, 0],
           "destination": [1, 0], "i_min": 10, "s_max": 18, "b_max": 1,
           "deadline": 30}
MESSAGE = {"type": "event", "tick": 0, "kind": "message",
           "payload_bytes": 4, "channel": "a"}


def without(record, name):
    return {key: value for key, value in record.items() if key != name}


#: Lines ``TrafficTrace.load`` must refuse when they follow CHANNEL.
MALFORMED = {
    "not-json": "{",
    "not-an-object": "[1, 2]",
    "no-type": json.dumps(without(MESSAGE, "type")),
    "unknown-type": json.dumps({**MESSAGE, "type": "evnt"}),
    "bare-datagram": json.dumps({"type": "event", "kind": "datagram"}),
    "datagram-without-destination": json.dumps(
        {"type": "event", "tick": 0, "kind": "datagram",
         "payload_bytes": 0, "source": [0, 0]}),
    "unknown-kind": json.dumps({**MESSAGE, "kind": "noise"}),
    "channel-without-deadline": json.dumps(without(CHANNEL, "deadline")),
    "null-label": json.dumps({**CHANNEL, "label": None}),
    "channel-with-zero-i-min": json.dumps({**CHANNEL, "label": "b",
                                           "i_min": 0}),
    "node-not-a-pair": json.dumps({**CHANNEL, "label": "b",
                                   "source": [0]}),
    "no-payload-bytes": json.dumps(without(MESSAGE, "payload_bytes")),
    "tick-as-string": json.dumps({**MESSAGE, "tick": "5"}),
    "tick-as-bool": json.dumps({**MESSAGE, "tick": True}),
    "negative-tick": json.dumps({**MESSAGE, "tick": -1}),
    "label-as-number": json.dumps({**MESSAGE, "channel": 7}),
    "undeclared-channel": json.dumps({**MESSAGE, "channel": "zz"}),
}


def write_trace(path, line):
    path.write_text(json.dumps(CHANNEL) + "\n" + line + "\n")
    return path


class TestStrictLoad:
    def test_the_well_formed_base_loads(self, tmp_path):
        trace = TrafficTrace.load(
            write_trace(tmp_path / "t.jsonl", json.dumps(MESSAGE)))
        assert trace.channels[0].deadline == 30
        assert trace.events == [TraceEvent(tick=0, kind="message",
                                           channel="a", payload_bytes=4)]

    @pytest.mark.parametrize("line", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = write_trace(tmp_path / "t.jsonl", line)
        with pytest.raises(ValueError, match="t.jsonl:2: "):
            TrafficTrace.load(path)


class TestReplay:
    def test_replay_delivers_and_meets_deadlines(self):
        trace = generate_random_trace(2, 2, channels=2, ticks=40,
                                      datagram_rate=0.05, seed=3)
        net = build_mesh_network(2, 2)
        log = replay_trace(net, trace)
        messages = sum(1 for e in trace.events if e.kind == "message")
        datagrams = sum(1 for e in trace.events if e.kind == "datagram")
        assert log.tc_delivered == messages
        assert log.be_delivered == datagrams
        assert log.deadline_misses == 0

    def test_replay_is_reproducible(self):
        trace = generate_random_trace(2, 2, channels=2, ticks=30, seed=5)
        first = replay_trace(build_mesh_network(2, 2), trace)
        second = replay_trace(build_mesh_network(2, 2), trace)
        key = lambda log: sorted(
            (r.connection_label, r.sequence, r.delivered_cycle)
            for r in log.of_class("TC")
        )
        assert key(first) == key(second)
