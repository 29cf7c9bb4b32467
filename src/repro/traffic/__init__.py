"""Spatial traffic patterns and recorded traffic traces."""

from repro.traffic.patterns import (
    all_pairs,
    bit_complement,
    hotspot,
    transpose,
    uniform_random,
)
from repro.traffic.trace import (
    ChannelDef,
    TraceEvent,
    TrafficTrace,
    generate_random_trace,
    replay_trace,
)

__all__ = [
    "ChannelDef",
    "TraceEvent",
    "TrafficTrace",
    "all_pairs",
    "bit_complement",
    "generate_random_trace",
    "hotspot",
    "replay_trace",
    "transpose",
    "uniform_random",
]
