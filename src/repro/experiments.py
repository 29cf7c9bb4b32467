"""The paper's experiments as a library API.

Each function reproduces one evaluation artefact and returns a plain
result object; the CLI (``repro-router experiment ...``) and the
benchmark suite (``pytest benchmarks/``) both call through here, so
every consumer sees identical numbers.

>>> from repro.experiments import wormhole_baseline
>>> result = wormhole_baseline(sizes=[16, 32])
>>> result.overheads()
{16: 31, 32: 31}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.baselines import DisciplineResult, WorkloadChannel, compare_disciplines
from repro.channels.spec import TrafficSpec

if TYPE_CHECKING:
    from repro.core.packet import BestEffortPacket
    from repro.network import MeshNetwork

DEFAULT_SIZES = [8, 16, 32, 64, 128, 256]


# ---------------------------------------------------------------------------
# E1 — section 5.2 wormhole baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WormholeBaselineResult:
    """Loopback latencies per packet size (paper: 30 + b cycles)."""

    latencies: dict[int, int]

    def overheads(self) -> dict[int, int]:
        return {size: latency - size
                for size, latency in self.latencies.items()}

    @property
    def constant_overhead(self) -> Optional[int]:
        values = set(self.overheads().values())
        return values.pop() if len(values) == 1 else None


def send_loopback_worm(net: MeshNetwork, size_bytes: int) -> BestEffortPacket:
    """Inject the paper's E1 test worm into a 1x1 torus.

    A ``MeshNetwork(1, 1, torus=True)`` is one chip cabled to itself
    (+x out feeds -x in, +y out feeds -y in).  The worm carries offsets
    (1, 1): it leaves on +x, re-enters on -x, leaves on +y, re-enters
    on -y and reaches the reception port — three router traversals.
    ``size_bytes`` is the total length on the wire (header plus
    payload), the paper's "b byte wormhole packet".
    """
    from repro.core.packet import BE_HEADER_BYTES, BestEffortPacket, PacketMeta

    if size_bytes <= BE_HEADER_BYTES:
        raise ValueError(
            f"packet must exceed the {BE_HEADER_BYTES}-byte header"
        )
    payload = bytes(i % 251 for i in range(size_bytes - BE_HEADER_BYTES))
    packet = BestEffortPacket(
        x_offset=1, y_offset=1, payload=payload,
        meta=PacketMeta(injected_cycle=net.cycle),
    )
    # Injected at the router: ``send_best_effort`` plans mesh offsets
    # and would not wrap a worm around the torus.
    net.routers[(0, 0)].inject_be(packet)
    return packet


def wormhole_baseline(sizes: Optional[list[int]] = None
                      ) -> WormholeBaselineResult:
    """E1: b-byte worms, one after another, over the single-chip loopback.

    Raises ``TimeoutError`` if a worm is not delivered within 100,000
    cycles.
    """
    from repro.network import MeshNetwork

    net = MeshNetwork(1, 1, torus=True)
    latencies = {}
    for size in sizes or DEFAULT_SIZES:
        packet = send_loopback_worm(net, size)
        net.drain(max_cycles=100_000)
        record, = [r for r in net.log.records
                   if r.packet_id == packet.meta.packet_id]
        latencies[size] = record.latency_cycles
    return WormholeBaselineResult(latencies=latencies)


# ---------------------------------------------------------------------------
# F7 — Figure 7 service shares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceShareResult:
    """Cumulative service per label on the shared link."""

    totals: dict[str, int]
    series: dict[str, list[tuple[int, int]]]
    deadline_misses: int
    run_cycles: int

    def share(self, label: str) -> float:
        return self.totals.get(label, 0) / self.run_cycles


def figure7(run_cycles: int = 10_000, horizon: int = 0,
            connections: Optional[list[tuple[str, int, int]]] = None,
            ) -> ServiceShareResult:
    """F7: backlogged connections plus best-effort on one link.

    ``connections`` is a list of (label, d, i_min) in slots; defaults
    to the documented substitution (4,4), (8,8), (16,16).
    """
    from repro.network import LinkConnection, SingleLinkHarness

    if connections is None:
        connections = [("connection 1", 4, 4), ("connection 2", 8, 8),
                       ("connection 3", 16, 16)]
    harness = SingleLinkHarness(
        [LinkConnection(label, delay, i_min, packets=10 ** 6 // i_min)
         for label, delay, i_min in connections],
        horizon=horizon,
    )
    harness.run(run_cycles)
    return ServiceShareResult(
        totals=dict(harness.trace.totals),
        series={label: list(values)
                for label, values in harness.trace.series.items()},
        deadline_misses=harness.deadline_misses,
        run_cycles=run_cycles,
    )


# ---------------------------------------------------------------------------
# A1 — horizon trade-off
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorizonPoint:
    horizon: int
    mean_latency_ticks: float
    buffers_per_connection: int


def horizon_tradeoff(horizons: Optional[list[int]] = None, *,
                     i_min: int = 12, delay: int = 12,
                     hops: int = 3, messages: int = 60,
                     ) -> list[HorizonPoint]:
    """A1: latency vs. downstream buffer demand as h grows."""
    from repro.channels.admission import buffer_bound
    from repro.model import SlotSimulator

    horizons = horizons if horizons is not None else [0, 2, 4, 8, 16, 32]
    spec = TrafficSpec(i_min=i_min)
    points = []
    links = [f"L{j}" for j in range(hops)]
    for horizon in horizons:
        sim = SlotSimulator(horizons={link: horizon for link in links})
        sim.add_channel("probe", links, [delay] * hops,
                        [k * i_min for k in range(messages)])
        sim.run_until_drained(max_ticks=100_000)
        if sim.deadline_misses():
            raise AssertionError("admitted probe channel missed")
        points.append(HorizonPoint(
            horizon=horizon,
            mean_latency_ticks=sim.average_tc_latency(),
            buffers_per_connection=buffer_bound(spec, horizon, delay,
                                                delay),
        ))
    return points


# ---------------------------------------------------------------------------
# A3 — discipline comparison
# ---------------------------------------------------------------------------

def standard_mixed_workload(bulk_channels: int = 3,
                            ) -> list[WorkloadChannel]:
    """The deadline-diverse workload used by the A3 comparisons."""
    channels = [
        WorkloadChannel(label=f"bulk{index}", spec=TrafficSpec(i_min=4),
                        local_delays=[4, 4], messages=50, phase=0)
        for index in range(bulk_channels)
    ]
    channels.append(WorkloadChannel(
        label="control", spec=TrafficSpec(i_min=25),
        local_delays=[2, 2], messages=8, phase=0,
    ))
    return channels


def discipline_comparison(bulk_channels: int = 3, **kwargs,
                          ) -> dict[str, DisciplineResult]:
    """A3: the same workload under every link discipline."""
    return compare_disciplines(standard_mixed_workload(bulk_channels),
                               **kwargs)


# ---------------------------------------------------------------------------
# A4 — virtual cut-through
# ---------------------------------------------------------------------------

def cut_through_sweep(lengths: Optional[list[int]] = None,
                      messages: int = 4):
    """A4: store-and-forward vs. cut-through along idle chains."""
    from repro.extensions import measure_linear_path

    lengths = lengths or [2, 3, 4]
    return [measure_linear_path(length=length, messages=messages)
            for length in lengths]
