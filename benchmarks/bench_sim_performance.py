"""The cost of installed-but-disabled tracing.

Not a paper result — the observability job's guard that disabled
instrumentation stays free.  How fast the simulator runs is the repo
benchmark's business (``benchmarks/perf``, ``BENCH_<pr>.json``).
"""

import dataclasses
import time

from conftest import fmt_table

from repro.channels.spec import TrafficSpec
from repro.network.network import MeshNetwork

#: Every channel sends once per this many ticks.
PERIOD_TICKS = 256


def _delivery_digest(net):
    """Delivery records minus ``packet_id`` (a process-global counter,
    so two runs in one process draw different ids)."""
    return [tuple(getattr(record, field.name)
                  for field in dataclasses.fields(record)
                  if field.name != "packet_id")
            for record in net.log.records]


def _timed_idle_heavy(cycles, prepare=None):
    """One timed run of an idle-heavy 8x8 mesh: four low-rate
    time-constrained channels corner to corner, so the fabric is idle
    for most of every period.  The channels' sends are pushed inside
    the timed loop, at the top of each period."""
    net = MeshNetwork(8, 8)
    endpoints = [((0, 0), (7, 7)), ((7, 0), (0, 7)),
                 ((0, 7), (7, 0)), ((7, 7), (0, 0))]
    channels = [
        net.establish_channel(source, destination,
                              TrafficSpec(i_min=PERIOD_TICKS), deadline=45,
                              label=f"bench{index}")
        for index, (source, destination) in enumerate(endpoints)]
    if prepare is not None:
        prepare(net)
    period = PERIOD_TICKS * net.params.slot_cycles
    start = time.perf_counter()
    while net.cycle < cycles:
        for channel in channels:
            net.send_message(channel)
        net.run(min(period, cycles - net.cycle))
    return net, time.perf_counter() - start


def test_disabled_tracer_overhead_within_bound(report):
    """Observability guard: with tracing installed-then-disabled (and
    the snapshotter removed), the hot path must stay within 5% of the
    same run with tracing never installed — disabled instrumentation
    is one attribute test per emit site, nothing more."""
    cycles = 20_000

    def installed_then_disabled(net):
        net.enable_tracing()
        net.enable_snapshots(cycles // 4)
        net.disable_tracing()
        net.disable_snapshots()

    # Run the two configurations back to back within each round,
    # alternating which goes first, and judge each round on its own
    # ratio — so interpreter warmup, heap drift and ramping machine
    # load hit both configurations equally and a single quiet round
    # is enough to demonstrate the disabled path is free.
    ratios = []
    baseline = disabled = None
    baseline_net = disabled_net = None
    for round_index in range(4):
        order = ["baseline", "disabled"]
        if round_index % 2:
            order.reverse()
        seconds = {}
        for kind in order:
            if kind == "baseline":
                baseline_net, seconds[kind] = _timed_idle_heavy(cycles)
            else:
                disabled_net, seconds[kind] = _timed_idle_heavy(
                    cycles, prepare=installed_then_disabled)
        ratios.append(seconds["disabled"] / seconds["baseline"])
        baseline = min(baseline or seconds["baseline"], seconds["baseline"])
        disabled = min(disabled or seconds["disabled"], seconds["disabled"])

    assert _delivery_digest(baseline_net) == _delivery_digest(disabled_net)
    assert disabled_net.tracer is None
    overhead = min(ratios) - 1.0
    # 5% relative bound on the best round's paired ratio, plus a small
    # absolute epsilon so timer noise cannot flake the gate.
    assert overhead <= 0.05 or disabled <= baseline + 0.05, (
        f"disabled-tracer runs exceed 5% over the paired baseline in "
        f"every round (best ratio {min(ratios):.3f}, best times "
        f"disabled {disabled:.3f}s vs baseline {baseline:.3f}s)"
    )

    report("tracing_overhead", fmt_table(
        ["configuration", "seconds (best of 4)"], [
            ["tracing never installed", f"{baseline:.3f}"],
            ["tracer installed, disabled", f"{disabled:.3f}"],
        ]) + [
        "",
        f"workload: idle-heavy 8x8 mesh, {cycles} cycles",
        f"overhead: {overhead * 100:+.1f}% best paired round "
        f"(gate: +5% plus 50 ms epsilon)",
    ])
