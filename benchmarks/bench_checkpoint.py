"""Checkpoint overhead: periodic crash-consistent saves must be cheap.

Acceptance gate for the checkpoint subsystem (``repro.checkpoint``): at
the default 100k-cycle interval, a checkpointing run of the idle-heavy
mesh workload stays within 5% of the plain run — serialising the full
network state and fsyncing it to disk a handful of times per hundred
thousand cycles is noise next to the simulation itself.
"""

import dataclasses
import time

from conftest import fmt_table

from repro.channels.spec import TrafficSpec
from repro.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    CheckpointStore,
    SaveContext,
    fingerprint_of,
)
from repro.network.network import MeshNetwork

CYCLES = 300_000
#: Every channel sends once per this many ticks.
PERIOD_TICKS = 256


def _build_idle_heavy():
    """4x4 mesh, four low-rate corner-to-corner channels: mostly idle,
    dominated by skipped spans — the long-simulation shape checkpointing
    is for."""
    net = MeshNetwork(4, 4)
    endpoints = [((0, 0), (3, 3)), ((3, 0), (0, 3)),
                 ((0, 3), (3, 0)), ((3, 3), (0, 0))]
    channels = [
        net.establish_channel(source, destination,
                              TrafficSpec(i_min=PERIOD_TICKS), deadline=45,
                              label=f"bench{index}")
        for index, (source, destination) in enumerate(endpoints)]
    return net, channels


def _run_to(net, channels, target):
    """Run to cycle ``target``, every channel sending at the top of
    each period."""
    period = PERIOD_TICKS * net.params.slot_cycles
    while net.cycle < target:
        if net.cycle % period == 0:
            for channel in channels:
                net.send_message(channel)
        net.run(min(target, (net.cycle // period + 1) * period)
                - net.cycle)


def _timed_run(store=None, interval=DEFAULT_CHECKPOINT_INTERVAL):
    net, channels = _build_idle_heavy()
    saves = 0
    start = time.perf_counter()
    if store is None:
        _run_to(net, channels, CYCLES)
    else:
        while net.cycle < CYCLES:
            boundary = (net.cycle // interval + 1) * interval
            _run_to(net, channels, min(CYCLES, boundary))
            if net.cycle % interval == 0:
                ctx = SaveContext()
                state = {"network": net.state(ctx)}
                state["metas"] = ctx.metas_state()
                store.save(net.cycle, state)
                saves += 1
    return net, time.perf_counter() - start, saves


def _delivery_digest(net):
    """Delivery records minus ``packet_id`` (a process-global counter,
    so two runs in one process draw different ids)."""
    return [tuple(getattr(record, field.name)
                  for field in dataclasses.fields(record)
                  if field.name != "packet_id")
            for record in net.log.records]


def test_checkpoint_overhead_within_bound(report, tmp_path):
    """Gate: checkpointing every 100k cycles costs <= 5% on the
    idle-heavy workload, and does not perturb the simulation."""
    store = CheckpointStore(
        tmp_path / "ckpts", "idle",
        fingerprint_of({"workload": "idle-heavy", "cycles": CYCLES}))

    # Run the two configurations back to back within each round,
    # alternating which goes first, and judge each round on its own
    # ratio — interpreter warmup and machine-load drift hit both
    # configurations equally, so one quiet round suffices.
    ratios = []
    baseline = checkpointed = None
    baseline_net = checkpointed_net = None
    saves = 0
    for round_index in range(2):
        order = ["baseline", "checkpointed"]
        if round_index % 2:
            order.reverse()
        seconds = {}
        for kind in order:
            if kind == "baseline":
                baseline_net, seconds[kind], __ = _timed_run()
            else:
                store.clear()
                checkpointed_net, seconds[kind], saves = _timed_run(store)
        ratios.append(seconds["checkpointed"] / seconds["baseline"])
        baseline = min(baseline or seconds["baseline"],
                       seconds["baseline"])
        checkpointed = min(checkpointed or seconds["checkpointed"],
                           seconds["checkpointed"])

    assert saves == CYCLES // DEFAULT_CHECKPOINT_INTERVAL
    assert store.latest() is not None
    assert _delivery_digest(baseline_net) == _delivery_digest(
        checkpointed_net)
    overhead = min(ratios) - 1.0
    # 5% relative bound on the best round's paired ratio, plus a small
    # absolute epsilon so timer noise cannot flake the gate.
    assert overhead <= 0.05 or checkpointed <= baseline + 0.05, (
        f"checkpointing exceeds 5% over the paired baseline in every "
        f"round (best ratio {min(ratios):.3f}, best times "
        f"checkpointed {checkpointed:.3f}s vs baseline {baseline:.3f}s)"
    )

    report("checkpoint_overhead", fmt_table(
        ["configuration", "seconds (best of 2)"], [
            ["plain run", f"{baseline:.3f}"],
            [f"checkpoint every {DEFAULT_CHECKPOINT_INTERVAL:,} cycles",
             f"{checkpointed:.3f}"],
        ]) + [
        "",
        f"workload: idle-heavy 4x4 mesh, {CYCLES:,} cycles, "
        f"{saves} checkpoints per run",
        f"overhead: {overhead * 100:+.1f}% best paired round "
        f"(gate: +5% plus 50 ms epsilon)",
        "(delivery records identical with and without checkpointing)",
    ])
