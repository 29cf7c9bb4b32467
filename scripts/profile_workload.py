#!/usr/bin/env python3
"""Where one benchmark instance spends its time, and on how many units.

    python3 scripts/profile_workload.py <workload> [--seed N]
                                        [--root CHECKOUT] [--top K]

Runs three bench-size instances of one ``benchmarks/perf/workloads.py``
workload.  The first warms the interpreter up and, through counting
shims on a few class attributes, yields the per-instance *unit counts*
an optimisation is costed against (working router steps, byte-hops,
objects built per byte, frame bytes taken or moved one at a time, bus
requests against ``grant`` calls,
``next_event_cycle`` probes against deliveries, dormant replays
against the queue steps inside them, occupancy reads against
recomputations).  The second stops
where its build ends and yields the *build-phase units*: the memory the
built instance holds (``tracemalloc``) and the gc-tracked objects it
made, per router.  The third runs under ``cProfile`` with no shim
installed and prints the top-K functions by self time.  ``cProfile``
taxes every Python call and sees no allocation, so read its table for
*shares*, and take speeds from ``benchmarks/perf/run.py``.

``--root`` profiles another checkout's ``src`` and unmodified
``benchmarks/perf/workloads.py`` with this script, so a parent commit
that predates it can be measured the same way.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent


@contextmanager
def counting(counts: dict):
    """Count calls of a few class attributes for one instance.

    Installed before the network is built: the engine looks
    ``next_event_cycle`` up once, at registration.
    """
    from repro.channels.admission import AdmissionController
    from repro.core.comparator_tree import SchedulerPipeline
    from repro.core.input_side import InputSide
    from repro.core.output_side import OutputSide
    from repro.core.packet import Phit
    from repro.core.packet_memory import ChunkBus
    from repro.core.router import LinkSignal, RealTimeRouter
    from repro.network.node import HostNode

    patched = []

    def count_calls(owner, attribute, key):
        original = vars(owner)[attribute]
        counts[key] = 0

        def shim(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        patched.append((owner, attribute, original))
        setattr(owner, attribute, shim)

    count_calls(Phit, "__init__", "Phit built")
    # What a frame costs per byte: a byte framed by ``_accept_tc_byte``
    # on its own, and a framed stream's bytes moved by one call.
    count_calls(InputSide, "_accept_tc_byte", TAKEN_ALONE)
    count_calls(OutputSide, "_move_frame", MOVED_ALONE)
    count_calls(LinkSignal, "__init__", "LinkSignal built")
    count_calls(ChunkBus, "request", "bus requests")
    count_calls(ChunkBus, "grant", "bus grant calls")
    count_calls(RealTimeRouter, "next_event_cycle",
                "router next_event_cycle calls")
    count_calls(HostNode, "next_event_cycle",
                "host next_event_cycle calls")
    count_calls(AdmissionController, "occupancy", "occupancy reads")
    # A checkout that remembers the summary recomputes it here; one
    # that does not recomputes it on every read.
    remembers = "_measure_occupancy" in vars(AdmissionController)
    if remembers:
        count_calls(AdmissionController, "_measure_occupancy",
                    OCCUPANCY_MEASURED)

    # The dormant replay, and the queue bookkeeping steps it takes.
    replay, advance = SchedulerPipeline.replay, SchedulerPipeline._advance
    counts["replay calls"] = counts[REPLAY_ADVANCES] = 0
    replaying = [False]

    def counted_replay(pipeline, *args):
        counts["replay calls"] += 1
        replaying[0] = True
        try:
            return replay(pipeline, *args)
        finally:
            replaying[0] = False

    def counted_advance(pipeline, cycle):
        counts[REPLAY_ADVANCES] += replaying[0]
        return advance(pipeline, cycle)

    patched.append((SchedulerPipeline, "replay", replay))
    SchedulerPipeline.replay = counted_replay
    patched.append((SchedulerPipeline, "_advance", advance))
    SchedulerPipeline._advance = counted_advance

    step = RealTimeRouter.step
    counts["router steps"] = counts["working router steps"] = 0
    counts[FRAME_ONLY] = 0
    # Per executed cycle: [working router steps, frame-only ones, whether
    # a host stepped too].
    cycles: dict = {}

    def counted_step(router, cycle=None):
        frame_only = cycle is not None and frames_only(router, cycle)
        # The chunk bus counts exactly the cycles its router worked.
        before = router.bus.total_cycles
        step(router, cycle)
        counts["router steps"] += 1
        worked = router.bus.total_cycles != before
        counts["working router steps"] += worked
        if worked and cycle is not None:
            tally = cycles.setdefault(cycle, [0, 0, False])
            tally[0] += 1
            tally[1] += frame_only
            counts[FRAME_ONLY] += frame_only

    host_step = HostNode.step

    def counted_host_step(host, cycle):
        cycles.setdefault(cycle, [0, 0, False])[2] = True
        host_step(host, cycle)

    patched.append((RealTimeRouter, "step", step))
    RealTimeRouter.step = counted_step
    patched.append((HostNode, "step", host_step))
    HostNode.step = counted_host_step
    try:
        yield
    finally:
        for owner, attribute, original in patched:
            setattr(owner, attribute, original)
        if not remembers:
            counts[OCCUPANCY_MEASURED] = counts["occupancy reads"]
        counts[FRAME_CYCLES] = sum(
            1 for working, frame_only, host in cycles.values()
            if working and frame_only == working and not host)


#: The units a frame lookahead is costed against.
FRAME_ONLY = ("frame-only working steps (a committed frame's bytes "
              "crossing a link, the injection or the reception port)")
FRAME_CYCLES = "cycles made only of frame-only working steps"
#: The units a frame hop is costed against, beside ``Phit`` built.
TAKEN_ALONE = "TC bytes taken one at a time"
MOVED_ALONE = "frame bytes moved one at a time"
#: The units a dormant wait and the service tick are costed against.
REPLAY_ADVANCES = "_advance calls inside replay"
OCCUPANCY_MEASURED = "occupancy recomputations"


def frames_only(router, cycle: int) -> bool:
    """Whether the working step ``router`` is about to take at ``cycle``
    does nothing but move the bytes of committed time-constrained
    frames: read from the state it starts from, the same way for any
    checkout.  Every byte it moves is one of a frame whose bytes are
    all inside the chip or its synchroniser, none completes a frame or
    a stream, no decision is asked for, and nothing else is inside.

    The router is not settled first (a settle moves the bytes a step
    would, and would be counted as moving them): a framed stream's
    and the host packet's progress is read from their timing."""
    from repro.core.params import MESH_LINKS

    size = router.params.tc_packet_bytes
    pipeline = router.pipeline
    lead = pipeline.latency + pipeline.initiation_interval
    if (router.bus.pending() or pipeline.busy or router.delivered
            or router._pipeline_lag is not None):
        return False
    moving = False
    for signal in router.link_in:
        if signal.ack or (signal.phit is not None
                          and signal.phit.vc != "TC"):
            return False
        moving = moving or signal.phit is not None
    counts = router.eligible_count
    for port, output in enumerate(router.outputs.ports):
        if (output.be_staging or output.be_rx
                or output.bound_input is not None):
            return False
        stream = output.tc_stream
        if stream is None:
            if output.held is not None or counts[port] or output.tc_rx:
                return False
            continue
        sent = stream.sent
        base = getattr(stream, "base", None)
        if base is not None:  # framed: byte i leaves on cycle base + i
            sent = max(sent, min(cycle - base, size - 1))
        if (stream.slot < 0 or sent >= size - 1
                or stream.sent + len(stream.staging) != size):
            return False
        if (counts[port] and output.held is None
                and size - sent - 1 <= lead):
            return False  # asks for its successor's decision
        moving = True
    inputs = router.inputs
    if inputs.be_inject_queue or inputs.be_inject_phits:
        return False
    # The host packet being fed: a checkout that holds it as phits, or
    # as one run (``tc_inject``) fed by cycle.
    phits = getattr(inputs, "tc_inject_phits", None)
    if phits is not None:
        feeding = bool(phits)
        base = getattr(inputs, "inject_base", None)
        completes = feeding and (phits[0].index >= size - 1
                                 or base is not None
                                 and base + size - 1 <= cycle)
    else:
        run = inputs.tc_inject
        feeding = run is not None
        completes = feeding and (run.ready is None
                                 or run.last_ready <= cycle)
    if feeding:
        if router.cut_through or completes:
            return False
        moving = True
    elif inputs.tc_inject_queue:
        return False
    for number, port in enumerate(inputs.ports):
        if (port.cut_port is not None or port.headers
                or port.buffer.occupancy or port.pending_acks):
            return False
        # ``(ready, phit)`` per byte, or (a checkout that hands frames
        # over as runs) ``(ready of its last byte, run)``.
        for ready, entry in port.sync:
            end = entry.index + len(getattr(entry, "data", b"?")) - 1
            if (entry.vc != "TC" or router.cut_through
                    or (ready <= cycle and end == size - 1)):
                return False
            moving = True
        if (port.rx_bytes and not port.sync and number < MESH_LINKS
                and router.link_in[number].phit is None):
            return False
    return moving


def unit_counts(run, counts: dict) -> dict:
    """The shim counts plus what the finished network says of itself."""
    from repro.core.params import OUTPUT_PORTS

    net = run.net
    counts["byte-hops (bytes driven, all output ports)"] = sum(
        sum(router.output_service(port)) for router in net.routers.values()
        for port in range(OUTPUT_PORTS))
    counts["deliveries"] = len(net.log.records)
    counts["cycles stepped"] = net.engine.cycles_stepped
    return counts


class _BuildDone(Exception):
    """Stops the build-phase instance at its first simulated cycle."""


def build_units(execute, seed: int, size: dict) -> tuple[float, int]:
    """MiB held (``tracemalloc``) and gc-tracked objects made by one
    instance when its build ends; its drive is not run."""
    held: dict = {}
    gc.collect()
    before = len(gc.get_objects())

    def end_of_build() -> None:
        held["MiB"] = tracemalloc.get_traced_memory()[0] / 2**20
        held["objects"] = len(gc.get_objects()) - before
        raise _BuildDone

    tracemalloc.start()
    try:
        execute(seed, size, end_of_build)
    except _BuildDone:
        pass
    finally:
        tracemalloc.stop()
    return held["MiB"], held["objects"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", type=Path, default=HERE.parent)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"),
                    str(args.root / "benchmarks" / "perf")]
    import workloads

    if args.workload not in workloads.EXECUTE:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(workloads.EXECUTE)})")
    execute = workloads.EXECUTE[args.workload]
    size = workloads.SIZES[args.workload]["bench"]

    counts: dict = {}
    with counting(counts):
        run = execute(args.seed, size, lambda: None)
    unit_counts(run, counts)
    print(f"{args.workload} seed={args.seed} root={args.root}")
    print("\nunit counts of one instance:")
    for key, value in counts.items():
        print(f"  {value:>10,}  {key}")
    steps = counts["working router steps"]
    hops = counts["byte-hops (bytes driven, all output ports)"]
    if steps and hops:
        print(f"  {hops / steps:>10.2f}  byte-hops per working step")
        built = counts["Phit built"] + counts["LinkSignal built"]
        print(f"  {built / hops:>10.2f}  Phit + LinkSignal objects built "
              "per byte-hop")

    mib, objects = build_units(execute, args.seed, size)
    routers = len(run.net.routers)
    print("\nbuild phase of one more instance (stopped at its first cycle):")
    print(f"  {mib:>10.2f}  MiB held (tracemalloc)")
    print(f"  {objects / routers:>10.1f}  gc-tracked objects per router "
          f"({objects:,} made, {routers} routers)")

    marks: list[float] = []
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    execute(args.seed, size, lambda: marks.append(time.perf_counter()))
    profile.disable()
    end = time.perf_counter()
    drive_from = marks[0] if marks else start
    print(f"\nprofiled instance: build {drive_from - start:.2f} s, "
          f"drive {end - drive_from:.2f} s (under cProfile)")
    print(f"top {args.top} functions by self time:")
    stats = pstats.Stats(profile)
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][2])
    print(f"  {'self s':>8} {'cum s':>8} {'calls':>10}  function")
    for (filename, line, name), (_, calls, self_s, cum_s, _) \
            in rows[:args.top]:
        where = filename
        for anchor in ("/src/", "/benchmarks/"):
            if anchor in filename:
                where = filename.split(anchor, 1)[1]
        print(f"  {self_s:>8.3f} {cum_s:>8.3f} {calls:>10,}  "
              f"{where}:{line}({name})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
