#!/usr/bin/env python3
"""Where one benchmark instance spends its time, and on how many units.

    python3 scripts/profile_workload.py <workload> [--seed N]
                                        [--root CHECKOUT] [--top K]

Runs two bench-size instances of one ``benchmarks/perf/workloads.py``
workload.  The first warms the interpreter up and, through counting
shims on a few class attributes, yields the per-instance *unit counts*
an optimisation is costed against (working router steps, byte-hops,
objects built per byte, bus requests against ``grant`` calls,
``next_event_cycle`` probes against deliveries).  The second runs under
``cProfile`` with no shim installed and prints the top-K functions by
self time.  ``cProfile`` taxes every Python call, so read its table for
*shares*, and take speeds from ``benchmarks/perf/run.py``.

``--root`` profiles another checkout's ``src`` and unmodified
``benchmarks/perf/workloads.py`` with this script, so a parent commit
that predates it can be measured the same way.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent


@contextmanager
def counting(counts: dict):
    """Count calls of a few class attributes for one instance.

    Installed before the network is built: the engine looks
    ``next_event_cycle`` up once, at registration.
    """
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
    count_calls(LinkSignal, "__init__", "LinkSignal built")
    count_calls(ChunkBus, "request", "bus requests")
    count_calls(ChunkBus, "grant", "bus grant calls")
    count_calls(RealTimeRouter, "next_event_cycle",
                "router next_event_cycle calls")
    count_calls(HostNode, "next_event_cycle",
                "host next_event_cycle calls")

    step = RealTimeRouter.step
    counts["router steps"] = counts["working router steps"] = 0

    def counted_step(router, cycle=None):
        # The chunk bus counts exactly the cycles its router worked.
        before = router.bus.total_cycles
        step(router, cycle)
        counts["router steps"] += 1
        counts["working router steps"] += router.bus.total_cycles != before

    patched.append((RealTimeRouter, "step", step))
    RealTimeRouter.step = counted_step
    try:
        yield
    finally:
        for owner, attribute, original in patched:
            setattr(owner, attribute, original)


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
