#!/usr/bin/env python3
"""What the benchmark workloads *simulated*, as one sha256 per instance.

    python3 scripts/behaviour_digest.py [--seed N ...] [--workload W ...]
                                        [--smoke] [--documents]
                                        [--root CHECKOUT]

Prints ``<workload> seed=<n> <sha256>`` for every workload and seed: the
hash of every delivery record (the eleven fields ``sim_signature``
hashes), ``fault_counters().as_dict()`` and ``report.signature()`` —
behaviour only, none of the simulator-effort counters the ledger's
``sim_signature`` also folds in.  Two checkouts simulate the same thing
exactly when their outputs are equal; ``--root`` runs another checkout's
``src`` and ``benchmarks/perf/workloads.py`` (unmodified) with this
script, so a parent commit that predates it can be digested too.

``--documents`` appends a second hash per line: every router's
checkpoint document (``state()`` with its meta table) as it stands at
two fixed cycles inside the run and at its end — for a change that
must leave the chip's state byte-identical, not only its deliveries.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent


def digest(run, canonical_dumps) -> str:
    net = run.net
    payload = {
        "records": [
            [r.traffic_class, r.source, r.destination, r.injected_cycle,
             r.delivered_cycle, r.connection_label, r.sequence,
             r.absolute_deadline, r.deadline_met, r.delivered_node,
             r.duplicate]
            for r in net.log.records
        ],
        "faults": net.fault_counters().as_dict(),
        "report": (run.report.signature()
                   if run.report is not None else None),
    }
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


class DocumentProbe:
    """An engine component that hashes every router document at two
    fixed cycles (after the routers' steps of that cycle) and, asked
    to, at the end."""

    def __init__(self, net, horizon: int, canonical_dumps) -> None:
        self.net = net
        self.stops = (horizon // 40, horizon // 10)
        self.dumps = canonical_dumps
        self.sha = hashlib.sha256()

    def next_event_cycle(self, cycle: int):
        return next((stop for stop in self.stops if stop >= cycle), None)

    def step(self, cycle: int) -> None:
        if cycle in self.stops:
            self.take()

    def take(self) -> None:
        from repro.checkpoint.codec import SaveContext

        for router in self.net.routers.values():
            ctx = SaveContext()
            document = router.state(ctx)
            self.sha.update(self.dumps(
                [document, ctx.metas_state()]).encode())


@contextmanager
def probed_networks(horizon: int, canonical_dumps):
    """Give every ``MeshNetwork`` built inside the block a
    :class:`DocumentProbe` (from outside: ``--root`` checkouts are run
    unmodified); yields the list the probes are collected in."""
    from repro.network.network import MeshNetwork

    probes = []
    construct = MeshNetwork.__init__

    def construct_probed(net, *args, **kwargs):
        construct(net, *args, **kwargs)
        probes.append(DocumentProbe(net, horizon, canonical_dumps))
        net.engine.add_component(probes[-1], local=True)

    MeshNetwork.__init__ = construct_probed
    try:
        yield probes
    finally:
        MeshNetwork.__init__ = construct


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--documents", action="store_true")
    parser.add_argument("--root", type=Path, default=HERE.parent)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"),
                    str(args.root / "benchmarks" / "perf")]
    import workloads
    from repro.campaign.spec import canonical_dumps
    from repro.core.packet import load_packet_id_counter_state

    size = "smoke" if args.smoke else "bench"
    for name in args.workload or list(workloads.EXECUTE):
        instance = workloads.SIZES[name][size]
        for seed in args.seed or [1]:
            # Documents carry packet ids, drawn from a process-wide
            # counter: every instance starts it from zero.
            load_packet_id_counter_state(0)
            with (probed_networks(instance["horizon"], canonical_dumps)
                  if args.documents else nullcontext([])) as probes:
                run = workloads.EXECUTE[name](seed, instance, lambda: None)
            line = f"{name} seed={seed} {digest(run, canonical_dumps)}"
            for probe in probes:
                if probe.net is run.net:
                    probe.take()
                    line += f" documents={probe.sha.hexdigest()}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
